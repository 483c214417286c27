"""Output checks, each against a computation made apart from the program.

Every function returns a list of problems; an empty list means the
output passed. The benchmark counts an operation whose check returns a
problem as failed.

Tolerances, and why they are what they are:

* ``PK_TOLERANCE``: a single-worker FIFO queue's mean wait must be
  within 15% of the Pollaczek-Khinchine mean wait
  ``lambda * E[S^2] / (2 * (1 - rho))``. At 50,000 requests, 64
  service times uniform on [0.5, 2.0] and rho in {0.3, 0.5, 0.7},
  180 seeded cells measured 0.94-1.05 of it.
* ``PAPER_*``: the paper's published averages over its three
  applications (Fig. 14: 70.22% of the baseline time is left with the
  accelerators; Fig. 15: heap 7.29%, hash 6.45%, string 4.51%, regex
  1.96% saved). At ``requests=3`` the reproduction measured the spans
  given in README.md; the bands are those spans widened on each side.
"""

from __future__ import annotations

import hashlib

PK_TOLERANCE = 0.15

PAPER_TIME_WITH_ACCELERATORS = 0.7022
PAPER_TIME_BAND = 0.02
PAPER_BENEFITS = {"heap": 0.0729, "hash": 0.0645, "string": 0.0451,
                  "regex": 0.0196}
PAPER_BENEFIT_BAND = 0.012


def digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


def reference_page(app: str, seed: int, vary: int) -> tuple[bytes, int]:
    """Digest and byte length of the page rendered without the
    accelerator complex."""
    from repro.workloads.templates import render_http_page

    html, _ops = render_http_page(app, seed, vary, accelerated=False)
    body = html.encode("utf-8")
    return digest(body), len(body)


# -- simulators --------------------------------------------------------------

def check_fleet(report, requests: int) -> list[str]:
    """Every offered request is completed or shed."""
    problems = []
    if report.offered != requests:
        problems.append(f"fleet offered {report.offered} != {requests}")
    if report.completed + report.shed != report.offered:
        problems.append(
            f"fleet completed {report.completed} + shed {report.shed} "
            f"!= offered {report.offered}")
    return problems


def check_overload(report) -> list[str]:
    """Every client ends in goodput or in failure (sheds and timeouts
    are per attempt: a client whose attempts are all shed or timed out
    is a failure)."""
    if report.goodput + report.failures != report.arrivals:
        return [f"overload {report.scenario}: goodput {report.goodput} "
                f"+ failures {report.failures} != arrivals "
                f"{report.arrivals}"]
    return []


def check_resilience(reports, requests: int) -> list[str]:
    """Every offered request succeeds, fails or is shed."""
    problems = []
    for rep in reports:
        if rep.offered != requests:
            problems.append(
                f"resilience {rep.policy}: offered {rep.offered} != "
                f"{requests}")
        if rep.succeeded + rep.failed + rep.shed != rep.offered:
            problems.append(
                f"resilience {rep.policy}: succeeded {rep.succeeded} + "
                f"failed {rep.failed} + shed {rep.shed} != offered "
                f"{rep.offered}")
    return problems


def check_calibration(report) -> list[str]:
    if not report.ok:
        return [f"self_calibrate did not recover its ground truth "
                f"(mape={report.mape})"]
    return []


def pk_mean_wait(service_times: list[float], rho: float) -> float:
    n = len(service_times)
    mean = sum(service_times) / n
    second = sum(s * s for s in service_times) / n
    arrival_rate = rho / mean
    return arrival_rate * second / (2.0 * (1.0 - rho))


def check_queue(served, service_times: list[float], rho: float,
                requests: int) -> list[str]:
    """M/G/1: request count, latency decomposition, P-K mean wait."""
    problems = []
    if len(served) != requests:
        return [f"server sim served {len(served)} != {requests}"]
    if any(r.start < r.arrival or r.finish <= r.start for r in served):
        problems.append("server sim request timeline is not "
                        "arrival <= start < finish")
    waited = sum(r.start - r.arrival for r in served) / len(served)
    ratio = waited / pk_mean_wait(service_times, rho)
    if abs(ratio - 1.0) > PK_TOLERANCE:
        problems.append(f"mean wait {ratio:.3f} x P-K at rho={rho}")
    return problems


# -- paper pipeline ----------------------------------------------------------

def paper_averages(results) -> dict[str, float]:
    n = len(results)
    out = {"time_with_accelerators":
           sum(r.time_with_accelerators for r in results) / n}
    for key in PAPER_BENEFITS:
        out[key] = sum(r.benefits[key] for r in results) / n
    return out


def check_paper(results) -> list[str]:
    """Averages within the bands around the paper's figures, and the
    accelerated mode never spends more cycles than software."""
    problems = []
    avg = paper_averages(results)
    off = abs(avg["time_with_accelerators"] - PAPER_TIME_WITH_ACCELERATORS)
    if off > PAPER_TIME_BAND:
        problems.append(
            f"time with accelerators {avg['time_with_accelerators']:.4f} "
            f"outside {PAPER_TIME_WITH_ACCELERATORS} +- {PAPER_TIME_BAND}")
    for key, paper in PAPER_BENEFITS.items():
        if abs(avg[key] - paper) > PAPER_BENEFIT_BAND:
            problems.append(f"{key} benefit {avg[key]:.4f} outside "
                            f"{paper} +- {PAPER_BENEFIT_BAND}")
    for r in results:
        for key, cmp in r.comparisons.items():
            if cmp.accelerated.cycles > cmp.software.cycles:
                problems.append(
                    f"{r.app}/{key}: accelerated cycles "
                    f"{cmp.accelerated.cycles} > software "
                    f"{cmp.software.cycles}")
    return problems
