"""Steadiness command: run one workload k times and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload serve-render --runs 10 \\
        [--first-seed 1] [--seconds 30] [--trace 0]

Each run is a fresh ``perfbench/run.py`` process with the next seed. For
every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share
of the median, and the largest relative spread (max - min over the
median). It also prints the host's CPU count, the Python version and the
share of CPU time the hypervisor stole while the runs went on. With
``--trace 0`` it says whether each end-to-end metric's quartile spread is
within its bound in ``BENCHMARK.json``, and within a third of it. The
last line is the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from common import steal_share  # noqa: E402
from layers import BOUNDS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"run failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("unscaled "):
            out["unscaled"] = json.loads(line.split(" ", 1)[1])
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    scale = abs(med) if med else 1.0
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / scale,
            "range_share": (max(values) - min(values)) / scale,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    results = []
    steal0, total0 = steal_share()
    for i in range(args.runs):
        seed = args.first_seed + i
        out = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(out)
        print(f"seed {seed}: correct={out['correct']} "
              f"attempted={out['attempted']} failed={out['failed']}",
              flush=True)
    steal1, total1 = steal_share()
    steal = (steal1 - steal0) / max(total1 - total0, 1)
    print(f"host: {os.cpu_count()} cpus, Python {sys.version.split()[0]}, "
          f"steal {steal:.2%} of all CPU time during the runs")
    limits = BOUNDS if not args.trace else {}
    summary = {"workload": args.workload, "runs": args.runs,
               "first_seed": args.first_seed, "seconds": args.seconds,
               "trace": args.trace, "steal_share": steal,
               "failed_shares": [r["failed"] / r["attempted"]
                                 for r in results],
               "metrics": {}}
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9}  bound")
    for name, first in results[0]["metrics"].items():
        stats = summarize([r["metrics"][name]["value"] for r in results])
        stats["unit"] = first["unit"]
        verdict = ""
        if name in limits:
            bound = limits[name]
            stats["bound"] = bound
            verdict = (f"{bound:.2f} "
                       + ("ok" if stats["iqr_share"] <= bound / 3
                          else "within" if stats["iqr_share"] <= bound
                          else "OVER"))
        summary["metrics"][name] = stats
        print(f"{name:<36} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
              f"{stats['q3']:>12.6g} {stats['iqr_share']:>8.2%} "
              f"{stats['range_share']:>9.2%}  {verdict}")
    if "unscaled" in results[0]:
        # the same runs before host-speed scaling (``refloop``)
        summary["unscaled"] = {}
        for name in results[0]["unscaled"]:
            stats = summarize([r["unscaled"][name] for r in results])
            summary["unscaled"][name] = stats
            print(f"unscaled {name:<27} {stats['median']:>12.6g} "
                  f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} "
                  f"{stats['iqr_share']:>8.2%} {stats['range_share']:>9.2%}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
