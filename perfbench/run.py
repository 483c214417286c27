"""Run one benchmark workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-render --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``serve-render``, ``serve-cached``, ``sim-fleet``,
``paper-eval`` (README.md says what each one runs and why). With
``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` a traced run carries the per-layer metrics, and a table of
them is printed first. ``--kernel-base`` picks the backend the traced
kernels wrap (``optimized`` or ``bulk``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when a result was printed; without the program's sources next to the
benchmark (``src/repro``) it is 2 and nothing is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    SETUP_REPEATS,
    SETUP_TIMEOUT_S,
    WORKLOADS,
    median,
    program_present,
    read_json_line,
    spawn,
    stop,
    use_program_path,
)
from layers import PER_LAYER, metrics_block  # noqa: E402

#: a batch child must finish its window, checks and report in this time
BATCH_TIMEOUT_S = 150.0


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              kernel_base: str) -> dict:
    """Time ``SETUP_REPEATS`` fresh set-ups; the last child also runs."""
    args = [str(BENCH_DIR / "batch_main.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--kernel-base", kernel_base]
    setups = []
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        proc = spawn(args if last else [*args, "--setup-only"])
        try:
            read_json_line(proc, SETUP_TIMEOUT_S)
            setups.append(time.perf_counter() - t0)
            if last:
                result = read_json_line(proc, BATCH_TIMEOUT_S + seconds)
            proc.wait(SETUP_TIMEOUT_S)
        finally:
            stop(proc)
    if not trace:
        # set-up is not scaled: it runs in fresh processes before the
        # window, away from the slices (README: Host speed)
        result["values"]["setup_s"] = median(setups)
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 kernel_base: str = "optimized") -> dict:
    if workload.startswith("serve-"):
        from serve_bench import run_serve
        return run_serve(workload, seed, seconds, trace, kernel_base)
    return run_batch(workload, seed, seconds, trace, kernel_base)


def format_layers(workload: str, values: dict) -> str:
    lines = [f"per-layer table, {workload} (traced run)",
             f"{'metric':<40} {'value':>14}  unit"]
    for name, (unit, _better) in PER_LAYER.items():
        value = values.get(name, 0.0)
        if value:
            lines.append(f"{name:<40} {value:>14.6g}  {unit}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kernel-base", default="optimized",
                        choices=("optimized", "bulk"))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not program_present():
        print("perfbench: no program sources (src/repro) next to the "
              "benchmark; nothing to measure", file=sys.stderr)
        return 2
    use_program_path()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.kernel_base)
    for problem in result.get("problems", ()):
        print(f"perfbench: failed check: {problem}", file=sys.stderr)
    print(f"{args.workload}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {result['samples']} samples in "
          f"{result['window_s']:.3f} s")
    if args.trace:
        print(format_layers(args.workload, result["values"]))
    else:
        # the figures before host-speed scaling, for reading by hand
        print("unscaled " + json.dumps(
            {**result["raw"], "setup_s": result["values"]["setup_s"],
             "host_factor": result["host_factor"]}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics_block(result["values"], bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
