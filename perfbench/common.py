"""Helpers shared by the benchmark's parent and child processes.

Everything here is stdlib-only and importable without the program
(``src/repro``) on the path: the parent process measures the program
from outside, through ``/proc`` and sockets.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: per-run outputs (telemetry, spans); gitignored
OUT_DIR = ROOT / ".bench_out"
#: the benchmark's declaration: workloads, metrics, units and bounds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: runnable by hand but not a workload of ``BENCHMARK.json``: its
#: throughput follows the host's noise too closely to be bounded (README)
DIAGNOSTIC_WORKLOADS = ("serve-cached",)
WORKLOADS = (tuple(w["name"] for w in SPEC["workloads"])
             + DIAGNOSTIC_WORKLOADS)
#: fresh program processes set up per run; ``setup_s`` is their median
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_path() -> None:
    """Put ``src`` on ``sys.path`` so ``import repro`` resolves."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for program children: the program's defaults.

    ``REPRO_JOBS`` and ``REPRO_EXPCACHE`` are removed so the measured
    configuration is the one a caller gets without setting anything.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_JOBS", "REPRO_EXPCACHE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str]) -> subprocess.Popen:
    """Start ``python3 <args>`` from the checkout root, stdout piped."""
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )


def read_json_line(proc: subprocess.Popen, timeout_s: float) -> dict:
    """Next JSON line a child prints, or RuntimeError on timeout/exit."""
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("child did not answer in time")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"child exited with code {proc.wait()} before answering"
            )
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)


def stop(proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
    """SIGTERM, wait, and SIGKILL if it will not go."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


# -- /proc readers ---------------------------------------------------------

def _stat_fields(pid: int) -> Optional[list[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces; fields resume after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, from ``/proc/*/stat``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def tree_cpu_s(root: int) -> float:
    """User+system CPU of a process tree, reaped children included."""
    total = 0
    for pid in process_tree(root):
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime (stat fields 14-17)
            total += sum(int(f) for f in fields[11:15])
    return total / CLK_TCK


def tree_peak_rss_mb(root: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over a process tree."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def self_peak_rss_mb() -> float:
    return tree_peak_rss_mb(os.getpid())


def steal_share() -> tuple[int, int]:
    """(steal ticks, total ticks) from the aggregate ``/proc/stat`` line."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    ticks = [int(f) for f in fields[:8]]
    return ticks[7], sum(ticks)


# -- statistics ------------------------------------------------------------

def refloop_scaled(raw: dict[str, float], factor: float) -> dict:
    """End-to-end figures at the reference host speed (``refloop``):
    times multiplied by ``factor``, rates divided by it."""
    return {name: value / factor if name == "throughput_rps"
            else value * factor for name, value in raw.items()}


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return statistics.median(values)
