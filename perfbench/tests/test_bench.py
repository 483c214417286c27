"""Tests of the benchmark's own checks and of its result contract.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They start real servers and batch children at smoke lengths (about a
minute in all).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402
from serve_bench import run_serve  # noqa: E402

SMOKE_SECONDS = 1.0


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


# -- the byte-flipping server is caught --------------------------------------

@pytest.mark.parametrize("workload", ["serve-render", "serve-cached"])
def test_flipped_pages_count_as_failed(workload):
    result = run_serve(workload, seed=3, seconds=SMOKE_SECONDS,
                       trace=False, flip_byte=True)
    assert result["failed"] > 0
    assert not result["correct"]
    if workload == "serve-cached":
        # every response of a cached page is compared
        assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("skew", [7, -7])
@pytest.mark.parametrize("workload", ["serve-render", "serve-cached"])
def test_misstated_lengths_count_as_failed(workload, skew):
    # +7: the body ends short of the header and the client times out;
    # -7: bytes follow the body the header announced
    result = run_serve(workload, seed=3, seconds=SMOKE_SECONDS,
                       trace=False, length_skew=skew, timeout_s=0.25)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_true_pages_pass():
    result = run_serve("serve-cached", seed=3, seconds=SMOKE_SECONDS,
                       trace=False)
    assert result["failed"] == 0 and result["correct"]


# -- doctored simulator reports are caught -----------------------------------

@pytest.fixture(scope="module")
def fleet_report():
    from repro.fleet.cache_tier import CacheTierConfig
    from repro.fleet.simulator import FleetConfig, run_fleet
    from repro.fleet.topology import homogeneous_fleet

    topology = homogeneous_fleet(
        "t", [0.9, 1.0, 1.1], nodes=2,
        cache=CacheTierConfig(shards=2, shard_capacity=32))
    return run_fleet(topology, FleetConfig(requests=400, max_queue=4,
                                           offered_load=1.3), seed=5)


def test_fleet_conservation_holds(fleet_report):
    assert checks.check_fleet(fleet_report, 400) == []


@pytest.mark.parametrize("field", ["completed", "shed"])
def test_fleet_conservation_break_is_caught(fleet_report, field):
    doctored = dataclasses.replace(
        fleet_report, **{field: getattr(fleet_report, field) + 1})
    assert checks.check_fleet(doctored, 400)


def test_overload_and_resilience_breaks_are_caught():
    from repro.fleet.overload import (
        overload_topology,
        run_overload,
        undefended_config,
    )
    from repro.resilience.faults import FaultScenario
    from repro.resilience.policies import full_policy
    from repro.resilience.simulator import ResilientServerConfig, run_matrix

    over = run_overload(overload_topology(), undefended_config(True),
                        seed=2, scenario="undefended")
    assert checks.check_overload(over) == []
    assert checks.check_overload(
        dataclasses.replace(over, failures=over.failures - 1))
    reps = run_matrix([1.0, 1.2], [3.0, 3.6],
                      [FaultScenario("f", accel_fault_rate=0.1)],
                      [full_policy()],
                      ResilientServerConfig(requests=200), seed=2)
    assert checks.check_resilience(reps, 200) == []
    assert checks.check_resilience(
        [dataclasses.replace(reps[0], shed=reps[0].shed + 1)], 200)


def test_queue_check_against_pollaczek_khinchine():
    from repro.common.rng import DeterministicRng
    from repro.workloads.server import ServerConfig, WebServerSimulator

    times = [0.5, 1.0, 1.5, 2.0]
    sim = WebServerSimulator(times, ServerConfig(workers=1,
                                                 requests=20_000),
                             DeterministicRng(4))
    served = sim.run(0.5)
    assert checks.check_queue(served, times, 0.5, 20_000) == []
    # the same waits read against another load are far from P-K
    assert checks.check_queue(served, times, 0.8, 20_000)
    assert checks.check_queue(served[:-1], times, 0.5, 20_000)


# -- tracing -------------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    tr = tracing.Tracer()

    def leaf():
        return sum(range(20_000))

    traced_leaf = tr.wrap("leaf", leaf)
    outer = tr.wrap("outer", lambda: [traced_leaf() for _ in range(3)],
                    keep=True)
    outer()
    agg = tr.aggregates()
    assert agg["leaf"]["calls"] == 3
    assert agg["outer"]["self_ns"] == (agg["outer"]["total_ns"]
                                       - agg["leaf"]["total_ns"])
    spans = [dict(zip(("id", "name", "start_ns", "end_ns", "parent",
                       "request"), s)) for s in tr.spans()]
    assert len(spans) == 1 and spans[0]["name"] == "outer"


# -- host-speed scaling ---------------------------------------------------------

def test_host_scaling_divides_out_a_slow_host():
    import refloop
    from common import refloop_scaled

    # slices twice the nominal time: the host ran at half speed
    factor = refloop.host_factor([2 * refloop.REF_NOMINAL_S] * 3)
    assert factor == pytest.approx(0.5)
    scaled = refloop_scaled({"throughput_rps": 100.0,
                             "latency_p50_ms": 8.0}, factor)
    assert scaled == pytest.approx({"throughput_rps": 200.0,
                                    "latency_p50_ms": 4.0})


# -- the result contract -------------------------------------------------------

@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["serve-render", "serve-cached",
                                      "sim-fleet", "paper-eval"])
def test_smoke_run_of_every_workload(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "7",
                   "--seconds", str(SMOKE_SECONDS), "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = PER_LAYER if trace == "1" else END_TO_END
    assert set(result["metrics"]) == set(table)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli("--workload", "sim-fleet", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
