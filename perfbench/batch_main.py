"""The two batch workloads, run in a child process of their own.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python3 perfbench/batch_main.py --workload sim-fleet --seed 1 \\
        --seconds 10 [--trace 0|1] [--setup-only]

Prints ``{"setup_done": true}`` once the imports are done and the inputs
are built, then runs whole rounds until ``--seconds`` have passed and
prints the result as its last line. ``--setup-only`` exits after the
first line (the parent times several fresh set-ups per run).

``sim-fleet``: one round is every queueing event loop of the program
over fixed configurations at the round's seed -- ``run_fleet``,
``run_overload`` undefended and defended, the resilience
``run_matrix``, ``self_calibrate`` and ``WebServerSimulator.run`` at
three loads. ``paper-eval``: one round is ``full_evaluation`` (Figs.
14/15) at the round's seed, a seed no earlier round used, so the
experiment cache never answers.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refloop  # noqa: E402
from common import (  # noqa: E402
    OUT_DIR,
    percentile,
    refloop_scaled,
    self_peak_rss_mb,
    use_program_path,
)

#: ``full_evaluation(requests=...)``: three simulated requests per app
EVAL_REQUESTS = 3
EVAL_APPS = 3
FLEET_REQUESTS = 12_000
RESILIENCE_REQUESTS = 3_000
QUEUE_REQUESTS = 50_000
QUEUE_LOADS = (0.3, 0.5, 0.7)


def round_seed(seed: int, index: int) -> int:
    """Distinct per (run seed, round): no two rounds share a seed."""
    return seed * 100_003 + index


class SimFleet:
    """Inputs and one round of the sim-fleet workload."""

    def __init__(self, seed: int, tracer=None) -> None:
        from repro.calibrate.run import self_calibrate
        from repro.common.rng import DeterministicRng
        from repro.fleet.cache_tier import CacheTierConfig
        from repro.fleet.overload import (
            defended_config,
            overload_topology,
            run_overload,
            undefended_config,
        )
        from repro.fleet.simulator import FleetConfig, run_fleet
        from repro.fleet.topology import homogeneous_fleet
        from repro.resilience.faults import FaultScenario
        from repro.resilience.policies import (
            full_policy,
            no_policy,
            retries_only,
        )
        from repro.resilience.simulator import (
            ResilientServerConfig,
            run_matrix,
        )
        from repro.workloads.server import ServerConfig, WebServerSimulator

        rng = random.Random(f"sim-fleet/{seed}")
        self.rng_type = DeterministicRng
        fleet_times = [rng.uniform(0.7, 1.3) for _ in range(16)]
        self.topology = homogeneous_fleet(
            "bench-fleet", fleet_times, nodes=3,
            cache=CacheTierConfig(shards=2, shard_capacity=128))
        self.fleet_config = FleetConfig(
            requests=FLEET_REQUESTS, warmup_requests=200,
            offered_load=0.9, key_population=2_048, max_queue=32)
        self.overload_topology = overload_topology()
        self.overload_configs = (("undefended", undefended_config(True)),
                                 ("defended", defended_config(True)))
        self.resilience_times = [rng.uniform(0.7, 1.3) for _ in range(16)]
        self.resilience_soft = [t * 3.0 for t in self.resilience_times]
        self.scenarios = [FaultScenario(
            "bench-faults", accel_fault_rate=0.10,
            accel_fault_window_services=5.0)]
        self.policies = [no_policy(), retries_only(), full_policy()]
        self.resilience_config = ResilientServerConfig(
            workers=4, requests=RESILIENCE_REQUESTS, offered_load=0.6)
        self.queue_times = [rng.uniform(0.5, 2.0) for _ in range(64)]
        self.queue_config = ServerConfig(workers=1, requests=QUEUE_REQUESTS)
        self.queue_sim = WebServerSimulator

        def wrap(loop, fn):
            if tracer is None:
                return fn
            return tracer.wrap(f"sim.{loop}", fn, keep=True)

        self.run_fleet = wrap("fleet", run_fleet)
        self.run_overload = wrap("overload", run_overload)
        self.run_matrix = wrap("resilience", run_matrix)
        self.self_calibrate = wrap("calibrate", self_calibrate)
        self.run_queue = wrap("server", WebServerSimulator.run)
        #: simulated requests per loop, for the traced run's rates
        self.loop_units = {}

    def _count(self, loop: str, units: int) -> int:
        self.loop_units[loop] = self.loop_units.get(loop, 0) + units
        return units

    def round(self, rs: int, ops: list) -> int:
        """Run one round; append each call's problems to ``ops``."""
        import checks

        units = 0

        def call(fn, check):
            nonlocal units
            done, problems = check(fn())
            units += done
            ops.append(problems)

        call(lambda: self.run_fleet(self.topology, self.fleet_config,
                                    seed=rs),
             lambda r: (self._count("fleet", r.offered),
                        checks.check_fleet(r, FLEET_REQUESTS)))
        for name, cfg in self.overload_configs:
            call(lambda cfg=cfg, name=name: self.run_overload(
                self.overload_topology, cfg, seed=rs, scenario=name),
                 lambda r: (self._count("overload", r.arrivals),
                            checks.check_overload(r)))
        call(lambda: self.run_matrix(
            self.resilience_times, self.resilience_soft, self.scenarios,
            self.policies, self.resilience_config, seed=rs),
             lambda reps: (self._count("resilience",
                                       sum(r.offered for r in reps)),
                           checks.check_resilience(
                               reps, RESILIENCE_REQUESTS)))
        call(lambda: self.self_calibrate(seed=rs, smoke=True),
             lambda r: (self._count("calibrate", r.events),
                        checks.check_calibration(r)))
        for rho in QUEUE_LOADS:
            sim = self.queue_sim(
                self.queue_times, self.queue_config,
                self.rng_type(rs).fork(f"queue/{rho}"))
            call(lambda sim=sim, rho=rho: self.run_queue(sim, rho),
                 lambda served, rho=rho: (
                     self._count("server", len(served)),
                     checks.check_queue(served, self.queue_times, rho,
                                        QUEUE_REQUESTS)))
        return units


class PaperEval:
    """One round: ``full_evaluation`` at a fresh seed."""

    def __init__(self, seed: int, tracer=None) -> None:
        from repro.core.experiment import full_evaluation
        from repro.workloads.apps import php_applications

        if len(php_applications()) != EVAL_APPS:
            raise RuntimeError("the paper's evaluation has three apps")
        self.full_evaluation = full_evaluation
        self.evaluations = 0

    def round(self, rs: int, ops: list) -> int:
        import checks

        results = self.full_evaluation(seed=rs, requests=EVAL_REQUESTS)
        self.evaluations += 1
        ops.append(checks.check_paper(results))
        return len(results) * EVAL_REQUESTS * 2


def cpu_s() -> float:
    """CPU of this process and of every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return self_peak_rss_mb() + children_kb / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-fleet", "paper-eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--kernel-base", default="optimized")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    use_program_path()

    with ExitStack() as stack:
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install_kernels(tracer, args.kernel_base, stack)
            tracing.install_common(tracer, stack)
            tracing.install_eval(tracer, stack)
        kind = SimFleet if args.workload == "sim-fleet" else PaperEval
        work = kind(args.seed, tracer)
        print(json.dumps({"setup_done": True}), flush=True)
        if args.setup_only:
            return
        if tracer is not None:
            tracer.reset()
        ops: list = []
        units = 0
        round_ms: list[float] = []
        # untraced, each round is followed by one host-speed slice
        slices: list[tuple[float, float]] = []
        cpu0 = cpu_s()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < args.seconds:
            t_round = time.perf_counter()
            units += work.round(round_seed(args.seed, len(round_ms)), ops)
            round_ms.append((time.perf_counter() - t_round) * 1000)
            if tracer is None:
                slices.append(refloop.timed_slice())
        window_s = sum(round_ms) / 1000
        cpu = cpu_s() - cpu0 - sum(c for _, c in slices)
        result = {
            "attempted": len(ops),
            "failed": sum(1 for problems in ops if problems),
            "problems": [p for problems in ops for p in problems],
            "samples": len(round_ms),
            "window_s": window_s,
        }
        result["correct"] = result["failed"] == 0
        throughput = units / window_s
        if tracer is None:
            # A batch "request" is a whole round, so its latency takes in
            # every loop of the workload, not the median call of one.
            result["raw"] = {
                "throughput_rps": throughput,
                "latency_p50_ms": percentile(round_ms, 50),
                "cpu_ms_per_req": cpu * 1000 / units,
            }
            result["host_factor"] = refloop.host_factor(
                [w for w, _ in slices])
            result["values"] = refloop_scaled(result["raw"],
                                              result["host_factor"])
            result["values"]["peak_rss_mb"] = peak_rss_mb()
        else:
            result["values"] = batch_layers(
                args.workload, tracer.aggregates(), work, units,
                throughput)
            tracer.write(OUT_DIR / args.workload / "spans.jsonl")
    print(json.dumps(result), flush=True)


def batch_layers(workload, agg, work, units, throughput) -> dict:
    from layers import kernel_layers

    values = {"trace.throughput_rps": throughput}
    values.update(kernel_layers(agg, units))
    bump = agg.get("stats.bump", {"calls": 0, "total_ns": 0})
    values["stats.bump_calls"] = bump["calls"] / units
    values["stats.bump_ms"] = bump["total_ns"] / 1e6 / units
    if workload == "sim-fleet":
        for loop, done in work.loop_units.items():
            entry = agg[f"sim.{loop}"]
            values[f"sim.{loop}.ms"] = (entry["total_ns"] / 1e6
                                        / entry["calls"])
            values[f"sim.{loop}.req_per_s"] = (done * 1e9
                                               / entry["total_ns"])
        return values
    from repro.workloads.loadgen import TRACE_CACHE

    n = work.evaluations
    values["eval.trace_ms"] = (agg.get("eval.trace", {}).get("total_ns", 0)
                               / 1e6 / n)
    for name, entry in agg.items():
        if name.startswith("eval.") and name.count(".") == 2:
            _, sim, mode = name.split(".")
            values[f"eval.{sim}_ms.{mode}"] = entry["total_ns"] / 1e6 / n
    stats = TRACE_CACHE.stats
    lookups = stats.get("tracecache.hits") + stats.get("tracecache.misses")
    values["eval.tracecache_hit_ratio"] = (
        stats.get("tracecache.hits") / lookups if lookups else 0.0)
    return values


if __name__ == "__main__":
    main()
