"""The metric tables, read from ``BENCHMARK.json``, and kernel rollups.

``BENCHMARK.json`` is the one list of every metric's name, unit,
direction and bound; a run that computes a metric it does not list
fails. A traced run prints every per-layer metric on every workload; a
layer the workload never reaches reads 0 (see README.md for which
workload each layer belongs to).
"""

from __future__ import annotations

from common import SPEC

#: end-to-end: name -> (unit, better)
END_TO_END = {m["name"]: (m["unit"], m["better"])
              for m in SPEC["end_to_end"]}
#: per-layer: name -> (unit, better)
PER_LAYER = {m["name"]: (m["unit"], m["better"])
             for m in SPEC["per_layer"]}
#: end-to-end: name -> the share by which it may get worse
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

#: the registry's binding points (``REGISTRY.kernel_names()``)
KERNELS = (
    "hash.probe_window",
    "heap.hmfree",
    "heap.hmmalloc",
    "regex.resume",
    "regex.search",
    "regex.state_after",
    "string.char_class_bitmap",
    "string.compare",
    "string.find",
    "string.html_escape",
    "string.matrix_for_block",
)


def metrics_block(values: dict[str, float], trace: bool) -> dict:
    """The result's ``metrics`` object: every name, with its unit."""
    table = PER_LAYER if trace else END_TO_END
    unknown = set(values) - set(table)
    if unknown:
        raise KeyError(f"unlisted metrics: {sorted(unknown)}")
    missing = set(table) - set(values)
    if missing and not trace:
        raise KeyError(f"end-to-end metrics not measured: "
                       f"{sorted(missing)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, (unit, _better) in table.items()}


def kernel_layers(agg: dict, units: int) -> dict:
    """Per-unit calls and self ms of each binding point, plus rollups."""
    out = {}
    rollup = {"hash": 0.0, "heap": 0.0, "string": 0.0, "regex": 0.0}
    for kernel in KERNELS:
        entry = agg.get(f"kernel.{kernel}", {})
        self_ms = entry.get("self_ns", 0) / 1e6 / units
        out[f"kernel.{kernel}.calls"] = entry.get("calls", 0) / units
        out[f"kernel.{kernel}.ms"] = self_ms
        rollup[kernel.split(".")[0]] += self_ms
    for category, value in rollup.items():
        out[f"kernel.{category}_ms"] = value
    return out
