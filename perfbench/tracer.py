"""In-memory span recorder, installed around the program's layers.

The benchmark traces the program from outside: it replaces the public
functions of each layer with wrappers that record a span per call, and
it routes the accelerator kernels through a ``traced`` backend
registered with :data:`repro.accel.registry.REGISTRY`, so every one of
the registry's binding points is timed without editing a backend.

A span is ``(id, name, start_ns, end_ns, parent_id, request_id)``.
Spans of coarse layers are kept in memory and written out at exit;
calls of the fine-grained layers (kernels, ``StatRegistry.bump``, which
run thousands of times per request) are only aggregated. Every wrapper,
kept or not, charges its duration to the enclosing span, so a span's
self time -- its duration minus the time its children cover -- is exact
either way. Each thread keeps its own stack and tables, so the render
pool's threads never share a counter.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Optional

MAX_KEPT_SPANS = 250_000


class _ThreadState:
    __slots__ = ("stack", "agg", "spans", "request", "next_id",
                 "dropped")

    def __init__(self, index: int) -> None:
        self.stack: list[list[int]] = []
        #: name -> [calls, total_ns, self_ns, thread_cpu_ns]
        self.agg: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.request: Optional[str] = None
        self.next_id = index << 40
        self.dropped = 0


class Tracer:
    """Span and call-count recorder; one per traced process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads) + 1)
                self._threads.append(st)
            self._local.st = st
        return st

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        keep: bool = False,
        request: Optional[Callable[[tuple], str]] = None,
        name_of: Optional[Callable[[tuple], str]] = None,
        thread_cpu: bool = False,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``keep`` stores the span record (otherwise only the aggregate
        is kept); ``request`` derives the request id from the call's
        positional arguments and hands it to every span nested inside;
        ``name_of`` names the span from the arguments; ``thread_cpu``
        also sums the calling thread's CPU time.
        """
        perf = time.perf_counter_ns
        tcpu = time.thread_time_ns
        state = self._state

        def traced(*args: Any, **kwargs: Any) -> Any:
            st = state()
            label = name_of(args) if name_of is not None else name
            st.next_id += 1
            stack = st.stack
            parent = stack[-1][0] if stack else 0
            saved = st.request
            if request is not None:
                st.request = request(args)
            cpu0 = tcpu() if thread_cpu else 0
            frame = [st.next_id, perf(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                agg = st.agg.get(label)
                if agg is None:
                    agg = st.agg[label] = [0, 0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                if thread_cpu:
                    agg[3] += tcpu() - cpu0
                if keep:
                    if len(st.spans) < MAX_KEPT_SPANS:
                        st.spans.append((frame[0], label, frame[1], end,
                                         parent, st.request))
                    else:
                        st.dropped += 1
                st.request = saved

        functools.update_wrapper(traced, fn)
        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (call with no span open)."""
        with self._lock:
            for st in self._threads:
                st.agg = {}
                st.spans = []
                st.dropped = 0

    # -- results ---------------------------------------------------------

    def aggregates(self) -> dict[str, dict[str, int]]:
        """name -> calls, total_ns, self_ns, cpu_ns over all threads."""
        merged: dict[str, list[int]] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for label, agg in st.agg.items():
                into = merged.setdefault(label, [0, 0, 0, 0])
                for i, v in enumerate(agg):
                    into[i] += v
        return {
            label: {"calls": a[0], "total_ns": a[1], "self_ns": a[2],
                    "cpu_ns": a[3]}
            for label, a in sorted(merged.items())
        }

    def spans(self) -> list[tuple]:
        with self._lock:
            threads = list(self._threads)
        return sorted(
            (s for st in threads for s in st.spans), key=lambda s: s[2]
        )

    def dropped(self) -> int:
        return sum(st.dropped for st in self._threads)

    def write(self, path: Path) -> None:
        """Kept spans as JSONL, one object per line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, label, start, end, parent, req in self.spans():
                fh.write(json.dumps({
                    "id": sid, "name": label, "start_ns": start,
                    "end_ns": end, "parent": parent, "request": req,
                }))
                fh.write("\n")


# -- installation ------------------------------------------------------------

def install_kernels(tracer: Tracer, base: str, stack: ExitStack) -> None:
    """Route every registry binding point through a ``traced`` backend.

    The backend wraps ``REGISTRY.resolve(kernel, base)`` for each
    kernel; entering its mode patches the accelerator classes
    process-wide until ``stack`` closes.
    """
    from repro.accel.registry import REGISTRY

    if base not in REGISTRY.backend_names():
        raise ValueError(f"unknown kernel base backend {base!r}")
    for kernel in REGISTRY.kernel_names():
        REGISTRY.register(kernel, "traced", tracer.wrap(
            f"kernel.{kernel}", REGISTRY.resolve(kernel, base)))
    stack.enter_context(REGISTRY.backend_mode("traced"))


def _patch(stack: ExitStack, owner: Any, attr: str, new: Any) -> None:
    old = getattr(owner, attr) if not isinstance(owner, type) \
        else owner.__dict__[attr]
    setattr(owner, attr, new)
    stack.callback(setattr, owner, attr, old)


def install_common(tracer: Tracer, stack: ExitStack) -> None:
    """Layers every workload can reach: interpreter, templates, stats."""
    import repro.runtime.interp as interp
    import repro.workloads.templates as templates
    from repro.common.stats import StatRegistry
    from repro.isa.dispatch import AcceleratorComplex

    _patch(stack, interp, "split_template", tracer.wrap(
        "interp.split_template", interp.split_template, keep=True))
    _patch(stack, interp, "tokenize_code", tracer.wrap(
        "interp.tokenize_code", interp.tokenize_code, keep=True))
    _patch(stack, interp.MiniPhpInterpreter, "render", tracer.wrap(
        "interp.render", interp.MiniPhpInterpreter.render, keep=True))
    _patch(stack, templates, "build_variables", tracer.wrap(
        "templates.build_variables", templates.build_variables,
        keep=True))
    _patch(stack, StatRegistry, "bump", tracer.wrap(
        "stats.bump", StatRegistry.bump))
    _patch(stack, AcceleratorComplex, "__init__", tracer.wrap(
        "accel.complex_init", AcceleratorComplex.__init__))


def page_key(app: str, seed: int, vary: int) -> str:
    """The fragment-cache key of a page (``MiniPhpServer`` spells it so)."""
    return f"{app}?seed={seed}&vary={vary}"


def install_serve(tracer: Tracer, stack: ExitStack) -> None:
    """Request-path layers of the live server; call before building it.

    The server binds ``render_http_page`` when it is constructed, so
    the wrapped function here becomes the root span of every render,
    carrying the page key as the request id.
    """
    import repro.serve.httpd as httpd
    from repro.serve.telemetry import TelemetryLog

    _patch(stack, httpd, "render_http_page", tracer.wrap(
        "render", httpd.render_http_page, keep=True, thread_cpu=True,
        request=lambda a: page_key(a[0], a[1], a[2])))
    _patch(stack, httpd.FragmentCache, "probe", tracer.wrap(
        "cache.probe", httpd.FragmentCache.probe, keep=True,
        request=lambda a: a[1]))
    _patch(stack, httpd.FragmentCache, "fill", tracer.wrap(
        "cache.fill", httpd.FragmentCache.fill, keep=True,
        request=lambda a: a[1]))
    _patch(stack, TelemetryLog, "record", tracer.wrap(
        "telemetry.record", TelemetryLog.record, keep=True))


def install_eval(tracer: Tracer, stack: ExitStack) -> None:
    """Paper-pipeline layers: trace generation and category simulators."""
    from repro.core import execute
    from repro.workloads.loadgen import LoadGenerator

    _patch(stack, LoadGenerator, "next_request", tracer.wrap(
        "eval.trace", LoadGenerator.next_request, keep=True))
    for cls, category in ((execute.HashSimulator, "hash"),
                          (execute.HeapSimulator, "heap"),
                          (execute.StringSimulator, "string"),
                          (execute.RegexSimulator, "regex")):
        for attr in sorted(vars(cls)):
            if not attr.startswith("execute"):
                continue
            _patch(stack, cls, attr, tracer.wrap(
                f"eval.{category}_sim", getattr(cls, attr), keep=True,
                name_of=lambda a, c=category: f"eval.{c}_sim.{a[0].mode}"))
