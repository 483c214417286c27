"""Launch ``MiniPhpServer(ServeConfig())`` in its own process.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python3 perfbench/server_main.py [--trace-out DIR] [--kernel-base B]
                                     [--flip-byte] [--length-skew N]

Prints one JSON line ``{"port": N, "pid": P}`` once the server accepts
connections, then serves until SIGTERM (or until its parent exits),
answering SIGUSR1 (the start of the timed window) with one more line and
SIGUSR2 with one timed host-speed slice (``refloop``); on SIGTERM it
stops gracefully and exits. With ``--trace-out`` the request-path layers
are traced (see :mod:`tracer`) and, at exit, the directory receives the
server's telemetry JSONL, the kept spans, and a ``summary.json`` with
span aggregates, render-thread CPU and the fragment cache's counters.
``--flip-byte`` serves pages with one byte changed, and
``--length-skew N`` misstates every ``Content-Length`` by N bytes from
the start of the timed window on, so the benchmark's output checks can be
shown to catch a wrong page and a wrong length.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import signal
import sys
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refloop  # noqa: E402
from common import use_program_path  # noqa: E402

use_program_path()


def flip_one_byte(render):
    """A ``render_fn`` whose pages differ from the true ones in one byte."""
    def flipped(app, seed, vary):
        html, ops = render(app, seed, vary)
        middle = len(html) // 2
        swapped = "#" if html[middle] != "#" else "%"
        return html[:middle] + swapped + html[middle + 1:], ops
    return flipped


class _SkewedWriter:
    """A stream writer whose responses misstate ``Content-Length``."""

    def __init__(self, writer, skew: int) -> None:
        self._writer = writer
        self._skew = skew

    def write(self, data: bytes) -> None:
        head, sep, body = data.partition(b"\r\n\r\n")
        head = re.sub(
            rb"Content-Length: (\d+)",
            lambda m: b"Content-Length: %d" % (int(m[1]) + self._skew),
            head)
        self._writer.write(head + sep + body)

    def __getattr__(self, name: str):
        return getattr(self._writer, name)


def length_skewing(server_cls, skew: int, active):
    """``server_cls`` whose responses misstate their length while
    ``active()`` is true."""
    class Skewed(server_cls):
        async def _finish(self, writer, *args, **kwargs):
            if active():
                writer = _SkewedWriter(writer, skew)
            return await super()._finish(writer, *args, **kwargs)
    return Skewed


async def serve(args: argparse.Namespace) -> None:
    import repro.serve.httpd as httpd

    with ExitStack() as stack:
        tracer = None
        if args.trace_out:
            from tracer import (
                Tracer,
                install_common,
                install_kernels,
                install_serve,
            )
            tracer = Tracer()
            install_kernels(tracer, args.kernel_base, stack)
            install_common(tracer, stack)
            install_serve(tracer, stack)
        render_fn = None
        if args.flip_byte:
            render_fn = flip_one_byte(httpd.render_http_page)
        # SIGUSR1 marks the start of the timed window: what the traced
        # run reports covers the window only, not the warm-up.
        mark = {"started": False, "recorded": 0, "cache": {}}
        server_cls = httpd.MiniPhpServer
        if args.length_skew:
            server_cls = length_skewing(server_cls, args.length_skew,
                                        lambda: mark["started"])
        server = server_cls(httpd.ServeConfig(), render_fn=render_fn)
        await server.start()
        loop = asyncio.get_running_loop()
        done = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, done.set)
        loop.add_signal_handler(signal.SIGINT, done.set)

        def start_window() -> None:
            mark["started"] = True
            mark["recorded"] = server.telemetry.recorded
            if server.cache is not None:
                mark["cache"] = server.cache.stats.snapshot()
            if tracer is not None:
                tracer.reset()
            print(json.dumps({"window": "started"}), flush=True)

        def host_slice() -> None:
            # the benchmark sends SIGUSR2 between segments of load, when
            # no request is in flight
            print(json.dumps({"slice": refloop.timed_slice()}), flush=True)

        loop.add_signal_handler(signal.SIGUSR1, start_window)
        loop.add_signal_handler(signal.SIGUSR2, host_slice)
        parent = os.getppid()
        print(json.dumps({"port": server.port, "pid": os.getpid()}),
              flush=True)
        while not done.is_set():
            try:
                await asyncio.wait_for(done.wait(), 1.0)
            except asyncio.TimeoutError:
                if os.getppid() != parent:
                    break  # orphaned: the benchmark is gone
        await server.stop()
        if tracer is not None:
            out = Path(args.trace_out)
            out.mkdir(parents=True, exist_ok=True)
            window = server.telemetry.recorded - mark["recorded"]
            events = list(server.telemetry)[-window:] if window else []
            with (out / "telemetry.jsonl").open("w") as fh:
                for event in events:
                    fh.write(json.dumps(event.to_row()) + "\n")
            tracer.write(out / "spans.jsonl")
            cache = (server.cache.stats.diff(mark["cache"])
                     if server.cache is not None else {})
            summary = {
                "aggregates": tracer.aggregates(),
                "spans_dropped": tracer.dropped(),
                "cache": cache,
                "telemetry_window": window,
                "telemetry_kept": len(events),
            }
            (out / "summary.json").write_text(json.dumps(summary))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--kernel-base", default="optimized")
    parser.add_argument("--flip-byte", action="store_true")
    parser.add_argument("--length-skew", type=int, default=0)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
