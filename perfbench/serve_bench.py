"""The two serving workloads: a closed-loop HTTP load over a live server.

The server is ``MiniPhpServer(ServeConfig())`` in its own process
(:mod:`server_main`); the load comes from this process: one thread
drives at most ``nproc`` keep-alive connections (the clients), each
sending its next request only when its previous response's last byte
arrived.

``serve-render``: every request is a distinct ``(app, seed, vary)``
page, so each one renders and the fragment cache only fills.
``serve-cached``: the same clients over ``CACHED_KEYS`` pages warmed
during set-up, so every request is a fragment-cache read.
"""

from __future__ import annotations

import gc
import selectors
import json
import os
import random
import shutil
import signal
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks
import refloop
from common import (
    BENCH_DIR,
    OUT_DIR,
    SETUP_REPEATS,
    SETUP_TIMEOUT_S,
    median,
    percentile,
    read_json_line,
    refloop_scaled,
    spawn,
    stop,
    tree_cpu_s,
    tree_peak_rss_mb,
)
from layers import kernel_layers

APPS = ("drupal", "mediawiki", "wordpress")
#: pages of serve-cached, warmed during set-up
CACHED_KEYS = 48
#: serve-render pages whose bytes are compared after the window
RENDER_SAMPLE = 120
#: serve-render warm-up pages (distinct from every timed page)
RENDER_WARMUP = 6


#: a request with no complete response after this long counts as failed
RESPONSE_TIMEOUT_S = 10.0
#: the window is run in segments of this length, each followed by one
#: host-speed slice (``refloop``)
SEGMENT_NS = 1_000_000_000


@dataclass
class Response:
    """One request's outcome; ``status`` 0 means no usable response."""

    key: tuple[str, int, int]
    start_ns: int
    end_ns: int
    status: int = 0
    x_cache: str = ""
    #: the ``Content-Length`` the server sent, -1 if none was read
    content_length: int = -1
    #: the body ended where the header said, with no bytes after it
    framed: bool = False
    digest: bytes = b""


class HttpConnection:
    """One keep-alive HTTP/1.1 client connection.

    ``send`` starts a request and ``poll`` reads what has arrived,
    returning the :class:`Response` once its last body byte is in; the
    socket stays blocking, so ``poll`` is called when it is readable.
    A malformed head raises ``ValueError``.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), 30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.key: tuple[str, int, int] = ("", 0, 0)
        self.start_ns = 0
        self.head: Optional[tuple[int, str, int]] = None

    def close(self) -> None:
        self.sock.close()

    def send(self, key: tuple[str, int, int]) -> None:
        app, seed, vary = key
        self.key = key
        self.start_ns = time.perf_counter_ns()
        self.sock.sendall(
            (f"GET /{app}?seed={seed}&vary={vary} HTTP/1.1\r\n"
             f"Host: bench\r\n\r\n").encode("ascii"))

    def failure(self) -> Response:
        """The outstanding request, answered by nothing usable."""
        return Response(key=self.key, start_ns=self.start_ns,
                        end_ns=time.perf_counter_ns())

    def poll(self) -> Optional[Response]:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk
        if self.head is None:
            head, sep, rest = self.buf.partition(b"\r\n\r\n")
            if not sep:
                return None
            lines = head.decode("latin-1").split("\r\n")
            version, _, status = lines[0].partition(" ")
            if version != "HTTP/1.1":
                raise ValueError(f"bad status line {lines[0][:80]!r}")
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            self.head = (int(status.split(" ", 1)[0]),
                         headers.get("x-cache", ""),
                         int(headers["content-length"]))
            self.buf = rest
        status, x_cache, length = self.head
        if len(self.buf) < length:
            return None
        body, self.buf = self.buf[:length], self.buf[length:]
        self.head = None
        return Response(
            key=self.key, start_ns=self.start_ns,
            end_ns=time.perf_counter_ns(), status=status, x_cache=x_cache,
            content_length=length, framed=not self.buf,
            digest=checks.digest(body))

    def get(self, key: tuple[str, int, int]) -> Response:
        self.send(key)
        while True:
            resp = self.poll()
            if resp is not None:
                return resp


def connection_count() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def run_load(port: int, streams: list, deadline_ns: int,
             timeout_s: float = RESPONSE_TIMEOUT_S) -> list[Response]:
    """Closed loop: each connection sends its next page when the last
    response is complete, until ``deadline_ns``.

    One thread drives every connection through a selector, so the load
    generator adds one runnable thread and no interpreter-lock hand-offs.
    A request whose response is malformed, misframed, cut off or not
    complete within ``timeout_s`` is recorded as a failure, and its
    connection is replaced by a fresh one.
    """
    conns: list[Optional[HttpConnection]] = [None] * len(streams)
    responses: list[Response] = []
    timeout_ns = int(timeout_s * 1e9)
    with selectors.DefaultSelector() as sel:

        def start(i: int) -> None:
            conn = conns[i] = HttpConnection(port)
            sel.register(conn.sock, selectors.EVENT_READ, i)
            conn.send(next(streams[i]))

        def finish(i: int, resp: Response) -> None:
            responses.append(resp)
            conn = conns[i]
            more = resp.end_ns < deadline_ns
            if resp.framed and more:
                conn.send(next(streams[i]))
                return
            sel.unregister(conn.sock)
            conn.close()
            conns[i] = None
            if more:
                start(i)

        try:
            for i in range(len(streams)):
                start(i)
            while any(conns):
                due = min(c.start_ns for c in conns if c) + timeout_ns
                wait_s = max(due - time.perf_counter_ns(), 0) / 1e9
                for sk, _ in sel.select(wait_s):
                    i = sk.data
                    try:
                        resp = conns[i].poll()
                    except (OSError, ValueError, KeyError):
                        resp = conns[i].failure()
                    if resp is not None:
                        finish(i, resp)
                now = time.perf_counter_ns()
                for i, conn in enumerate(conns):
                    if conn and now - conn.start_ns >= timeout_ns:
                        finish(i, conn.failure())
        finally:
            for conn in conns:
                if conn:
                    conn.close()
    return responses


# -- inputs ------------------------------------------------------------------

def cached_keys(seed: int) -> list[tuple[str, int, int]]:
    rng = random.Random(f"serve-cached/{seed}")
    return [(APPS[i % 3], rng.randrange(1_000_000), 0)
            for i in range(CACHED_KEYS)]


def render_keys(seed: int, client: int, clients: int):
    """Distinct pages forever: ``vary`` never repeats across clients."""
    rng = random.Random(f"serve-render/{seed}/{client}")
    n = 0
    while True:
        yield (APPS[n % 3], rng.randrange(1_000_000), n * clients + client)
        n += 1


def cached_stream(keys, client: int):
    n = client
    while True:
        yield keys[n % len(keys)]
        n += 1


def warmup_keys(workload: str, seed: int) -> list[tuple[str, int, int]]:
    if workload == "serve-cached":
        return cached_keys(seed)
    rng = random.Random(f"serve-warmup/{seed}")
    # negative vary: never one of the timed pages
    return [(APPS[i % 3], rng.randrange(1_000_000), -1 - i)
            for i in range(RENDER_WARMUP)]


# -- one run -------------------------------------------------------------------

def _start_server(server_args: list[str], warm) -> tuple:
    """Spawn, wait for the port, answer the warm-up pages; timed."""
    t0 = time.perf_counter()
    proc = spawn([str(BENCH_DIR / "server_main.py"), *server_args])
    try:
        hello = read_json_line(proc, SETUP_TIMEOUT_S)
        conn = HttpConnection(hello["port"])
        try:
            for key in warm:
                resp = conn.get(key)
                if resp.status != 200:
                    raise RuntimeError(
                        f"warm-up {key} answered {resp.status}")
        finally:
            conn.close()
    except BaseException:
        stop(proc)
        raise
    return proc, hello["port"], time.perf_counter() - t0


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              kernel_base: str = "optimized", flip_byte: bool = False,
              length_skew: int = 0,
              timeout_s: float = RESPONSE_TIMEOUT_S) -> dict:
    """One run of a serving workload; returns the result object.

    ``flip_byte`` and ``length_skew`` start a server that answers wrongly
    in the timed window (see :mod:`server_main`), to show the checks
    catch it.
    """
    server_args = []
    trace_dir = OUT_DIR / workload
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        server_args += ["--trace-out", str(trace_dir),
                        "--kernel-base", kernel_base]
    if flip_byte:
        server_args.append("--flip-byte")
    if length_skew:
        server_args.append(f"--length-skew={length_skew}")
    warm = warmup_keys(workload, seed)
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, _port, took = _start_server(server_args, warm)
        setups.append(took)
        stop(proc)
    proc, port, took = _start_server(server_args, warm)
    setups.append(took)
    try:
        return _measure(workload, seed, seconds, trace, proc, port,
                        setups, trace_dir, timeout_s)
    finally:
        stop(proc)


def _measure(workload, seed, seconds, trace, proc, port, setups,
             trace_dir, timeout_s) -> dict:
    clients = connection_count()
    if workload == "serve-cached":
        keys = cached_keys(seed)
        streams = [cached_stream(keys, c) for c in range(clients)]
    else:
        streams = [render_keys(seed, c, clients) for c in range(clients)]
    os.kill(proc.pid, signal.SIGUSR1)  # the window starts
    read_json_line(proc, SETUP_TIMEOUT_S)
    responses: list[Response] = []
    slices: list[list[float]] = []
    window_ns = 0
    server_cpu = 0.0
    # The load generator allocates nothing cyclic; a collector pass over
    # the growing response log would only stall it.
    gc.disable()
    try:
        client_cpu0 = sum(os.times()[:2])
        t_stop = time.perf_counter_ns() + int(seconds * 1e9)
        while time.perf_counter_ns() < t_stop:
            # one segment of load, drained, then (untraced) one
            # host-speed slice in the idle server process
            cpu0 = tree_cpu_s(proc.pid)
            t0 = time.perf_counter_ns()
            part = run_load(port, streams,
                            min(t0 + SEGMENT_NS, t_stop), timeout_s)
            window_ns += max(r.end_ns for r in part) - t0
            server_cpu += tree_cpu_s(proc.pid) - cpu0
            responses += part
            if not trace:
                os.kill(proc.pid, signal.SIGUSR2)
                slices.append(read_json_line(proc, SETUP_TIMEOUT_S)["slice"])
        client_cpu = sum(os.times()[:2]) - client_cpu0
    finally:
        gc.enable()
    window_s = window_ns / 1e9
    peak_rss = tree_peak_rss_mb(proc.pid)

    failed_ids = _failed_requests(workload, seed, responses)
    ok = [r for r in responses if r.status == 200]
    latencies = [(r.end_ns - r.start_ns) / 1e6 for r in ok]
    n_ok = len(ok)
    result = {
        "correct": not failed_ids,
        "attempted": len(responses),
        "failed": len(failed_ids),
        "samples": n_ok,
        "window_s": window_s,
    }
    throughput = n_ok / window_s
    if not trace:
        # a server that answered nothing (a test double) still reports
        result["raw"] = {
            "throughput_rps": throughput,
            "latency_p50_ms": percentile(latencies, 50) if ok else 0.0,
            "cpu_ms_per_req": server_cpu * 1000 / max(n_ok, 1),
        }
        result["host_factor"] = refloop.host_factor(
            [wall for wall, _cpu in slices])
        result["values"] = refloop_scaled(result["raw"],
                                          result["host_factor"])
        result["values"]["peak_rss_mb"] = peak_rss
        # not scaled: set-up runs before the window, away from the slices
        result["values"]["setup_s"] = median(setups)
        return result
    stop(proc)  # the traced server writes its outputs as it exits
    result["values"] = _serve_layers(
        trace_dir, n_ok, throughput, server_cpu, client_cpu, latencies)
    return result


def _failed_requests(workload, seed, responses) -> set[int]:
    """Indices of responses that fail a check.

    Status, framing (the body ends where ``Content-Length`` says, with
    nothing after it) and ``X-Cache`` are checked on every response. The
    bytes and the ``Content-Length`` are compared with a rendering that
    bypasses the accelerator complex: for serve-cached on every response
    (one reference per page), for serve-render on a seeded sample.
    """
    want_cache = ("hit", "stale") if workload == "serve-cached" \
        else ("miss",)
    failed = {
        i for i, r in enumerate(responses)
        if r.status != 200 or not r.framed or r.x_cache not in want_cache
    }
    if workload == "serve-cached":
        refs = {key: checks.reference_page(*key)
                for key in cached_keys(seed)}
        to_check = range(len(responses))
    else:
        rng = random.Random(f"serve-sample/{seed}")
        to_check = rng.sample(range(len(responses)),
                              min(RENDER_SAMPLE, len(responses)))
        refs = {responses[i].key: checks.reference_page(
            *responses[i].key) for i in to_check}
    failed.update(i for i in to_check
                  if (responses[i].digest, responses[i].content_length)
                  != refs[responses[i].key])
    return failed


def _serve_layers(trace_dir: Path, n_ok, throughput, server_cpu,
                  client_cpu, latencies) -> dict:
    summary = json.loads((trace_dir / "summary.json").read_text())
    agg = summary["aggregates"]
    rows = [json.loads(line) for line in
            (trace_dir / "telemetry.jsonl").read_text().splitlines()]
    served = [r for r in rows if r["status"] == 200]
    misses = [r for r in served if r["cache"] == "miss"]

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def ms(name, field="total_ns"):
        return agg.get(name, {}).get(field, 0) / 1e6

    renders = calls("render")
    per_render = (lambda v: v / renders) if renders else (lambda v: 0.0)
    layers = {
        "httpd.queue_wait_ms": percentile(
            [r["queue_wait_ms"] for r in misses], 50) if misses else 0.0,
        "httpd.render_ms": percentile(
            [r["render_ms"] for r in misses], 50) if misses else 0.0,
        "httpd.outside_render_cpu_ms":
            (server_cpu * 1000 - ms("render", "cpu_ns")) / n_ok,
        "httpd.outside_server_ms":
            sum(latencies) / len(latencies)
            - sum(r["total_ms"] for r in served) / len(served),
        "templates.build_variables_ms":
            per_render(ms("templates.build_variables")),
        "interp.render_self_ms": per_render(ms("interp.render", "self_ns")),
        "interp.tokenize_calls": per_render(calls("interp.tokenize_code")),
        "interp.tokenize_ms": per_render(ms("interp.tokenize_code")),
        "interp.split_template_calls":
            per_render(calls("interp.split_template")),
        "accel.complexes_built": per_render(calls("accel.complex_init")),
        "render.unattributed_ms": per_render(ms("render", "self_ns")),
        "stats.bump_calls": calls("stats.bump") / n_ok,
        "stats.bump_ms": ms("stats.bump") / n_ok,
        "cache.probe_us": _mean_us(agg, "cache.probe"),
        "cache.fill_us": _mean_us(agg, "cache.fill"),
        "cache.lookups": summary["cache"].get("cache.lookups", 0),
        "cache.hit_ratio": (
            summary["cache"].get("cache.hits", 0)
            / summary["cache"]["cache.lookups"]
            if summary["cache"].get("cache.lookups") else 0.0),
        "telemetry.record_us": _mean_us(agg, "telemetry.record"),
        "load.client_cpu_ms_per_req": client_cpu * 1000 / n_ok,
        "trace.throughput_rps": throughput,
        "httpd.render_handoff_ms": (
            sum(r["render_ms"] for r in misses) / len(misses)
            - ms("render") / renders if misses and renders else 0.0),
        "trace.render_accounted": (
            1.0 - ms("render", "self_ns") / ms("render")
            if renders else 0.0),
    }
    layers.update(kernel_layers(agg, n_ok))
    return layers


def _mean_us(agg, name) -> float:
    entry = agg.get(name)
    if not entry or not entry["calls"]:
        return 0.0
    return entry["total_ns"] / entry["calls"] / 1e3
