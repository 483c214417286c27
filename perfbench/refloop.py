"""The host-speed reference: a fixed pure-Python loop, timed in slices.

The benchmark's host is a shared virtual machine whose CPU speed changes
by up to 2x from minute to minute, with little of it visible as stolen
time (README: *Host speed*). To keep that out of the end-to-end figures,
every timed stretch of a workload is followed by one slice of this loop
in the process that does the measured work (the batch child; the server
process, while it is idle), and the run's times are scaled by how fast
the slices ran: ``host_factor`` is the nominal slice time over the mean
measured one, so a time multiplied by it reads as on a host where a
slice takes ``REF_NOMINAL_S``.

The loop is stdlib-only and does not import the program, so a change to
the program cannot speed it up or slow it down. Its work mixes what the
program's hot paths do in pure Python: method calls on small objects,
dict and list updates, string formatting, slicing, joining and
searching, and sorting.
"""

from __future__ import annotations

import gc
import time

#: the slice time the scaled figures are expressed at (about this
#: host's when other tenants load it; a quiet spell runs faster)
REF_NOMINAL_S = 0.020
#: iterations per slice
REF_ITERATIONS = 20_000


class _Cell:
    __slots__ = ("key", "hits", "size")

    def __init__(self, key: str, size: int) -> None:
        self.key = key
        self.hits = 0
        self.size = size

    def touch(self, n: int) -> int:
        self.hits += 1
        return (self.size * 31 + n) & 0xFFFF


def one_slice(iterations: int = REF_ITERATIONS) -> int:
    """The fixed work of one slice; returns a checksum."""
    table: dict[str, _Cell] = {}
    order: list[str] = []
    acc = 0
    for i in range(iterations):
        key = f"k{i % 211}/{(i * 7) % 13}"
        cell = table.get(key)
        if cell is None:
            cell = table[key] = _Cell(key, len(key))
            order.append(key)
        acc += cell.touch(i)
        if i % 16 == 0:
            text = "<p>" + "|".join(order[-8:]) + "</p>"
            acc += text.find("k1") + len(text.replace("|", "&amp;"))
            acc += len(text[3:-4].split("|"))
    ranked = sorted(table.values(), key=lambda c: (c.hits, c.key))
    return acc + sum(c.size for c in ranked[:32])


def timed_slice() -> tuple[float, float]:
    """Run one slice; its (wall, CPU) seconds.

    The collector is off during the slice, so the size of the heap it
    runs in (the server's grows over a run) does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        one_slice()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def host_factor(slice_walls: list[float]) -> float:
    """Nominal over mean slice time: below 1 when the host ran slow."""
    return REF_NOMINAL_S * len(slice_walls) / sum(slice_walls)
