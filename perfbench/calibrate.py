"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

A shared virtual machine can run the same work 1.5-2x faster in one
stretch of seconds to minutes than in the next, and the program's own
CPU time moves with it (the vCPU is slowed, not descheduled, so
``time.process_time`` does not help). The benchmark therefore times
this kernel next to every measurement, when nothing else of the
benchmark runs, and reports each timing scaled by
``REFERENCE_S / mean kernel time``: seconds on a host where the kernel
takes ``REFERENCE_S``. The kernel is benchmark code and never changes
with the program, so a change to the program moves a scaled figure by
the same factor as the raw one; a change in the host's speed moves both
the work and the kernel and largely cancels (``NOTES.md`` says how far,
per workload).
"""

from __future__ import annotations

import statistics
import time

#: A mid-range kernel time on the 2-core x86-64 VM the reference figures
#: come from (6-16 ms there). Scaled timings read as seconds on a host
#: where the kernel takes this long.
REFERENCE_S = 0.0125


class _Cell:
    __slots__ = ("scale", "bias")

    def __init__(self, scale: int, bias: int) -> None:
        self.scale = scale
        self.bias = bias

    def step(self, x: int) -> int:
        return (self.scale * x + self.bias) & 0xFFFF


def kernel(n: int = 20_000) -> int:
    """The mix the program spends its time on: dict lookups, attribute
    access, method calls, small tuples and integer arithmetic."""
    table: dict[int, int] = {}
    cell = _Cell(3, 5)
    window: list[tuple[int, int]] = []
    acc = 0
    for i in range(n):
        key = (i * 7919) & 1023
        value = table.get(key, 0) + cell.step(i ^ key)
        table[key] = value & 0xFFFF
        window.append((key, value))
        if len(window) > 64:
            window.clear()
        acc += value % 13
    return acc


def sample(repeats: int = 3) -> list[float]:
    """Seconds per kernel run, ``repeats`` runs back to back."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return times


def scale(samples: list[float]) -> float:
    """Factor that turns a timing taken next to ``samples`` into
    seconds on the reference host. It uses the samples' mean: the host
    flips between fast and slow stretches a few seconds long, and work
    spread over a run is slowed by the average, which a median or a
    quartile would snap to one of the two."""
    return REFERENCE_S / statistics.fmean(samples)
