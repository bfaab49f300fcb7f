"""Scale measured seconds to a fixed host speed.

A shared host switches between a fast and a slow state, from under a
second to about a minute at a time, and the slow state moves all
pure-Python work in the same direction (1.4x to 1.7x slower). So a pass
times a fixed reference kernel before its first op, after every CHUNK_S of
ops and after its last op, and its seconds are multiplied by
NOMINAL_S / (mean kernel time). The figures then read as seconds on a host
where the kernel takes NOMINAL_S. The kernel shares no code with incdepth,
so no change to the program can move it.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.010   # a round figure between the kernel's 6 ms (fast) and 11 ms (slow) on the sizing host
CHUNK_S = 0.5       # least measured work between two kernel timings
KERNEL_REPEATS = 5

_ROWS = [[(i * 7 + j * 13) % 1000 for j in range(60)] for i in range(24)]


def _kernel() -> int:
    """Integer dot products, big-integer squaring, tuple and dict building."""
    acc = 0
    for r in _ROWS * 3:
        for s in _ROWS:
            acc += sum(x * y for x, y in zip(r, s))
    big = 7 ** 900
    for _ in range(100):
        big = (big * big) >> 2900
    table = {}
    for i in range(1000):
        table[(i % 97, i % 89)] = tuple(range(i % 7))
    return acc + big + len(table)


def kernel_seconds() -> float:
    """Mean of KERNEL_REPEATS timings of the reference kernel."""
    start = perf_counter()
    for _ in range(KERNEL_REPEATS):
        _kernel()
    return (perf_counter() - start) / KERNEL_REPEATS


def scale(kernel_times: list[float]) -> float:
    """Factor from measured seconds to seconds at the nominal host speed.

    `kernel_times` are the kernel timings taken before, between and after
    the stretches of work being scaled.
    """
    return NOMINAL_S * len(kernel_times) / sum(kernel_times)
