"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a virtual machine shared with other tenants the same code runs at a
speed that changes by a third and more within seconds, in CPU time as
much as in wall time, so raw times of two runs minutes apart differ more
than a change of the program would.  The worker times this kernel a few
times before every query and after the last one, and every INTERVAL_S of
wall time while a query runs (on a timer signal).  The harness scales a
query's time by REFERENCE_S over the mean of the kernel's times before,
during and after it: a metric then reads the seconds the work would take
at the speed the kernel had when REFERENCE_S was fixed.

The kernel does the kinds of work symcube does (union-find over tuple
keys in a dict, hashing small objects with slots, integer row reduction)
but uses no symcube code, so a change of the library never changes it.
It runs with the cyclic garbage collector off, so that a library that
changes the collector's settings does not change the kernel's speed.
Nothing in this file may change once the benchmark has numbers, or the
numbers before and after stop being comparable.
"""

from __future__ import annotations

import gc
import signal
import time

# about the kernel's typical time on the machine of baseline.json
REFERENCE_S = 0.006
CHECKSUM = 24023538
INTERVAL_S = 0.15  # between kernel runs while a query runs
BLOCK = 4  # kernel runs before each query and after the last one


class _Arrow:
    __slots__ = ("image", "dim")

    def __init__(self, image, dim):
        self.image = image
        self.dim = dim

    def then(self, other):
        return _Arrow(tuple(other.image[i] for i in self.image), self.dim + other.dim)

    def __hash__(self):
        return hash((self.image, self.dim))

    def __eq__(self, other):
        return self.image == other.image and self.dim == other.dim


def _union_find(n: int) -> int:
    keys = [(i % 97, i // 97, (i * 7) % 13) for i in range(n)]
    parent = {k: k for k in keys}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n - 1):
        a, b = find(keys[i]), find(keys[(i * 31) % n])
        if a != b:
            parent[a] = b
    return len({find(k) for k in keys})


def _arrows(n: int) -> int:
    arrows = [_Arrow(tuple((i * j) % 4 for j in range(4)), i % 3) for i in range(n)]
    return len({a.then(b) for a in arrows for b in arrows})


def _rows(n: int) -> int:
    a = [[(i * j + 3 * i) % 7 - 3 for j in range(n)] for i in range(n)]
    for r in range(n):
        p = a[r][r] or 1
        for i in range(r + 1, n):
            f = a[i][r]
            if f:
                ai, ar = a[i], a[r]
                a[i] = [(p * x - f * y) % 1000003 for x, y in zip(ai, ar)]
    return sum(map(sum, a))


def kernel() -> int:
    return _union_find(2500) + _arrows(24) + _rows(36)


def measure() -> float:
    """Wall time of one run of the kernel, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        value = kernel()
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if value != CHECKSUM:
        raise RuntimeError(f"calibration kernel gave {value}, expected {CHECKSUM}")
    return seconds


def block() -> list[float]:
    """BLOCK kernel times, taken back to back."""
    return [measure() for _ in range(BLOCK)]


class Sampler:
    """Kernel times taken every INTERVAL_S of wall time inside a with block.

    The kernel runs in a SIGALRM handler, between two bytecodes of
    whatever runs; its times are in ``samples`` and their sum is the
    time the block spent in the kernel.  An inactive sampler takes none.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(measure())

    def __enter__(self):
        self.samples = []
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False
