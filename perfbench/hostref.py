"""Host-speed reference: factor a shared host's varying speed out of timings.

On a shared host the same sweep can take 50% longer for tens of seconds
while neighbours are busy, and the slowdown does not show as stolen
time.  A fixed reference kernel, independent of the code under test, is
timed right before and right after each measured interval; the interval
is then rescaled to a host on which the kernel takes :data:`REF_S`.
The kernel mixes what the simulator spends its time on — interpreter
work (heap events, dict updates, calls) and small numpy passes — so it
slows down with the host the way a sweep does.

A busy host does not slow every kind of work alike: interpreter work
slowed by up to half again as much as numpy passes over arrays larger
than a core's caches.  A workload whose time goes mostly to such passes
(the replay path's batches) therefore times a *streaming* kernel, which
adds one such pass; with the interpreter kernel its rescaled times
overshot the host's swings.

The kernel runs in the benchmark's process, on the core the sweeps just
ran on, which is what makes it track their host speed (a helper process
on another core tracked it worse).  So that the program's live heap
cannot reach the divisor, the kernel runs with the garbage collector
off and keeps no object beyond its own return: a program that holds
more objects makes its own collections slower, not the kernel's.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: The reference kernel's duration on the nominal host (seconds); sets
#: the unit of every rescaled time.
REF_S = 0.003
#: Kernel runs whose median measures the host after a set-up probe.
SETUP_REPEATS = 5

_SMALL = np.linspace(0.0, 1.0, 4096)
#: The streaming pass's input, built on first use: 4 MiB, larger than a
#: core's private caches.
_large: np.ndarray | None = None


def reference_kernel(streaming: bool = False) -> float:
    """Run the fixed reference work once; returns its wall time in seconds."""
    global _large
    if streaming and _large is None:
        _large = np.linspace(0.0, 1.0, 1 << 19)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        counts: dict = {}
        for i in range(3000):
            heapq.heappush(heap, ((i * 7919) % 1000, i))
            counts[i & 255] = counts.get(i & 255, 0) + 1
        while heap:
            heapq.heappop(heap)
        x = _SMALL
        for _ in range(30):
            x = np.sqrt(x * 1.0001 + 1.0)
        if streaming:
            np.sqrt(_large * 1.0001 + 1.0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def nominal(seconds: float, reference: float) -> float:
    """``seconds`` at the nominal host speed, given the kernel's time."""
    return seconds * REF_S / reference


def reference_time(repeats: int) -> float:
    """The interpreter kernel's current duration: the median of ``repeats``.

    One extra run goes first and is dropped: it runs cold, after the
    different work that came before it.
    """
    reference_kernel()
    return sorted(reference_kernel() for _ in range(repeats))[repeats // 2]


class HostClock:
    """Brackets intervals with reference runs and rescales them.

    One kernel run measures the host each time, which suffices between
    back-to-back sweeps; ``streaming`` picks the streaming kernel.
    """

    def __init__(self, streaming: bool = False):
        self.streaming = streaming
        self.mark()

    def mark(self) -> None:
        """Measure the host now: the next interval starts here."""
        self._last = reference_kernel(self.streaming)

    def rescale(self, seconds: float) -> float:
        """``seconds`` just measured, at the nominal host speed.

        Measures the host once more; the interval's host speed is the
        mean of this measurement and the previous one, which bracket it.
        """
        now = reference_kernel(self.streaming)
        ref = (self._last + now) / 2
        self._last = now
        return nominal(seconds, ref)
