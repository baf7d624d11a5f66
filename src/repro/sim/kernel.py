"""Minimal callback-based discrete-event simulation kernel.

Time is integer nanoseconds.  Components schedule zero-argument callbacks
at absolute times or after delays; the kernel runs them in time order with
FIFO tie-breaking (a stable sequence number), which models same-cycle
hardware units processing in wiring order.

Heap entries are plain ``(time, seq, event)`` tuples: ``seq`` is unique,
so comparisons resolve on the first two integers and never touch the
event object — measurably cheaper than rich comparisons on a dataclass
for the million-event experiment runs.
"""

from __future__ import annotations

import heapq
from typing import Callable


class Event:
    """A scheduled callback.  Heap ordering is (time, seq) so ties are FIFO."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time}, seq={self.seq}{state})"


class Simulator:
    """Event-driven simulator with integer-ns time.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.at(10, lambda: fired.append(sim.now))
    >>> sim.run()
    1
    >>> fired
    [10]
    """

    def __init__(self):
        self.now: int = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0

    def reset(self) -> None:
        """Return to the just-constructed state: t = 0, no pending events."""
        self.now = 0
        self._heap.clear()
        self._seq = 0

    def at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute time ``time`` (ns)."""
        time = int(time)
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} ns; now is {self.now} ns")
        event = Event(time, self._seq, callback)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def after(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` ``delay`` ns after the current time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.at(self.now + int(delay), callback)

    def pending(self) -> int:
        """Number of not-yet-run, not-cancelled events."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    def step(self) -> bool:
        """Run the single earliest event.  Returns False if none remain."""
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = time
            event.callback()
            return True
        return False

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events in order; returns how many callbacks ran.

        ``until`` stops the clock at that absolute time (events scheduled
        later stay pending and ``now`` is advanced to ``until``).
        ``max_events`` bounds the number of callbacks as a runaway guard.
        """
        executed = 0
        while self._heap:
            time, _, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and time > until:
                self.now = max(self.now, int(until))
                return executed
            heapq.heappop(self._heap)
            self.now = time
            event.callback()
            executed += 1
            if max_events is not None and executed >= max_events:
                return executed
        if until is not None:
            self.now = max(self.now, int(until))
        return executed
