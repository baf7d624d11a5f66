"""Timing control unit: queue-based event timing control (Section 5.2).

Splits the machine into two timing domains.  Upstream (execution
controller through QMB) fills the queues as fast as possible with
non-deterministic timing; the timing controller drains them at exact,
deterministic times: when its cycle counter T_D reaches the front
interval of the timing queue, the associated timing label is broadcast and
every event queue fires its front entries bearing that label.

Underrun semantics (DESIGN.md): if an interval entry arrives *after* the
instant it should have fired at, the events fire immediately and a
:class:`~repro.utils.errors.TimingViolation` is recorded — making the
paper's decoupling requirement observable and testable.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.core.events import TimePoint
from repro.sim import Simulator, TraceRecorder
from repro.utils.errors import QueueOverflow
from repro.utils.units import cycles_to_ns, ns_to_cycles


class EventQueue:
    """One FIFO of labelled events with bounded capacity."""

    def __init__(self, name: str, capacity: int,
                 sink: Callable[[object], None]):
        self.name = name
        self.capacity = capacity
        self.sink = sink
        self.entries: deque = deque()

    def push(self, event) -> None:
        if len(self.entries) >= self.capacity:
            raise QueueOverflow(f"event queue {self.name!r} full")
        self.entries.append(event)

    def space(self) -> int:
        return self.capacity - len(self.entries)

    def fire_label(self, label: int) -> int:
        """Pop-and-dispatch all front entries carrying ``label``; returns
        how many fired."""
        entries = self.entries
        fired = 0
        while entries and entries[0].label == label:
            self.sink(entries.popleft())
            fired += 1
        return fired

    def snapshot(self) -> list[str]:
        """Entries front-first, formatted as in Tables 2-4."""
        return [str(e) for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


class TimingControlUnit:
    """Timing queue + event queues + the timing controller."""

    def __init__(self, sim: Simulator, capacity: int = 64,
                 trace: TraceRecorder | None = None):
        self.sim = sim
        self.capacity = capacity
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.timing_queue: deque[TimePoint] = deque()
        self.event_queues: dict[str, EventQueue] = {}
        self.started = False
        self.violations: list[dict] = []
        self._counter_zero_ns: int = 0  # when T_D's interval counter last reset
        self._td_origin_ns: int = 0  # when T_D itself started
        self._armed = None
        self._space_waiters: list[Callable[[], None]] = []
        self.labels_fired = 0
        self.last_fired_label = 0

    # -- construction --------------------------------------------------------

    def add_event_queue(self, name: str, sink: Callable[[object], None]) -> EventQueue:
        """Register an event queue; dispatch order follows registration order."""
        queue = EventQueue(name, self.capacity, sink)
        self.event_queues[name] = queue
        return queue

    def reset(self) -> None:
        """Return to the just-constructed state, keeping registered queues."""
        if self._armed is not None:
            self._armed.cancel()
        self.timing_queue.clear()
        for queue in self.event_queues.values():
            queue.entries.clear()
        self.started = False
        self.violations.clear()
        self._counter_zero_ns = 0
        self._td_origin_ns = 0
        self._armed = None
        self._space_waiters.clear()
        self.labels_fired = 0
        self.last_fired_label = 0

    # -- producer side (QMB) -------------------------------------------------

    def has_space(self, timing_points: int, queue: str | None = None,
                  count: int = 0) -> bool:
        """Can ``timing_points`` time points plus ``count`` events on event
        queue ``queue`` be accepted without overflowing either?"""
        if len(self.timing_queue) + timing_points > self.capacity:
            return False
        return queue is None or self.event_queues[queue].space() >= count

    def wait_for_space(self, callback: Callable[[], None]) -> None:
        """Call back after the next fire frees queue entries."""
        self._space_waiters.append(callback)

    def push_time_point(self, interval_cycles: int, label: int) -> None:
        if len(self.timing_queue) >= self.capacity:
            raise QueueOverflow("timing queue full")
        self.timing_queue.append(TimePoint(interval_cycles, label))
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "timing_ctrl", "time_point_queued",
                            interval=interval_cycles, label=label)
        if self.started:
            self._arm()

    def push_event(self, queue_name: str, event) -> None:
        if event.label <= self.last_fired_label:
            # The time point for this label has already been broadcast:
            # the event could never fire and would wedge the queue.  This
            # happens when a program attaches events to a time point
            # without a fresh Wait (e.g. on a feedback branch path).
            self.violations.append({
                "time_ns": self.sim.now,
                "label": event.label,
                "stale_event": queue_name,
            })
            self.trace.emit(self.sim.now, "timing_ctrl", "stale_event",
                            queue=queue_name, label=event.label)
            return
        self.event_queues[queue_name].push(event)
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "timing_ctrl", "event_queued",
                            queue=queue_name, label=event.label)

    # -- the timing controller -----------------------------------------------

    def start(self) -> None:
        """Start T_D (by instruction or external trigger, Section 5.2)."""
        if self.started:
            return
        self.started = True
        self._td_origin_ns = self.sim.now
        self._counter_zero_ns = self.sim.now
        self.trace.emit(self.sim.now, "timing_ctrl", "td_start")
        self._arm()

    def td_cycles(self) -> int:
        """Current T_D in cycles (only meaningful once started)."""
        return ns_to_cycles(self.sim.now - self._td_origin_ns)

    def td_to_ns(self, td_cycles: int) -> int:
        """Absolute simulation time of a T_D cycle count."""
        return self._td_origin_ns + cycles_to_ns(td_cycles)

    def _arm(self) -> None:
        if self._armed is not None or not self.timing_queue:
            return
        head = self.timing_queue[0]
        fire_at = self._counter_zero_ns + cycles_to_ns(head.interval_cycles)
        if fire_at < self.sim.now:
            # The interval arrived after its fire time had already passed:
            # timing-queue underrun.  Fire immediately and record it.
            self.violations.append({
                "time_ns": self.sim.now,
                "label": head.label,
                "late_ns": self.sim.now - fire_at,
            })
            self.trace.emit(self.sim.now, "timing_ctrl", "underrun",
                            label=head.label, late_ns=self.sim.now - fire_at)
            fire_at = self.sim.now
        self._armed = self.sim.at(fire_at, self._fire)

    def _fire(self) -> None:
        self._armed = None
        head = self.timing_queue.popleft()
        # Counter resets and restarts when the interval is reached.
        self._counter_zero_ns = self.sim.now
        self.labels_fired += 1
        self.last_fired_label = max(self.last_fired_label, head.label)
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "timing_ctrl", "fire",
                            label=head.label,
                            td=ns_to_cycles(self.sim.now - self._td_origin_ns))
        for queue in self.event_queues.values():
            queue.fire_label(head.label)
        waiters, self._space_waiters = self._space_waiters, []
        for callback in waiters:
            callback()
        self._arm()

    # -- inspection -----------------------------------------------------------

    def snapshot(self) -> dict[str, list[str]]:
        """Queue contents front-last (front at the *bottom*, as printed in
        Tables 2-4 of the paper)."""
        out = {"timing": [str(tp) for tp in reversed(self.timing_queue)]}
        for name, queue in self.event_queues.items():
            out[name] = list(reversed(queue.snapshot()))
        return out

    def queues_empty(self) -> bool:
        return not self.timing_queue and all(
            len(q) == 0 for q in self.event_queues.values())
