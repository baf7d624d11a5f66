"""Tests for the timing control unit (Section 5.2)."""

import pytest

from repro.core.events import MdEvent, MpgEvent, PulseEvent
from repro.core.timing import EventQueue, TimingControlUnit
from repro.sim import Simulator, TraceRecorder
from repro.utils.errors import QueueOverflow


def make_tcu(capacity=8):
    sim = Simulator()
    tcu = TimingControlUnit(sim, capacity=capacity, trace=TraceRecorder())
    fired = []
    tcu.add_event_queue("pulse", lambda e: fired.append((sim.now, "pulse", e)))
    tcu.add_event_queue("mpg", lambda e: fired.append((sim.now, "mpg", e)))
    tcu.add_event_queue("md", lambda e: fired.append((sim.now, "md", e)))
    return sim, tcu, fired


def pev(label, op="I"):
    return PulseEvent(label=label, uop=0, op_name=op, channel="uop0", qubits=(0,))


def test_events_fire_at_exact_intervals():
    sim, tcu, fired = make_tcu()
    tcu.push_time_point(40000, 1)
    tcu.push_event("pulse", pev(1))
    tcu.push_time_point(4, 2)
    tcu.push_event("pulse", pev(2))
    tcu.start()
    sim.run()
    assert [(t, k) for t, k, _ in fired] == [(200000, "pulse"), (200020, "pulse")]


def test_allxy_label3_fires_mpg_and_md_together():
    """Table 2-4: MPG and MD share timing label 3 and fire at the same
    instant (T_D = 40008 cycles)."""
    sim, tcu, fired = make_tcu()
    for interval, label in [(40000, 1), (4, 2), (4, 3)]:
        tcu.push_time_point(interval, label)
    tcu.push_event("pulse", pev(1))
    tcu.push_event("pulse", pev(2))
    tcu.push_event("mpg", MpgEvent(label=3, qubits=(2,), duration_cycles=300))
    tcu.push_event("md", MdEvent(label=3, qubits=(2,), rd=7))
    tcu.start()
    sim.run()
    label3 = [(t, k) for t, k, _ in fired if t == 40008 * 5]
    assert ("mpg" in [k for _, k in label3]) and ("md" in [k for _, k in label3])


def test_counter_resets_between_intervals():
    sim, tcu, fired = make_tcu()
    tcu.push_time_point(10, 1)
    tcu.push_time_point(10, 2)
    tcu.push_event("pulse", pev(1))
    tcu.push_event("pulse", pev(2))
    tcu.start()
    sim.run()
    assert [t for t, _, _ in fired] == [50, 100]


def test_label_with_no_events_is_harmless():
    sim, tcu, fired = make_tcu()
    tcu.push_time_point(4, 1)
    tcu.push_time_point(4, 2)
    tcu.push_event("pulse", pev(2))
    tcu.start()
    sim.run()
    assert [t for t, _, _ in fired] == [40]
    assert tcu.labels_fired == 2


def test_events_only_fire_on_matching_front_label():
    sim, tcu, fired = make_tcu()
    tcu.push_time_point(4, 1)
    tcu.push_event("pulse", pev(1))
    tcu.push_event("pulse", pev(2))  # queued behind; must not fire at label 1
    tcu.start()
    sim.run(until=100)
    assert len(fired) == 1


def test_not_started_means_nothing_fires():
    sim, tcu, fired = make_tcu()
    tcu.push_time_point(4, 1)
    tcu.push_event("pulse", pev(1))
    sim.run(until=1000)
    assert fired == []
    assert not tcu.started


def test_start_after_queueing():
    sim, tcu, fired = make_tcu()
    tcu.push_time_point(4, 1)
    tcu.push_event("pulse", pev(1))
    sim.at(100, tcu.start)
    sim.run()
    # Counter starts at T_D start: fires 20 ns after start.
    assert [t for t, _, _ in fired] == [120]


def test_underrun_detected_and_fires_immediately():
    sim, tcu, fired = make_tcu()
    tcu.start()
    # Push an interval whose fire time is already past.
    def late_push():
        tcu.push_time_point(1, 1)  # should have fired at t=5
        tcu.push_event("pulse", pev(1))
    sim.at(100, late_push)
    sim.run()
    assert len(tcu.violations) == 1
    assert tcu.violations[0]["late_ns"] == 95
    assert [t for t, _, _ in fired] == [100]


def test_no_underrun_when_queues_stay_ahead():
    sim, tcu, fired = make_tcu()
    tcu.push_time_point(100, 1)
    tcu.push_event("pulse", pev(1))
    tcu.start()

    def push_more():
        tcu.push_time_point(100, 2)
        tcu.push_event("pulse", pev(2))

    sim.at(300, push_more)  # arrives before fire time (500+500)
    sim.run()
    assert tcu.violations == []
    assert [t for t, _, _ in fired] == [500, 1000]


def test_queue_capacity_overflow():
    sim, tcu, _ = make_tcu(capacity=2)
    tcu.push_time_point(1, 1)
    tcu.push_time_point(1, 2)
    with pytest.raises(QueueOverflow):
        tcu.push_time_point(1, 3)


def test_has_space_accounts_all_queues():
    sim, tcu, _ = make_tcu(capacity=2)
    assert tcu.has_space(2, "pulse", 2)
    tcu.push_event("pulse", pev(1))
    assert tcu.has_space(1, "pulse", 1)
    assert not tcu.has_space(1, "pulse", 2)


def test_space_waiters_called_after_fire():
    sim, tcu, _ = make_tcu(capacity=2)
    called = []
    tcu.push_time_point(4, 1)
    tcu.wait_for_space(lambda: called.append(sim.now))
    tcu.start()
    sim.run()
    assert called == [20]


def test_snapshot_format_matches_tables():
    sim, tcu, _ = make_tcu()
    tcu.push_time_point(40000, 1)
    tcu.push_time_point(4, 2)
    tcu.push_event("pulse", pev(1, "I"))
    tcu.push_event("md", MdEvent(label=3, qubits=(2,), rd=7))
    snap = tcu.snapshot()
    # Front of queue at the bottom, as printed in the paper.
    assert snap["timing"] == ["(4, 2)", "(40000, 1)"]
    assert snap["pulse"] == ["(I, 1)"]
    assert snap["md"] == ["(r7, 3)"]


def test_td_cycles_tracks_start():
    sim, tcu, _ = make_tcu()
    sim.at(100, tcu.start)
    sim.run()
    tcu.push_time_point(4, 1)
    sim.run()
    assert tcu.td_cycles() == 4
    assert tcu.td_to_ns(4) == 120


def test_stale_event_dropped_and_recorded():
    """An event for an already-fired label is a program bug: it can never
    fire.  The TCU drops it and records a violation instead of wedging."""
    sim, tcu, fired = make_tcu()
    tcu.push_time_point(4, 1)
    tcu.start()
    sim.run()
    assert tcu.last_fired_label == 1
    tcu.push_event("pulse", pev(1))
    assert len(tcu.event_queues["pulse"]) == 0
    assert any("stale_event" in v for v in tcu.violations)


def test_eventqueue_fire_label_pops_all_matching():
    fired = []
    q = EventQueue("x", 8, fired.append)
    q.push(pev(1))
    q.push(pev(1))
    q.push(pev(2))
    assert q.fire_label(1) == 2
    assert len(fired) == 2
    assert len(q) == 1
