"""Tests for the quantum microinstruction buffer."""

import pytest

from repro.core import MachineConfig
from repro.core.qmb import QuantumMicroinstructionBuffer
from repro.core.timing import TimingControlUnit
from repro.isa import DEFAULT_OPERATIONS, Md, Mpg, Movi, Pulse, Wait
from repro.sim import Simulator
from repro.utils.errors import ConfigurationError


def make_qmb(capacity=8, qubits=(2,), flux_pairs=(), auto_start=True):
    sim = Simulator()
    config = MachineConfig(qubits=qubits, flux_pairs=flux_pairs,
                           queue_capacity=capacity, td_auto_start=auto_start)
    tcu = TimingControlUnit(sim, capacity=capacity)
    for name in ("pulse", "mpg", "md"):
        tcu.add_event_queue(name, lambda e: None)
    return sim, tcu, QuantumMicroinstructionBuffer(tcu, config, DEFAULT_OPERATIONS.copy())


def test_wait_creates_time_point_with_fresh_label():
    _, tcu, qmb = make_qmb()
    assert qmb.accept(Wait(interval=40000))
    assert qmb.accept(Wait(interval=4))
    snap = tcu.snapshot()
    assert snap["timing"] == ["(4, 2)", "(40000, 1)"]


def test_pulse_attaches_to_current_label():
    _, tcu, qmb = make_qmb()
    qmb.accept(Wait(interval=40000))
    qmb.accept(Pulse.single((2,), "I"))
    qmb.accept(Wait(interval=4))
    qmb.accept(Pulse.single((2,), "I"))
    snap = tcu.snapshot()
    assert snap["pulse"] == ["(I, 2)", "(I, 1)"]


def test_allxy_queue_shape():
    """Reproduce the Table 2 queue structure for two AllXY rounds."""
    _, tcu, qmb = make_qmb(capacity=16)
    for op in ("I", "X180"):
        qmb.accept(Wait(interval=40000))
        qmb.accept(Pulse.single((2,), op))
        qmb.accept(Wait(interval=4))
        qmb.accept(Pulse.single((2,), op))
        qmb.accept(Wait(interval=4))
        qmb.accept(Mpg(qubits=(2,), duration=300))
        qmb.accept(Md(qubits=(2,), rd=7))
    snap = tcu.snapshot()
    assert snap["timing"] == ["(4, 6)", "(4, 5)", "(40000, 4)",
                              "(4, 3)", "(4, 2)", "(40000, 1)"]
    assert snap["pulse"] == ["(X180, 5)", "(X180, 4)", "(I, 2)", "(I, 1)"]
    assert snap["mpg"] == ["(6)", "(3)"]
    assert snap["md"] == ["(r7, 6)", "(r7, 3)"]


def test_multi_qubit_pulse_one_event_per_qubit():
    _, tcu, qmb = make_qmb(qubits=(0, 1))
    qmb.accept(Wait(interval=4))
    qmb.accept(Pulse.single((0, 1), "X180"))
    assert len(tcu.event_queues["pulse"]) == 2
    channels = {e.channel for e in tcu.event_queues["pulse"].entries}
    assert channels == {"uop0", "uop1"}


def test_cz_routes_to_flux_channel():
    _, tcu, qmb = make_qmb(qubits=(0, 1), flux_pairs=((0, 1),))
    qmb.accept(Wait(interval=4))
    qmb.accept(Pulse.single((0, 1), "CZ"))
    entries = list(tcu.event_queues["pulse"].entries)
    assert len(entries) == 1
    assert entries[0].channel == "uop_flux0"
    assert entries[0].qubits == (0, 1)


def test_cz_without_flux_wiring_rejected():
    _, _, qmb = make_qmb(qubits=(0, 1))
    qmb.accept(Wait(interval=4))
    with pytest.raises(ConfigurationError):
        qmb.accept(Pulse.single((0, 1), "CZ"))


def test_unwired_qubit_rejected():
    _, _, qmb = make_qmb(qubits=(2,))
    qmb.accept(Wait(interval=4))
    with pytest.raises(ConfigurationError):
        qmb.accept(Pulse.single((5,), "I"))


def test_routes_decoded_once_and_bad_routes_rejected_every_time():
    """Repeated Pulses reuse one decoded route; a route that fails to
    decode is never remembered, so it is rejected on every issue."""
    _, tcu, qmb = make_qmb(qubits=(0, 1), auto_start=False)
    qmb.accept(Wait(interval=4))
    for _ in range(2):
        assert qmb.accept(Pulse.single((0, 1), "X180"))
    entries = [(e.label, e.uop, e.op_name, e.channel, e.qubits)
               for e in tcu.event_queues["pulse"].entries]
    x180 = DEFAULT_OPERATIONS.id_of("X180")
    assert entries == [(1, x180, "X180", "uop0", (0,)),
                       (1, x180, "X180", "uop1", (1,))] * 2
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            qmb.accept(Pulse.single((5,), "I"))
        with pytest.raises(ConfigurationError):
            qmb.accept(Md(qubits=(5,)))


def test_event_before_wait_gets_implicit_time_point():
    _, tcu, qmb = make_qmb(auto_start=False)
    qmb.accept(Pulse.single((2,), "X180"))
    snap = tcu.snapshot()
    assert snap["timing"] == ["(0, 1)"]
    assert snap["pulse"] == ["(X180, 1)"]


def test_backpressure_on_full_timing_queue():
    _, tcu, qmb = make_qmb(capacity=2, auto_start=False)
    assert qmb.accept(Wait(interval=4))
    assert qmb.accept(Wait(interval=4))
    assert not qmb.accept(Wait(interval=4))  # full -> rejected, no side effects
    assert len(tcu.timing_queue) == 2


def test_backpressure_on_full_event_queue():
    _, tcu, qmb = make_qmb(capacity=2, auto_start=False)
    qmb.accept(Wait(interval=4))
    assert qmb.accept(Pulse.single((2,), "I"))
    assert qmb.accept(Pulse.single((2,), "I"))
    assert not qmb.accept(Pulse.single((2,), "I"))
    assert len(tcu.event_queues["pulse"]) == 2


def test_auto_start_on_first_push():
    _, tcu, qmb = make_qmb(auto_start=True)
    assert not tcu.started
    qmb.accept(Wait(interval=4))
    assert tcu.started


def test_manual_start_mode():
    _, tcu, qmb = make_qmb(auto_start=False)
    qmb.accept(Wait(interval=4))
    assert not tcu.started


def test_classical_instruction_rejected():
    _, _, qmb = make_qmb()
    with pytest.raises(ConfigurationError):
        qmb.accept(Movi(rd=0, imm=0))


def test_md_without_register():
    _, tcu, qmb = make_qmb()
    qmb.accept(Wait(interval=4))
    qmb.accept(Md(qubits=(2,)))
    assert tcu.snapshot()["md"] == ["(1)"]
