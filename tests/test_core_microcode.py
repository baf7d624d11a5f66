"""Tests for the physical microcode unit and Q control store."""

import pytest

from repro.core import MachineConfig, RegisterFile
from repro.core.microcode import PhysicalMicrocodeUnit, QControlStore
from repro.isa import (
    DEFAULT_OPERATIONS,
    Apply,
    Md,
    Measure,
    Movi,
    Mpg,
    Pulse,
    QCall,
    Wait,
    WaitReg,
)
from repro.utils.errors import MicrocodeError

CNOT_BODY = """
    Pulse {q0}, mY90
    Wait 4
    Pulse {q0, q1}, CZ
    Wait 8
    Pulse {q0}, Y90
    Wait 4
"""


def make_unit(**config_kwargs):
    config = MachineConfig(qubits=(0, 1, 2), **config_kwargs)
    store = QControlStore(DEFAULT_OPERATIONS.copy())
    registers = RegisterFile()
    return PhysicalMicrocodeUnit(config, store, registers), store, registers


def test_qumis_pass_through():
    unit, _, _ = make_unit()
    for instr in (Wait(interval=4), Pulse.single((2,), "I"),
                  Mpg(qubits=(2,), duration=300), Md(qubits=(2,))):
        assert unit.expand(instr) == [instr]


def test_waitreg_reads_register_at_dispatch():
    """Table 5: 'QNopReg r15' becomes 'Wait 40000' by reading r15."""
    unit, _, registers = make_unit()
    registers.write(15, 40000)
    assert unit.expand(WaitReg(rs=15)) == [Wait(interval=40000)]
    registers.write(15, 123)
    assert unit.expand(WaitReg(rs=15)) == [Wait(interval=123)]


def test_waitreg_reuses_one_wait_per_value():
    """Every issue of a QNopReg with the same register value (every round
    of an averaging loop) shares one immutable Wait."""
    unit, _, registers = make_unit()
    registers.write(15, 40000)
    (first,) = unit.expand(WaitReg(rs=15))
    (again,) = unit.expand(WaitReg(rs=15))
    assert again is first


def test_waitreg_nonpositive_skipped():
    unit, _, registers = make_unit()
    registers.write(15, 0)
    assert unit.expand(WaitReg(rs=15)) == []


def test_apply_expands_to_pulse_and_wait():
    """Table 5: 'Apply I, q0' -> 'Pulse {q0}, I' + 'Wait 4'."""
    unit, _, _ = make_unit()
    out = unit.expand(Apply(op="I", qubit=0))
    assert out == [Pulse.single((0,), "I"), Wait(interval=4)]


def test_apply_uses_configured_gate_slot():
    unit, _, _ = make_unit(gate_slot_cycles=8)
    out = unit.expand(Apply(op="X180", qubit=1))
    assert out[1] == Wait(interval=8)


def test_measure_expands_to_mpg_md():
    """Table 5: 'Measure q0, r7' -> MPG + MD with the result register."""
    unit, _, _ = make_unit()
    out = unit.expand(Measure(qubit=0, rd=7))
    assert out == [Mpg(qubits=(0,), duration=300), Md(qubits=(0,), rd=7)]


def test_measure_without_register():
    unit, _, _ = make_unit()
    out = unit.expand(Measure(qubit=2))
    assert out[1] == Md(qubits=(2,), rd=None)


def test_cnot_microprogram_algorithm2():
    unit, store, _ = make_unit()
    store.define("CNOT", 2, CNOT_BODY)
    out = unit.expand(QCall(uprog="CNOT", qubits=(1, 2)))
    assert out == [
        Pulse.single((1,), "mY90"),
        Wait(interval=4),
        Pulse.single((1, 2), "CZ"),
        Wait(interval=8),
        Pulse.single((1,), "Y90"),
        Wait(interval=4),
    ]


def test_microprogram_formal_remapping_order():
    unit, store, _ = make_unit()
    store.define("swapargs", 2, "Pulse {q1}, X180\nPulse {q0}, Y180")
    out = unit.expand(QCall(uprog="swapargs", qubits=(0, 2)))
    assert out[0] == Pulse.single((2,), "X180")
    assert out[1] == Pulse.single((0,), "Y180")


def test_unknown_microprogram_raises():
    unit, _, _ = make_unit()
    with pytest.raises(MicrocodeError):
        unit.expand(QCall(uprog="nosuch", qubits=(0,)))


def test_microprogram_arity_checked():
    unit, store, _ = make_unit()
    store.define("CNOT", 2, CNOT_BODY)
    with pytest.raises(MicrocodeError):
        unit.expand(QCall(uprog="CNOT", qubits=(0,)))


def test_body_referencing_undeclared_formal_rejected():
    _, store, _ = make_unit()
    with pytest.raises(MicrocodeError):
        store.define("bad", 1, "Pulse {q1}, X180")


def test_body_with_classical_instruction_rejected():
    _, store, _ = make_unit()
    with pytest.raises(MicrocodeError):
        store.define("bad", 1, "mov r1, 0")


def test_store_lookup_case_insensitive():
    _, store, _ = make_unit()
    store.define("CNOT", 2, CNOT_BODY)
    assert store.lookup("cnot").name == "CNOT"
    assert "CnOt" in store


def test_classical_instruction_not_expandable():
    unit, _, _ = make_unit()
    with pytest.raises(MicrocodeError):
        unit.expand(Movi(rd=0, imm=0))
