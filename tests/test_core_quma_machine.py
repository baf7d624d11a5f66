"""Machine-level integration tests: programs through the whole stack."""

import pytest

from repro.core import MachineConfig, QuMA


def make_machine(**kwargs):
    kwargs.setdefault("qubits", (2,))
    return QuMA(MachineConfig(**kwargs))


def test_x180_then_measure_reads_one():
    machine = make_machine()
    machine.load("""
        Wait 4
        Pulse {q2}, X180
        Wait 4
        MPG {q2}, 300
        MD {q2}, r7
        halt
    """)
    result = machine.run()
    assert result.completed
    assert result.timing_violations == []
    assert machine.registers.read(7) == 1
    assert result.measurements == 1


def test_identity_then_measure_reads_zero():
    machine = make_machine()
    machine.load("""
        Wait 4
        Pulse {q2}, I
        Wait 4
        MPG {q2}, 300
        MD {q2}, r7
        halt
    """)
    machine.run()
    assert machine.registers.read(7) == 0


def test_x90_twice_measures_one():
    machine = make_machine()
    machine.load("""
        Wait 4
        Pulse {q2}, X90
        Wait 4
        Pulse {q2}, X90
        Wait 4
        MPG {q2}, 300
        MD {q2}, r7
        halt
    """)
    machine.run()
    assert machine.registers.read(7) == 1


def test_feedback_stall_resolves():
    """An instruction reading the MD destination stalls until write-back."""
    machine = make_machine()
    machine.load("""
        mov r9, 0
        Wait 4
        Pulse {q2}, X180
        Wait 4
        MPG {q2}, 300
        MD {q2}, r7
        add r9, r9, r7
        halt
    """)
    result = machine.run()
    assert result.completed
    assert machine.registers.read(9) == 1
    # The add stalled for roughly the measurement + discrimination time.
    assert result.stall_ns > 1000


def test_feedback_branch_on_result():
    """Active-reset pattern: conditionally apply X based on measurement."""
    machine = make_machine()
    machine.load("""
        mov r0, 1
        Wait 4
        Pulse {q2}, X180
        Wait 4
        MPG {q2}, 300
        MD {q2}, r7
        bne r7, r0, skip_flip
        Wait 400
        Pulse {q2}, X180
        Wait 4
    skip_flip:
        MPG {q2}, 300
        MD {q2}, r8
        halt
    """)
    result = machine.run()
    assert result.completed
    # Measured 1, flipped back to 0 (reset achieved).
    assert machine.registers.read(7) == 1
    assert machine.registers.read(8) == 0


def test_gate_pulses_back_to_back_in_device_trace():
    """Codeword triggers 4 cycles apart produce pulses exactly 20 ns apart."""
    machine = make_machine()
    machine.load("""
        Wait 4
        Pulse {q2}, X90
        Wait 4
        Pulse {q2}, X90
        halt
    """)
    machine.run()
    starts = [r.time for r in machine.trace.filter(kind="pulse_start")]
    assert len(starts) == 2
    assert starts[1] - starts[0] == 20


def test_msmt_pulse_starts_when_second_gate_ends():
    """Figure 3/5: gates and measurement are back to back."""
    machine = make_machine()
    machine.load("""
        Wait 4
        Pulse {q2}, X90
        Wait 4
        Pulse {q2}, X90
        Wait 4
        MPG {q2}, 300
        MD {q2}
        halt
    """)
    machine.run()
    pulse_starts = [r.time for r in machine.trace.filter(kind="pulse_start")]
    msmt_starts = [r.time for r in machine.trace.filter(kind="msmt_pulse_start")]
    assert msmt_starts[0] == pulse_starts[1] + 20


def test_md_without_mpg_is_orphan():
    machine = make_machine()
    machine.load("""
        Wait 4
        MD {q2}, r7
        halt
    """)
    result = machine.run()
    assert result.orphan_discriminations == 1


def test_dcu_collects_statistics():
    machine = make_machine(dcu_points=2)
    machine.load("""
        Wait 4
        Pulse {q2}, X180
        Wait 4
        MPG {q2}, 300
        MD {q2}
        Wait 40000
        Pulse {q2}, I
        Wait 4
        MPG {q2}, 300
        MD {q2}
        halt
    """)
    result = machine.run()
    assert result.averages is not None
    assert len(result.averages) == 2
    # Excited-state statistic above ground-state statistic.
    assert result.averages[0] > result.averages[1]


def test_apply_and_measure_qis_level():
    """QIS-level program: microcode expands Apply/Measure."""
    machine = make_machine()
    machine.load("""
        QNopReg r15
        Apply X180, q2
        Measure q2, r7
        halt
    """)
    machine.registers.write(15, 400)
    machine.run()
    assert machine.registers.read(7) == 1


def test_qnopreg_runtime_value():
    """The same QNopReg issues different waits as r15 changes."""
    machine = make_machine()
    machine.load("""
        mov r15, 40
        QNopReg r15
        Pulse {q2}, X90
        mov r15, 80
        QNopReg r15
        Pulse {q2}, X90
        halt
    """)
    machine.run()
    starts = [r.time for r in machine.trace.filter(kind="pulse_start")]
    # Intervals: 40 cycles then 80 cycles -> 200 ns then 400 ns apart.
    assert starts[1] - starts[0] == 400


def test_cnot_microprogram_end_to_end():
    machine = QuMA(MachineConfig(qubits=(0, 1), flux_pairs=((0, 1),)))
    machine.define_microprogram("CNOT", 2, """
        Pulse {q0}, mY90
        Wait 4
        Pulse {q0, q1}, CZ
        Wait 8
        Pulse {q0}, Y90
        Wait 4
    """)
    # Control in |1>: CNOT flips the target.
    machine.load("""
        Wait 4
        Pulse {q1}, X180
        Wait 4
        CNOT q0, q1
        MPG {q0}, 300
        MD {q0}, r6
        halt
    """)
    result = machine.run()
    assert result.completed
    assert machine.registers.read(6) == 1


def test_cnot_control_zero_leaves_target():
    machine = QuMA(MachineConfig(qubits=(0, 1), flux_pairs=((0, 1),)))
    machine.define_microprogram("CNOT", 2, """
        Pulse {q0}, mY90
        Wait 4
        Pulse {q0, q1}, CZ
        Wait 8
        Pulse {q0}, Y90
        Wait 4
    """)
    machine.load("""
        Wait 4
        CNOT q0, q1
        MPG {q0}, 300
        MD {q0}, r6
        halt
    """)
    machine.run()
    assert machine.registers.read(6) == 0


def test_deterministic_given_seed():
    def run_once():
        machine = make_machine(seed=11)
        machine.load("""
            Wait 4
            Pulse {q2}, X90
            Wait 4
            MPG {q2}, 300
            MD {q2}, r7
            halt
        """)
        machine.run()
        return machine.registers.read(7), machine.sim.now

    assert run_once() == run_once()


def test_timing_deterministic_under_classical_jitter():
    """Section 5.2's central claim: output timing is decoupled from
    instruction-execution timing."""
    def pulse_times(jitter):
        machine = make_machine(classical_jitter_ns=jitter, seed=7)
        machine.load("""
            Wait 400
            Pulse {q2}, X90
            Wait 4
            Pulse {q2}, X90
            Wait 4
            MPG {q2}, 300
            MD {q2}
            halt
        """)
        machine.run()
        return [r.time for r in machine.trace.filter(kind="pulse_start")]

    assert pulse_times(0) == pulse_times(37)


def test_queue_backpressure_does_not_deadlock():
    machine = make_machine(queue_capacity=4)
    body = "\n".join(
        "Wait 40\nPulse {q2}, X180\nWait 4\nPulse {q2}, X180"
        for _ in range(20))
    machine.load(body + "\nhalt")
    result = machine.run()
    assert result.completed
    assert len(machine.trace.filter(kind="pulse_start")) == 40


def test_predicate_run_stops_at_the_time_bound():
    """``until_ns`` bounds a predicate run as it bounds a plain run: no
    event later than it fires, and the clock ends exactly there."""
    program = """
        Wait 40000
        Pulse {q2}, X180
        halt
    """
    bounded = make_machine()
    bounded.load(program)
    result = bounded.run(until_ns=1000, until=lambda: False)
    assert bounded.sim.now == 1000
    assert bounded.tcu.labels_fired == 0
    assert not result.completed

    plain = make_machine()
    plain.load(program)
    plain.run(until_ns=1000)
    assert plain.sim.now == bounded.sim.now
    assert plain.sim.pending() == bounded.sim.pending()


def test_orphan_md_integrates_its_own_qubits_noise():
    """An MD without an MPG integrates the noise of the qubit's own
    readout chain, not the shared default's."""
    from repro.readout import ReadoutParams

    machine = make_machine(readouts=(ReadoutParams(noise_std=0.0),))
    machine.load("""
        Wait 4
        MD {q2}, r7
        halt
    """)
    result = machine.run()
    assert result.orphan_discriminations == 1
    assert machine.measurement.results[0].statistic == 0.0
