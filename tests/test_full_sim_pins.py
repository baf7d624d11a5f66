"""Byte pins for full-simulation paths the perfbench digests do not cover.

Each case runs a program through the event kernel (no round replay) and
hashes what the run leaves behind: the data collection unit's raw
statistics, the run's duration, instruction count, stall time, final
registers and timing violations, and, for traced runs, every trace
record's time, unit, kind and sorted detail.  The sweep cases hash each
job's averages (and joint counts).  The digests were taken before the
event-kernel path learned to decode instructions and synthesize readout
signals once; any change to an output byte of these paths shows here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_program
from repro.core import MachineConfig, QuMA
from repro.experiments.allxy import build_allxy_program
from repro.service import ExperimentService
from repro.session import Session

#: Active reset: measure, flip back on a 1, measure again, repeat.
ACTIVE_RESET = """
    mov r0, 1
    mov r1, 0
    mov r2, 6
loop:
    Wait 400
    Pulse {q2}, X90
    Wait 4
    MPG {q2}, 300
    MD {q2}, r7
    bne r7, r0, done
    Wait 400
    Pulse {q2}, X180
    Wait 4
done:
    Wait 400
    MPG {q2}, 300
    MD {q2}, r8
    add r9, r9, r8
    addi r1, r1, 1
    blt r1, r2, loop
    beq r9, r1, all_reset
    nop
all_reset:
    halt
"""

#: QIS-level gates and every classical opcode, with register-held waits.
QIS_CLASSICAL = """
    mov r15, 300
    mov r3, 12
    mov r4, 5
loop:
    QNopReg r15
    Apply X90, q2
    Measure q2, r7
    add r5, r3, r7
    sub r6, r5, r4
    and r8, r6, r3
    or r9, r8, r4
    xor r10, r9, r7
    store r10, r4[4]
    load r11, r4[4]
    addi r15, r15, 100
    addi r12, r12, 1
    bne r12, r4, loop
    jmp end
    nop
end:
    QNopReg r0
    halt
"""

CNOT_BODY = """
    Pulse {q0}, mY90
    Wait 4
    Pulse {q0, q1}, CZ
    Wait 8
    Pulse {q0}, Y90
    Wait 4
"""

CNOT_PROGRAM = """
    mov r1, 0
    mov r2, 3
loop:
    Wait 4000
    Pulse {q1}, X180
    Wait 4
    CNOT q0, q1
    MPG {q0}, 300
    MD {q0}, r6
    Wait 4000
    CNOT q1, q0
    MPG {q1}, 300
    MD {q1}, r5
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""


def _run_digest(machine: QuMA) -> str:
    result = machine.run()
    assert result.completed
    h = hashlib.sha256()
    h.update(machine.dcu.raw().tobytes())
    h.update(repr((result.duration_ns, result.instructions_executed,
                   result.stall_ns, result.registers,
                   result.timing_violations)).encode())
    if machine.trace.enabled:
        for rec in machine.trace.records:
            h.update(repr((rec.time, rec.unit, rec.kind,
                           sorted(rec.detail.items()))).encode())
    return h.hexdigest()


def _sweep_digest(experiment) -> str:
    with ExperimentService() as service:
        sweep = service.run_batch(experiment.build_specs())
    h = hashlib.sha256()
    for job in sweep:
        h.update(np.asarray(job.averages, dtype=float).tobytes())
        if job.joint_counts is not None:
            h.update(np.asarray(job.joint_counts, dtype=np.int64).tobytes())
    return h.hexdigest()


def traced_allxy() -> str:
    compiled = compile_program(build_allxy_program(2),
                               CompilerOptions(n_rounds=2))
    machine = QuMA(MachineConfig(qubits=(2,), seed=5, trace_enabled=True,
                                 dcu_points=compiled.k_points))
    machine.load(compiled.asm)
    return _run_digest(machine)


def active_reset(**config) -> str:
    machine = QuMA(MachineConfig(qubits=(2,), seed=3, trace_enabled=True,
                                 dcu_points=2, **config))
    machine.load(ACTIVE_RESET)
    return _run_digest(machine)


def qis_classical() -> str:
    machine = QuMA(MachineConfig(qubits=(2,), seed=4, trace_enabled=True))
    machine.load(QIS_CLASSICAL)
    return _run_digest(machine)


def cnot_microprogram() -> str:
    machine = QuMA(MachineConfig(qubits=(0, 1), flux_pairs=((0, 1),),
                                 seed=9, trace_enabled=True, dcu_points=2))
    machine.define_microprogram("CNOT", 2, CNOT_BODY)
    machine.load(CNOT_PROGRAM)
    return _run_digest(machine)


def bell_sweep() -> str:
    session = Session(seed=13)
    return _sweep_digest(session.create("bell", n_rounds=12, replay=False))


def ramsey_sweep() -> str:
    session = Session(seed=17)
    return _sweep_digest(session.create("ramsey", qubits=(0,)))


CASES = {
    "traced_allxy": traced_allxy,
    "active_reset": active_reset,
    "active_reset_jitter": lambda: active_reset(classical_jitter_ns=7),
    "active_reset_width2": lambda: active_reset(issue_width=2),
    "qis_classical": qis_classical,
    "cnot_microprogram": cnot_microprogram,
    "bell_no_replay": bell_sweep,
    "ramsey_default": ramsey_sweep,
}

#: sha256 of each case, taken before the event-kernel path was optimized.
DIGESTS = {
    "traced_allxy":
        "f4af2189df4666e00bf15b68593d03d8274d058f3ccf8046bf5737fdf9824938",
    "active_reset":
        "c807b292e93ecaf8c77486c84b64dc75a2bc27736d286d1108a7d7ce640da76a",
    "active_reset_jitter":
        "6a3d6680295de5d6f8cc868729f3df9aa6b4184aecdb3369cdf2d1a7f92b154a",
    "active_reset_width2":
        "151536cfbc83eeea47512fac1b44864e777efc3a42eacfa1f9eb48ad07c4b9f9",
    "qis_classical":
        "8551b4d369ab62307e4dfaa656dab59918c140cca6877fb9217ba55e8b571a53",
    "cnot_microprogram":
        "12c0a0ca2747e976f9743d05a9b5d318f74a6dc568e67d2277a4d17ec421f388",
    "bell_no_replay":
        "64bb2bb866bae4bb4167974ffadac3e0378579f7d8baa29aac48ae1728040939",
    "ramsey_default":
        "c70df5fd16d8eda0bf67ed698331235b458fa6ea318132d3f2450a6e5a7b880d",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_full_simulation_output_is_pinned(case):
    assert CASES[case]() == DIGESTS[case]
