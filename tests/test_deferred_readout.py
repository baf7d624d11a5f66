"""Deferred readout: batched statistics equal per-record readout, byte for byte.

Full simulation notes each feedline record when its measurement pulse
begins and computes the statistics of every pending record, in record
order, at the first point a value is observed (a register write-back, a
traced or recorded write-back, the end of a run, or a full pending
list).  The ``readout_noise`` stream is consumed only by readout
records, so drawing it later in the same order gives the same bits.

The digests below were taken before readout was deferred, when every
record was synthesized, digitized and integrated shot by shot.  Each
hashes the run's averages, registers, duration, instruction count and
measurement count, every ``DiscriminationResult`` field, and, for traced
runs, every trace record.  The same cases with the pending cap at 1
(every record flushes alone) and at 3 (flushes mid-round) must give the
same bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import CompilerOptions, compile_program
from repro.core import MachineConfig, QuMA
from repro.core.measurement import MeasurementPath
from repro.experiments.allxy import build_allxy_program
from repro.readout import ReadoutParams
from repro.readout.multiplex import staggered_readouts
from repro.session import Session

#: The active-reset program of CI's full-simulation parity step: every MD
#: writes a register, and the first one steers a branch.
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
    addi r1, r1, 1
    blt r1, r2, loop
    halt
"""

#: MDs with no matching MPG, with and without a destination register.
ORPHAN_MD = """
    mov r1, 0
    mov r2, 3
loop:
    Wait 400
    Pulse {q2}, X180
    Wait 4
    MD {q2}
    Wait 400
    MPG {q2}, 300
    MD {q2}, r7
    Wait 400
    MD {q2}, r8
    addi r1, r1, 1
    bne r1, r2, loop
    halt
"""

#: One round alternates a one-qubit record, a two-qubit record and a
#: one-qubit record of the other qubit, with and without write-backs.
MIXED_WIDTHS = """
    mov r1, 0
    mov r2, 4
loop:
    Wait 400
    Pulse {q1}, X90
    Wait 4
    MPG {q1}, 300
    MD {q1}
    Wait 400
    Pulse {q2}, X180
    Wait 4
    MPG {q1, q2}, 300
    MD {q1, q2}
    Wait 400
    MPG {q2}, 300
    MD {q2}, r7
    addi r1, r1, 1
    bne r1, r2, loop
    halt
"""


def _digest(machine: QuMA, *results) -> str:
    h = hashlib.sha256()
    for result in results:
        averages = (b"none" if result.averages is None
                    else np.asarray(result.averages, dtype=float).tobytes())
        h.update(averages)
        h.update(repr((result.registers, result.duration_ns,
                       result.instructions_executed,
                       result.measurements)).encode())
    for r in machine.measurement.results:
        h.update(repr((r.qubit, r.statistic, r.value, r.trigger_ns,
                       r.ready_ns)).encode())
    if machine.trace.enabled:
        for rec in machine.trace.records:
            h.update(repr((rec.time, rec.unit, rec.kind,
                           sorted(rec.detail.items()))).encode())
    return h.hexdigest()


def _run(config: MachineConfig, asm: str) -> str:
    machine = QuMA(config)
    machine.load(asm)
    result = machine.run()
    assert result.completed
    return _digest(machine, result)


def allxy_full() -> str:
    compiled = compile_program(build_allxy_program(2),
                               CompilerOptions(n_rounds=8))
    return _run(MachineConfig(qubits=(2,), seed=11, trace_enabled=False,
                              dcu_points=compiled.k_points), compiled.asm)


def active_reset() -> str:
    return _run(MachineConfig(qubits=(2,), seed=3, trace_enabled=False,
                              dcu_points=2), ACTIVE_RESET)


def orphan_md() -> str:
    return _run(MachineConfig(qubits=(2,), seed=6, trace_enabled=False,
                              dcu_points=3), ORPHAN_MD)


def _register_sweep(name: str, seed: int) -> str:
    """A register experiment's jobs with replay off, on one reused
    machine, as the service's pool runs them."""
    specs = Session(seed=seed).create(name, n_rounds=8,
                                      replay=False).build_specs()
    machine = QuMA(specs[0].config)
    results = []
    for spec in specs:
        machine.reset(seed=spec.seed, dcu_points=spec.k_points)
        machine.load(spec.asm)
        results.append(machine.run())
        assert results[-1].completed
        # Hash each job's discriminations before the next reset drops them.
        results[-1] = _digest(machine, results[-1])
    return hashlib.sha256("".join(results).encode()).hexdigest()


def bell_no_replay() -> str:
    return _register_sweep("bell", 13)


def ghz3_no_replay() -> str:
    return _register_sweep("ghz", 21)


def mixed_widths() -> str:
    return _run(MachineConfig(qubits=(1, 2), seed=8, trace_enabled=False,
                              readouts=staggered_readouts(2), dcu_points=4),
                MIXED_WIDTHS)


def quiet_readout() -> str:
    """``noise_std=0`` on both qubits: no record draws noise."""
    quiet = staggered_readouts(2, base=ReadoutParams(noise_std=0.0))
    return _run(MachineConfig(qubits=(1, 2), seed=2, trace_enabled=False,
                              readouts=quiet, dcu_points=4), MIXED_WIDTHS)


def half_quiet_readout() -> str:
    """One quiet qubit: its lone records draw nothing, the shared
    record draws at the other qubit's noise level."""
    readouts = (ReadoutParams(f_if_hz=40e6, noise_std=0.0),
                ReadoutParams(f_if_hz=52e6))
    return _run(MachineConfig(qubits=(1, 2), seed=4, trace_enabled=False,
                              readouts=readouts, dcu_points=4), MIXED_WIDTHS)


def traced() -> str:
    return _run(MachineConfig(qubits=(1, 2), seed=5, trace_enabled=True,
                              readouts=staggered_readouts(2), dcu_points=4),
                MIXED_WIDTHS)


def paused_and_resumed() -> str:
    """Paused mid-round (records noted, write-backs in flight), then run
    to the end; both results are hashed."""
    machine = QuMA(MachineConfig(qubits=(1, 2), seed=9, trace_enabled=False,
                                 readouts=staggered_readouts(2),
                                 dcu_points=4))
    machine.load(MIXED_WIDTHS)
    paused = machine.run(until=lambda: machine.sim.now >= 13_000)
    assert not paused.completed
    rest = machine.run()
    assert rest.completed
    return _digest(machine, paused, rest)


CASES = {
    "allxy_full": allxy_full,
    "active_reset": active_reset,
    "orphan_md": orphan_md,
    "bell_no_replay": bell_no_replay,
    "ghz3_no_replay": ghz3_no_replay,
    "mixed_widths": mixed_widths,
    "quiet_readout": quiet_readout,
    "half_quiet_readout": half_quiet_readout,
    "traced": traced,
    "paused_and_resumed": paused_and_resumed,
}

#: sha256 of each case, taken when full simulation read out shot by shot.
DIGESTS = {
    "active_reset":
        "7f9099013c27ab4056a608a3f060a2d31411c6fb7aa8d900ed0fb25133dd1875",
    "allxy_full":
        "b1d8f45edad4f2b1f9e9cf166a030e66e0484be10d8a2e7b8701dd19599a3154",
    "bell_no_replay":
        "0b6d855791247d53d1931ffc8948bb106650835637959bf33fef243fa867911a",
    "ghz3_no_replay":
        "7c44f39c847ecb03c282ea10fc36a075029240794f1a4256f13d10e97cd8a7b7",
    "half_quiet_readout":
        "d34f7df0d3b9e2e5731a2ddead33ae9851b1c8f7f6d1739bb27519184cc55563",
    "mixed_widths":
        "7bb188526bc9207090717f250a5ea299c792902c9de56712c6921f4a2b9c3cfa",
    "orphan_md":
        "77d9c8809b3f3987f62204185aa901fd9146c540edcb9f26405d3738a3cff453",
    "paused_and_resumed":
        "6812278b48c2e003de7c4a2ecc1bfe5988165fc091dea0ce730eaa0777da71a5",
    "quiet_readout":
        "93bad362bd70c7534174ec983f9860cddf4a9f1a04ac077b8eb11f1c82dfa32a",
    "traced":
        "6bf4e9689023f9181680a0b48d10f82d4a35652faa85280b75915f39dab47c65",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_deferred_readout_is_pinned(case):
    assert CASES[case]() == DIGESTS[case]


@pytest.mark.parametrize("cap", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_pending_cap_does_not_change_output(case, cap, monkeypatch):
    monkeypatch.setattr(MeasurementPath, "PENDING_MAX_RECORDS", cap)
    assert CASES[case]() == DIGESTS[case]


# -- generated schedules ------------------------------------------------------

OPS = ("X180", "X90", "Y90")


@st.composite
def schedules(draw):
    """An averaging loop over MPG/MD steps on 1-3 wired qubits: random
    feedline subsets, MDs with and without a register, orphan MDs (an MD
    on a qubit whose MPG is not at that time point) and random waits."""
    width = draw(st.integers(1, 3))
    subsets = st.lists(st.integers(0, width - 1), min_size=1,
                       max_size=width, unique=True).map(sorted)
    registers = st.sampled_from((None, 3, 4, 5))
    step = st.one_of(
        st.tuples(st.just("pulse"), st.integers(0, width - 1),
                  st.sampled_from(OPS)),
        st.tuples(st.just("measure"), subsets, subsets, registers),
        st.tuples(st.just("orphan"), subsets, registers),
        st.tuples(st.just("wait"), st.sampled_from((4, 120, 400))),
    )
    steps = draw(st.lists(step, min_size=1, max_size=8))
    rounds = draw(st.integers(1, 3))
    return width, steps, rounds


def _render(steps, rounds: int) -> tuple[str, int]:
    """The program and its DCU points per round."""

    def qset(qubits):
        return "{" + ", ".join(f"q{q}" for q in qubits) + "}"

    def md(qubits, rd):
        return f"    MD {qset(qubits)}" + ("" if rd is None else f", r{rd}")

    lines = ["    mov r1, 0", f"    mov r2, {rounds}", "loop:", "    Wait 4"]
    points = 0
    for kind, *args in steps:
        if kind == "pulse":
            lines += [f"    Pulse {{q{args[0]}}}, {args[1]}", "    Wait 4"]
        elif kind == "measure":
            mpg, mds, rd = args
            lines += [f"    MPG {qset(mpg)}, 300", md(mds, rd), "    Wait 4"]
            points += len(mds)
        elif kind == "orphan":
            mds, rd = args
            lines += [md(mds, rd), "    Wait 4"]
            points += len(mds)
        else:
            lines.append(f"    Wait {args[0]}")
    lines += ["    addi r1, r1, 1", "    bne r1, r2, loop", "    halt"]
    return "\n".join(lines), max(points, 1)


def _schedule_digest(width: int, asm: str, points: int) -> str:
    machine = QuMA(MachineConfig(qubits=tuple(range(width)), seed=31,
                                 trace_enabled=False,
                                 readouts=staggered_readouts(width),
                                 dcu_points=points))
    machine.load(asm)
    return _digest(machine, machine.run())


@settings(max_examples=40, derandomize=True, deadline=None)
@given(schedules())
def test_generated_schedules_match_one_record_flushes(schedule):
    width, steps, rounds = schedule
    asm, points = _render(steps, rounds)
    default = _schedule_digest(width, asm, points)
    saved = MeasurementPath.PENDING_MAX_RECORDS
    MeasurementPath.PENDING_MAX_RECORDS = 1
    try:
        alone = _schedule_digest(width, asm, points)
    finally:
        MeasurementPath.PENDING_MAX_RECORDS = saved
    assert alone == default


# -- bounds -------------------------------------------------------------------


def _allxy_machine() -> QuMA:
    compiled = compile_program(build_allxy_program(2),
                               CompilerOptions(n_rounds=8))
    machine = QuMA(MachineConfig(qubits=(2,), seed=11, trace_enabled=False,
                                 dcu_points=compiled.k_points))
    machine.load(compiled.asm)
    return machine


@pytest.mark.parametrize("cap", [3, None])
def test_pending_records_never_exceed_the_cap(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(MeasurementPath, "PENDING_MAX_RECORDS", cap)
    machine = _allxy_machine()
    seen = []
    result = machine.run(
        until=lambda: seen.append(machine.measurement._pending) or False)
    assert result.completed and result.measurements == 336
    assert max(seen) <= MeasurementPath.PENDING_MAX_RECORDS
    if cap is None:
        # No value is observed mid-run, so one flush covers the whole
        # 8-round AllXY job.
        assert max(seen) == 336
    assert machine.measurement._pending == 0


def test_reset_drops_pending_records():
    machine = _allxy_machine()
    program = machine.exec_ctrl.program
    machine.exec_ctrl.start()
    machine.sim.run(max_events=4000)  # mid-job, no end-of-run flush
    path = machine.measurement
    assert path._pending and path._writebacks
    machine.reset()
    assert path._pending == 0
    assert not path._runs and not path._writebacks and not path.results
    machine.load(program)  # a reset machine holds no program
    result = machine.run()
    assert _digest(machine, result) == DIGESTS["allxy_full"]
