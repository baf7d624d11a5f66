"""The exact-state memo of a one-qubit device.

Every state step of a one-qubit ``QuantumDevice`` (idle decoherence, a
drive unitary, a projection) is looked up by the exact bytes of its input
matrix before it is computed.  A hit must be byte-equal to computing the
step again, so every output of a job is compared with a reference run on
a device whose memo keeps nothing (``MEMO_MAX_ENTRIES = 0``).
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.core import MachineConfig
from repro.pulse import PulseCalibration, build_single_qubit_lut
from repro.qubit import DensityMatrix, QuantumDevice, TransmonParams
from repro.service import JobSpec, Worker, pool_key
from repro.session import Session

CONFIG = MachineConfig(qubits=(2,), seed=21, trace_enabled=False)
LUT = build_single_qubit_lut(PulseCalibration())

#: Active reset: an ``MD`` result steers a ``bne``, so only full
#: simulation can run it.
ACTIVE_RESET = """
    mov r0, 1
    mov r1, 0
    mov r2, 5
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
    halt
"""

#: An averaging loop whose gate is a one-qubit microprogram (``QCall``).
QCALL_LOOP = """
    mov r15, 4000
    mov r1, 0
    mov r2, 6
Loop:
    QNopReg r15
    HALF q2
    Wait 4
    MPG {q2}, 300
    MD {q2}
    addi r1, r1, 1
    bne r1, r2, Loop
    halt
"""


def experiment_spec(name, **params):
    with Session(seed=22) as session:
        return session.create(name, **params).build_specs()[0]


SPECS = {
    "allxy_full": lambda: experiment_spec("allxy", n_rounds=4, replay=False),
    "t1_point": lambda: experiment_spec("t1", delays_cycles=[700],
                                        n_rounds=6),
    "rabi_point": lambda: experiment_spec("rabi", amplitudes=[0.6],
                                          n_rounds=6),
    "feedback": lambda: JobSpec(config=CONFIG, asm=ACTIVE_RESET, k_points=2),
    "microprogram": lambda: JobSpec(
        config=CONFIG, asm=QCALL_LOOP, n_rounds=6,
        microprograms=(("HALF", 1, "Pulse {q0}, X90\nWait 4"),)),
}


@contextmanager
def machine_of(worker, spec):
    """The pooled machine that ran ``spec`` on ``worker``."""
    key = pool_key(spec.config)
    machine, reused = worker.pool.acquire(spec.config, key)
    assert reused
    try:
        yield machine
    finally:
        worker.pool.release(machine, key)


def outputs(worker, spec):
    """Every output of one job, as comparable values."""
    job = worker.run(spec)
    run = job.run
    with machine_of(worker, spec) as machine:
        return {
            "averages": np.asarray(job.averages).tobytes(),
            "registers": tuple(run.registers),
            "duration_ns": run.duration_ns,
            "instructions_executed": run.instructions_executed,
            "measurements": run.measurements,
            "statistics": tuple(r.statistic
                                for r in machine.measurement.results),
            "state": machine.device.state.data.tobytes(),
        }


def memo_stats(worker, spec):
    with machine_of(worker, spec) as machine:
        return machine.device.cache_stats()


@pytest.fixture
def unmemoized(monkeypatch):
    """Run a callable on devices whose memo keeps nothing."""
    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(QuantumDevice, "MEMO_MAX_ENTRIES", 0)
            return fn(*args)
    return run


@pytest.mark.parametrize("name", sorted(SPECS))
class TestByteEquality:
    def test_fresh_machine(self, name, unmemoized):
        spec = replace(SPECS[name](), seed=31)
        reference = unmemoized(outputs, Worker(), spec)
        worker = Worker()
        assert outputs(worker, spec) == reference
        assert memo_stats(worker, spec)["memo_entries"] > 0

    def test_warm_machine(self, name, unmemoized):
        spec = SPECS[name]()
        reference = unmemoized(outputs, Worker(), replace(spec, seed=32))
        worker = Worker()
        # Full simulation fills the memo and caches no replay plan, so
        # the compared job records its rounds like the reference does.
        worker.run(replace(spec, seed=33, replay=False))
        filled = memo_stats(worker, spec)
        assert filled["memo_entries"] > 0
        assert outputs(worker, replace(spec, seed=32)) == reference
        assert memo_stats(worker, spec)["memo_hits"] > filled["memo_hits"]

    def test_reference_stores_nothing(self, name, unmemoized):
        spec = SPECS[name]()
        worker = Worker()
        unmemoized(worker.run, spec)
        stats = memo_stats(worker, spec)
        assert stats["memo_entries"] == stats["memo_hits"] == 0


class TestReplayPlans:
    def plan_of(self, worker, spec):
        key = worker.replay_cache.key_for(spec, pool_key(spec.config))
        return worker.replay_cache.get(key)

    def test_a_warm_memo_records_the_same_plan(self, unmemoized):
        spec = experiment_spec("allxy", n_rounds=6)
        fresh = Worker()
        unmemoized(fresh.run, spec)
        warm = Worker()
        warm.run(replace(spec, seed=41, replay=False))
        warm.run(spec)
        expected, plan = self.plan_of(fresh, spec), self.plan_of(warm, spec)
        assert expected is not None and plan is not None
        for name in ("p1_tree", "next_pos", "bad_word"):
            a, b = getattr(expected, name), getattr(plan, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_warm_replay_equals_full_simulation(self, unmemoized):
        spec = replace(experiment_spec("allxy", n_rounds=6), seed=42)
        full = unmemoized(Worker().run, replace(spec, replay=False))
        worker = Worker()
        worker.run(replace(spec, seed=43, replay=False))
        cold = worker.run(spec)
        warm = worker.run(spec)
        assert cold.replayed_rounds == 4 and warm.replay_plan_hit
        for job in (cold, warm):
            assert job.averages.tobytes() == full.averages.tobytes()


class TestDevice:
    def test_a_memoized_matrix_is_read_only(self):
        device = QuantumDevice([TransmonParams()])
        device.play_waveform((0,), LUT.lookup(1), start_ns=0)
        device.measure_project(0, t_ns=40)
        data = device.state.data
        assert device.cache_stats()["memo_entries"] == 3
        with pytest.raises(ValueError):
            data[0, 0] = 0.5
        copy = device.state.copy()
        copy.data[0, 0] = 0.5
        assert device.state.data is data and data[0, 0] != 0.5

    def test_the_memo_stays_under_its_cap(self, monkeypatch, unmemoized):
        # Irregular intervals make every idle step, and so every state
        # after it, distinct.
        starts = np.cumsum(40 + np.arange(60) % 7).tolist()
        reference = QuantumDevice([TransmonParams()])
        unmemoized(lambda: [
            reference.play_waveform((0,), LUT.lookup(2), start_ns=start)
            for start in starts])
        monkeypatch.setattr(QuantumDevice, "MEMO_MAX_ENTRIES", 8)
        device = QuantumDevice([TransmonParams()])
        for start in starts:
            device.play_waveform((0,), LUT.lookup(2), start_ns=start)
            assert device.cache_stats()["memo_entries"] <= 8
        assert device.cache_stats()["memo_misses"] > 8
        assert device.state.data.tobytes() == reference.state.data.tobytes()

    def test_the_cap_bounds_a_job(self, monkeypatch, unmemoized):
        spec = SPECS["allxy_full"]()
        reference = unmemoized(outputs, Worker(), spec)
        monkeypatch.setattr(QuantumDevice, "MEMO_MAX_ENTRIES", 16)
        worker = Worker()
        assert outputs(worker, spec) == reference
        stats = memo_stats(worker, spec)
        assert stats["memo_entries"] <= 16 and stats["memo_misses"] > 16

    def test_a_register_stores_nothing(self):
        device = QuantumDevice([TransmonParams(), TransmonParams()])
        for start in (0, 40, 80):
            device.play_waveform((0,), LUT.lookup(2), start_ns=start)
            device.play_waveform((1,), LUT.lookup(1), start_ns=start)
        device.measure_project(0, t_ns=200)
        stats = device.cache_stats()
        assert stats["memo_hits"] == stats["memo_misses"] == 0
        assert stats["memo_entries"] == 0
        assert device.state.data.flags.writeable

    def test_a_raising_projection_stores_nothing(self):
        device = QuantumDevice([TransmonParams()])
        device.state = DensityMatrix(1, np.diag([1.0 - 1e-13, 1e-13]))

        class Zero:
            def random(self):
                return 0.0

        device._rng = Zero()  # draws outcome 1, of probability 1e-13
        with pytest.raises(ValueError, match="probability"):
            device.measure_project(0, t_ns=0)
        assert device.cache_stats()["memo_entries"] == 0


class TestCounts:
    def test_pulse_unitary_counts_are_unchanged(self, unmemoized):
        spec = SPECS["allxy_full"]()
        reference = Worker()
        unmemoized(reference.run, spec)
        worker = Worker()
        worker.run(spec)
        expected = memo_stats(reference, spec)
        stats = memo_stats(worker, spec)
        assert {k: stats[k] for k in ("hits", "misses")} == {
            k: expected[k] for k in ("hits", "misses")}
        assert stats["memo_hits"] + stats["memo_misses"] == (
            expected["memo_misses"])

    def test_a_warm_allxy_job_counts_only_memo_hits(self):
        spec = replace(SPECS["allxy_full"](), seed=51)
        worker = Worker()
        worker.run(spec)
        before = memo_stats(worker, spec)
        worker.run(spec)
        after = memo_stats(worker, spec)
        assert after["memo_misses"] == before["memo_misses"]
        assert after["memo_entries"] == before["memo_entries"]
        assert after["memo_hits"] > before["memo_hits"]
