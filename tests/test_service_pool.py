"""Machine pool: reuse, keying, and rebuild equivalence."""

import numpy as np

from repro.core import MachineConfig, QuMA
from repro.service import MachinePool, pool_key

ASM = """
    mov r15, 400
    mov r1, 0
    mov r2, 3
Outer_Loop:
    QNopReg r15
    Pulse {q2}, X180
    Wait 4
    MPG {q2}, 300
    MD {q2}
    addi r1, r1, 1
    bne r1, r2, Outer_Loop
    halt
"""


def config(**kw):
    kw.setdefault("qubits", (2,))
    kw.setdefault("trace_enabled", False)
    return MachineConfig(**kw)


class TestPoolKey:
    def test_dcu_points_excluded(self):
        assert pool_key(config(dcu_points=1)) == pool_key(config(dcu_points=42))

    def test_seed_included(self):
        # The base seed drives readout calibration: different instruments.
        assert pool_key(config(seed=0)) != pool_key(config(seed=1))

    def test_physics_fields_included(self):
        assert pool_key(config()) != pool_key(config(ctpg_delay_ns=100))


class TestMachinePool:
    def test_acquire_builds_then_reuses(self):
        pool = MachinePool()
        m1, reused1 = pool.acquire(config())
        pool.release(m1)
        m2, reused2 = pool.acquire(config())
        assert not reused1 and reused2
        assert m2 is m1
        assert pool.stats() == {"builds": 1, "reuses": 1, "idle": 0, "keys": 1}

    def test_incompatible_config_builds_fresh(self):
        pool = MachinePool()
        m1, _ = pool.acquire(config(seed=0))
        pool.release(m1)
        m2, reused = pool.acquire(config(seed=1))
        assert not reused and m2 is not m1
        assert pool.builds == 2

    def test_config_is_copied(self):
        pool = MachinePool()
        mine = config()
        machine, _ = pool.acquire(mine)
        machine.config.dcu_points = 99
        assert mine.dcu_points == 1

    def test_idle_cap_drops_excess(self, monkeypatch):
        monkeypatch.setattr(MachinePool, "MAX_IDLE_PER_KEY", 1)
        pool = MachinePool()
        m1, _ = pool.acquire(config())
        m2, _ = pool.acquire(config())
        pool.release(m1)
        pool.release(m2)
        assert pool.stats()["idle"] == 1

    def test_total_cap_evicts_least_recently_released(self, monkeypatch):
        monkeypatch.setattr(MachinePool, "MAX_IDLE_TOTAL", 2)
        pool = MachinePool()
        machines = [pool.acquire(config(seed=s))[0] for s in range(3)]
        for m in machines:
            pool.release(m)
        assert pool.stats()["idle"] == 2
        # The oldest release (seed=0) was evicted; seed=1 and 2 survive.
        _, reused0 = pool.acquire(config(seed=0))
        _, reused2 = pool.acquire(config(seed=2))
        assert not reused0 and reused2


class TestResetEquivalence:
    """Pooled reuse must be bit-for-bit identical to a fresh rebuild."""

    def test_reset_matches_fresh_machine(self):
        fresh = QuMA(config(classical_jitter_ns=3))
        fresh.load(ASM)
        want = fresh.run()

        reused = QuMA(config(classical_jitter_ns=3))
        reused.load(ASM)
        reused.run()  # dirty every unit
        reused.reset()
        reused.load(ASM)
        got = reused.run()

        assert np.array_equal(want.averages, got.averages)
        assert want.duration_ns == got.duration_ns
        assert want.registers == got.registers
        assert want.instructions_executed == got.instructions_executed

    def test_reset_with_new_seed_changes_noise_only(self):
        machine = QuMA(config())
        machine.load(ASM)
        base = machine.run()
        machine.reset(seed=123)
        machine.load(ASM)
        other = machine.run()
        # Same timing (deterministic domain), different statistics.
        assert base.duration_ns == other.duration_ns
        assert not np.array_equal(base.averages, other.averages)

    def test_reset_resizes_dcu(self):
        machine = QuMA(config(dcu_points=1))
        machine.reset(dcu_points=3)
        assert machine.config.dcu_points == 3
        assert machine.dcu.k_points == 3
        assert machine.measurement.dcu is machine.dcu

    def test_reset_clears_trace_and_results(self):
        machine = QuMA(MachineConfig(qubits=(2,)))  # tracing on
        machine.load(ASM)
        machine.run()
        assert len(machine.trace) > 0
        machine.reset()
        assert len(machine.trace) == 0
        assert machine.measurement.results == []
        assert machine.sim.now == 0
        assert machine.tcu.queues_empty()
