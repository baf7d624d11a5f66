"""Machine pool: reuse, keying, and rebuild equivalence."""

import gc
import sys
import threading
import time
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

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
        key = pool_key(config())
        m1, reused1 = pool.acquire(config(), key)
        pool.release(m1, key)
        m2, reused2 = pool.acquire(config(), key)
        assert not reused1 and reused2
        assert m2 is m1
        assert pool.stats() == {"builds": 1, "reuses": 1, "idle": 0, "keys": 1}

    def test_incompatible_config_builds_fresh(self):
        pool = MachinePool()
        m1, _ = pool.acquire(config(seed=0), pool_key(config(seed=0)))
        pool.release(m1, pool_key(config(seed=0)))
        m2, reused = pool.acquire(config(seed=1), pool_key(config(seed=1)))
        assert not reused and m2 is not m1
        assert pool.builds == 2

    def test_config_is_shared_and_frozen(self):
        # No copy: the lent machine holds the caller's config, and no
        # job can change it.
        pool = MachinePool()
        mine = config()
        machine, _ = pool.acquire(mine, pool_key(mine))
        assert machine.config is mine
        with pytest.raises(FrozenInstanceError):
            machine.config.dcu_points = 99
        assert mine.dcu_points == 1

    def test_idle_cap_drops_excess(self, monkeypatch):
        monkeypatch.setattr(MachinePool, "MAX_IDLE_PER_KEY", 1)
        pool = MachinePool()
        key = pool_key(config())
        m1, _ = pool.acquire(config(), key)
        m2, _ = pool.acquire(config(), key)
        pool.release(m1, key)
        pool.release(m2, key)
        assert pool.stats()["idle"] == 1

    def test_total_cap_evicts_least_recently_released(self, monkeypatch):
        monkeypatch.setattr(MachinePool, "MAX_IDLE_TOTAL", 2)
        pool = MachinePool()
        keys = [pool_key(config(seed=s)) for s in range(3)]
        machines = [pool.acquire(config(seed=s), keys[s])[0]
                    for s in range(3)]
        for m, key in zip(machines, keys):
            pool.release(m, key)
        assert pool.stats()["idle"] == 2
        # The oldest release (seed=0) was evicted; seed=1 and 2 survive.
        _, reused0 = pool.acquire(config(seed=0), keys[0])
        _, reused2 = pool.acquire(config(seed=2), keys[2])
        assert not reused0 and reused2

    def test_bookkeeping_holds_only_idle_machines(self):
        pool = MachinePool()
        key = pool_key(config())
        for _ in range(500):
            machine, _ = pool.acquire(config(), key)
            pool.release(machine, key)
        assert len(pool._released) == pool.stats()["idle"] == 1

    def test_dropped_machine_is_collected(self):
        pool = MachinePool()
        key = pool_key(config())
        machines = [pool.acquire(config(), key)[0] for _ in range(5)]
        for i in range(4):
            pool.release(machines[i], key)
        again, reused = pool.acquire(config(), key)
        pool.release(machines[4], key)
        pool.release(again, key)  # the key is full again: dropped
        assert reused and pool.stats()["idle"] == 4
        dropped = weakref.ref(again)
        del again, machines
        gc.collect()
        assert dropped() is None

    def test_bookkeeping_stays_exact_under_contention(self):
        # More threads than cores and a tiny switch interval: a lost
        # update would lend one machine twice, or leave an idle machine
        # and its eviction entry out of step.
        pool = MachinePool()
        configs = [config(seed=0), config(seed=1)]
        keys = [pool_key(c) for c in configs]
        lent, errors, guard = set(), [], threading.Lock()

        def cycle(offset):
            for i in range(200):
                k = (offset + i) % 2
                machine, _ = pool.acquire(configs[k], keys[k])
                with guard:
                    if machine in lent:
                        errors.append(f"machine lent twice on key {k}")
                    lent.add(machine)
                time.sleep(0)  # hold the machine across a thread switch
                with guard:
                    lent.discard(machine)
                pool.release(machine, keys[k])

        threads = [threading.Thread(target=cycle, args=(t,))
                   for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        idle = [m for machines in pool._idle.values() for m in machines]
        assert len(set(idle)) == len(idle) == pool.stats()["idle"]
        assert set(pool._released) == set(idle)
        assert pool.builds + pool.reuses == 4 * 200


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
        assert machine.dcu.k_points == 3
        assert machine.measurement.dcu is machine.dcu
        # K is machine state: the shared config is never written.
        assert machine.config.dcu_points == 1

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
