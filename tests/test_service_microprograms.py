"""Microprogram-aware jobs: setup threading, cache keys, replay fallback."""

import numpy as np
import pytest

from repro.core import MachineConfig
from repro.service import (
    ExperimentService,
    JobSpec,
    ReplayCache,
    microprograms_fingerprint,
)
from repro.utils.errors import ReproError

#: Canonical averaging loop whose gate comes from a Q-control-store
#: microprogram (an ``Apply``-style mnemonic, assembled to ``QCall``).
LOOP_ASM = """
    mov r15, 40000
    mov r1, 0
    mov r2, {n}
Loop:
    QNopReg r15
    FLIP q2
    Wait 4
    MPG {{q2}}, 300
    MD {{q2}}
    addi r1, r1, 1
    bne r1, r2, Loop
    halt
"""

X_BODY = "Pulse {q0}, X180\nWait 4"
I_BODY = "Pulse {q0}, I\nWait 4"


def uprog_spec(body=X_BODY, n_rounds=8, seed=None, replay=True):
    return JobSpec(config=MachineConfig(qubits=(2,), trace_enabled=False),
                   asm=LOOP_ASM.format(n=n_rounds), n_rounds=n_rounds,
                   microprograms=(("FLIP", 1, body),), seed=seed,
                   replay=replay)


class TestExecution:
    def test_microprogram_threads_into_machine_setup(self):
        job = ExperimentService().run_job(uprog_spec(X_BODY))
        assert job.normalized[0] == pytest.approx(1.0, abs=0.3)

    def test_body_changes_results_not_just_names(self):
        service = ExperimentService()
        flip = service.run_job(uprog_spec(X_BODY))
        stay = service.run_job(uprog_spec(I_BODY))
        assert flip.normalized[0] > 0.7
        assert stay.normalized[0] < 0.3

    def test_pooled_machine_reuse_is_bit_exact(self):
        service = ExperimentService()
        first = service.run_job(uprog_spec(X_BODY, seed=5))
        pooled = service.run_job(uprog_spec(X_BODY, seed=5))
        assert pooled.machine_reused and pooled.cache_hit
        assert np.array_equal(first.averages, pooled.averages)

    def test_bad_microprogram_body_raises(self):
        spec = uprog_spec("mov r1, 1")  # classical instr in a microprogram
        with pytest.raises(ReproError):
            ExperimentService().run_job(spec)

    def test_pooled_reuse_does_not_leak_microprograms(self):
        # Machine reset must restore the just-constructed (empty)
        # Q-control store, or one job's definitions would silently
        # resolve in the next job's programs on a reused machine.
        service = ExperimentService()
        service.run_job(uprog_spec(X_BODY))
        machine, reused = service.engine.pool.acquire(uprog_spec(X_BODY).config)
        try:
            assert reused
            assert "FLIP" in machine.store  # left over from the last job
            machine.reset()
            assert "FLIP" not in machine.store
        finally:
            service.engine.pool.release(machine)


class TestCacheKeys:
    def test_same_asm_different_body_misses_cache(self):
        service = ExperimentService()
        service.run_job(uprog_spec(X_BODY))
        second = service.run_job(uprog_spec(I_BODY))
        assert not second.cache_hit  # body is part of the fingerprint

    def test_fingerprint_stability_and_sensitivity(self):
        a = microprograms_fingerprint((("FLIP", 1, X_BODY),))
        assert a == microprograms_fingerprint((("FLIP", 1, X_BODY),))
        assert a != microprograms_fingerprint((("FLIP", 1, I_BODY),))
        assert a != microprograms_fingerprint((("FLOP", 1, X_BODY),))
        assert a != microprograms_fingerprint(())

    def test_replay_cache_key_includes_microprograms(self):
        cache = ReplayCache()
        assert cache.key_for(uprog_spec(X_BODY)) != \
            cache.key_for(uprog_spec(I_BODY))


class TestReplayIneligibility:
    def test_microprogram_job_falls_back_to_full_simulation(self):
        # The ROADMAP item's safety property: QCall programs never take
        # the round-replay fast path, however many rounds they declare.
        job = ExperimentService().run_job(uprog_spec(X_BODY, n_rounds=8))
        assert job.replayed_rounds == 0
        assert not job.replay_plan_hit

    def test_fallback_is_bit_identical_to_replay_disabled(self):
        with_replay = ExperimentService().run_job(
            uprog_spec(X_BODY, n_rounds=8, seed=3, replay=True))
        without = ExperimentService().run_job(
            uprog_spec(X_BODY, n_rounds=8, seed=3, replay=False))
        assert np.array_equal(with_replay.averages, without.averages)

    def test_equivalent_inline_program_does_replay(self):
        # Same physics written without the microprogram call replays,
        # pinning the fallback to the QCall itself.
        inline = JobSpec(
            config=MachineConfig(qubits=(2,), trace_enabled=False),
            asm=LOOP_ASM.format(n=8).replace("FLIP q2",
                                             "Pulse {q2}, X180"),
            n_rounds=8)
        job = ExperimentService().run_job(inline)
        assert job.replayed_rounds > 0
