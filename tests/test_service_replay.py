"""Service-level tests for the round-replay fast path and its plan cache."""

import numpy as np

from repro.compiler.codegen import CompilerOptions
from repro.core import MachineConfig
from repro.experiments.allxy import build_allxy_program
from repro.service import ExperimentService, JobSpec, ReplayCache, derive_job_seed


def small_config(**overrides):
    defaults = dict(qubits=(2,), trace_enabled=False, calibration_shots=20)
    defaults.update(overrides)
    return MachineConfig(**defaults)


def allxy_spec(n_rounds, seed=None, replay=True):
    return JobSpec(config=small_config(), program=build_allxy_program(2),
                   compiler_options=CompilerOptions(n_rounds=n_rounds),
                   seed=seed, replay=replay)


class TestServiceReplay:
    def test_replay_on_off_parity_through_service(self):
        on = ExperimentService().run_job(allxy_spec(8))
        off = ExperimentService().run_job(allxy_spec(8, replay=False))
        assert on.replayed_rounds == 6
        assert off.replayed_rounds == 0
        assert np.array_equal(on.averages, off.averages)
        assert on.run.duration_ns == off.run.duration_ns

    def test_plan_cache_hits_across_seeds(self):
        service = ExperimentService()
        sweep = service.run_batch([allxy_spec(6, seed=derive_job_seed(3, i))
                                   for i in range(3)])
        assert [j.replay_plan_hit for j in sweep] == [False, True, True]
        assert [j.replayed_rounds for j in sweep] == [4, 6, 6]
        assert service.engine.worker.replay_cache.stats()["hits"] == 2
        # different seeds must still give different draws
        assert not np.array_equal(sweep[0].averages, sweep[1].averages)

    def test_warm_plan_matches_cold_job_bitwise(self):
        """The same spec executed cold (plan miss) and warm (plan hit)
        must produce byte-equal results — the property that keeps the
        serial and process backends in exact agreement."""
        spec = allxy_spec(6, seed=123)
        cold = ExperimentService().run_job(spec)
        service = ExperimentService()
        service.run_job(allxy_spec(6, seed=7))  # builds the plan
        warm = service.run_job(allxy_spec(6, seed=123))
        assert not cold.replay_plan_hit and warm.replay_plan_hit
        assert np.array_equal(cold.averages, warm.averages)
        assert cold.run.duration_ns == warm.run.duration_ns
        assert cold.run.instructions_executed == warm.run.instructions_executed

    def test_warm_allxy_sweep_holds_one_trace_block(self):
        """A warm N=128 AllXY sweep replays 5376 readout records of 1500
        samples (64 MB of traces) through reused blocks, so its traced
        allocation peak stays at a few blocks."""
        import tracemalloc

        from repro.session import Session

        jobs = []
        with Session(seed=3) as session:
            session.run("allxy", qubits=(0,), n_rounds=128)  # builds the plan
            tracemalloc.start()
            try:
                session.run("allxy", qubits=(0,), n_rounds=128,
                            on_result=jobs.append)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert jobs and all(job.replay_plan_hit for job in jobs)
        assert peak <= 4 * 2 ** 20

    def test_ineligible_spec_reports_zero_replayed(self):
        job = ExperimentService().run_job(allxy_spec(2))
        assert job.replayed_rounds == 0 and not job.replay_plan_hit

    def test_asm_spec_needs_declared_rounds(self):
        asm = """
            mov r1, 0
            mov r2, 6
        Outer_Loop:
            Wait 40000
            Pulse {q2}, X90
            Wait 4
            MPG {q2}, 300
            MD {q2}
            addi r1, r1, 1
            bne r1, r2, Outer_Loop
            halt
        """
        service = ExperimentService()
        config = small_config(dcu_points=1)
        silent = service.run_job(JobSpec(config=config, asm=asm))
        declared = service.run_job(JobSpec(config=config, asm=asm, n_rounds=6))
        assert silent.replayed_rounds == 0
        assert declared.replayed_rounds == 4
        assert np.array_equal(silent.averages, declared.averages)

    def test_replay_cache_key_separates_uploads(self):
        from repro.service import LUTUpload

        cache = ReplayCache()
        base = JobSpec(config=small_config(dcu_points=1), asm="halt",
                       n_rounds=4)
        up_a = JobSpec(config=small_config(dcu_points=1), asm="halt",
                       n_rounds=4,
                       uploads=(LUTUpload(2, "P", (0.1 + 0j,)),))
        up_b = JobSpec(config=small_config(dcu_points=1), asm="halt",
                       n_rounds=4,
                       uploads=(LUTUpload(2, "P", (0.2 + 0j,)),))
        keys = {cache.key_for(base), cache.key_for(up_a), cache.key_for(up_b)}
        assert len(keys) == 3

    def test_replay_cache_key_ignores_run_seed_and_rounds(self):
        cache = ReplayCache()
        a = allxy_spec(8, seed=1)
        b = allxy_spec(200, seed=2)
        assert cache.key_for(a) == cache.key_for(b)

    def test_replay_cache_key_separates_construction_seeds(self):
        """config.seed fixes the readout calibration — differently-seeded
        configs are different instruments and must not share plans."""
        cache = ReplayCache()
        a = JobSpec(config=small_config(seed=0), program=build_allxy_program(2))
        b = JobSpec(config=small_config(seed=1), program=build_allxy_program(2))
        assert cache.key_for(a) != cache.key_for(b)
