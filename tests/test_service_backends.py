"""Executor backends: parity, futures, streaming, and sweep artifacts.

The determinism contract under test: ``run_batch`` on every backend
returns bit-identical ``SweepResult.averages()`` for the same specs, and
``iter_completed`` yields every submitted job exactly once whatever order
they finish in.

Set ``REPRO_SERVICE_BACKEND=serial|process|fleet`` to pin the
parametrized backend (the CI matrix runs one backend per job); unset, the
tests cover serial and process.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, QuantumProgram
from repro.core import MachineConfig
from repro.experiments.rabi import rabi_job
from repro.service import (
    ExperimentService,
    FaultPlan,
    JobSpec,
    SweepResult,
)
from repro.utils.errors import ConfigurationError, ReproError

from conftest import BACKENDS_UNDER_TEST


@pytest.fixture(params=BACKENDS_UNDER_TEST)
def backend(request):
    return request.param


def flip_program():
    p = QuantumProgram("flip", qubits=(2,))
    p.new_kernel("k").prepz(2).x(2).measure(2)
    return p


def flip_spec(seed=None, n_rounds=2, label=""):
    return JobSpec(config=MachineConfig(qubits=(2,), trace_enabled=False),
                   program=flip_program(),
                   compiler_options=CompilerOptions(n_rounds=n_rounds),
                   seed=seed, label=label)


def mixed_specs():
    """Seeds, an upload sweep point, and a replay-eligible job."""
    config = MachineConfig(qubits=(2,), trace_enabled=False)
    return [
        flip_spec(seed=1, label="flip1"),
        flip_spec(seed=2, label="flip2"),
        rabi_job(config, 2, 0.3, n_rounds=4),
        flip_spec(seed=3, n_rounds=8, label="flip3"),
    ]


class TestBackendRegistry:
    def test_service_accepts_all_backends(self, backend):
        with ExperimentService(backend=backend) as svc:
            assert svc.backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentService(backend="threads")


class TestParity:
    # One oracle, computed once, compared against every backend.
    _oracle = None

    @classmethod
    def oracle(cls):
        if cls._oracle is None:
            cls._oracle = ExperimentService().run_batch(mixed_specs())
        return cls._oracle

    def test_run_batch_bit_identical_across_backends(self, backend):
        serial = self.oracle()
        with ExperimentService(backend=backend, workers=2) as svc:
            sweep = svc.run_batch(mixed_specs())
        assert sweep.backend == backend
        assert np.array_equal(serial.averages(), sweep.averages())
        for s, p in zip(serial, sweep):
            assert s.seed == p.seed
            assert s.params == p.params
            assert s.run.duration_ns == p.run.duration_ns

    def test_submit_then_gather_matches_run_batch(self, backend):
        serial = self.oracle()
        with ExperimentService(backend=backend, workers=2) as svc:
            futures = [svc.submit(spec) for spec in mixed_specs()]
            svc.drain()
            assert all(f.done() for f in futures)
            results = [f.result() for f in futures]
        assert np.array_equal(serial.averages(),
                              np.stack([r.averages for r in results]))


class TestOneLane:
    def test_run_job_and_lone_batch_run_on_the_engine(self, backend):
        """Neither call has a path of its own: both jobs are the
        engine's, counted like any submission, with serial's bytes."""
        spec = flip_spec(seed=4, label="lone")
        serial = ExperimentService().run_job(spec)
        with ExperimentService(backend=backend, workers=2) as svc:
            jobs = [svc.run_job(spec), svc.run_batch([spec])[0]]
            stats = svc.stats()
        assert stats["engine"]["submitted"] == 2
        assert stats["metrics"]["service"]["counters"]["service.jobs"] == 2
        for job in jobs:
            assert job.averages.tobytes() == serial.averages.tobytes()
            assert (job.s_ground, job.s_excited) == \
                (serial.s_ground, serial.s_excited)
            assert (job.seed, job.label) == (serial.seed, serial.label)


class TestFutures:
    def test_submit_returns_future_with_index(self, backend):
        with ExperimentService(backend=backend, workers=2) as svc:
            f1 = svc.submit(flip_spec(seed=1))
            f2 = svc.submit(flip_spec(seed=2))
            assert (f1.index, f2.index) == (0, 1)
            assert f1.result().seed == 1
            assert f2.result().seed == 2
            list(svc.iter_completed())  # drain the stream bookkeeping

    def test_future_reraises_job_error(self, backend):
        bad = QuantumProgram("tight", qubits=(2,))
        k = bad.new_kernel("k")
        k.x(2)
        k.x(2)
        k.measure(2)
        spec = JobSpec(
            config=MachineConfig(qubits=(2,), classical_issue_ns=500,
                                 trace_enabled=False),
            program=bad)
        with ExperimentService(backend=backend, workers=2) as svc:
            future = svc.submit(spec)
            with pytest.raises(ReproError):
                future.result()
            assert future.exception() is not None
            with pytest.raises(ReproError):
                list(svc.iter_completed())

    def test_future_resolves_exactly_once(self):
        from repro.service import JobFuture

        future = JobFuture(flip_spec())
        future.set_result("x")
        with pytest.raises(RuntimeError):
            future.set_result("y")

    def test_done_callback_fires_after_and_immediately(self):
        from repro.service import JobFuture

        seen = []
        future = JobFuture(flip_spec())
        future.add_done_callback(lambda f: seen.append("pre"))
        future.set_result("x")
        future.add_done_callback(lambda f: seen.append("post"))
        assert seen == ["pre", "post"]


class TestIterCompleted:
    def test_streams_every_submission_exactly_once(self, backend):
        specs = [flip_spec(seed=s, label=f"s{s}") for s in range(5)]
        with ExperimentService(backend=backend, workers=2) as svc:
            for spec in specs:
                svc.submit(spec)
            got = list(svc.iter_completed())
        assert sorted(r.label for r in got) == sorted(s.label for s in specs)
        # Stream is drained: a second iteration yields nothing.
        assert list(svc.iter_completed()) == []

    def test_results_can_finish_out_of_submission_order(self, backend):
        if backend == "serial":
            pytest.skip("serial submission resolves eagerly in order")
        # One heavy job submitted first, then light ones: with two
        # workers the light jobs overtake it in the completion stream.
        # The seeds are picked so that only the heavy job hangs.
        plan = FaultPlan(seed=3, rate=0.5, kinds=("hang",), hang_s=2.0,
                         sites=("execute",))
        hangs = [plan.fault_for("execute", s, 0) == "hang"
                 for s in range(64)]
        heavy = flip_spec(seed=hangs.index(True), n_rounds=60, label="heavy")
        heavy.replay = False
        lights = [flip_spec(seed=s, label=f"light{s}")
                  for s in [s for s, h in enumerate(hangs) if not h][:4]]
        with ExperimentService(backend=backend, workers=2,
                               faults=plan) as svc:
            svc.submit(heavy)
            for spec in lights:
                svc.submit(spec)
            order = [r.label for r in svc.iter_completed()]
        assert sorted(order) == sorted(["heavy"] + [s.label for s in lights])
        assert order[0] != "heavy"

    def test_iter_completed_timeout(self):
        with ExperimentService() as svc:
            svc.submit(flip_spec())
            assert len(list(svc.iter_completed(timeout=10))) == 1


def labels(futures):
    return [future.result().label for future in futures]


class TestScopedDraining:
    """iter_futures(futures): one sweep's stream on a shared service."""

    def test_group_stream_yields_only_its_own_jobs(self, backend):
        with ExperimentService(backend=backend, workers=2) as svc:
            group_a = [svc.submit(flip_spec(seed=s, label=f"a{s}"))
                       for s in range(3)]
            group_b = [svc.submit(flip_spec(seed=s, label=f"b{s}"))
                       for s in range(3, 6)]
            got_a = labels(svc.iter_futures(group_a))
            got_b = labels(svc.iter_futures(group_b))
        assert sorted(got_a) == ["a0", "a1", "a2"]
        assert sorted(got_b) == ["b3", "b4", "b5"]

    def test_scoped_then_global_yields_each_job_once(self, backend):
        with ExperimentService(backend=backend, workers=2) as svc:
            scoped = [svc.submit(flip_spec(seed=s, label=f"s{s}"))
                      for s in range(2)]
            svc.submit(flip_spec(seed=7, label="loose"))
            got_scoped = labels(svc.iter_futures(scoped))
            got_global = [r.label for r in svc.iter_completed()]
        assert sorted(got_scoped) == ["s0", "s1"]
        # The service-wide stream skips scoped-collected jobs.
        assert got_global == ["loose"]
        assert list(svc.iter_completed()) == []

    def test_iter_futures_returns_futures_in_completion_order(self, backend):
        with ExperimentService(backend=backend, workers=2) as svc:
            futures = [svc.submit(flip_spec(seed=s)) for s in range(4)]
            seen = list(svc.iter_futures(futures))
        assert sorted(f.result().seed for f in seen) == [0, 1, 2, 3]
        assert all(f.done() for f in seen)

    def test_concurrent_sweeps_do_not_steal_results(self, backend):
        """Two interleaved sweeps on one service each see exactly their
        own stream."""
        specs_a = [flip_spec(seed=s, label=f"a{s}") for s in range(3)]
        specs_b = [flip_spec(seed=s, label=f"b{s}") for s in range(3)]
        with ExperimentService(backend=backend, workers=2) as svc:
            futures_a = [svc.submit(spec) for spec in specs_a]
            futures_b = [svc.submit(spec, stream=False) for spec in specs_b]
            seen_b = labels(svc.iter_futures(futures_b))
            seen_a = labels(svc.iter_futures(futures_a))
        assert sorted(seen_a) == ["a0", "a1", "a2"]
        assert sorted(seen_b) == ["b0", "b1", "b2"]
        assert labels(futures_b) == ["b0", "b1", "b2"]

    def test_global_then_scoped_yields_each_job_once(self, backend):
        """A job the service-wide stream already yielded is skipped by a
        later scoped drain (exactly-once across all streams)."""
        with ExperimentService(backend=backend, workers=2) as svc:
            future = svc.submit(flip_spec(seed=1, label="x"))
            got_global = [r.label for r in svc.iter_completed()]
            got_scoped = labels(svc.iter_futures([future]))
        assert got_global == ["x"]
        assert got_scoped == []

    def test_scoped_timeout(self):
        with ExperimentService() as svc:
            futures = [svc.submit(flip_spec())]
            assert len(list(svc.iter_futures(futures, timeout=10))) == 1
            # The service-wide stream takes no group: a stray positional
            # argument fails loudly instead of draining nothing.
            with pytest.raises(TypeError):
                svc.iter_completed(futures)

    def test_scoped_sweep_matches_run_batch(self, backend):
        """A sweep drained through its own futures streams every seed and
        assembles, in submission order, the averages ``run_batch`` gives."""
        specs = mixed_specs()
        serial = ExperimentService().run_batch(specs)
        with ExperimentService(backend=backend, workers=2) as svc:
            futures = [svc.submit(spec, stream=False) for spec in specs]
            seen = [f.result() for f in svc.iter_futures(futures)]
            sweep = SweepResult.from_jobs([f.result() for f in futures],
                                          0.0, svc.backend)
        assert np.array_equal(serial.averages(), sweep.averages())
        assert sorted(r.seed for r in seen) == sorted(s.run_seed
                                                      for s in specs)


class TestSweepArtifacts:
    def test_save_load_round_trip(self, tmp_path):
        sweep = ExperimentService().run_batch(mixed_specs())
        path = tmp_path / "sweep.json"
        sweep.save(path)
        loaded = SweepResult.load(path)
        assert len(loaded) == len(sweep)
        assert loaded.backend == sweep.backend
        assert np.array_equal(loaded.averages(), sweep.averages())
        assert np.allclose(loaded.normalized(), sweep.normalized())
        assert [j.params for j in loaded] == [j.params for j in sweep]
        assert [j.label for j in loaded] == [j.label for j in sweep]
        assert loaded.cache_hit_rate == sweep.cache_hit_rate
        assert loaded.machine_reuse_rate == sweep.machine_reuse_rate
        assert loaded.replay_rate == sweep.replay_rate
        assert loaded[0].run is None  # simulator internals not persisted

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not_a_sweep.json"
        path.write_text('{"jobs": []}')
        with pytest.raises(ConfigurationError):
            SweepResult.load(path)
