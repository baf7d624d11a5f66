"""Mixed QuMA + APS2 baseline batches on the service's one engine.

Baseline specs (``executor="baseline"``) run on whatever engine the
service has, next to QuMA sweeps, and a mixed batch lands bit-identical
to the serial engine's.

Set ``REPRO_SERVICE_BACKEND=serial|process|fleet`` to pin the
parametrized backend (the CI matrix runs one backend per job); unset,
the tests cover serial and process.
"""

import os

import numpy as np
import pytest

from repro.baseline import (
    BASELINE_METRICS,
    allxy_spec,
    baseline_job,
    compare_architectures,
    synthetic_spec,
)
from repro.baseline.jobs import metric
from repro.compiler import CompilerOptions, QuantumProgram
from repro.core import MachineConfig
from repro.service import ExperimentService, JobSpec
from repro.utils.errors import ConfigurationError

from conftest import BACKENDS_UNDER_TEST


@pytest.fixture(params=BACKENDS_UNDER_TEST)
def backend(request):
    return request.param


def flip_spec(seed=None):
    p = QuantumProgram("flip", qubits=(2,))
    p.new_kernel("k").prepz(2).x(2).measure(2)
    return JobSpec(config=MachineConfig(qubits=(2,), trace_enabled=False),
                   program=p, compiler_options=CompilerOptions(n_rounds=2),
                   seed=seed)


class TestJobSpecRoutes:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec(config=MachineConfig(qubits=(2,)), asm="halt",
                    executor="remote")

    def test_baseline_spec_requires_cost_model(self):
        with pytest.raises(ConfigurationError):
            JobSpec(executor="baseline")

    def test_baseline_spec_rejects_program(self):
        with pytest.raises(ConfigurationError):
            JobSpec(executor="baseline", baseline=allxy_spec(), asm="halt")

    def test_quma_spec_requires_config(self):
        with pytest.raises(ConfigurationError):
            JobSpec(asm="halt")


class TestBaselineJobs:
    def test_metrics_match_direct_comparison(self):
        spec = allxy_spec()
        result = ExperimentService().run_job(baseline_job(spec))
        comparison = compare_architectures(spec)
        assert metric(result, "quma_memory_bytes") == \
            comparison.quma_memory_bytes
        assert metric(result, "aps2_memory_bytes") == \
            comparison.aps2_memory_bytes
        assert metric(result, "aps2_binaries") == comparison.aps2_binaries
        assert result.params["memory_ratio"] == comparison.memory_ratio
        assert result.averages.shape == (len(BASELINE_METRICS),)

    def test_bandwidth_rides_in_params(self):
        spec = allxy_spec()
        slow = ExperimentService().run_job(
            baseline_job(spec, bandwidth_bytes_per_s=1e6))
        fast = ExperimentService().run_job(
            baseline_job(spec, bandwidth_bytes_per_s=4e6))
        assert metric(slow, "aps2_upload_s") == \
            pytest.approx(4 * metric(fast, "aps2_upload_s"))

    def test_baseline_jobs_run_on_the_engine(self, backend):
        specs = [baseline_job(synthetic_spec(4, 2), label=f"b{i}")
                 for i in range(3)]
        for spec in specs:
            spec.telemetry = True
        with ExperimentService(backend=backend, workers=2) as svc:
            futures = [svc.submit(spec, stream=False) for spec in specs]
            results = [future.result(timeout=60.0) for future in futures]
            engine = svc.stats()["engine"]
        assert engine["backend"] == backend
        assert engine["submitted"] == len(specs)
        assert [r.executor for r in results] == ["baseline"] * len(specs)
        if backend == "serial":
            names = {f"pid:{os.getpid()}"}
        else:
            names = {w["remote"]["worker"] for w in engine["workers"]}
        assert all(r.telemetry.worker in names for r in results)


class TestMergedBatches:
    def test_mixed_batch_returns_merged_sweep_in_order(self):
        specs = [
            flip_spec(seed=1),
            baseline_job(allxy_spec()),
            flip_spec(seed=2),
            baseline_job(synthetic_spec(8, 4), label="synthetic"),
        ]
        sweep = ExperimentService().run_batch(specs)
        assert [job.executor for job in sweep] == \
            ["quma", "baseline", "quma", "baseline"]
        assert sweep[3].label == "synthetic"
        # QuMA entries match a pure-QuMA run; baseline entries match the
        # closed-form model — the merge changes neither.
        pure = ExperimentService().run_batch([specs[0], specs[2]])
        assert np.array_equal(sweep[0].averages, pure[0].averages)
        assert np.array_equal(sweep[2].averages, pure[1].averages)
        assert metric(sweep[1], "quma_binaries") == 1.0

    def test_mixed_batch_matches_serial(self, backend):
        specs = [flip_spec(seed=1), baseline_job(allxy_spec()),
                 flip_spec(seed=2)]
        serial = ExperimentService().run_batch(specs)
        with ExperimentService(backend=backend, workers=2) as svc:
            merged = svc.run_batch(specs)
            engine = svc.stats()["engine"]
        assert [j.executor for j in merged] == ["quma", "baseline", "quma"]
        for s, p in zip(serial, merged):
            assert np.asarray(s.averages).tobytes() \
                == np.asarray(p.averages).tobytes()
            assert (s.seed, s.params) == (p.seed, p.params)
        assert engine["submitted"] == len(specs)

    def test_mixed_stream_completes_everything(self):
        specs = [flip_spec(seed=s) for s in (1, 2)] + \
            [baseline_job(synthetic_spec(4, 2), label=f"b{i}")
             for i in range(3)]
        with ExperimentService() as svc:
            for spec in specs:
                svc.submit(spec)
            got = list(svc.iter_completed())
        assert len(got) == len(specs)
        assert sum(1 for r in got if r.executor == "baseline") == 3

    def test_baseline_sweep_artifact_round_trip(self, tmp_path):
        sweep = ExperimentService().run_batch(
            [baseline_job(synthetic_spec(n, 4), label=f"n{n}",
                          params={"combinations": n})
             for n in (4, 8, 16)])
        path = tmp_path / "baseline_sweep.json"
        sweep.save(path)
        from repro.service import SweepResult

        loaded = SweepResult.load(path)
        assert loaded.param_values("combinations") == [4, 8, 16]
        assert np.array_equal(loaded.averages(), sweep.averages())
        assert [j.executor for j in loaded] == ["baseline"] * 3
