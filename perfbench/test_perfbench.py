"""Harness tests: percentiles, digest failures, and patch restoration.

Collected by the repository's test run; each sweep here is a tiny
full-simulation AllXY (a few rounds), so the module takes seconds.
"""

from __future__ import annotations

import gc
import json
import sys
import types

import pytest

import run

run.import_repro()

import layers  # noqa: E402
import stats  # noqa: E402
from digest import (failed_jobs, mismatches, oracle_reference,  # noqa: E402
                    reference_for)
from hostref import HostClock  # noqa: E402
from repro.session import Session  # noqa: E402
from workloads import WORKLOADS, Workload, session_seed  # noqa: E402

TINY = Workload("tiny", "allxy",
                dict(qubits=(0,), n_rounds=4, replay=False),
                gate=("cache_hit", "machine_reused"))


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 0.9) == 90
        assert stats.median(values) == 50
        assert stats.percentile([5.0], 0.9) == 5.0
        assert stats.percentile([3, 1, 2], 0.5) == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stats.percentile([], 0.5)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 0.0)

    def test_samples_beyond(self):
        assert stats.samples_beyond(100, 0.9) == 10
        assert stats.samples_beyond(99, 0.9) == 9
        assert stats.samples_beyond(0, 0.9) == 0

    def test_min_samples_leaves_ten_beyond_p90(self):
        n = stats.min_samples(0.9)
        assert n == run.MIN_TIMED_SWEEPS == 100
        assert stats.samples_beyond(n, 0.9) >= stats.MIN_BEYOND
        assert stats.samples_beyond(n - 1, 0.9) < stats.MIN_BEYOND
        assert stats.min_samples(0.5) == 20


def test_benchmark_json_lists_every_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == \
        [name for name, _ in layers.LAYER_UNITS]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "sweep_s_p50", "sweep_s_p90", "shots_per_s",
        "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


class TestDigests:
    def test_mismatch_counts(self):
        assert mismatches(["a", "b"], ["a", "b"]) == 0
        assert mismatches(["a", "x"], ["a", "b"]) == 1
        assert mismatches(["a"], ["a", "b"]) == 2

    def test_failed_jobs_counts_the_whole_sweep_on_bad_analysis(self):
        expected = {"jobs": ["a", "b"], "analysis": "z"}
        assert failed_jobs({"jobs": ["a", "b"], "analysis": "z"},
                           expected) == 0
        assert failed_jobs({"jobs": ["a", "x"], "analysis": "z"},
                           expected) == 1
        assert failed_jobs({"jobs": ["a", "b"], "analysis": "y"},
                           expected) == 2

    def _one_sweep(self, expected):
        client = run.Client(TINY, seed=0, expected=expected)
        try:
            future = client.sweep()
            assert future is not None
        finally:
            client.close()
        return client, future

    @pytest.mark.parametrize("key", ["jobs", "analysis"])
    def test_forced_mismatch_is_a_failed_job(self, key):
        good, _ = self._one_sweep(None)
        assert good.failed == 0
        wrong = {**good.expected,
                 key: ["0" * 32] if key == "jobs" else "0" * 32}
        client, _ = self._one_sweep(wrong)
        assert (client.attempted, client.failed, client.mismatched) == \
            (1, 1, 1)

    def test_matching_sweeps_pass(self):
        client = run.Client(TINY, seed=0, expected=None)
        try:
            client.warm_up()
            assert client.oracle_check() == 0
        finally:
            client.close()
        assert client.failed == 0
        assert client.attempted >= 3

    def test_oracle_reproduces_committed_reference(self):
        workload = WORKLOADS["allxy_full"]
        with Session(seed=session_seed(workload.name, 0)) as session:
            experiment = session.create(workload.experiment,
                                        **workload.params)
            assert oracle_reference(experiment) == \
                reference_for(workload.name, 0)


@pytest.mark.parametrize("streaming", [False, True])
def test_reference_kernel_leaves_gc_as_found(streaming):
    assert gc.isenabled()
    assert HostClock(streaming).rescale(0.01) > 0
    assert gc.isenabled()


def _patched_names():
    return {(module, path): vars(layers._resolve_owner(module, path)[0])[
        layers._resolve_owner(module, path)[1]]
        for module, path, _ in layers.PATCHES}


class TestTracer:
    def test_wrappers_restored_and_outputs_unchanged(self, tmp_path):
        before = _patched_names()
        plain = run.Client(TINY, seed=3, expected=None)
        try:
            plain.warm_up()
            expected = plain.expected
        finally:
            plain.close()
        tracer = layers.Tracer()
        with tracer.installed():
            assert _patched_names() != before
            client = run.Client(TINY, seed=3, expected=expected)
            try:
                client.warm_up()
            finally:
                client.close()
        assert _patched_names() == before
        assert client.mismatched == 0
        assert tracer.calls(layers.SETUP, "core.run") >= 2
        assert tracer.calls(layers.SETUP, "sim.at") > 0
        path = tmp_path / "trace.json"
        count = layers.write_chrome_trace(path, {"client": tracer}, {})
        assert count == len(json.loads(path.read_text())["traceEvents"])

    def test_self_time_excludes_wrapped_children(self, monkeypatch):
        module = types.ModuleType("perfbench_fake_layer")

        def child():
            return sum(range(20000))

        def parent():
            return module.child() + module.child()

        module.child, module.parent = child, parent
        monkeypatch.setitem(sys.modules, module.__name__, module)
        tracer = layers.Tracer()
        with tracer.installed(((module.__name__, "parent", "p"),
                               (module.__name__, "child", "c"))):
            module.parent()
        assert module.parent is parent and module.child is child
        assert tracer.calls(layers.SETUP, "c") == 2
        inclusive = tracer.inclusive_s(layers.SETUP, "p")
        children = tracer.inclusive_s(layers.SETUP, "c")
        assert tracer.self_s(layers.SETUP, "p") == pytest.approx(
            inclusive - children)
        assert tracer.self_s(layers.SETUP, "c") == pytest.approx(children)
