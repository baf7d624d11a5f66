"""Telemetry parity and span/metrics plumbing through the job lifecycle.

The hard constraint under test: telemetry on or off, simulator tracing
on or off, every registered experiment produces **bit-identical**
``averages`` on every backend — observability never touches the RNG
streams.  Plus the plumbing: spans rebase onto the submitter's clock
across the process boundary, queue-wait is stamped on every job, sweep
artifacts round-trip their per-stage rollups, and the CLI emits valid
Chrome traces and metrics artifacts.

Set ``REPRO_SERVICE_BACKEND=serial|process|fleet`` to pin the
parametrized backend (the CI matrix runs one backend per job).
"""

import json

import numpy as np
import pytest

from repro import Session
from repro.obs import (
    STAGE_QUEUE_WAIT,
    load_metrics_artifact,
    validate_chrome_trace,
)
from repro.service import SweepResult
from conftest import BACKENDS_UNDER_TEST
from test_entangling import FAST_PARAMS


def _canonical(backend: str, name: str, telemetry: bool,
               sim_trace: bool = False):
    """(canonical job stream, jobs) for one experiment run.

    Drains with ``stream(fit=False)`` like the cross-backend parity
    suite — the FAST_PARAMS sweeps are deliberately too small for some
    analyses to fit, and fits are irrelevant to the telemetry contract.
    """
    targets, params = FAST_PARAMS[name]
    with Session(backend=backend, workers=2, seed=11, telemetry=telemetry,
                 sim_trace=sim_trace) as session:
        future = session.submit_experiment(name, targets=targets, **params)
        for _ in future.stream(fit=False):
            pass
        jobs = [f.result() for f in future.futures]
    stream = [(job.label, job.seed,
               np.asarray(job.averages).tobytes(),
               None if job.joint_counts is None
               else np.asarray(job.joint_counts).tobytes()) for job in jobs]
    return stream, jobs


# -- bit-identical averages, tracing on vs off -------------------------------


@pytest.mark.parametrize("name", sorted(FAST_PARAMS))
def test_telemetry_bit_identical_on_serial(name):
    """Every registered experiment: spans + sim tracing change nothing."""
    off, _ = _canonical("serial", name, telemetry=False)
    on, jobs = _canonical("serial", name, telemetry=True, sim_trace=True)
    assert off == on
    for job in jobs:
        assert job.telemetry is not None
        assert job.telemetry.rebased
        assert len(job.telemetry.sim_trace) > 0


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("name", sorted(FAST_PARAMS))
def test_telemetry_parity_across_backends(name, backend):
    off, _ = _canonical(backend, name, telemetry=False)
    on, _ = _canonical(backend, name, telemetry=True)
    assert off == on


# -- span rebasing across the process boundary -------------------------------


def _assert_coherent_spans(jobs, worker_prefix="pid:"):
    for job in jobs:
        tel = job.telemetry
        assert tel is not None and tel.rebased
        assert tel.worker.startswith(worker_prefix)
        names = [span.name for span in tel.spans]
        assert names[0] == STAGE_QUEUE_WAIT
        assert "compile" in names and "machine-acquire" in names
        assert "execute" in names or "replay" in names
        assert names[-1] == "collect"
        # Rebased onto one coherent submitter clock: monotone,
        # queue-wait ends exactly where the first worker stage starts.
        for span in tel.spans:
            assert span.end_s >= span.start_s
        assert tel.spans[0].end_s == pytest.approx(tel.spans[1].start_s)
        starts = [span.start_s for span in tel.spans]
        assert starts == sorted(starts)
        assert job.queue_wait_s >= 0.0
        assert job.total_s >= job.compile_s + job.execute_s - 1e-9


def test_spans_rebase_on_serial():
    _, jobs = _canonical("serial", "rabi", telemetry=True)
    _assert_coherent_spans(jobs)


@pytest.mark.slow
def test_spans_rebase_across_process_boundary():
    """Worker-relative spans land on the parent clock after resolve."""
    with Session(backend="process", workers=2, seed=3,
                 telemetry=True) as session:
        future = session.submit_experiment(
            "rabi", amplitudes=[0.0, 0.3, 0.6], n_rounds=2)
        for _ in future.stream(fit=False):
            pass
        jobs = [f.result() for f in future.futures]
        service_stats = session.stats()
    _assert_coherent_spans(jobs)
    # The worker report is read from the live workers' stats.
    metrics = service_stats["metrics"]
    assert metrics["service"]["counters"]["service.jobs"] == 3
    # One machine acquire per job, counted only by the workers' pools.
    gauges = metrics["workers_merged"]["gauges"]
    assert gauges["pool.builds"] + gauges["pool.reuses"] == 3
    assert all(w.startswith("pid:") for w in metrics["workers"])


@pytest.mark.parametrize("backend", ["serial", "process", "fleet"])
def test_metrics_summary_reads_live_workers_with_telemetry_off(backend):
    """Every live worker reports under its telemetry name, no telemetry
    needed: its registry's counters and its component gauges, summed
    across workers in ``workers_merged``."""
    import os

    from repro.core import MachineConfig
    from repro.experiments.rabi import rabi_job
    from repro.service import ExperimentService, FaultPlan, RetryPolicy
    from repro.service.fleet import WorkerServer

    servers = ([WorkerServer().start(), WorkerServer().start()]
               if backend == "fleet" else [])
    addresses = ["%s:%d" % server.address for server in servers]
    config = MachineConfig(qubits=(0,), trace_enabled=False, seed=3)
    specs = [rabi_job(config, 0, amp, 2) for amp in (0.1, 0.3, 0.5, 0.7)]
    # Each job's first attempt faults at compile, so every worker's
    # registry counts one fault and one retry per job it ran.
    faults = FaultPlan(seed=0, rate=1.0, sites=("compile",))
    try:
        with ExperimentService(backend=backend, workers=2, faults=faults,
                               retry=RetryPolicy(max_attempts=2),
                               fleet_workers=addresses or None) as svc:
            svc.run_batch(specs)
            engine = svc.stats()["engine"]
            summary = svc.metrics_summary()
    finally:
        for server in servers:
            server.stop()
    if backend == "serial":
        names = [f"pid:{os.getpid()}"]
    elif backend == "process":
        names = [f"pid:{entry['pid']}" for entry in engine["workers"]]
    else:
        names = [f"worker:{address}" for address in addresses]
    workers = summary["workers"]
    assert sorted(workers) == sorted(names) and len(names) == (
        1 if backend == "serial" else 2)
    for report in workers.values():
        for part in ("pool", "cache", "replay_cache", "calibration"):
            assert any(name.startswith(f"{part}.")
                       for name in report["gauges"])
    merged = summary["workers_merged"]
    for kind in ("counters", "gauges"):
        names = set().union(*(report[kind] for report in workers.values()))
        assert merged[kind] == {
            name: sum(report[kind].get(name, 0)
                      for report in workers.values()) for name in names}
    assert merged["counters"]["faults.compile.transient"] == len(specs)
    assert merged["counters"]["retries"] == len(specs)
    gauges = merged["gauges"]
    assert gauges["pool.builds"] + gauges["pool.reuses"] == len(specs)


# -- queue-wait + stage rollups ----------------------------------------------


def test_queue_wait_recorded_without_telemetry():
    """The scalar stamps ride on every job, telemetry flag or not."""
    with Session(seed=5) as session:
        future = session.submit_experiment(
            "rabi", amplitudes=[0.0, 0.4], n_rounds=2)
        for _ in future.stream(fit=False):
            pass
    for job in (f.result() for f in future.futures):
        assert job.queue_wait_s >= 0.0
        assert job.total_s > 0.0
        assert job.telemetry is None  # off means off


def test_sweep_stage_stats_aggregate_and_round_trip(tmp_path):
    with Session(seed=5) as session:
        future = session.submit_experiment(
            "rabi", amplitudes=[0.0, 0.2, 0.4], n_rounds=2)
        future.result()
        assert future.stage_stats() is future.sweep.stage_stats
    sweep = future.sweep
    n = len(sweep.jobs)
    for field in ("queue_wait_s", "compile_s", "execute_s", "total_s"):
        stats = sweep.stage_stats[field]
        assert stats["count"] == n
        assert stats["p50"] is not None and stats["p95"] >= stats["p50"]
    assert sweep.stage_stats["throughput_jobs_per_s"] > 0
    path = str(tmp_path / "sweep.json")
    sweep.save(path)
    loaded = SweepResult.load(path)
    assert loaded.stage_stats == sweep.stage_stats
    for a, b in zip(sweep.jobs, loaded.jobs):
        assert b.total_s == a.total_s
        assert b.queue_wait_s == a.queue_wait_s


def test_legacy_artifact_without_stage_stats_rebuilds(tmp_path):
    with Session(seed=5) as session:
        future = session.submit_experiment(
            "rabi", amplitudes=[0.0, 0.2, 0.4], n_rounds=2)
        future.result()
    path = str(tmp_path / "sweep.json")
    future.sweep.save(path)
    with open(path) as f:
        data = json.load(f)
    del data["stage_stats"]  # pre-telemetry artifact shape
    for entry in data["jobs"]:
        del entry["total_s"], entry["queue_wait_s"]
    with open(path, "w") as f:
        json.dump(data, f)
    loaded = SweepResult.load(path)
    assert loaded.stage_stats["compile_s"]["count"] == 3
    assert loaded.jobs[0].total_s == 0.0


# -- CLI: trace + metrics artifacts ------------------------------------------


def test_cli_exp_emits_trace_and_metrics(tmp_path, capsys):
    from repro.cli import main

    trace = str(tmp_path / "trace.json")
    metrics = str(tmp_path / "metrics.json")
    rc = main(["exp", "bell", "--qubits", "0-1", "--param", "n_rounds=4",
               "--trace-out", trace, "--metrics-out", metrics])
    assert rc == 0
    assert validate_chrome_trace(trace) > 0
    with open(trace) as f:
        events = json.load(f)["traceEvents"]
    cats = {e.get("cat") for e in events if e["ph"] != "M"}
    assert cats == {"service", "sim"}  # both timelines in one file
    span_names = {e["name"] for e in events
                  if e["ph"] == "X" and e["cat"] == "service"}
    assert {"queue-wait", "compile", "machine-acquire",
            "collect"} <= span_names
    data = load_metrics_artifact(metrics)
    assert data["metrics"]["service"]["counters"]["service.jobs"] >= 1
    assert data["stage_stats"]["execute_s"]["count"] >= 1
    capsys.readouterr()
    assert main(["stats", metrics]) == 0
    out = capsys.readouterr().out
    assert "per-stage latency" in out
    assert "service.jobs" in out


def test_cli_stats_rejects_foreign_json(tmp_path, capsys):
    from repro.cli import main

    path = str(tmp_path / "not_metrics.json")
    with open(path, "w") as f:
        json.dump({"foo": 1}, f)
    assert main(["stats", path]) == 2
