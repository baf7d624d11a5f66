"""Unit tests for ``repro.obs``: spans, metrics, exporters.

The subsystem contracts under test:

* span recording and the cross-process rebase rule (queue-wait span
  prepended, worker-relative offsets anchored at ``resolved_at -
  total_s``, clamped so the queue never goes negative);
* metrics registry snapshot/merge semantics (counters and gauges sum
  across workers, histogram reservoirs pool with exact count/total);
* Chrome trace-event export (schema validity, both service-span and
  simulator timelines) and the metrics artifact round trip.
"""

import json

import pytest

from repro.obs import (
    JOB_STAGES,
    STAGE_COMPILE,
    STAGE_EXECUTE,
    STAGE_QUEUE_WAIT,
    JobTelemetry,
    MetricsRegistry,
    Span,
    chrome_trace_events,
    load_metrics_artifact,
    percentile,
    rebase_job_spans,
    summarize_values,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_artifact,
)
from repro.sim.tracing import TraceRecord


# -- spans -------------------------------------------------------------------


def test_span_duration_and_shift():
    span = Span("compile", 1.0, 1.5, meta={"cache_hit": True})
    assert span.duration_s == pytest.approx(0.5)
    moved = span.shifted(10.0)
    assert (moved.start_s, moved.end_s) == (11.0, 11.5)
    assert moved.name == "compile"
    assert moved.meta == {"cache_hit": True}
    assert span.start_s == 1.0  # original untouched (frozen)


def test_rebase_prepends_queue_wait_and_anchors_epoch():
    worker_spans = (Span("compile", 0.0, 0.1), Span("execute", 0.1, 0.5))
    # Submitted at t=10, resolved at t=11, job took 0.5 s on the worker:
    # the job started at 10.5 on the submitter's clock.
    rebased = rebase_job_spans(worker_spans, submitted_at=10.0,
                               resolved_at=11.0, total_s=0.5)
    assert rebased[0].name == STAGE_QUEUE_WAIT
    assert rebased[0].category == "service"
    assert (rebased[0].start_s, rebased[0].end_s) == (10.0, 10.5)
    assert rebased[1].start_s == pytest.approx(10.5)
    assert rebased[2].end_s == pytest.approx(11.0)


def test_rebase_clamps_negative_queue_wait():
    # Worker wall time exceeds submit->resolve (serial backends resolve
    # the future before base.submit even returns): queue-wait clamps to
    # zero instead of going negative.
    rebased = rebase_job_spans((Span("execute", 0.0, 2.0),),
                               submitted_at=10.0, resolved_at=11.0,
                               total_s=2.0)
    assert rebased[0].duration_s == 0.0
    assert rebased[1].start_s == pytest.approx(10.0)


def test_stage_taxonomy_is_lifecycle_ordered():
    assert JOB_STAGES[0] == STAGE_QUEUE_WAIT
    assert STAGE_COMPILE in JOB_STAGES and STAGE_EXECUTE in JOB_STAGES


# -- metrics -----------------------------------------------------------------


def test_percentile_and_summarize_values():
    assert percentile([], 50) is None
    assert percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)
    summary = summarize_values([1.0, 2.0, 3.0, 4.0])
    assert summary["count"] == 4
    assert summary["total"] == pytest.approx(10.0)
    assert summary["mean"] == pytest.approx(2.5)
    assert summary["max"] == pytest.approx(4.0)
    empty = summarize_values([])
    assert empty["count"] == 0 and empty["p50"] is None


def test_registry_instruments_are_get_or_create():
    reg = MetricsRegistry()
    reg.counter("jobs").inc()
    reg.counter("jobs").inc(2)
    reg.gauge("depth").set(3)
    reg.gauge("depth").max(1)  # watermark: lower value does not win
    reg.histogram("lat").observe(0.5)
    snap = reg.snapshot()
    assert snap["counters"]["jobs"] == 3
    assert snap["gauges"]["depth"] == 3.0
    assert snap["histograms"]["lat"]["count"] == 1
    assert snap["histograms"]["lat"]["samples"] == [0.5]


def test_histogram_reservoir_is_bounded_but_stats_exact():
    reg = MetricsRegistry(max_samples=8)
    h = reg.histogram("lat")
    for i in range(100):
        h.observe(float(i))
    assert h.count == 100
    assert h.total == pytest.approx(sum(range(100)))
    assert h.max == 99.0
    assert len(h.samples) == 8
    summary = h.summary()
    assert summary["count"] == 100 and summary["max"] == 99.0


def test_merge_sums_counters_and_gauges_pools_histograms():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("jobs").inc(3)
    b.counter("jobs").inc(4)
    b.counter("only_b").inc()
    a.gauge("pool.idle").set(2)
    b.gauge("pool.idle").set(1)
    a.histogram("lat").observe(1.0)
    b.histogram("lat").observe(3.0)
    merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
    assert merged["counters"] == {"jobs": 7, "only_b": 1}
    assert merged["gauges"]["pool.idle"] == 3.0
    assert merged["histograms"]["lat"]["count"] == 2
    assert merged["histograms"]["lat"]["total"] == pytest.approx(4.0)
    assert merged["histograms"]["lat"]["min"] == 1.0
    assert merged["histograms"]["lat"]["max"] == 3.0
    assert sorted(merged["histograms"]["lat"]["samples"]) == [1.0, 3.0]


def test_summarize_snapshot_reduces_reservoirs():
    reg = MetricsRegistry()
    reg.histogram("lat").observe(1.0)
    reg.histogram("lat").observe(2.0)
    out = MetricsRegistry.summarize_snapshot(reg.snapshot())
    assert out["histograms"]["lat"]["count"] == 2
    assert out["histograms"]["lat"]["p50"] == pytest.approx(1.5)
    assert "samples" not in out["histograms"]["lat"]


# -- chrome trace export -----------------------------------------------------


class _FakeJob:
    """JobResult-shaped: label + telemetry is all the exporter reads."""

    def __init__(self, label, telemetry):
        self.label = label
        self.telemetry = telemetry


def _telemetry_job(label="bell q0-1", with_sim=False):
    spans = rebase_job_spans(
        (Span("compile", 0.0, 0.1), Span("execute", 0.1, 0.4)),
        submitted_at=5.0, resolved_at=5.5, total_s=0.4)
    sim = (TraceRecord(10, "ctpg0", "pulse_start", {"op": "x"}),
           TraceRecord(30, "mdu0", "measure", {"qubit": 0}),
           TraceRecord(40, "ctpg0", "pulse_start", {"op": "y90"}),
           ) if with_sim else ()
    return _FakeJob(label, JobTelemetry(spans=spans, worker="pid:1",
                                        sim_trace=sim, rebased=True))


def test_chrome_trace_events_cover_both_timelines():
    events = chrome_trace_events([_telemetry_job(with_sim=True),
                                  _telemetry_job(label="j2")])
    cats = {e.get("cat") for e in events if e["ph"] != "M"}
    assert cats == {"service", "sim"}
    # Service spans normalize the earliest start to ts=0.
    service_ts = [e["ts"] for e in events
                  if e["ph"] == "X" and e["cat"] == "service"]
    assert min(service_ts) == 0.0
    # Sim events keep simulation time (ns -> us) and per-unit threads.
    sim = [e for e in events if e.get("cat") == "sim"]
    assert {e["name"] for e in sim} == {"pulse_start", "measure"}
    assert all(e["ph"] == "i" for e in sim)
    by_unit = {e["args"]["unit"]: e["tid"] for e in sim}
    assert by_unit["ctpg0"] != by_unit["mdu0"]


def test_jobs_without_telemetry_are_skipped():
    assert chrome_trace_events([_FakeJob("plain", None)]) == \
        [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
          "args": {"name": "service"}}]


def test_write_and_validate_chrome_trace(tmp_path):
    path = str(tmp_path / "trace.json")
    n = write_chrome_trace(path, [_telemetry_job(with_sim=True)])
    assert validate_chrome_trace(path) == n
    with open(path) as f:
        data = json.load(f)
    assert validate_chrome_trace(data) == n


@pytest.mark.parametrize("bad", [
    {"wrong_key": []},
    {"traceEvents": {}},
    {"traceEvents": [{"ph": "X", "name": "s", "pid": 1, "tid": 1}]},
    {"traceEvents": [{"ph": "X", "name": "s", "pid": 1, "tid": 1,
                      "ts": 0.0, "dur": -1.0}]},
    {"traceEvents": [{"ph": "Z", "name": "s", "pid": 1, "tid": 1,
                      "ts": 0.0}]},
    {"traceEvents": [{"ph": "i", "name": "s", "pid": 1, "tid": 1,
                      "ts": "soon"}]},
    {"traceEvents": [{"ph": "i", "pid": 1, "tid": 1, "ts": 0.0}]},
])
def test_validator_rejects_malformed_traces(bad):
    with pytest.raises(ValueError):
        validate_chrome_trace(bad)


# -- metrics artifact --------------------------------------------------------


def test_metrics_artifact_round_trip(tmp_path):
    path = str(tmp_path / "metrics.json")
    reg = MetricsRegistry()
    reg.counter("service.jobs").inc(2)
    write_metrics_artifact(path, {"service": reg.summary()},
                           stage_stats={"compile_s": summarize_values([0.1])},
                           context={"experiment": "bell"})
    data = load_metrics_artifact(path)
    assert data["metrics"]["service"]["counters"]["service.jobs"] == 2
    assert data["stage_stats"]["compile_s"]["count"] == 1
    assert data["context"]["experiment"] == "bell"


def test_load_rejects_foreign_json(tmp_path):
    path = str(tmp_path / "other.json")
    with open(path, "w") as f:
        json.dump({"hello": "world"}, f)
    with pytest.raises(ValueError):
        load_metrics_artifact(path)
