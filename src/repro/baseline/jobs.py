"""Service adapter: APS2 cost-model workloads as service jobs.

The paper's Section 6 comparison (QuMA vs. the Raytheon BBN APS2 system)
is itself an experiment worth sweeping — memory/upload/sync costs across
workload shapes.  This module maps an architecture-neutral
:class:`~repro.baseline.spec.ExperimentSpec` onto the service's
:class:`~repro.service.job.JobSpec` (``executor="baseline"``) and
evaluates it.  The service's one engine runs both kinds of job
(:meth:`~repro.service.backends.base.Worker.run` picks the job
function), so one batch can interleave QuMA event-kernel sweeps with
APS2 comparison points.

The cost model is deterministic and closed-form, so baseline jobs are
trivially bit-identical across backends — they carry no RNG streams.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baseline.comparison import compare_architectures
from repro.baseline.spec import ExperimentSpec
from repro.core.quma import RunResult
from repro.obs.spans import STAGE_EXECUTE, JobTelemetry, Span
from repro.service.job import JobResult, JobSpec

#: Metric order of a baseline job's ``averages`` vector.
BASELINE_METRICS = (
    "quma_binaries",
    "aps2_binaries",
    "quma_memory_bytes",
    "aps2_memory_bytes",
    "quma_sync_stall_ns",
    "aps2_sync_stall_ns",
    "quma_upload_s",
    "aps2_upload_s",
)


def baseline_job(spec: ExperimentSpec, *,
                 bandwidth_bytes_per_s: float = 3e6,
                 params: dict | None = None,
                 label: str = "") -> JobSpec:
    """One Section 6 comparison point as a service job.

    ``bandwidth_bytes_per_s`` models the control link; it rides in
    ``params`` so sweeps over link speed are first-class sweep axes.
    """
    params = dict(params) if params else {}
    params.setdefault("workload", spec.name)
    params.setdefault("bandwidth_bytes_per_s", float(bandwidth_bytes_per_s))
    return JobSpec(
        executor="baseline",
        baseline=spec,
        k_points=len(BASELINE_METRICS),
        params=params,
        label=label or f"baseline {spec.name}",
    )


def execute_baseline_job(spec: JobSpec) -> JobResult:
    """Evaluate one baseline job; deterministic given the spec.

    ``averages`` holds the :data:`BASELINE_METRICS` vector so baseline
    results aggregate through the same :class:`SweepResult` machinery as
    QuMA jobs (``normalized`` is the identity: s_ground=0, s_excited=1).
    """
    t0 = time.perf_counter()
    comparison = compare_architectures(
        spec.baseline,
        bandwidth_bytes_per_s=spec.params.get("bandwidth_bytes_per_s", 3e6))
    averages = np.asarray([getattr(comparison, name)
                           for name in BASELINE_METRICS], dtype=float)
    params = dict(spec.params)
    params["memory_ratio"] = comparison.memory_ratio
    run = RunResult(
        completed=True,
        duration_ns=int(comparison.aps2_sync_stall_ns),
        instructions_executed=0,
        averages=averages,
    )
    execute_s = time.perf_counter() - t0
    telemetry = None
    if spec.telemetry:
        telemetry = JobTelemetry(
            spans=(Span(STAGE_EXECUTE, 0.0, execute_s,
                        meta={"workload": params.get("workload", "")}),))
    return JobResult(
        averages=averages,
        run=run,
        s_ground=0.0,
        s_excited=1.0,
        seed=spec.run_seed,
        params=params,
        label=spec.label,
        cache_hit=False,
        machine_reused=False,
        compile_s=0.0,
        execute_s=execute_s,
        total_s=execute_s,
        telemetry=telemetry,
        executor="baseline",
    )


def metric(result: JobResult, name: str) -> float:
    """One named metric out of a baseline job's averages vector."""
    return float(result.averages[BASELINE_METRICS.index(name)])
