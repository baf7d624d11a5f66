"""Output checks that need no trust in the code being timed.

A job's digest covers everything a simulator-only change must leave
byte-identical: the DCU averages, the joint-outcome histogram, the
readout calibration points, and the modelled ``duration_ns`` and
``instructions_executed``.  ``stall_ns`` is left out on purpose: under
replay it is a steady-state extrapolation, so it legitimately differs
from a full simulation of the same job.

A sweep's analysis digest covers what the caller gets back after the
jobs: the experiment's result object (fits, corrected histograms,
fidelities; the raw ``RunResult`` inside it is left out, since the job
digests cover it) and the final fit stored as ``SweepResult.estimate``.
On the mitigated workload that is the output of the confusion-matrix
inversion and the zero-noise extrapolation.

Expected digests come from one of two independent places.  For the
seeds listed in ``references.json`` they were computed once by a full
simulation (``replay=False``) of every job on a fresh serial service,
followed by the experiment's own analysis, and committed.  For any
other seed every sweep must reproduce the first one, and at the end of
the run the whole sweep is computed that same independent way and must
match too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"


def job_digest(job) -> str:
    """Hex digest of one :class:`~repro.service.job.JobResult`'s outputs."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(job.averages, dtype=np.float64).tobytes())
    if job.joint_counts is not None:
        h.update(np.ascontiguousarray(job.joint_counts,
                                      dtype=np.int64).tobytes())
    h.update(repr((float(job.s_ground), float(job.s_excited),
                   job.s_grounds, job.s_exciteds,
                   int(job.run.duration_ns),
                   int(job.run.instructions_executed))).encode())
    return h.hexdigest()[:32]


def _feed(h, value) -> None:
    """Hash ``value`` canonically: exact floats, sorted keys, array bytes."""
    from repro.core.quma import RunResult

    if isinstance(value, RunResult):
        return
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value, key=repr):
            h.update(repr(key).encode())
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(repr(float(value)).encode())
    else:
        h.update(repr(value).encode())


def analysis_digest(result, estimate: dict) -> str:
    """Hex digest of a sweep's analysis and its final fit."""
    h = hashlib.sha256()
    _feed(h, result)
    h.update(json.dumps(estimate, sort_keys=True).encode())
    return h.hexdigest()[:32]


def sweep_digests(jobs) -> list[str]:
    return [job_digest(job) for job in jobs]


def mismatches(digests: list[str], expected: list[str]) -> int:
    """Jobs whose digest differs from the expected one (missing ones too)."""
    if len(digests) != len(expected):
        return max(len(digests), len(expected))
    return sum(a != b for a, b in zip(digests, expected))


def failed_jobs(got: dict, expected: dict) -> int:
    """Jobs of a sweep that count as wrong; all of them if the analysis is.

    Both arguments are ``{"jobs": [...], "analysis": ...}`` digests.
    """
    if got["analysis"] != expected["analysis"]:
        return max(len(got["jobs"]), len(expected["jobs"]))
    return mismatches(got["jobs"], expected["jobs"])


def reference_for(workload: str, seed: int) -> dict | None:
    """The committed ``{"jobs", "analysis"}`` digests, or None."""
    with open(REFERENCES) as f:
        return json.load(f)["references"].get(workload, {}).get(str(seed))


def oracle_jobs(specs) -> list:
    """``specs`` fully simulated on a fresh serial service."""
    from repro.service.scheduler import ExperimentService

    with ExperimentService(backend="serial") as service:
        return [service.run_job(dataclasses.replace(spec, replay=False))
                for spec in specs]


def oracle_reference(experiment) -> dict:
    """Every job of ``experiment`` fully simulated, then analysed.

    The analysis follows what ``ExperimentFuture.result`` does with a
    finished sweep: ``analyze`` on the submission-ordered jobs, and the
    final fit of a state that holds every job.
    """
    from repro.experiments.base import estimate_artifact
    from repro.service.job import SweepResult

    jobs = oracle_jobs(experiment.build_specs())
    state = experiment.new_state()
    for index, job in enumerate(jobs):
        state.add(index, job)
    result = experiment.analyze(SweepResult.from_jobs(jobs, 0.0, "serial"))
    estimate = estimate_artifact(experiment.estimate_state(state))
    return {"jobs": sweep_digests(jobs),
            "analysis": analysis_digest(result, estimate)}
