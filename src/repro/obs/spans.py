"""Job-lifecycle spans: what the service did and when, per job.

A :class:`Span` is one named stage with start/end offsets on a
monotonic clock.  Worker processes record spans relative to the *job
epoch* (``t = 0`` at the moment the job's successful attempt starts on
the worker),
which is the only clock a worker and its parent share the *durations*
of: ``time.perf_counter()`` origins differ across processes, so raw
worker timestamps are meaningless to the submitter.

The rebase rule (applied exactly once, by the submitting process, when a
job's future resolves) anchors the job epoch on the submitter's clock::

    job_start = resolved_at - total_s          # worker wall time is exact
    span'     = span shifted by job_start
    queue-wait = [submitted_at, job_start]     # submit -> start latency

so serial, process, and fleet backends all report the same span shape on
one coherent parent-clock timeline.  The queue-wait span (and the
``JobResult.queue_wait_s`` scalar) therefore includes pickling/dispatch
overhead — it is the honest submit-to-start latency, which is exactly
the number the worker backends would otherwise be blind to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable

#: The job-lifecycle span taxonomy, in lifecycle order.
STAGE_QUEUE_WAIT = "queue-wait"
STAGE_COMPILE = "compile"
STAGE_ACQUIRE = "machine-acquire"
STAGE_EXECUTE = "execute"
STAGE_REPLAY = "replay"
STAGE_COLLECT = "collect"
#: A failed execution attempt that a retry recovered from; spans of this
#: name sit *before* the successful attempt's job epoch on the timeline.
STAGE_ATTEMPT_FAILED = "attempt-failed"
JOB_STAGES = (STAGE_QUEUE_WAIT, STAGE_COMPILE, STAGE_ACQUIRE,
              STAGE_EXECUTE, STAGE_REPLAY, STAGE_COLLECT,
              STAGE_ATTEMPT_FAILED)


@dataclass(frozen=True)
class Span:
    """One named stage of a job's lifecycle.

    ``start_s``/``end_s`` are seconds on the owning clock: job-relative
    (epoch 0 = job start) while the span travels back from a worker,
    submitter-clock absolute after :func:`rebase_job_spans`.
    """

    name: str
    start_s: float
    end_s: float
    category: str = "job"  #: "job" (worker-side stage) or "service"
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def shifted(self, offset_s: float) -> "Span":
        """The same span translated by ``offset_s`` (clock rebase)."""
        return replace(self, start_s=self.start_s + offset_s,
                       end_s=self.end_s + offset_s)


@dataclass
class JobTelemetry:
    """Per-job observability payload carried home on a :class:`JobResult`.

    Everything here is picklable by construction (plain tuples/dicts), so
    the payload crosses the process boundary unchanged.  ``spans`` are
    job-relative until the submitting process rebases them (``rebased``
    flips exactly once); ``worker`` names the worker that ran the job;
    ``sim_trace`` carries the simulator's
    :class:`~repro.sim.tracing.TraceRecord` stream when the machine ran
    with tracing enabled.  A worker's metrics do not ride here: the
    service reads them live from the worker's stats.
    """

    spans: tuple[Span, ...] = ()
    worker: str = ""  #: executing worker, e.g. "pid:4242"
    sim_trace: tuple = ()  #: TraceRecord entries (simulation-time events)
    rebased: bool = False


def rebase_job_spans(spans: Iterable[Span], submitted_at: float,
                     resolved_at: float, total_s: float) -> tuple[Span, ...]:
    """Anchor a job's worker-relative spans on the submitter's clock.

    ``total_s`` is the job's worker-side wall time, so the job epoch maps
    to ``resolved_at - total_s`` on the submitter's clock.  A queue-wait
    span is prepended covering submit -> job start (clamped non-negative:
    cross-process scheduling can make the anchored start land marginally
    before the submit stamp when the queue never actually held the job).
    """
    job_start = max(submitted_at, resolved_at - total_s)
    out = [Span(STAGE_QUEUE_WAIT, submitted_at, job_start,
                category="service")]
    out.extend(span.shifted(job_start) for span in spans)
    return tuple(out)
