"""Retry policy: bounded, deterministic re-execution of failed jobs.

A :class:`RetryPolicy` rides on a :class:`~repro.service.job.JobSpec`
(or service-wide default) and answers three questions: *how many* times
may a job run, *which* failures are worth another attempt, and *how
long* to wait between attempts.

Determinism is the design constraint.  Job execution is a pure function
of the spec, so a retry that re-derives the identical run seed produces
a bit-for-bit identical result — the backend parity suite stays exact
under chaos.  The backoff jitter is seeded from ``(job seed, attempt)``
rather than wall-clock entropy for the same reason: two runs of the same
chaos plan sleep the same schedule.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigurationError, JobError, TransientJobError

#: Exception families retryable without being listed explicitly.
DEFAULT_RETRYABLE: tuple[type, ...] = (TransientJobError,)


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) to re-run a failed job attempt.

    ``max_attempts`` counts total executions (1 = no retry).  Backoff is
    exponential — ``backoff_s * backoff_factor**(attempt - 1)``, capped
    at ``max_backoff_s`` — with a deterministic seeded jitter of up to
    ``jitter`` (fractional) derived from the job seed, so a fleet of
    retrying jobs decorrelates without losing reproducibility.
    ``retry_on`` extends the retryable classification with extra
    exception types (transient job errors always qualify).

    Frozen and built from primitives/classes only, so a policy pickles
    onto specs crossing to worker processes.
    """

    max_attempts: int = 1
    backoff_s: float = 0.01
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    jitter: float = 0.1
    retry_on: tuple[type, ...] = ()

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigurationError("backoff must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether this failure class is worth another attempt."""
        return isinstance(exc, DEFAULT_RETRYABLE + tuple(self.retry_on))

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) may be followed
        by another after failing with ``exc``."""
        return attempt + 1 < self.max_attempts and self.is_retryable(exc)

    def backoff_for(self, attempt: int, seed: int = 0) -> float:
        """Seconds to sleep before (1-based) retry attempt ``attempt``.

        Deterministic: the jitter multiplier comes from numpy's
        SeedSequence entropy mixing of ``(seed, attempt)``, the same
        cross-platform-stable derivation job seeds use.
        """
        if attempt < 1 or self.backoff_s <= 0:
            return 0.0
        base = min(self.backoff_s * self.backoff_factor ** (attempt - 1),
                   self.max_backoff_s)
        if self.jitter <= 0:
            return base
        u = np.random.SeedSequence([int(seed) & 0xFFFFFFFF, int(attempt)]) \
            .generate_state(1, np.uint32)[0] / 2**32
        return base * (1.0 + self.jitter * float(u))

    def total_backoff_s(self, base_attempt: int = 0) -> float:
        """Upper bound on backoff sleep across the remaining attempts."""
        return sum(
            min(self.backoff_s * self.backoff_factor ** (a - 1),
                self.max_backoff_s) * (1.0 + self.jitter)
            for a in range(max(base_attempt, 1), self.max_attempts))


#: The no-retry policy specs fall back to when none is configured.
NO_RETRY = RetryPolicy(max_attempts=1)


def wrap_job_failure(exc: BaseException, *, attempts: int, label: str = "",
                     seed: int | None = None,
                     quarantined: bool = False) -> JobError:
    """The terminal :class:`JobError` for a job that will not run again.

    The message is derived from the original exception's type and text
    only — identical on every backend — while ``remote_traceback``
    preserves the execution-side stack for debugging.  An exception that
    is already a :class:`JobError` (a resolved worker loss, a
    closed-backend resolution) passes through with its counters updated.
    """
    if isinstance(exc, JobError):
        exc.attempts = max(exc.attempts, attempts)
        exc.quarantined = exc.quarantined or quarantined
        return exc
    return JobError(
        f"{type(exc).__name__}: {exc}",
        exc_type=type(exc).__name__,
        remote_traceback="".join(traceback.format_exception(exc)),
        attempts=attempts,
        label=label,
        seed=seed,
        quarantined=quarantined,
    )
