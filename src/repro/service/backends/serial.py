"""In-process serial executor: the reference backend.

Executes each job eagerly on the submitting thread against one shared
compile cache, replay cache, and machine pool.  ``submit`` therefore
returns an already-resolved future — the simplest implementation of the
futures contract, and the oracle the parity tests compare the concurrent
backends against.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.service.backends.base import ExecutorBackend, execute_with_retry
from repro.service.cache import CompileCache, ReplayCache
from repro.service.faults import FaultPlan
from repro.service.job import JobFuture, JobSpec
from repro.service.pool import MachinePool


class SerialBackend(ExecutorBackend):
    """Run jobs inline, one at a time, on the caller's cache + pool state.

    The service hands its own pool, caches and in-process metrics
    registry to its serial engine, so inline ``run_job`` calls and
    submitted jobs share one process's state.  Retries run inline under
    the spec's policy; injected ``crash`` faults degrade to transient
    exceptions here (chaos must never kill the submitting process).
    """

    name = "serial"

    def __init__(self, pool: MachinePool, cache: CompileCache,
                 replay_cache: ReplayCache, metrics: MetricsRegistry,
                 faults: FaultPlan | None = None):
        super().__init__()
        self.pool = pool
        self.cache = cache
        self.replay_cache = replay_cache
        self.metrics = metrics
        self.faults = faults

    def _submit(self, spec: JobSpec) -> JobFuture:
        future = JobFuture(spec)
        try:
            future.set_result(
                execute_with_retry(spec, self.pool, self.cache,
                                   self.replay_cache, metrics=self.metrics,
                                   faults=self.faults))
        except Exception as exc:  # surfaces on future.result()
            future.set_exception(exc)
        return future

    def stats(self) -> dict:
        stats = super().stats()
        stats["pool"] = self.pool.stats()
        stats["cache"] = self.cache.stats()
        stats["replay_cache"] = self.replay_cache.stats()
        stats["metrics"] = self.metrics.summary()
        return stats
