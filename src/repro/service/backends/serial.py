"""In-process serial executor: the reference backend.

Executes each job eagerly on the submitting thread on its own
:class:`~repro.service.backends.base.Worker`.  ``submit`` therefore
returns an already-resolved future — the simplest implementation of the
futures contract, and the oracle the parity tests compare the concurrent
backends against.
"""

from __future__ import annotations

from repro.service.backends.base import ExecutorBackend, Worker
from repro.service.faults import FaultPlan
from repro.service.job import JobFuture, JobSpec


class SerialBackend(ExecutorBackend):
    """Run jobs inline, one at a time, in the submitting process.

    Like a fleet worker process, the engine holds one :class:`Worker`
    with its warm state.  Retries run inline under the spec's policy;
    injected ``crash`` faults degrade to transient exceptions here
    (chaos must never kill the submitting process).
    """

    name = "serial"

    def __init__(self, faults: FaultPlan | None = None):
        super().__init__()
        self.worker = Worker(faults=faults)

    def _submit(self, spec: JobSpec) -> JobFuture:
        future = JobFuture(spec)
        try:
            future.set_result(self.worker.run(spec))
        except Exception as exc:  # surfaces on future.result()
            future.set_exception(exc)
        return future

    def stats(self) -> dict:
        stats = super().stats()
        stats.update(self.worker.stats())
        return stats
