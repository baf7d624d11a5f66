"""The experiment service: futures, streaming, and batch orchestration.

One :class:`ExperimentService` owns one executor backend, its engine
(see ``repro.service.backends``), and executes
:class:`~repro.service.job.JobSpec`\\ s three ways:

* :meth:`submit` — hand one spec to the engine, get a
  :class:`~repro.service.job.JobFuture` back immediately;
* :meth:`iter_completed` — stream :class:`JobResult`\\ s in *completion*
  order as outstanding submissions finish (:meth:`iter_futures` is the
  scoped drain of one submission group);
* :meth:`run_batch` / :meth:`run_sweep` — thin deterministic-order
  wrappers: submit everything, gather in submission order.

``backend=`` selects the engine: ``"serial"``, ``"process"`` (local
worker processes) or ``"fleet"`` (remote ``repro worker`` daemons named
by ``fleet_workers=``/``$REPRO_FLEET_WORKERS``).  Every job runs on the
engine, :meth:`run_job` and a one-spec :meth:`run_batch` included.  The
engine runs both kinds of spec: ``executor="quma"`` event-kernel jobs
and ``executor="baseline"`` APS2 cost-model jobs, so one batch can
interleave both.  Job execution is a pure function of the spec (per-job
RNG streams are re-derived from the spec's run seed), so all backends
produce bit-identical results in submission order.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from typing import Callable, Iterable, Iterator, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.service.backends import (
    FleetBackend,
    ProcessBackend,
    SerialBackend,
    default_workers,
)
from repro.service.backends.base import calibration_stats
from repro.service.faults import FaultPlan
from repro.service.policy import RetryPolicy
from repro.service.job import (
    JobFuture,
    JobResult,
    JobSpec,
    SweepResult,
    derive_job_seed,
)
from repro.utils.errors import ConfigurationError


#: Components of a worker's ``stats()`` reported as ``<name>.*`` gauges.
WORKER_GAUGES = ("pool", "cache", "replay_cache", "calibration")


def grid(**axes: Iterable) -> list[dict]:
    """Cartesian sweep points from named axes, last axis fastest.

    >>> grid(detuning=(0.0, 1e6), amplitude=(0.1, 0.2))[0]
    {'detuning': 0.0, 'amplitude': 0.1}
    """
    names = list(axes)
    return [dict(zip(names, combo))
            for combo in itertools.product(*axes.values())]


class ExperimentService:
    """Batched experiment orchestration over one engine."""

    BACKENDS = ("serial", "process", "fleet")

    def __init__(self, backend: str = "serial", workers: int | None = None,
                 retry: RetryPolicy | None = None,
                 faults: FaultPlan | None = None,
                 job_timeout: float | None = None,
                 fleet_workers: Sequence[str] | None = None):
        if backend not in self.BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; choose from {self.BACKENDS}")
        if workers is not None and workers < 1:
            raise ConfigurationError("need at least one worker")
        if job_timeout is not None and job_timeout <= 0:
            raise ConfigurationError("job_timeout must be positive (or None)")
        self.backend = backend
        self.workers = workers if workers is not None else default_workers()
        #: ``host:port`` daemon addresses for ``backend="fleet"`` (falls
        #: back to ``$REPRO_FLEET_WORKERS`` when None).
        self.fleet_workers = (tuple(fleet_workers)
                              if fleet_workers is not None else None)
        # Failure semantics: service-wide defaults for specs that carry
        # none of their own, and the (explicit or ambient-from-env) chaos
        # plan, armed on the engine.
        self.retry = retry
        self.job_timeout = job_timeout
        self.faults = faults if faults is not None else FaultPlan.from_env()
        # The engine: the one executor backend every spec runs on.  It
        # owns the warm state (pool, caches) wherever the jobs run.
        if backend == "serial":
            self.engine = SerialBackend(faults=self.faults)
        elif backend == "process":
            self.engine = ProcessBackend(self.workers, faults=self.faults)
        else:
            self.engine = FleetBackend(self.fleet_workers, faults=self.faults)
        # Stream bookkeeping; guarded by the lock because submit may be
        # called from several threads while iter_completed drains.
        # ``_pending`` holds futures submitted but not yet yielded by any
        # stream (scoped or service-wide), so the two draining modes
        # together yield every job exactly once.
        self._stream_lock = threading.Lock()
        self._submitted = 0
        self._pending: set[JobFuture] = set()
        self._completed: queue.SimpleQueue[JobFuture] = queue.SimpleQueue()
        # Service-side counters/histograms (``service.*`` and ``stage.*``
        # names), harvested per resolved future; workers keep their own.
        self.metrics = MetricsRegistry()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the engine (no-op for the serial one)."""
        self.engine.close()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- futures API ---------------------------------------------------------

    def submit(self, spec: JobSpec, *, stream: bool = True) -> JobFuture:
        """Queue one job on the engine; returns its future.

        With ``stream=True`` (the default) the submission feeds the
        service-wide :meth:`iter_completed` — take results from the
        future or from the stream, either way exactly once per job.
        ``stream=False`` keeps the job out of the service-wide stream
        entirely: the caller owns its future and drains it directly or
        via the scoped :meth:`iter_futures`, with no race against a
        concurrent service-wide consumer (the experiment layer submits
        this way).  ``spec`` itself is never modified.
        """
        future = self.engine.submit(self._apply_defaults(spec))
        with self._stream_lock:
            future.index = self._submitted
            self._submitted += 1
            if stream:
                self._pending.add(future)
        future.add_done_callback(self._observe)
        if stream:
            # Non-streamed futures never touch the service-wide queue, so
            # the queue retains no reference to them (or their results).
            future.add_done_callback(self._completed.put)
        return future

    def _apply_defaults(self, spec: JobSpec) -> JobSpec:
        """``spec`` with its unset failure-semantics fields filled in.

        A spec's own ``retry``/``timeout`` always wins; the service-wide
        defaults only cover the gaps, so one batch can mix per-job
        policies with the ambient ones.  The defaults land on a copy,
        made only when one applies: the caller's spec may be submitted
        again through another service.
        """
        changes = {}
        if spec.retry is None and self.retry is not None:
            changes["retry"] = self.retry
        if spec.timeout is None and self.job_timeout is not None:
            changes["timeout"] = self.job_timeout
        return dataclasses.replace(spec, **changes) if changes else spec

    def _observe(self, future: JobFuture) -> None:
        """Harvest one resolved future into the service-side registry.

        Runs as a done-callback (possibly on a worker reader thread), after
        :meth:`JobFuture._finalize` stamped ``queue_wait_s`` and rebased
        any spans — the registry's own lock makes the counter updates
        safe from any thread.
        """
        exception = future.exception()
        if exception is not None:
            self.metrics.counter("service.failures").inc()
            if getattr(exception, "quarantined", False):
                self.metrics.counter("service.quarantined").inc()
            attempts = getattr(exception, "attempts", 1)
            if attempts > 1:
                self.metrics.counter("service.retries").inc(attempts - 1)
            return
        result = future.result()
        m = self.metrics
        m.counter("service.jobs").inc()
        if result.params.get("mitigation"):
            m.counter("service.mitigated_jobs").inc()
        if result.params.get("zne_scale") is not None:
            m.counter("service.zne_jobs").inc()
        if result.attempts > 1:
            m.counter("service.retries").inc(result.attempts - 1)
        m.counter("service.cache_hits").inc(int(result.cache_hit))
        m.counter("service.machine_reuses").inc(int(result.machine_reused))
        m.counter("service.replay_plan_hits").inc(int(result.replay_plan_hit))
        m.counter("service.replayed_rounds").inc(result.replayed_rounds)
        m.counter("service.replay_fallbacks").inc(
            int(result.replay_fallback_reason is not None))
        m.histogram("stage.queue_wait_s").observe(result.queue_wait_s)
        m.histogram("stage.compile_s").observe(result.compile_s)
        m.histogram("stage.execute_s").observe(result.execute_s)
        m.histogram("stage.total_s").observe(result.total_s)

    def iter_futures(self, futures: Sequence[JobFuture],
                     timeout: float | None = None) -> Iterator[JobFuture]:
        """Yield exactly the given futures, in completion order.

        The scoped drain: only this submission group is waited on, so
        concurrent sweeps on one service never steal each other's
        results.  The whole group is claimed from the service-wide
        stream up front, so an :meth:`iter_completed` consumer running
        concurrently skips it from this point on (submit with
        ``stream=False`` to keep a group out of the service-wide stream
        altogether).  A future some other stream already yielded is
        skipped, keeping every job exactly-once across all streams
        however the modes interleave.  ``timeout`` bounds the wait for
        each *next* completion.
        """
        futures = list(futures)
        with self._stream_lock:
            for future in futures:
                self._pending.discard(future)
        scoped: queue.SimpleQueue[JobFuture] = queue.SimpleQueue()
        for future in futures:
            future.add_done_callback(scoped.put)
        for n_left in range(len(futures), 0, -1):
            try:
                future = scoped.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no job completed within {timeout} s "
                    f"({n_left} outstanding in group)") from None
            with self._stream_lock:
                if future.stream_collected:
                    continue  # another stream already yielded this job
                future.stream_collected = True
            yield future

    def iter_completed(self, *, timeout: float | None = None
                       ) -> Iterator[JobResult]:
        """Yield results of outstanding submissions in completion order.

        The service-wide stream: every streamed submission not yet
        collected by any stream (a scoped drain of one group is
        :meth:`iter_futures`).  Each job is yielded exactly once across
        all streams; jobs that failed re-raise here.  ``timeout`` bounds
        the wait for each *next* completion.
        """
        while True:
            with self._stream_lock:
                if not self._pending:
                    return
                n_pending = len(self._pending)
            try:
                future = self._completed.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no job completed within {timeout} s "
                    f"({n_pending} outstanding)") from None
            with self._stream_lock:
                if future not in self._pending or future.stream_collected:
                    continue  # already collected by a scoped drain
                self._pending.discard(future)
                future.stream_collected = True
            yield future.result()

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted job has resolved.

        ``timeout`` bounds the whole drain; an expired one raises
        :class:`TimeoutError` rather than hanging forever on a stuck
        worker (worker-loss casualties are resolved by the loss
        handling, so an expired drain means jobs are genuinely still
        running or hung).
        """
        self.engine.drain(timeout=timeout)

    # -- execution -----------------------------------------------------------

    def run_job(self, spec: JobSpec) -> JobResult:
        """Execute a single job on the engine and return its result.

        Kept out of the service-wide stream; a failed job re-raises here.
        """
        return self.submit(spec, stream=False).result()

    def run_batch(self, specs: Sequence[JobSpec]) -> SweepResult:
        """Execute jobs, returning results in submission order.

        The deterministic-order wrapper over the futures API: all specs
        are submitted (fanning out across workers), then
        gathered in submission order, so the merged :class:`SweepResult`
        is bit-identical across backends for the same specs.
        """
        t0 = time.perf_counter()
        futures = [self.submit(spec, stream=False) for spec in specs]
        results = [future.result() for future in futures]
        return SweepResult.from_jobs(results, time.perf_counter() - t0,
                                     self.backend)

    def run_sweep(self, factory: Callable[[dict], JobSpec],
                  points: Iterable[dict], *,
                  seed_root: int | None = None) -> SweepResult:
        """Build one job per sweep point and execute the batch.

        ``factory`` maps a point's parameter dict to a :class:`JobSpec`
        (specs are built in the parent process; only specs cross to
        workers).  With ``seed_root`` every job gets an independent,
        reproducible run seed derived from (root, index); without it jobs
        keep the factory's seeds (defaulting to the config seed).  Both
        land on a copy, made only when a field changes, so a factory may
        return one shared spec for every point.
        """
        specs = []
        for index, params in enumerate(points):
            params = dict(params)
            spec = factory(params)
            changes = {}
            if not spec.params:
                changes["params"] = params
            if seed_root is not None:
                changes["seed"] = derive_job_seed(seed_root, index)
            specs.append(dataclasses.replace(spec, **changes)
                         if changes else spec)
        return self.run_batch(specs)

    # -- inspection ----------------------------------------------------------

    def metrics_summary(self) -> dict:
        """Service-side registry plus every live worker's report.

        ``service`` holds this process's counters and stage histograms
        (every resolved future lands there, telemetry on or off).
        ``workers`` is built now from each live worker's ``stats()``,
        keyed by the name its job telemetry carries: the counters of its
        registry, and its pool, cache, replay-cache and calibration-memo
        stats as ``pool.*``/``cache.*``/``replay_cache.*``/
        ``calibration.*`` gauges.  ``workers_merged`` sums them across
        workers.  A lost worker's report leaves with it.
        """
        return self._metrics_summary(self.engine.stats())

    def _metrics_summary(self, engine: dict) -> dict:
        # The serial engine is its own one worker; worker backends list
        # each live worker's stats under its entry's ``remote``.
        live = ([engine] if "workers" not in engine else
                [entry["remote"] for entry in engine["workers"]
                 if "remote" in entry])
        workers = {stats["worker"]: {
            "counters": stats["metrics"]["counters"],
            "gauges": {f"{part}.{key}": value for part in WORKER_GAUGES
                       for key, value in stats[part].items()},
        } for stats in sorted(live, key=lambda stats: stats["worker"])}
        summary = {"service": self.metrics.summary(), "workers": workers}
        if workers:
            merged = {"counters": {}, "gauges": {}}
            for report in workers.values():
                for kind, into in merged.items():
                    for name, value in report[kind].items():
                        into[name] = into.get(name, 0) + value
            summary["workers_merged"] = merged
        return summary

    def stats(self) -> dict:
        """The engine's stats plus this process's memos and metrics.

        Reads each live worker's stats once (one ``STATS`` round trip per
        fleet worker) for both the engine block and the metrics summary.
        """
        engine = self.engine.stats()
        return {
            "backend": self.backend,
            "submitted": self._submitted,
            "engine": engine,
            "calibration": calibration_stats(),
            "metrics": self._metrics_summary(engine),
        }
