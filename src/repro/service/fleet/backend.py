"""Fleet executor backends: the one worker transport.

:class:`FleetBackend` runs jobs on N workers, each reached through a
:class:`~repro.service.fleet.client.WorkerClient` speaking the RPFL
frames of :mod:`repro.service.fleet.protocol`: ``repro worker`` daemons
dialed by address, or (``backend="process"``,
:class:`~repro.service.fleet.local.ProcessBackend`) local worker
processes on socketpairs.  Both share this module's dispatch and loss
handling.

Each worker runs one job at a time, so dispatch keeps at most one job
in flight per worker and holds the rest client-side.  A dead connection
or heartbeat silence marks a worker lost
(:class:`~repro.utils.errors.WorkerLost`); its in-flight jobs are held
again at ``base_attempt + 1`` when their retry policy allows, or
resolved with a terminal :class:`JobError`.  Job execution is
a pure function of the spec, so a sweep that loses a worker mid-flight
still gathers bit-identical results.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque

from repro.service.backends.base import ExecutorBackend
from repro.service.faults import FaultPlan
from repro.service.fleet.client import WorkerClient
from repro.service.job import JobFuture, JobSpec
from repro.service.policy import NO_RETRY, wrap_job_failure
from repro.utils.errors import ConfigurationError, WorkerLost

#: Comma-separated ``host:port`` list naming the fleet's workers; the
#: default address source so ``ExperimentService(backend="fleet")`` and
#: the pinned parity suite work without explicit plumbing.
FLEET_WORKERS_ENV = "REPRO_FLEET_WORKERS"


def fleet_addresses_from_env() -> tuple[str, ...]:
    raw = os.environ.get(FLEET_WORKERS_ENV, "")
    return tuple(part.strip() for part in raw.split(",") if part.strip())


class FleetBackend(ExecutorBackend):
    """Run jobs on N workers; survive losing some.

    ``addresses`` lists the worker daemons (``host:port``); when omitted
    it comes from ``$REPRO_FLEET_WORKERS``.  Connections are dialed
    lazily on first submit, and a dial failure is a loud
    :class:`ConfigurationError` — a fleet pointed at dead workers is
    misconfigured, not unlucky.  ``faults`` travels with every
    ``SUBMIT`` frame (a :class:`FaultPlan` is a frozen, stateless
    schedule), so every worker sees the same deterministic chaos; it
    wins over a daemon's ambient ``REPRO_FAULT_*`` plan for its jobs.
    With ``reconnect_lost`` a lost worker is re-dialed at its address
    and retry-eligible jobs resubmit there, so one long-lived daemon
    (``FleetBackend([addr], reconnect_lost=True)``) resumes a sweep
    after a restart.
    """

    name = "fleet"

    def __init__(self, addresses=None, *, faults: FaultPlan | None = None,
                 reconnect_lost: bool = False):
        super().__init__()
        if addresses is None:
            addresses = fleet_addresses_from_env()
        if isinstance(addresses, str):
            addresses = (addresses,)
        self.addresses = tuple(addresses)
        if not self.addresses:
            raise ConfigurationError(
                f"a fleet needs worker addresses: pass addresses=/"
                f"fleet_workers=, or export {FLEET_WORKERS_ENV}="
                f"host:port[,host:port...] after starting daemons with "
                f"'repro worker --listen host:port'")
        self.faults = faults
        self.reconnect_lost = reconnect_lost
        self.worker_losses = 0
        self.resubmissions = 0
        self.reconnects = 0
        self.reconnect_failures = 0
        #: Workers whose ``stats()`` request failed; the error text lands
        #: on that worker's entry as ``stats_error``.
        self.stats_failures = 0
        # Reentrant: loss handling runs inside submit-path sends and
        # recursively when a resubmission target dies in the same breath.
        self._fleet_lock = threading.RLock()
        n = len(self.addresses)
        self._clients: list[WorkerClient | None] = [None] * n
        self._loads = [0] * n
        self._shipped = [0] * n
        #: Jobs not yet shipped, as ``(spec, future, base_attempt)``.
        self._held: deque = deque()
        self._inflight: dict[int, dict] = {}
        #: Lost worker index -> the helper thread connecting its
        #: replacement; held jobs wait for these rather than fail.
        self._joining: dict[int, threading.Thread] = {}
        self._tokens = itertools.count()
        self._ties = 0
        self._started = False
        self._closing = False

    # -- connections ---------------------------------------------------------

    def _client(self, address: str) -> WorkerClient:
        return WorkerClient(address, on_reply=self._on_reply,
                            on_lost=self._on_lost)

    def _open_workers(self) -> list[WorkerClient]:
        """Connect one client per worker (called once, under the lock)."""
        clients: list[WorkerClient] = []
        try:
            for index in range(len(self.addresses)):
                clients.append(self._reopen(index))
        except Exception as exc:
            for client in clients:
                client.close()
            raise ConfigurationError(
                f"cannot connect to fleet worker "
                f"{self.addresses[len(clients)]}: {exc}") from exc
        return clients

    def _ensure_started(self) -> None:
        with self._fleet_lock:
            if self._started:
                return
            self._clients = self._open_workers()
            self._started = True

    def _index_of(self, client: WorkerClient) -> int | None:
        for index, candidate in enumerate(self._clients):
            if candidate is client:
                return index
        return None

    def _live_indices(self) -> list[int]:
        return [i for i, c in enumerate(self._clients)
                if c is not None and c.alive]

    def _worker_name(self, index: int) -> str:
        """Worker ``index``'s name in job telemetry and the worker report
        (lock held): its own, or ``name@address`` when daemons of this
        fleet share a ``--name``, so each keeps an entry its jobs name."""
        client = self._clients[index]
        name = client.welcome.get("worker", "")
        shared = sum(1 for other in self._clients if other is not None
                     and other.welcome.get("worker") == name)
        return f"{name}@{client.address}" if shared > 1 else name

    # -- submission and dispatch ---------------------------------------------

    def _submit(self, spec: JobSpec) -> JobFuture:
        future = JobFuture(spec)
        self._ensure_started()
        future.add_done_callback(self._cancel_inflight)
        with self._fleet_lock:
            self._held.append((spec, future, 0))
            self._dispatch()
        return future

    def _pick(self) -> int | None:
        """An idle live worker, or None when every one is busy.

        Ties rotate among the idle workers, so a sweep's first job does
        not always land on the same worker.
        """
        idle = [i for i in self._live_indices() if not self._loads[i]]
        if not idle:
            return None
        if len(idle) == 1:
            return idle[0]
        self._ties += 1
        return idle[(self._ties - 1) % len(idle)]

    def _dispatch(self) -> None:
        """Ship held jobs while workers are idle (lock held); with no
        worker live or rejoining, resolve them with WorkerLost."""
        while self._held:
            index = self._pick()
            if index is None:
                if not self._live_indices() and not self._joining:
                    loss = WorkerLost("no live fleet workers remain",
                                      worker=",".join(self.addresses))
                    while self._held:
                        spec, future, base_attempt = self._held.popleft()
                        self._resolve_lost(spec, future, base_attempt, loss)
                return
            spec, future, base_attempt = self._held.popleft()
            if future.done():
                continue  # cancelled while held: never reaches a worker
            self._ship(index, spec, future, base_attempt)

    def _ship(self, index: int, spec: JobSpec, future: JobFuture,
              base_attempt: int) -> None:
        """Register one job in flight on worker ``index`` and send it.

        Both happen under the fleet lock, so a loss seen by a reader
        thread either recovers the entry or precedes the pick — never a
        half-registered job.
        """
        token = next(self._tokens)
        self._inflight[token] = {"spec": spec, "future": future,
                                 "base_attempt": base_attempt,
                                 "worker": index,
                                 "shipped_at": time.monotonic()}
        self._loads[index] += 1
        self._shipped[index] += 1
        client = self._clients[index]
        try:
            client.submit(token, spec, base_attempt, faults=self.faults)
        except Exception as exc:
            # The write found the corpse before the reader did; the loss
            # handler recovers this entry with everything else that
            # worker had in flight.
            client.mark_lost(f"submit to worker {client.address} failed: "
                             f"{exc}")

    def _cancel_inflight(self, future: JobFuture) -> None:
        """Ask the worker to drop a cancelled in-flight job (best-effort).

        The entry keeps its worker busy, and a local worker's overstay
        watch, until the worker answers the token: with the job's outcome
        if it already started, or with an ``ERROR`` frame if the
        ``CANCEL`` dequeued it.
        """
        if not future.cancelled():
            return
        with self._fleet_lock:
            for token, entry in self._inflight.items():
                if entry["future"] is future:
                    break
            else:
                return  # still held (dispatch skips it) or already done
            client = self._clients[entry["worker"]]
            if client is not None:
                client.cancel(token)

    # -- result delivery (reader threads) ------------------------------------

    def _on_reply(self, client: WorkerClient, token: int, outcome) -> None:
        """A ``RESULT`` (a JobResult) or ``ERROR`` (an exception) frame."""
        with self._fleet_lock:
            entry = self._inflight.pop(token, None)
            if entry is None:
                return  # recovered after a loss before this arrived
            self._loads[entry["worker"]] -= 1
            worker = self._worker_name(entry["worker"])
            self._dispatch()
        try:
            if isinstance(outcome, BaseException):
                entry["future"].set_exception(outcome)
            else:
                if outcome.telemetry is not None:
                    outcome.telemetry.worker = worker
                entry["future"].set_result(outcome)
        except RuntimeError:
            pass  # a close-time resolution won the race

    # -- worker loss ---------------------------------------------------------

    def _on_lost(self, client: WorkerClient, reason: str) -> None:
        with self._fleet_lock:
            index = self._index_of(client)
            if index is None:
                return  # a replaced connection's late death
            self.worker_losses += 1
            victims = [token for token, entry in self._inflight.items()
                       if entry["worker"] == index]
            victims = [self._inflight.pop(token) for token in victims]
            self._loads[index] = 0
            if not self._closing:
                self._replace(index)
            loss = WorkerLost(f"worker {client.address} lost: {reason}",
                              worker=client.address)
            for entry in reversed(victims):
                spec, future = entry["spec"], entry["future"]
                if future.done():
                    continue
                policy = spec.retry if spec.retry is not None else NO_RETRY
                if (not self._closing
                        and policy.should_retry(loss, entry["base_attempt"])):
                    self.resubmissions += 1
                    self._held.appendleft(
                        (spec, future, entry["base_attempt"] + 1))
                else:
                    self._resolve_lost(spec, future, entry["base_attempt"],
                                       loss)
            self._dispatch()

    def _replace(self, index: int) -> None:
        """Start bringing lost worker ``index`` back (lock held).

        The replacement connects on a helper thread; held jobs wait for
        it instead of failing, and go to the other workers meanwhile.
        """
        if not self.reconnect_lost:
            return
        helper = threading.Thread(target=self._rejoin, args=(index,),
                                  name=f"fleet-rejoin-{index}", daemon=True)
        self._joining[index] = helper
        helper.start()

    def _reopen(self, index: int) -> WorkerClient:
        """A connected client for worker ``index``: dial its address."""
        return self._client(self.addresses[index]).connect()

    def _rejoin(self, index: int) -> None:
        try:
            client = self._reopen(index)
        except Exception:
            client = None  # counted below; held jobs then fail over
        with self._fleet_lock:
            del self._joining[index]
            if self._closing:
                if client is not None:
                    client.close()
            elif client is None:
                self.reconnect_failures += 1
            else:
                self._clients[index] = client
                self.reconnects += 1
            self._dispatch()

    def _resolve_lost(self, spec: JobSpec, future: JobFuture,
                      lost_attempt: int, loss: WorkerLost) -> None:
        policy = spec.retry if spec.retry is not None else NO_RETRY
        try:
            future.set_exception(wrap_job_failure(
                loss, attempts=lost_attempt + 1, label=spec.label,
                seed=spec.run_seed,
                quarantined=(policy.is_retryable(loss)
                             and policy.max_attempts > 1)))
        except RuntimeError:
            pass

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Disconnect (daemons keep running for other clients)."""
        with self._fleet_lock:
            if self._closing:
                return
            self._closing = True
            self._held.clear()
        for client in self._clients:
            if client is not None:
                client.close()
        with self._fleet_lock:
            helpers = list(self._joining.values())
        for helper in helpers:
            helper.join(timeout=60.0)
        super().close()

    # -- inspection ----------------------------------------------------------

    def stats(self) -> dict:
        stats = super().stats()
        with self._fleet_lock:
            workers = []
            for index, address in enumerate(self.addresses):
                client = self._clients[index]
                workers.append({
                    "index": index,
                    "address": (client.address if client is not None
                                else address),
                    "name": (self._worker_name(index)
                             if client is not None else None),
                    "pid": (client.welcome.get("pid")
                            if client is not None else None),
                    "client": client,
                    "alive": client is not None and client.alive,
                    "outstanding": self._loads[index],
                    "shipped": self._shipped[index],
                    "cancel_failures": (client.cancel_failures
                                        if client is not None else 0),
                })
            queued = len(self._held)
        # The remote round-trips happen outside the fleet lock: the reader
        # thread that delivers the stats reply takes that lock to deliver
        # job results, so holding it here would stall both.
        for entry in workers:
            client = entry.pop("client")
            if client is not None and client.alive:
                try:
                    entry["remote"] = client.stats(timeout=5.0)
                except Exception as exc:
                    with self._fleet_lock:
                        self.stats_failures += 1
                    entry["alive"] = client.alive
                    entry["stats_error"] = f"{type(exc).__name__}: {exc}"
        stats["workers"] = workers
        stats["queued"] = queued
        stats["worker_losses"] = self.worker_losses
        stats["resubmissions"] = self.resubmissions
        stats["reconnects"] = self.reconnects
        stats["reconnect_failures"] = self.reconnect_failures
        stats["stats_failures"] = self.stats_failures
        return stats

