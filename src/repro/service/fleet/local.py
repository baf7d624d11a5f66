"""Local worker processes: the ``process`` backend on the fleet transport.

Each worker is a child process running a
:class:`~repro.service.fleet.worker.WorkerServer` on one end of a
``socket.socketpair()``; :class:`ProcessBackend` holds the other end and
is a :class:`~repro.service.fleet.backend.FleetBackend` in every other
respect.  The first workers are forked before the backend starts any
thread (a fork inherits the parent's imports, so they serve at once);
lost ones are replaced through the ``spawn`` context, which is safe
while the backend's threads run.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time

from repro.service.faults import FaultPlan
from repro.service.fleet.backend import FleetBackend
from repro.service.fleet.client import WorkerClient
from repro.service.fleet.worker import WorkerServer
from repro.service.policy import NO_RETRY
from repro.utils.errors import ConfigurationError


def default_workers() -> int:
    """Leave one core for the submitting process."""
    return max(1, (os.cpu_count() or 2) - 1)


def serve_local(sock: socket.socket, inherited: tuple) -> None:
    """Child side: serve the backend on ``sock`` until it disconnects.

    ``inherited`` holds the backend's socket ends a forked child got
    copies of; closing them ties each worker's end-of-file to the
    backend alone.
    """
    # Ctrl-C reaches the whole process group; the parent handles it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    WorkerServer(None, name=f"pid:{os.getpid()}", allow_crash=True).serve(sock)
    # Nobody wants the result of a job still running on a lane thread.
    os._exit(0)


def start_worker(context, inherited: list | None):
    """Start one worker; returns ``(process, backend end of its socket)``.

    ``inherited`` (fork only) collects the backend ends created so far,
    which every later forked child must close.
    """
    ours, theirs = socket.socketpair()
    if inherited is not None:
        inherited.append(ours)
    process = context.Process(
        target=serve_local, name="repro-worker", daemon=True,
        args=(theirs, tuple(inherited or ())))
    try:
        process.start()
    except BaseException:
        ours.close()
        raise
    finally:
        theirs.close()
    return process, ours


def reap(process, grace_s: float) -> None:
    """Join ``process``, killing it if it is still alive after ``grace_s``."""
    process.join(grace_s)
    if process.is_alive():
        process.kill()
        process.join(5.0)


class ProcessBackend(FleetBackend):
    """N local worker processes behind the fleet executor.

    Workers are expendable: injected crash faults really kill them, a
    worker whose job overstays its whole attempt budget (``timeout`` x
    remaining attempts + backoff + grace) is SIGKILLed (``hang_kills``),
    and each loss is replaced (``reconnects``).  ``close()`` first drains
    every submitted job, then joins every worker process.
    """

    name = "process"

    #: Slack added to a job's whole attempt budget before its worker is
    #: presumed hung and killed.
    KILL_GRACE_S = 1.0
    #: Overstay check period (seconds).
    WATCH_INTERVAL_S = 0.05

    def __init__(self, workers: int | None = None, *,
                 faults: FaultPlan | None = None):
        workers = workers if workers is not None else default_workers()
        if workers < 1:
            raise ConfigurationError("need at least one worker")
        super().__init__([f"local:{i}" for i in range(workers)],
                         faults=faults, reconnect_lost=True)
        self.workers = workers
        self.hang_kills = 0
        self._processes: list = [None] * workers
        self._stop = threading.Event()
        self._watchdog: threading.Thread | None = None

    def _connect(self, process, sock: socket.socket) -> WorkerClient:
        return self._client(f"pid:{process.pid}").connect(sock)

    def _open_workers(self) -> list[WorkerClient]:
        context = multiprocessing.get_context("fork")
        inherited: list = []
        started, clients = [], []
        try:
            for _ in range(self.workers):
                started.append(start_worker(context, inherited))
            # Only now do the clients start their threads.
            for process, sock in started:
                clients.append(self._connect(process, sock))
        except BaseException:
            for client in clients:
                client.close()
            for process, sock in started:
                sock.close()
                reap(process, 0.0)
            raise
        self._processes = [process for process, _ in started]
        self._watchdog = threading.Thread(
            target=self._watch, name="repro-process-watchdog", daemon=True)
        self._watchdog.start()
        return clients

    def _reopen(self, index: int) -> WorkerClient:
        """Reap lost worker ``index`` and connect a spawned replacement."""
        with self._fleet_lock:
            lost, self._processes[index] = self._processes[index], None
        if lost is not None:
            reap(lost, 0.0)
        process, sock = start_worker(
            multiprocessing.get_context("spawn"), None)
        with self._fleet_lock:
            self._processes[index] = process
        return self._connect(process, sock)

    def _watch(self) -> None:
        """SIGKILL workers whose job overstayed its whole attempt budget."""
        while not self._stop.wait(self.WATCH_INTERVAL_S):
            now = time.monotonic()
            with self._fleet_lock:
                for entry in self._inflight.values():
                    spec, base = entry["spec"], entry["base_attempt"]
                    process = self._processes[entry["worker"]]
                    if (spec.timeout is None or entry.get("killed")
                            or process is None):
                        continue
                    policy = spec.retry if spec.retry is not None \
                        else NO_RETRY
                    budget = (spec.timeout
                              * max(1, policy.max_attempts - base)
                              + policy.total_backoff_s(base)
                              + self.KILL_GRACE_S)
                    # A job ships only to a free slot, so it starts on
                    # arrival; a cancelled one holds its slot until the
                    # worker is done with it, and stays watched.
                    if now - entry["shipped_at"] > budget:
                        entry["killed"] = True
                        process.kill()
                        self.hang_kills += 1

    def close(self) -> None:
        """Run every submitted job to its outcome, then stop the workers.

        Losses during the drain are still replaced and retried; a job
        that hangs past its timeout budget is still killed.
        """
        self.drain()
        super().close()  # every worker reads end-of-file and exits
        self._stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
        for process in self._processes:
            if process is not None:
                reap(process, 1.0)

    def stats(self) -> dict:
        stats = super().stats()
        stats["hang_kills"] = self.hang_kills
        return stats
