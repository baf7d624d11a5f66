"""The ``repro worker`` daemon: a warm worker behind a socket.

A :class:`WorkerServer` holds one
:class:`~repro.service.backends.base.Worker` — machine pool, compile
cache, replay cache and metrics registry — and serves it to TCP clients
as a daemon or on one socketpair as a local worker process of the
``process`` backend (:mod:`repro.service.fleet.local`).  Jobs arrive as
pickled :class:`JobSpec`\\ s on ``SUBMIT`` frames and run through
:meth:`Worker.run`, so the worker-side failure semantics (per-spec retry
policy, fault plan from its own environment, uniform ``JobError``
wrapping) are exactly those of the serial backend.  Results (or the
terminal ``JobError``) ship back on the same connection, keyed by the
client's token; the worker's state reaches clients only through
``STATS`` replies.

Concurrency model: one accept loop (daemons only), one reader thread
per connection, and one job thread, so a worker runs one job at a time
(scale a host by running more daemons).  Heartbeats and stats requests
are answered from the reader thread, so a worker stays responsive while
a job runs.

Injected *crash* faults degrade to transient errors in a daemon (like
the serial backend): a daemon is shared infrastructure that outlives any
one client, so chaos must not take it down from the inside — killing
daemons is the test harness's job (``SIGKILL``), and the client-side
``WorkerLost`` recovery is what's under test.  Local workers belong to
one client and are expendable, so they run with ``allow_crash=True``.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.service.backends.base import Worker
from repro.service.faults import FaultPlan
from repro.service.fleet import protocol
from repro.service.fleet.protocol import parse_address, recv_frame, send_frame
from repro.service.job import JobSpec
from repro.utils.errors import JobCancelled, ProtocolError


class WorkerServer:
    """One fleet worker: accept loop, one job thread, one warm Worker.

    ``host=None`` opens no listener: the worker then serves only the
    sockets passed to :meth:`serve`.
    """

    def __init__(self, host: str | None = "127.0.0.1", port: int = 0, *,
                 faults: FaultPlan | None = None,
                 name: str | None = None, allow_crash: bool = False):
        #: ``(host, port)`` of the listener; None for a worker that only
        #: serves sockets handed to :meth:`serve` (``host=None``).
        self.address: tuple[str, int] | None = None
        self._listener: socket.socket | None = None
        if host is not None:
            self._listener = socket.create_server((host, port))
            self.address = self._listener.getsockname()[:2]
        self.name = (name if name is not None
                     else "worker:%s:%d" % self.address)
        self.worker = Worker(
            self.name, allow_crash=allow_crash,
            faults=faults if faults is not None else FaultPlan.from_env())
        self._jobs = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="fleet-job")
        self._closed = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._state_lock = threading.Lock()
        #: per-connection pending maps, for ``active`` stats and close-time
        #: cancellation: each is ``{token: executor handle}``.
        self._conn_pending: list[dict] = []
        self._conns: list[socket.socket] = []
        self.connections_total = 0
        self.jobs_ok = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        #: Results (or job errors) that could not ship because the
        #: client had disconnected.
        self.results_undelivered = 0
        self.rejects = 0
        #: Connections dropped because the peer spoke garbage: a bad
        #: frame, or a frame kind this protocol version does not know.
        self.protocol_errors = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerServer":
        """Serve on a background thread (in-process workers, tests)."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (daemon mode)."""
        self._accept_loop()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            threading.Thread(target=self.serve, args=(conn,),
                             name=f"fleet-conn-{peer[1]}", daemon=True).start()

    def stop(self) -> None:
        """Stop accepting, cancel queued jobs, close connections (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            # shutdown() wakes a thread blocked in accept() (close() alone
            # does not on all platforms); the throwaway dial covers the
            # rest.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            try:
                socket.create_connection(self.address, timeout=1.0).close()
            except OSError:
                pass
        with self._state_lock:
            pending = [h for p in self._conn_pending for h in p.values()]
            conns = list(self._conns)
        for handle in pending:
            handle.cancel()
        self._jobs.shutdown(wait=True)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if (self._accept_thread is not None
                and self._accept_thread is not threading.current_thread()):
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling -------------------------------------------------

    def serve(self, conn: socket.socket) -> None:
        """Serve one connected socket on the calling thread until it closes."""
        wlock = threading.Lock()
        pending: dict = {}
        with self._state_lock:
            if self._closed.is_set():
                conn.close()
                return
            self._conns.append(conn)
            self.connections_total += 1
            self._conn_pending.append(pending)
        try:
            if not self._handshake(conn, wlock):
                return
            while not self._closed.is_set():
                kind, body = recv_frame(conn)
                self._handle_frame(conn, wlock, pending, kind, body or {})
        except (EOFError, OSError):
            pass  # client went away: drop the connection
        except ProtocolError:
            with self._state_lock:
                self.protocol_errors += 1
        finally:
            with self._state_lock:
                if pending in self._conn_pending:
                    self._conn_pending.remove(pending)
                if conn in self._conns:
                    self._conns.remove(conn)
            # Nobody is listening for these results any more: stop queued
            # jobs, let running ones finish into the void.
            for handle in list(pending.values()):
                handle.cancel()
            try:
                conn.close()
            except OSError:
                pass

    def _handshake(self, conn: socket.socket, wlock: threading.Lock) -> bool:
        kind, body = recv_frame(conn)
        body = body or {}
        version = body.get("version")
        if kind != protocol.HELLO or version != protocol.PROTOCOL_VERSION:
            with self._state_lock:
                self.rejects += 1
            reason = (f"unexpected opening frame {kind!r}"
                      if kind != protocol.HELLO else
                      f"protocol version {version} != "
                      f"{protocol.PROTOCOL_VERSION}")
            with wlock:
                send_frame(conn, protocol.REJECT, {
                    "reason": reason,
                    "version": protocol.PROTOCOL_VERSION})
            return False
        with wlock:
            send_frame(conn, protocol.WELCOME, {
                "version": protocol.PROTOCOL_VERSION,
                "worker": self.name,
                "pid": os.getpid(),
            })
        return True

    def _handle_frame(self, conn, wlock, pending: dict, kind: str,
                      body: dict) -> None:
        if kind == protocol.SUBMIT:
            self._handle_submit(conn, wlock, pending, body)
        elif kind == protocol.CANCEL:
            token = body.get("token")
            handle = pending.get(token)
            if handle is not None and handle.cancel():
                # Dequeued before it started (the done-callback counts
                # it): no result will follow, so say so — the client
                # counts the worker busy until the token is answered.
                self._reply(conn, wlock, protocol.ERROR, {
                    "token": token,
                    "error": JobCancelled(f"job {token} dequeued")})
        elif kind == protocol.PING:
            with self._state_lock:
                active = sum(len(p) for p in self._conn_pending)
            self._reply(conn, wlock, protocol.PONG,
                        {"rid": body.get("rid"), "active": active})
        elif kind == protocol.STATS:
            self._reply(conn, wlock, protocol.STATS_REPLY,
                        {"rid": body.get("rid"), "stats": self.stats()})
        elif kind == protocol.SHUTDOWN:
            self._reply(conn, wlock, protocol.BYE, {"rid": body.get("rid")})
            # stop() joins this very reader's connection teardown, so it
            # must run elsewhere; the daemon exits when accept unblocks.
            threading.Thread(target=self.stop, daemon=True).start()
        else:
            raise ProtocolError(f"unexpected frame kind {kind!r}")

    def _reply(self, conn, wlock, kind: str, body: dict) -> None:
        with wlock:
            send_frame(conn, kind, body)

    # -- job execution -------------------------------------------------------

    def _handle_submit(self, conn, wlock, pending: dict, body: dict) -> None:
        token = body["token"]
        spec: JobSpec = body["spec"]
        base_attempt = int(body.get("base_attempt", 0))
        handle = self._jobs.submit(self.worker.run, spec, base_attempt,
                                   body.get("faults"))
        pending[token] = handle
        handle.add_done_callback(
            lambda h: self._job_finished(conn, wlock, pending, token, h))

    def _job_finished(self, conn, wlock, pending: dict, token: int,
                      handle) -> None:
        pending.pop(token, None)
        if handle.cancelled():
            with self._state_lock:
                self.jobs_cancelled += 1
            return
        exc = handle.exception()
        if exc is not None:
            with self._state_lock:
                self.jobs_failed += 1
            frame = (protocol.ERROR, {"token": token, "error": exc})
        else:
            with self._state_lock:
                self.jobs_ok += 1
            frame = (protocol.RESULT, {"token": token,
                                       "result": handle.result()})
        try:
            with wlock:
                send_frame(conn, *frame)
        except (OSError, ProtocolError):
            # The client disconnected before the result could ship.
            with self._state_lock:
                self.results_undelivered += 1

    # -- inspection ----------------------------------------------------------

    def stats(self) -> dict:
        with self._state_lock:
            active = sum(len(p) for p in self._conn_pending)
            connections = len(self._conns)
        return {
            "pid": os.getpid(),
            "address": ("%s:%d" % self.address if self.address is not None
                        else None),
            "active": active,
            "connections": connections,
            "connections_total": self.connections_total,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "results_undelivered": self.results_undelivered,
            "rejects": self.rejects,
            "protocol_errors": self.protocol_errors,
            **self.worker.stats(),
        }


def run_worker(listen: str = "127.0.0.1:0", name: str | None = None) -> int:
    """``repro worker`` entry point: serve until SIGINT/SIGTERM/shutdown.

    Prints the bound address on stdout (``--listen host:0`` picks an
    ephemeral port), which is how launchers discover where an ephemeral
    worker landed.
    """
    host, port = parse_address(listen)
    server = WorkerServer(host, port, name=name)
    print(f"repro worker listening on "
          f"{server.address[0]}:{server.address[1]} "
          f"(pid {os.getpid()})", flush=True)

    def _terminate(signum, frame):
        raise SystemExit(0)

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
    return 0
