"""Client side of the fleet protocol: one connection, three concerns.

A :class:`WorkerClient` owns a single multiplexed connection to one
worker — a TCP connection to a daemon, or one end of a socketpair whose
other end a local worker process serves:

* **submissions** — ``SUBMIT`` frames keyed by backend-chosen token;
  the matching ``RESULT``/``ERROR`` frames come back whenever the worker
  finishes and are delivered through the ``on_reply`` callback (on the
  reader thread);
* **requests** — ping/stats/shutdown frames matched by ``rid``;
  :meth:`_request` blocks the calling thread until the reply (or its
  timeout) while jobs keep flowing;
* **liveness** — a heartbeat thread pings on a period and watches the
  last time *any* frame arrived.  A dead socket (EOF, reset — the
  SIGKILL case on loopback or a socketpair) or ``HEARTBEAT_MISSES``
  silent periods (the hang/partition case) marks the worker lost
  exactly once: the socket is torn down, every waiting request fails,
  and ``on_lost`` fires so the owning backend can map the loss to
  :class:`~repro.utils.errors.WorkerLost` and resubmit.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time

from repro.service.fleet import protocol
from repro.service.fleet.protocol import parse_address, recv_frame, send_frame
from repro.service.job import JobSpec
from repro.service.pool import pool_key
from repro.utils.errors import ProtocolError, WorkerLost


class WorkerClient:
    """One live connection to one fleet worker.

    ``on_reply(client, token, outcome)`` receives each job's outcome: a
    :class:`~repro.service.job.JobResult`, or the exception an ``ERROR``
    frame carried.  ``on_lost(client, reason)`` fires once on a loss.
    """

    #: Seconds to dial a daemon.
    CONNECT_TIMEOUT_S = 5.0
    #: Seconds the handshake, or a request without its own timeout,
    #: waits for the reply.
    REQUEST_TIMEOUT_S = 60.0
    #: Heartbeat period (seconds).
    HEARTBEAT_S = 1.0
    #: Silent heartbeat periods after which the worker counts as lost.
    HEARTBEAT_MISSES = 5

    def __init__(self, address: str, *, on_reply=None, on_lost=None):
        self.address = address
        self.on_reply = on_reply
        self.on_lost = on_lost
        self.alive = False
        self.welcome: dict = {}
        self.lost_reason: str | None = None
        #: Best-effort CANCEL frames that could not be sent.
        self.cancel_failures = 0
        self._sock: socket.socket | None = None
        self._wlock = threading.Lock()
        self._state_lock = threading.Lock()
        self._closing = False
        self._lost = False
        self._rids = itertools.count()
        self._replies: dict[int, dict] = {}
        self._last_rx = time.monotonic()
        self._reader: threading.Thread | None = None
        self._heartbeat: threading.Thread | None = None
        self._stop = threading.Event()

    # -- connection lifecycle ------------------------------------------------

    def connect(self, sock: socket.socket | None = None) -> "WorkerClient":
        """Dial (or adopt ``sock``, already connected), handshake with a
        version check, and start the service threads."""
        if sock is None:
            sock = socket.create_connection(parse_address(self.address),
                                            timeout=self.CONNECT_TIMEOUT_S)
        try:
            sock.settimeout(self.REQUEST_TIMEOUT_S)
            send_frame(sock, protocol.HELLO, {
                "version": protocol.PROTOCOL_VERSION,
                "client": f"pid:{os.getpid()}"})
            kind, body = recv_frame(sock)
            body = body or {}
            if kind == protocol.REJECT:
                raise ProtocolError(
                    f"worker {self.address} rejected the handshake: "
                    f"{body.get('reason', 'no reason given')} "
                    f"(worker speaks protocol {body.get('version')}, "
                    f"client speaks {protocol.PROTOCOL_VERSION})")
            if kind != protocol.WELCOME:
                raise ProtocolError(
                    f"worker {self.address} opened with {kind!r}, "
                    f"not a welcome")
            if body.get("version") != protocol.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"worker {self.address} speaks protocol "
                    f"{body.get('version')}, client speaks "
                    f"{protocol.PROTOCOL_VERSION}")
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        self.welcome = body
        self._sock = sock
        self._last_rx = time.monotonic()
        self.alive = True
        self._reader = threading.Thread(
            target=self._reader_loop, name=f"fleet-rx-{self.address}",
            daemon=True)
        self._reader.start()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name=f"fleet-hb-{self.address}",
            daemon=True)
        self._heartbeat.start()
        return self

    def close(self) -> None:
        """Deliberate local teardown — never reported as a worker loss."""
        with self._state_lock:
            if self._closing:
                return
            self._closing = True
            self.alive = False
        self._stop.set()
        self._teardown_socket()
        self._fail_pending_requests(ProtocolError(
            f"connection to {self.address} closed"))
        current = threading.current_thread()
        for thread in (self._reader, self._heartbeat):
            if thread is not None and thread is not current:
                thread.join(timeout=5.0)

    def _teardown_socket(self) -> None:
        sock = self._sock
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def mark_lost(self, reason: str) -> None:
        """Declare the worker dead (idempotent); fires ``on_lost`` once."""
        with self._state_lock:
            if self._closing or self._lost:
                return
            self._lost = True
            self.alive = False
            self.lost_reason = reason
        self._stop.set()
        self._teardown_socket()
        self._fail_pending_requests(
            WorkerLost(reason, worker=self.address))
        if self.on_lost is not None:
            self.on_lost(self, reason)

    def _fail_pending_requests(self, exc: Exception) -> None:
        with self._state_lock:
            slots = list(self._replies.values())
            self._replies.clear()
        for slot in slots:
            slot["error"] = exc
            slot["event"].set()

    # -- service threads -----------------------------------------------------

    def _reader_loop(self) -> None:
        try:
            while not self._stop.is_set():
                kind, body = recv_frame(self._sock)
                self._last_rx = time.monotonic()
                body = body or {}
                if kind in (protocol.RESULT, protocol.ERROR):
                    if self.on_reply is not None:
                        self.on_reply(self, body["token"], body[
                            "result" if kind == protocol.RESULT else "error"])
                elif kind in protocol.REPLY_KINDS:
                    with self._state_lock:
                        slot = self._replies.pop(body.get("rid"), None)
                    if slot is not None:
                        slot["reply"] = (kind, body)
                        slot["event"].set()
                else:
                    raise ProtocolError(f"unexpected frame kind {kind!r}")
        except Exception as exc:
            self.mark_lost(f"connection to worker {self.address} "
                           f"dropped: {type(exc).__name__}: {exc}")

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.HEARTBEAT_S):
            silent_s = time.monotonic() - self._last_rx
            if silent_s > self.HEARTBEAT_S * self.HEARTBEAT_MISSES:
                self.mark_lost(
                    f"worker {self.address} silent for {silent_s:.1f} s "
                    f"({self.HEARTBEAT_MISSES} heartbeats missed)")
                return
            try:
                # Fire-and-forget: the pong (or any other frame) refreshes
                # _last_rx; an unmatched rid is simply dropped.
                self._send(protocol.PING, {"rid": next(self._rids)})
            except Exception:
                self.mark_lost(f"worker {self.address} heartbeat send failed")
                return

    # -- sending -------------------------------------------------------------

    def _send(self, kind: str, body: dict) -> None:
        with self._wlock:
            if self._sock is None or not self.alive:
                raise WorkerLost(
                    self.lost_reason or f"worker {self.address} not connected",
                    worker=self.address)
            send_frame(self._sock, kind, body)

    def submit(self, token: int, spec: JobSpec, base_attempt: int = 0,
               faults=None) -> None:
        """Ship one job; its outcome arrives via ``on_reply``.

        The config is keyed before it is pickled, so the worker loads it
        with its key; a sweep's jobs share one config, hashed once here.
        """
        if spec.config is not None:
            pool_key(spec.config)
        body = {"token": token, "spec": spec, "base_attempt": base_attempt}
        if faults is not None:
            body["faults"] = faults
        self._send(protocol.SUBMIT, body)

    def cancel(self, token: int) -> None:
        """Best-effort: dequeue the job worker-side if it has not started."""
        try:
            self._send(protocol.CANCEL, {"token": token})
        except (OSError, ProtocolError, WorkerLost):
            # A dead worker cancels everything anyway; the count says
            # how often the frame was lost.
            self.cancel_failures += 1

    def _request(self, kind: str, body: dict | None = None,
                 timeout: float | None = None) -> tuple[str, dict]:
        """Send a frame and block for its rid-matched reply."""
        rid = next(self._rids)
        slot = {"event": threading.Event(), "reply": None, "error": None}
        with self._state_lock:
            self._replies[rid] = slot
        body = dict(body or {})
        body["rid"] = rid
        try:
            self._send(kind, body)
        except BaseException:
            with self._state_lock:
                self._replies.pop(rid, None)
            raise
        if not slot["event"].wait(timeout if timeout is not None
                                  else self.REQUEST_TIMEOUT_S):
            with self._state_lock:
                self._replies.pop(rid, None)
            raise TimeoutError(
                f"{kind} request to worker {self.address} timed out")
        if slot["error"] is not None:
            raise slot["error"]
        return slot["reply"]

    # -- request surface -----------------------------------------------------

    def ping(self, timeout: float | None = None) -> dict:
        return self._request(protocol.PING, timeout=timeout)[1]

    def stats(self, timeout: float | None = None) -> dict:
        return self._request(protocol.STATS, timeout=timeout)[1]["stats"]

    def request_shutdown(self, timeout: float | None = None) -> None:
        """Ask the daemon to exit (answered with BYE before it stops)."""
        self._request(protocol.SHUTDOWN, timeout=timeout)
