"""Wire protocol for the fleet: length-prefixed pickled frames.

Every frame is ``MAGIC (4 bytes) | length (u32, big-endian) | payload``
where the payload is the pickled pair ``(kind, body)`` — ``kind`` a
short string constant from this module, ``body`` a dict (or ``None``).
The fixed header makes framing self-describing and lets either side
reject garbage (wrong magic, absurd length) before deserializing
anything.

The conversation starts with a version handshake: the client sends
``HELLO {version, client}``; the worker answers ``WELCOME {version,
worker, pid}`` or ``REJECT {reason}`` when the versions disagree.  Both sides check — a protocol bump must never be papered
over by luck of pickle compatibility.

Job frames are multiplexed over one connection by client-chosen
``token``; request/response frames (ping, stats, shutdown) are matched
by client-chosen ``rid``, so heartbeats keep flowing while jobs
execute.

Trust model: the fleet runs between mutually trusting hosts (pickle on
the wire), same as ``multiprocessing`` — bind workers to loopback or a
private network, never the open internet.
"""

from __future__ import annotations

import pickle
import struct

from repro.utils.errors import ProtocolError

#: Bump on any incompatible frame change; both ends refuse a mismatch.
PROTOCOL_VERSION = 3

MAGIC = b"RPFL"
_HEADER = struct.Struct(">4sI")

#: Ceiling on one frame's payload (a sweep job spec is kilobytes; even a
#: fat LUT-upload spec stays far under this).
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- frame kinds --------------------------------------------------------------

HELLO = "hello"              #: client -> worker: {version, client}
WELCOME = "welcome"          #: worker -> client: {version, worker, pid}
REJECT = "reject"            #: worker -> client: {reason, version}
SUBMIT = "submit"            #: client -> worker: {token, spec, base_attempt}
CANCEL = "cancel"            #: client -> worker: {token} (ERROR if it dequeued the job)
RESULT = "result"            #: worker -> client: {token, result}
ERROR = "error"              #: worker -> client: {token, error}
PING = "ping"                #: client -> worker: {rid}
PONG = "pong"                #: worker -> client: {rid, active}
STATS = "stats"              #: client -> worker: {rid}
STATS_REPLY = "stats-reply"  #: worker -> client: {rid, stats}
SHUTDOWN = "shutdown"        #: client -> worker: {rid}
BYE = "bye"                  #: worker -> client: {rid}

#: Reply kinds carrying an ``rid`` (matched to a waiting request).
REPLY_KINDS = frozenset({PONG, STATS_REPLY, BYE})


def parse_address(address: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)``; port 0 binds an ephemeral port."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ProtocolError(
            f"address {address!r} is not of the form host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ProtocolError(
            f"address {address!r} has a non-numeric port") from None


def send_frame(sock, kind: str, body: dict | None = None) -> None:
    """Serialize and write one frame (the caller serializes writers)."""
    payload = pickle.dumps((kind, body), protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte {kind!r} frame "
            f"(cap {MAX_FRAME_BYTES})")
    sock.sendall(_HEADER.pack(MAGIC, len(payload)) + payload)


def _recv_exact(sock, n: int) -> bytes:
    """Read exactly ``n`` bytes; EOFError on a clean close at a boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n and not chunks:
                raise EOFError("connection closed")
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} "
                f"bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> tuple[str, dict | None]:
    """Read one frame; raises EOFError on clean close, ProtocolError on junk."""
    header = _recv_exact(sock, _HEADER.size)
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap")
    payload = _recv_exact(sock, length) if length else b""
    try:
        frame = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if (not isinstance(frame, tuple) or len(frame) != 2
            or not isinstance(frame[0], str)
            or not (frame[1] is None or isinstance(frame[1], dict))):
        raise ProtocolError(f"malformed frame structure: {type(frame)}")
    return frame
