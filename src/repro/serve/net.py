"""The daemon's front: framing, socket server, client.

:func:`serve_listen` is the one way to run a daemon
(``python -m repro serve --listen``): it puts the
:class:`~repro.serve.daemon.Dispatcher` behind a listening socket —
unix-domain or TCP — so many clients, and the multi-daemon
:class:`~repro.serve.router.Router` that supervises daemons, can talk
to one daemon concurrently.  Three layers:

Framing
    A request or response is one *frame*::

        N1 <len:8 hex> <crc:8 hex> <payload bytes>\\n

    — a 21-byte ASCII header carrying the payload length and its
    CRC-32, mirroring the journal's record framing
    (:mod:`repro.serve.journal`).  A short read is a *truncated* frame
    and a checksum mismatch is a *corrupt* frame; both surface as
    :class:`~repro.errors.TransportError`, never as garbled JSON
    handed to the application.

    The payload is one message (:func:`encode_message`).  A message
    without numpy arrays is its plain JSON text.  A message with
    arrays — the router forwards a COO spec's ``rows`` and ``cols`` as
    int64 arrays — is a *tagged* payload: a JSON header in which each
    array is an ``{offset, count, dtype}`` reference, then the arrays'
    raw bytes, so no integer is printed and parsed as decimal text.

:class:`SocketServer`
    Accepts connections, reads frames, dispatches each request through
    the shared dispatcher, writes response frames.  Per-connection
    read deadlines bound how long an idle or wedged client can hold a
    thread.  Network faults from an installed
    :class:`~repro.resilience.FaultPlan` are injected *here*, at the
    framing layer, under the backend label ``"net"`` — one plan call
    per response about to be sent — so a schedule can drop, delay,
    partition, truncate, or garble the wire at exact request
    boundaries (see :mod:`repro.resilience.faults`).

:class:`ResilientClient`
    One logical request = one idempotency id (``rid``) + up to
    *retries* transport attempts with seeded-jitter exponential
    backoff (:class:`~repro.resilience.BackoffPolicy` — the same
    policy :class:`~repro.resilience.ResilientBackend` uses).  Because
    the rid rides every attempt, a retry after an *ambiguous* failure
    (the ack may or may not have been applied) is answered from the
    server's acked-response cache instead of re-applying the mutation.
    Exhausting retries raises :class:`~repro.errors.PartitionedError`
    when every attempt failed to even connect, else
    :class:`~repro.errors.TransportError`; in-band daemon errors are
    re-raised as their typed :mod:`repro.errors` class.  Health checks
    go through :meth:`ResilientClient.probe`, which *hedges*: if the
    first probe has not answered within ``hedge_delay`` a second
    connection races it, and the first response wins.

Addresses are strings: ``"unix:/path/to.sock"`` or
``"tcp:host:port"`` (``"tcp:127.0.0.1:0"`` binds an ephemeral port;
read the bound address back from :attr:`SocketServer.address`).
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import socket
import threading
import time
import zlib
from typing import Any, Callable

import numpy as np

from repro import telemetry as _tm
from repro.errors import (
    PartitionedError,
    ReproError,
    ServiceError,
    TransportError,
)
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.faults import FaultKind, FaultSpec, active_plan
from repro.serve.daemon import Dispatcher, _error_response, _run_daemon

__all__ = [
    "encode_frame",
    "read_frame",
    "encode_message",
    "decode_message",
    "parse_address",
    "SocketServer",
    "ResilientClient",
    "serve_listen",
]

#: Frame magic — ``N1`` for "network framing, version 1".
FRAME_MAGIC = b"N1 "

#: ``b"N1 " + 8 hex len + b" " + 8 hex crc + b" "`` — fixed header size.
_HEADER = 21

#: Refuse frames above this size (64 MiB) — a corrupted length field
#: must not make the reader allocate gigabytes.
MAX_FRAME = 64 * 1024 * 1024

#: Backend label the socket server uses when consulting the fault plan.
NET_FAULT_LABEL = "net"

#: Tag of a payload that carries arrays: ``A1 <header len:8 hex> ``,
#: the JSON header, zero padding to an 8-byte boundary, then the arrays'
#: bytes.  No JSON text starts with ``A``, so the tag cannot be mistaken
#: for a plain payload.
ARRAYS_MAGIC = b"A1 "

#: ``b"A1 " + 8 hex len + b" "``.
_ARRAYS_PREFIX = 12

#: The header key of an array reference: ``{"$array": {"offset": ...,
#: "count": ..., "dtype": "<i8"}}``, offset in bytes from the start of
#: the array section.
_ARRAY_REF = "$array"

#: The one array type on the wire: little-endian int64, 1-D.
_WIRE_DTYPE = np.dtype("<i8")


def encode_frame(payload: bytes) -> bytes:
    """Wrap *payload* in a length-prefixed, checksummed frame."""
    if len(payload) > MAX_FRAME:
        raise TransportError(
            f"frame payload of {len(payload)} bytes exceeds the"
            f" {MAX_FRAME}-byte limit"
        )
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"".join(
        (FRAME_MAGIC, b"%08x %08x " % (len(payload), crc), payload, b"\n")
    )


def encode_message(msg: Any) -> bytes:
    """Encode one protocol message as a frame payload.

    A message without numpy arrays is ``json.dumps(msg)``, byte for
    byte.  Each 1-D int64 array anywhere in *msg* becomes an
    ``{"$array": {offset, count, dtype}}`` reference in a JSON header
    that is followed by the arrays' little-endian bytes, back to back
    in header order from an 8-byte boundary (see :data:`ARRAYS_MAGIC`).
    Any other value JSON cannot encode, other arrays included, raises
    ``TypeError`` as ``json.dumps`` does.
    """
    arrays: list[np.ndarray] = []
    size = 0

    def ref(value: Any) -> dict[str, Any]:
        nonlocal size
        if not (
            isinstance(value, np.ndarray)
            and value.ndim == 1
            and value.dtype.kind == "i"
            and value.dtype.itemsize == 8
        ):
            what = type(value).__name__
            if isinstance(value, np.ndarray):
                what += f" of dtype {value.dtype} and {value.ndim} dims"
            raise TypeError(
                f"Object of type {what} is not wire serializable; only"
                f" JSON values and 1-D int64 arrays are"
            )
        arrays.append(value)
        entry = {"offset": size, "count": value.shape[0], "dtype": "<i8"}
        size += 8 * value.shape[0]
        return {_ARRAY_REF: entry}

    text = json.dumps(msg, default=ref).encode("utf-8")
    if not arrays:
        return text
    pad = -(_ARRAYS_PREFIX + len(text)) % 8
    return b"".join(
        [ARRAYS_MAGIC, b"%08x " % len(text), text, bytes(pad)]
        + [np.ascontiguousarray(a, dtype=_WIRE_DTYPE) for a in arrays]
    )


def decode_message(payload: bytes) -> Any:
    """Decode one frame payload written by :func:`encode_message`.

    A plain payload is parsed as JSON.  A tagged payload's arrays are
    copied out of *payload*, so each is an owned, aligned, writable
    native int64 array that does not keep the frame alive.  Invalid
    or too deeply nested JSON, a short header, a reference that does not
    start where the previous array ended or that runs past the end of
    the payload, or a dtype other than ``"<i8"`` raise
    :class:`~repro.errors.ServiceError`.
    """
    if not payload.startswith(ARRAYS_MAGIC):
        try:
            return json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8 and bad JSON; RecursionError
            # is nesting too deep for the parser.
            raise ServiceError(f"payload is not valid JSON: {exc}") from None
    try:
        length = int(payload[3:11], 16)
    except ValueError:
        length = -1
    if length < 0 or payload[11:12] != b" ":
        raise ServiceError(
            f"tagged payload has an unparsable header"
            f" {payload[:_ARRAYS_PREFIX]!r}"
        )
    end = _ARRAYS_PREFIX + length
    if end > len(payload):
        raise ServiceError(
            f"tagged payload is short: its header announces {length}"
            f" bytes, {len(payload) - _ARRAYS_PREFIX} follow"
        )
    base = end + (-end % 8)
    # The arrays follow one another in header order, so each byte is
    # decoded at most once and the copies never outgrow the payload.
    cursor = 0

    def resolve(obj: dict[str, Any]) -> Any:
        nonlocal cursor
        if len(obj) != 1 or _ARRAY_REF not in obj:
            return obj
        ref = obj[_ARRAY_REF]
        if not isinstance(ref, dict) or ref.get("dtype") != "<i8":
            raise ServiceError(
                f"array reference {ref!r} is not little-endian int64"
                f" ('<i8')"
            )
        count = ref.get("count")
        if type(count) is not int or count < 0 or ref.get("offset") != cursor:
            raise ServiceError(
                f"array reference {ref!r} is malformed: want a count >= 0"
                f" at offset {cursor}, where the previous array ends"
            )
        start, cursor = base + cursor, cursor + 8 * count
        if base + cursor > len(payload):
            raise ServiceError(
                f"array reference {ref!r} runs past the end of the"
                f" {len(payload)}-byte payload"
            )
        return np.frombuffer(
            payload, dtype=_WIRE_DTYPE, count=count, offset=start
        ).astype(np.int64)

    try:
        return json.loads(
            payload[_ARRAYS_PREFIX:end].decode("utf-8"), object_hook=resolve
        )
    except (ValueError, RecursionError) as exc:
        raise ServiceError(
            f"tagged payload header is not valid JSON: {exc}"
        ) from None


def _read_exactly(reader: Any, n: int) -> bytes:
    """Read exactly *n* bytes; short data is a truncated frame."""
    data = reader.read(n)
    if data is None:
        data = b""
    if len(data) != n:
        raise TransportError(
            f"truncated frame: wanted {n} bytes, got {len(data)}"
            f" before EOF"
        )
    return data


def read_frame(reader: Any) -> bytes | None:
    """Read one frame's payload from a binary *reader*.

    Returns ``None`` on clean EOF (no bytes before the header).  A
    partial header/payload, bad magic, unparsable length, oversized
    frame, or checksum mismatch raises
    :class:`~repro.errors.TransportError` — corruption is detected at
    the framing layer, never passed upward as mangled JSON.
    """
    header = reader.read(_HEADER)
    if header is None:
        header = b""
    if not header:
        return None
    if len(header) != _HEADER:
        raise TransportError(
            f"truncated frame header: got {len(header)} of"
            f" {_HEADER} bytes"
        )
    if header[:3] != FRAME_MAGIC:
        raise TransportError(
            f"bad frame magic {header[:3]!r}; peer is not speaking the"
            f" N1 protocol"
        )
    try:
        length = int(header[3:11], 16)
        crc = int(header[12:20], 16)
    except ValueError:
        raise TransportError(
            f"unparsable frame header {header!r}"
        ) from None
    if length > MAX_FRAME:
        raise TransportError(
            f"frame announces {length} bytes, above the"
            f" {MAX_FRAME}-byte limit"
        )
    payload = _read_exactly(reader, length)
    _read_exactly(reader, 1)  # trailing newline
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != crc:
        raise TransportError(
            f"frame checksum mismatch: header says {crc:08x}, payload"
            f" is {actual:08x}"
        )
    return payload


def parse_address(address: str) -> tuple[int, Any]:
    """``"unix:/path"`` / ``"tcp:host:port"`` → ``(family, sockaddr)``."""
    if not isinstance(address, str):
        raise ServiceError(
            f"address must be a string, got {type(address).__name__}"
        )
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ServiceError("unix address needs a socket path")
        return socket.AF_UNIX, path
    if address.startswith("tcp:"):
        rest = address[len("tcp:"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not host:
            raise ServiceError(
                f"tcp address must be 'tcp:host:port', got {address!r}"
            )
        try:
            return socket.AF_INET, (host, int(port))
        except ValueError:
            raise ServiceError(
                f"tcp port must be an integer, got {port!r}"
            ) from None
    raise ServiceError(
        f"address must start with 'unix:' or 'tcp:', got {address!r}"
    )


def format_address(family: int, sockaddr: Any) -> str:
    """Inverse of :func:`parse_address` (for ephemeral TCP ports)."""
    if family == socket.AF_UNIX:
        return f"unix:{sockaddr}"
    host, port = sockaddr[0], sockaddr[1]
    return f"tcp:{host}:{port}"


class SocketServer:
    """Serve a :class:`~repro.serve.daemon.Dispatcher` over a socket.

    One accept thread plus one thread per live connection.  The server
    owns neither the dispatcher nor its
    :class:`~repro.serve.MatchingServer` — callers compose those
    (see :func:`serve_listen`) so tests can drive an in-process
    dispatcher through a real socket.

    Parameters
    ----------
    dispatcher:
        The shared request dispatcher.
    address:
        ``"unix:..."`` or ``"tcp:host:port"`` listen address.
    deadline:
        Per-connection read deadline in seconds — a connection idle
        longer than this is closed (``None`` = wait forever).
    backlog:
        ``listen()`` backlog.
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        address: str,
        *,
        deadline: float | None = 30.0,
        backlog: int = 16,
    ) -> None:
        if deadline is not None and deadline <= 0:
            raise ServiceError(
                f"connection deadline must be positive, got {deadline}"
            )
        self.dispatcher = dispatcher
        self.deadline = deadline
        self.backlog = int(backlog)
        self._family, self._sockaddr = parse_address(address)
        self._listener: socket.socket | None = None
        self._bound: Any = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        #: Set when a ``shutdown`` op was dispatched — :meth:`serve`
        #: callers wait on this.
        self.shutdown_requested = threading.Event()
        #: Monotonic timestamp until which the listener stays down
        #: (an injected ``partition`` fault).
        self._partition_until = 0.0

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> str:
        """The bound listen address (resolves ephemeral TCP ports)."""
        if self._bound is None:
            return format_address(self._family, self._sockaddr)
        return format_address(self._family, self._bound)

    def _bind(self) -> socket.socket:
        if self._family == socket.AF_UNIX:
            # A stale socket file from a SIGKILLed predecessor would
            # make bind() fail; nobody can be listening on it if we
            # were told to take the address.
            with contextlib.suppress(OSError):
                os.unlink(self._sockaddr)
        listener = socket.socket(self._family, socket.SOCK_STREAM)
        if self._family == socket.AF_INET:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # Rebind to the *originally bound* address so an ephemeral TCP
        # port survives a partition-heal rebind.
        listener.bind(self._bound if self._bound is not None else self._sockaddr)
        listener.listen(self.backlog)
        # Poll-style accept: closing a socket does NOT reliably wake a
        # thread blocked in accept() on Linux, so a blocking accept
        # would make stop() hang and a partition never heal.
        listener.settimeout(0.2)
        self._bound = listener.getsockname()
        return listener

    def start(self) -> "SocketServer":
        """Bind, listen, and start accepting in a background thread."""
        if self._listener is not None:
            raise ServiceError("socket server already started")
        self._listener = self._bind()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="net-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the listener, and join workers."""
        self._stopping.set()
        listener, self._listener = self._listener, None
        if listener is not None:
            with contextlib.suppress(OSError):
                listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        with self._lock:
            threads = list(self._conn_threads)
        for thread in threads:
            thread.join(timeout=5.0)
        if self._family == socket.AF_UNIX:
            with contextlib.suppress(OSError):
                os.unlink(self._sockaddr)

    def __enter__(self) -> "SocketServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- serving -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            listener = self._listener
            if listener is None:
                # An injected partition tore the listener down: sit out
                # the window (clients' connects genuinely fail — the
                # socket is gone, not just slow), then rebind.
                remaining = self._partition_until - time.monotonic()
                if remaining > 0:
                    time.sleep(min(remaining, 0.1))
                    continue
                try:
                    self._listener = self._bind()
                except OSError:
                    return
                continue
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                if self._stopping.is_set():
                    return  # listener closed by stop()
                continue  # torn down by a partition mid-accept
            conn.settimeout(self.deadline)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="net-conn",
                daemon=True,
            )
            with self._lock:
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]
                self._conn_threads.append(thread)
            thread.start()

    def _net_fault(self) -> FaultSpec | None:
        plan = active_plan()
        if plan is None:
            return None
        call = plan.begin_call(NET_FAULT_LABEL)
        return plan.match(NET_FAULT_LABEL, 0, call)

    def _send_response(
        self, conn: socket.socket, response: dict[str, Any]
    ) -> bool:
        """Frame and send *response*, applying any injected net fault.

        Returns False when the connection should be closed afterwards.
        """
        payload = encode_message(response)
        spec = self._net_fault()
        kind = None if spec is None else FaultKind(spec.kind)
        if kind is FaultKind.DROP:
            return False
        if kind is FaultKind.PARTITION:
            self._partition_until = time.monotonic() + (spec.seconds or 0.0)
            # Tear the listener down so reconnects fail at connect()
            # (FileNotFound / ConnectionRefused), not as silent EOFs —
            # the accept loop rebinds once the window passes.
            listener, self._listener = self._listener, None
            if listener is not None:
                with contextlib.suppress(OSError):
                    listener.close()
            if self._family == socket.AF_UNIX:
                with contextlib.suppress(OSError):
                    os.unlink(self._sockaddr)
            return False
        if kind is FaultKind.DELAY:
            time.sleep(spec.seconds or 0.0)
        frame = encode_frame(payload)
        if kind is FaultKind.TRUNCATE:
            conn.sendall(frame[: max(1, len(frame) // 2)])
            return False
        if kind is FaultKind.GARBAGE:
            # Flip one payload byte; the header's CRC now lies, which
            # is exactly what the client-side framing must catch.
            body = bytearray(frame)
            body[_HEADER] ^= 0xFF
            frame = bytes(body)
        conn.sendall(frame)
        return True

    def _serve_connection(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        try:
            while not self._stopping.is_set():
                try:
                    payload = read_frame(reader)
                except (TransportError, OSError, socket.timeout):
                    return  # deadline hit or client garbled — hang up
                if payload is None:
                    return  # client finished
                try:
                    msg = decode_message(payload)
                except ServiceError as exc:
                    response, stop = _error_response(None, exc), False
                else:
                    response, stop = self.dispatcher.handle(msg)
                if _tm.enabled():
                    _tm.incr("serve.net.requests")
                try:
                    keep = self._send_response(conn, response)
                except OSError:
                    return  # client hung up mid-write
                if stop:
                    self.shutdown_requested.set()
                    return
                if not keep or self.dispatcher.poisoned:
                    return
        finally:
            with contextlib.suppress(OSError):
                reader.close()
            with contextlib.suppress(OSError):
                conn.close()


class _ConnectError(TransportError):
    """The connection could not even be made (tagged at connect())."""


#: When *every* attempt of a request dies before the connection exists,
#: the service is partitioned from the client's point of view.
_CONNECT_FAILURES = (_ConnectError,)


class ResilientClient:
    """Retrying, idempotent client for the socket daemon protocol.

    Each :meth:`request` assigns the message a fresh idempotency id
    (``rid``, unless the caller provided one) and attempts the
    round-trip up to ``1 + retries`` times over fresh connections,
    sleeping a seeded-jitter exponential backoff between attempts.  The
    rid is constant across attempts, so the server's acked-response
    cache de-duplicates a retry whose predecessor was applied but whose
    ack was lost — the ambiguous-drop case that makes naive retries
    double-apply mutations.

    With ``keepalive=True`` the client holds one persistent connection
    and reuses it across requests (the server side already serves many
    frames per connection), paying the dial cost once instead of per
    request — the difference matters for chatty protocols like the
    shard verbs, where one matching is hundreds of small round-trips.
    Any failure on the kept connection drops it; the *next* attempt
    redials, so the retry/idempotency semantics — and the
    ``PartitionedError`` vs ``TransportError`` typing on exhaustion —
    are unchanged.  Hedged probes always use fresh connections.

    A response with ``"ok": false`` raises the typed
    :mod:`repro.errors` class named in its ``error`` field (in-band
    failures are *not* retried — the daemon already gave a definitive
    answer).  Transport failures retry; exhaustion raises
    :class:`~repro.errors.PartitionedError` if no attempt ever got a
    connection, else :class:`~repro.errors.TransportError`.
    """

    def __init__(
        self,
        address: str,
        *,
        retries: int = 5,
        backoff: BackoffPolicy | None = None,
        seed: int = 0,
        connect_timeout: float = 2.0,
        deadline: float = 30.0,
        client_id: str | None = None,
        keepalive: bool = False,
    ) -> None:
        if retries < 0:
            raise ServiceError(f"retries must be >= 0, got {retries}")
        if connect_timeout <= 0 or deadline <= 0:
            raise ServiceError(
                "connect_timeout and deadline must be positive"
            )
        self.address = address
        self._family, self._sockaddr = parse_address(address)
        self.retries = int(retries)
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.seed = seed
        self.connect_timeout = float(connect_timeout)
        self.deadline = float(deadline)
        self.client_id = (
            client_id
            if client_id is not None
            else f"c{os.getpid()}-{id(self) & 0xFFFF:04x}"
        )
        self._seq = 0
        self._seq_lock = threading.Lock()
        self.keepalive = bool(keepalive)
        self._conn: socket.socket | None = None
        self._conn_reader: Any = None
        self._conn_lock = threading.Lock()

    def close(self) -> None:
        """Drop the kept connection (no-op without one)."""
        with self._conn_lock:
            self._drop_conn()

    def _drop_conn(self) -> None:
        """Close the persistent connection (``_conn_lock`` held)."""
        reader, self._conn_reader = self._conn_reader, None
        conn, self._conn = self._conn, None
        if reader is not None:
            with contextlib.suppress(OSError):
                reader.close()
        if conn is not None:
            with contextlib.suppress(OSError):
                conn.close()

    def _next_rid(self) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"{self.client_id}:{self._seq}"

    def _dial(self, deadline: float) -> socket.socket:
        """Open one connection (connect failures get the typed tag)."""
        conn = socket.socket(self._family, socket.SOCK_STREAM)
        conn.settimeout(self.connect_timeout)
        try:
            conn.connect(self._sockaddr)
        except OSError as exc:
            with contextlib.suppress(OSError):
                conn.close()
            raise _ConnectError(
                f"connect to {self.address} failed: {exc}"
            ) from exc
        conn.settimeout(deadline)
        return conn

    @staticmethod
    def _exchange(
        conn: socket.socket, reader: Any, msg: dict[str, Any]
    ) -> dict[str, Any]:
        """Send one frame and read one response on an open connection."""
        conn.sendall(encode_frame(encode_message(msg)))
        payload = read_frame(reader)
        if payload is None:
            raise TransportError(
                "server closed the connection without a response"
            )
        try:
            response = decode_message(payload)
        except ServiceError as exc:
            raise TransportError(f"malformed response: {exc}") from None
        if not isinstance(response, dict):
            raise TransportError(
                f"response must be a JSON object, got"
                f" {type(response).__name__}"
            )
        return response

    def _roundtrip_fresh(
        self, msg: dict[str, Any], deadline: float
    ) -> dict[str, Any]:
        """One connect → send → receive attempt over a throwaway
        connection (raises on any failure)."""
        conn = self._dial(deadline)
        try:
            reader = conn.makefile("rb")
            try:
                return self._exchange(conn, reader, msg)
            finally:
                with contextlib.suppress(OSError):
                    reader.close()
        finally:
            with contextlib.suppress(OSError):
                conn.close()

    def _roundtrip_once(
        self, msg: dict[str, Any], deadline: float
    ) -> dict[str, Any]:
        """One attempt; with keepalive, over the kept connection."""
        if not self.keepalive:
            return self._roundtrip_fresh(msg, deadline)
        with self._conn_lock:
            if self._conn is None:
                self._conn = self._dial(deadline)
                self._conn_reader = self._conn.makefile("rb")
                if _tm.enabled():
                    _tm.incr("serve.net.client_connects")
            else:
                self._conn.settimeout(deadline)
                if _tm.enabled():
                    _tm.incr("serve.net.client_conn_reuses")
            try:
                return self._exchange(self._conn, self._conn_reader, msg)
            except BaseException:
                # Whatever went wrong, the stream position is now
                # unknowable — drop the connection so the next attempt
                # starts from a clean dial.
                self._drop_conn()
                raise

    def request(
        self,
        msg: dict[str, Any],
        *,
        deadline: float | None = None,
        check: bool = True,
    ) -> dict[str, Any]:
        """Send one request, retrying transport failures (see class doc).

        With ``check=True`` (default) an in-band ``"ok": false``
        response raises its typed error; ``check=False`` returns the
        raw response dict either way.
        """
        msg = dict(msg)
        msg.setdefault("rid", self._next_rid())
        msg.setdefault("id", msg["rid"])
        per_try = self.deadline if deadline is None else float(deadline)
        schedule = self.backoff.schedule(f"{self.seed}:{msg['rid']}")
        failures: list[BaseException] = []
        for attempt in range(1 + self.retries):
            if attempt and _tm.enabled():
                _tm.incr("serve.net.client_retries")
            try:
                response = self._roundtrip_once(msg, per_try)
            except (TransportError, OSError) as exc:
                failures.append(exc)
                if attempt < self.retries:
                    time.sleep(schedule.next())
                continue
            if check and not response.get("ok", False):
                raise error_from_response(response)
            return response
        last = failures[-1]
        if all(isinstance(exc, _CONNECT_FAILURES) for exc in failures):
            raise PartitionedError(
                f"{self.address} unreachable after"
                f" {1 + self.retries} attempts: {last!r}"
            ) from last
        raise TransportError(
            f"request {msg['rid']} to {self.address} failed after"
            f" {1 + self.retries} attempts: {last!r}"
        ) from last

    def probe(
        self, *, hedge_delay: float = 0.1, deadline: float = 5.0
    ) -> dict[str, Any]:
        """Hedged health check: race a second probe after *hedge_delay*.

        A single slow daemon (GC pause, injected ``delay``) should not
        make the router think it is dead; a second connection is opened
        if the first has not answered in time, and whichever responds
        first wins.  Raises like :meth:`request` when both fail.
        """
        results: "queue.Queue[tuple[str, Any]]" = queue.Queue()

        def attempt() -> None:
            try:
                results.put(
                    ("ok", self._roundtrip_fresh({"op": "health"}, deadline))
                )
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                results.put(("err", exc))

        threading.Thread(target=attempt, daemon=True).start()
        hedged = False
        outcomes: list[tuple[str, Any]] = []
        budget = time.monotonic() + deadline
        while True:
            timeout = (
                hedge_delay
                if not hedged
                else max(0.01, budget - time.monotonic())
            )
            try:
                kind, value = results.get(timeout=timeout)
            except queue.Empty:
                if hedged:
                    raise TransportError(
                        f"health probe to {self.address} timed out after"
                        f" {deadline}s (hedged)"
                    ) from None
                hedged = True
                if _tm.enabled():
                    _tm.incr("serve.net.hedged_probes")
                threading.Thread(target=attempt, daemon=True).start()
                continue
            if kind == "ok":
                return value
            outcomes.append((kind, value))
            if not hedged:
                # The first probe failed fast; hedge immediately rather
                # than waiting out the delay against nothing.
                hedged = True
                threading.Thread(target=attempt, daemon=True).start()
                continue
            if len(outcomes) >= 2:
                last = outcomes[-1][1]
                if all(
                    isinstance(v, _CONNECT_FAILURES) for _, v in outcomes
                ):
                    raise PartitionedError(
                        f"{self.address} unreachable: both hedged probes"
                        f" failed: {last!r}"
                    ) from last
                raise TransportError(
                    f"health probe to {self.address} failed twice:"
                    f" {last!r}"
                ) from last

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResilientClient({self.address!r}, retries={self.retries},"
            f" client_id={self.client_id!r})"
        )


def error_from_response(response: dict[str, Any]) -> ReproError:
    """Rehydrate a daemon error response into its typed exception."""
    import repro.errors as _errors

    name = response.get("error")
    message = response.get("message", "")
    cls = getattr(_errors, str(name), None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return ServiceError(f"{name}: {message}")


def serve_listen(
    address: str,
    backend: Any = None,
    *,
    max_streams: int = 8,
    journal_dir: str | None = None,
    recover: bool = False,
    checkpoint_every: int = 64,
    ready: Callable[[str], None] | None = None,
) -> int:
    """Run a socket daemon at *address* until a ``shutdown`` op.

    The daemon set-up (:func:`~repro.serve.daemon._run_daemon`: backend,
    stream registry or journal recovery, server) behind a
    :class:`SocketServer`.  Returns the process exit code: 0 after a
    ``shutdown`` op, :data:`~repro.serve.daemon.JOURNAL_POISONED_EXIT`
    when the write-ahead log poisons.  *ready* is called with the bound
    address once the server is accepting — ``python -m repro serve
    --listen`` prints it as a JSON line that a parent process can wait
    for.
    """
    def loop(dispatcher: Dispatcher) -> int:
        with SocketServer(dispatcher, address) as front:
            if ready is not None:
                ready(front.address)
            while not front.shutdown_requested.wait(timeout=0.2):
                if dispatcher.poisoned:
                    break
        return 0

    return _run_daemon(
        backend,
        loop,
        max_streams=max_streams,
        journal_dir=journal_dir,
        recover=recover,
        checkpoint_every=checkpoint_every,
    )
