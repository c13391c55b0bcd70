"""Socket transport: the S1 <-> S2 link as a real network connection.

This is the deployment half of the transport layer: where
:class:`~repro.net.transport.ThreadedTransport` moves serialized bytes
through an in-process queue pair, :class:`SocketTransport` moves the
same :class:`~repro.net.wire.WireCodec` byte streams over a TCP or
Unix-domain socket to a standalone S2 daemon
(:mod:`repro.server.s2_service`), so the two clouds genuinely run in
different processes or on different hosts — the paper's two-provider
threat model made literal.

Wire format (everything big-endian)::

    frame   := u32 payload_len | u8 type | u32 session_id | payload
    HELLO / HELLO_OK      version banner, once per connection
    REGISTER / REGISTERED key registration (key/param upload)
    OPEN / OPENED         open one protocol session; the payload is
                          ``registration_id NUL label NUL rng-blob`` — the
                          label names the job/session that opened it,
                          so daemon-side observability can attribute
                          sessions to client jobs
    REQUEST / REPLY       one coalesced protocol round
    CLOSE / CLOSED        end one session
    ERROR                 failure report (session_id 0 = connection)

One connection carries many concurrent *sessions*: every data frame is
tagged with its session id, a reader thread demultiplexes replies, and
each session keeps its own codec pair — exactly the isolation the
in-process transports provide, shared over one socket.

**Key registration.** Before a session can open, the daemon must hold
the deployment's key material (the data owner provisions S2 with the
secret key in the paper's model — Section 3.1).  Nothing S2 holds
depends on which relation, version or window S1 scans, so the client
registers that blob once under an id derived from the key itself
(:func:`default_registration_id`; :func:`open_remote_session` is the
one place that names a registration); every later session — any
relation under that key, from this process, a worker process, or
another client machine — opens by id alone and never re-uploads it.

Failure model: a dead peer surfaces as
:class:`~repro.exceptions.PeerDisconnected` on the in-flight or next
exchange (never a hang); a daemon-side dispatch failure surfaces as
:class:`~repro.exceptions.RemoteS2Error` carrying the remote exception
kind.

Trust note: control frames (registration, session open) are pickled —
the two clouds are mutually authenticated infrastructure in the paper's
deployment model, and the registration blob *is* secret key material.
Expose the daemon only on links you would trust with the key itself.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import pickle
import queue
import socket
import struct
import threading

from repro.exceptions import PeerDisconnected, RemoteS2Error, TransportError
from repro.net.transport import Transport
from repro.net.wire import WireCodec, _Reader

# -- frame protocol --------------------------------------------------------

#: The one HELLO banner both sides speak.  Bumped to /3 when REPLY
#: frames grew the S2-progress element (/2 when the OPEN payload grew its
#: session-label segment).
PROTOCOL_BANNER = b"repro-s2/3"

#: ERROR kind a daemon sends for a HELLO banner it does not speak (the
#: text names the daemon's own banner) before it drops the connection.
VERSION_MISMATCH = "version-mismatch"

HELLO = 0x01
HELLO_OK = 0x02
REGISTER = 0x03
REGISTERED = 0x04
OPEN = 0x05
OPENED = 0x06
REQUEST = 0x07
REPLY = 0x08
CLOSE = 0x09
CLOSED = 0x0A
ERROR = 0x0B
# 0x0C / 0x0D are retired — never reuse them: pre-PR-24 clients still
# send 0x0C and rely on the ``unknown-frame`` ERROR a stray type gets.

_HEADER = struct.Struct("!IBI")  # payload length, frame type, session id

#: Upper bound on one frame's payload — far above any real round, so a
#: mis-framed or hostile stream fails fast instead of allocating wildly.
MAX_FRAME_BYTES = 1 << 30

#: Error kind the daemon sends for an OPEN naming an unregistered
#: id; the client reacts by registering and retrying (the only ERROR
#: that is part of the normal handshake).
UNKNOWN_RELATION = "unknown-relation"


def parse_address(address: str) -> tuple[str, object]:
    """Split ``tcp://host:port`` / ``unix:///path`` into (family, target)."""
    if address.startswith("tcp://"):
        rest = address[len("tcp://") :]
        host, sep, port = rest.rpartition(":")
        if not sep or not port.isdigit():
            raise TransportError(f"malformed TCP address: {address!r}")
        return "tcp", (host or "127.0.0.1", int(port))
    if address.startswith("unix://"):
        path = address[len("unix://") :]
        if not path:
            raise TransportError(f"malformed Unix address: {address!r}")
        return "unix", path
    raise TransportError(f"unknown socket address scheme: {address!r}")


def is_socket_address(spec: str) -> bool:
    """Whether a transport spec names a remote S2 rather than a backend."""
    return isinstance(spec, str) and spec.startswith(("tcp://", "unix://"))


def connect_socket(address: str, timeout: float | None = 10.0) -> socket.socket:
    """Open a client socket to ``address`` (blocking mode once connected)."""
    family, target = parse_address(address)
    try:
        if family == "tcp":
            sock = socket.create_connection(target, timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            if not hasattr(socket, "AF_UNIX"):
                raise TransportError("Unix-domain sockets unavailable here")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(target)
    except OSError as exc:
        raise TransportError(f"cannot connect to S2 at {address}: {exc}") from exc
    sock.settimeout(None)
    return sock


def send_frame(
    sock: socket.socket, ftype: int, session_id: int, payload: bytes = b""
) -> None:
    """Write one frame (caller serializes access to the socket)."""
    try:
        sock.sendall(_HEADER.pack(len(payload), ftype, session_id) + payload)
    except OSError as exc:
        raise PeerDisconnected(f"peer went away mid-send: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = io.BytesIO()
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise PeerDisconnected(f"peer went away mid-receive: {exc}") from exc
        if not chunk:
            raise PeerDisconnected("peer closed the connection")
        buf.write(chunk)
        remaining -= len(chunk)
    return buf.getvalue()


def recv_frame(sock: socket.socket) -> tuple[int, int, bytes]:
    """Read one frame; raises :class:`PeerDisconnected` on EOF/reset."""
    length, ftype, session_id = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {length} bytes exceeds the protocol cap")
    return ftype, session_id, _recv_exact(sock, length) if length else b""


def encode_error(kind: str, text: str) -> bytes:
    """Serialize an ERROR payload (plain UTF-8, no pickle on this path)."""
    return kind.encode("utf-8") + b"\x00" + text.encode("utf-8", "replace")


def decode_error(payload: bytes) -> tuple[str, str]:
    """Inverse of :func:`encode_error`."""
    kind, _, text = payload.partition(b"\x00")
    return kind.decode("utf-8", "replace"), text.decode("utf-8", "replace")


def default_registration_id(keypair, dj) -> str:
    """The id a deployment's key material registers under: a digest of
    the public modulus and DJ degree — exactly what the daemon needs to
    service the sessions, and nothing about the relation S1 scans.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-s2-registration:")
    digest.update(keypair.public_key.n.to_bytes(
        (keypair.public_key.n.bit_length() + 7) // 8, "big"
    ))
    digest.update(bytes([dj.s]))
    return digest.hexdigest()[:32]


# -- client side -----------------------------------------------------------


class S2Client:
    """One process's multiplexed connection to the S2 daemon.

    All sessions this process opens against one address share a single
    socket: a reader thread demultiplexes session-tagged reply frames to
    the waiting exchanges, and peer death poisons the link so every
    waiter gets an exception instead of a hang.  Control operations
    (registration, session open/close) are serialized; data rounds from
    different sessions interleave freely.
    """

    def __init__(self, address: str, timeout: float | None = 10.0):
        self.address = address
        self.pid = os.getpid()
        self._write_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._control_lock = threading.Lock()
        self._pending: dict[int, queue.SimpleQueue] = {}
        self._session_ids = itertools.count(1)
        self._dead: Exception | None = None
        # The handshake happens before the reader thread exists, so a
        # non-daemon peer fails here with a clear error (and never leaks
        # the connected socket).
        self._sock = connect_socket(address, timeout)
        try:
            self._sock.settimeout(timeout)
            self._handshake()
            self._sock.settimeout(None)
        except BaseException:
            self._sock.close()
            raise
        self._reader = threading.Thread(
            target=self._read_loop, name=f"S2Client:{address}", daemon=True
        )
        self._reader.start()

    def _handshake(self) -> None:
        """One HELLO exchange offering :data:`PROTOCOL_BANNER`; a daemon
        that speaks another banner names it in its ``version-mismatch``
        report, which the raised error carries."""
        send_frame(self._sock, HELLO, 0, PROTOCOL_BANNER)
        ftype, _, payload = recv_frame(self._sock)
        if ftype == ERROR:
            kind, text = decode_error(payload)
            raise TransportError(
                f"peer at {self.address} refused {PROTOCOL_BANNER.decode()}: "
                f"{kind}: {text}"
            )
        if ftype != HELLO_OK or payload != PROTOCOL_BANNER:
            raise TransportError(
                f"peer at {self.address} did not speak {PROTOCOL_BANNER.decode()}"
            )

    # -- reply routing ---------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                ftype, session_id, payload = recv_frame(self._sock)
                if ftype == ERROR:
                    item: object = RemoteS2Error(*decode_error(payload))
                else:
                    item = (ftype, payload)
                with self._state_lock:
                    waiter = self._pending.get(session_id)
                if waiter is None:
                    if ftype == ERROR:
                        # Connection-level failure with nobody waiting.
                        raise item
                    raise TransportError(
                        f"unsolicited frame {ftype} for session {session_id}"
                    )
                waiter.put(item)
        except Exception as exc:  # noqa: BLE001 — every exit poisons the link
            self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        """Poison the connection: every waiter gets the failure now, and
        every later operation raises immediately — peer death is an
        exception, never a hang."""
        with self._state_lock:
            if self._dead is None:
                self._dead = exc
            waiters = list(self._pending.values())
        for waiter in waiters:
            waiter.put(exc)
        # shutdown() before close(): close alone neither wakes a reader
        # thread blocked in recv on this fd nor guarantees the peer sees
        # FIN while that syscall pins the description.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def dead(self) -> bool:
        """Whether the connection has been poisoned."""
        return self._dead is not None

    def close(self) -> None:
        """Drop the connection (idempotent; pending exchanges fail)."""
        self._fail(TransportError("client connection closed"))

    # -- request/reply ---------------------------------------------------

    def begin(self, ftype: int, session_id: int, payload: bytes):
        """Send one frame without waiting; returns the waiter.

        The split lets several sessions' frames go out back-to-back on
        the shared socket before any reply is collected — the wire shape
        of one combined round-trip.  Pair with :meth:`finish` (exactly
        once) after a successful begin.
        """
        with self._state_lock:
            if self._dead is not None:
                raise PeerDisconnected(
                    f"connection to {self.address} is down: {self._dead}"
                ) from self._dead
            if session_id in self._pending:
                raise TransportError(
                    f"session {session_id} already has a request in flight"
                )
            waiter: queue.SimpleQueue = queue.SimpleQueue()
            self._pending[session_id] = waiter
        try:
            with self._write_lock:
                send_frame(self._sock, ftype, session_id, payload)
        except BaseException:
            with self._state_lock:
                self._pending.pop(session_id, None)
            raise
        return waiter

    def finish(
        self, session_id: int, waiter, expect: int, timeout: float | None = None
    ) -> bytes:
        """Collect the reply of a :meth:`begin`: the ``expect`` frame's
        payload, or the remote/connection failure raised."""
        try:
            item = waiter.get(timeout=timeout)
        except queue.Empty:
            exc = TransportError(
                f"daemon at {self.address} did not answer within {timeout:.1f}s"
            )
            # A silent daemon leaves the stream in an unknowable state;
            # poison the connection so every other in-flight exchange
            # fails fast too instead of waiting out its own timeout
            # against a wedged peer.
            self._fail(exc)
            raise exc from None
        finally:
            with self._state_lock:
                self._pending.pop(session_id, None)
        if isinstance(item, Exception):
            raise item
        got, payload = item
        if got != expect:
            raise TransportError(f"expected frame {expect}, peer sent {got}")
        return payload

    def roundtrip(
        self,
        ftype: int,
        session_id: int,
        payload: bytes,
        expect: int,
        timeout: float | None = None,
    ) -> bytes:
        """One exchange: ``ftype`` out, the matching ``expect`` payload back."""
        return self.finish(
            session_id, self.begin(ftype, session_id, payload), expect, timeout
        )

    # One protocol round in two halves (see :meth:`begin`): REQUEST out,
    # the matching REPLY payload back.

    def request_begin(self, session_id: int, data: bytes):
        """Send one REQUEST frame without waiting; returns the waiter."""
        return self.begin(REQUEST, session_id, data)

    def request_finish(self, session_id: int, waiter) -> bytes:
        """Collect the REPLY of a :meth:`request_begin`."""
        return self.finish(session_id, waiter, REPLY)

    # -- session lifecycle -----------------------------------------------

    def open_session(
        self,
        registration_id: str,
        payload_factory,
        session_blob: bytes,
        label: str = "",
    ) -> int:
        """Open a session under a key registration, registering on demand.

        ``payload_factory`` builds the registration blob lazily: it is
        only invoked when the daemon does not yet know
        ``registration_id``, so the steady state ships nothing but the
        tiny OPEN frame.
        ``label`` rides the OPEN frame (NUL-free, truncated) so the
        daemon can attribute the session to the client job that opened
        it.
        """
        label_bytes = label.replace("\x00", "").encode("utf-8", "replace")[:128]
        open_payload = (
            registration_id.encode("utf-8")
            + b"\x00"
            + label_bytes
            + b"\x00"
            + session_blob
        )
        with self._control_lock:
            session_id = next(self._session_ids)
            try:
                self.roundtrip(OPEN, session_id, open_payload, OPENED)
            except RemoteS2Error as exc:
                if exc.kind != UNKNOWN_RELATION:
                    raise
                self.roundtrip(REGISTER, 0, payload_factory(), REGISTERED)
                self.roundtrip(OPEN, session_id, open_payload, OPENED)
            return session_id

    def close_session(self, session_id: int) -> None:
        """End one session (graceful CLOSE/CLOSED exchange)."""
        with self._control_lock:
            self.roundtrip(CLOSE, session_id, b"", CLOSED)


class SocketTransport(Transport):
    """One session's transport over a shared :class:`S2Client`.

    Mirrors :class:`~repro.net.transport.ThreadedTransport` exactly —
    same codec discipline (one stateful :class:`WireCodec` per endpoint
    per session, kept in sync by the byte stream itself), same
    round-trip-per-exchange semantics — with the service thread replaced
    by session-tagged frames on the client's socket.  S2-side leakage
    events ride back inside each REPLY and are folded into the local
    log at the position they would occupy in-process.
    """

    def __init__(self, client: S2Client, session_id: int, leakage, on_progress=None):
        self._client = client
        self.session_id = session_id
        self._codec = WireCodec()
        self._leakage = leakage
        self._on_progress = on_progress
        self._lock = threading.Lock()
        self._closed = False

    def exchange(self, messages: list) -> list:
        # The session lock spans REQUEST out to REPLY decoded: the codec
        # registries stay in sync only if rounds never interleave.
        with self._lock:
            if self._closed:
                raise TransportError("session transport is closed")
            waiter = self._client.request_begin(
                self.session_id, self._codec.encode_envelope(messages)
            )
            payload = self._client.request_finish(self.session_id, waiter)
            # REPLY: (replies, leaked, progress) — progress entries are
            # (batches, values, microseconds) int triples (the wire codec
            # carries no floats).
            replies, leaked, progress = self._codec.decode_value(_Reader(payload))
        for observer, protocol, kind, event_payload in leaked:
            self._leakage.record(observer, protocol, kind, event_payload)
        if self._on_progress is not None:
            for batches, values, micros in progress:
                try:
                    self._on_progress(int(batches), int(values), micros / 1e6)
                except Exception:
                    pass  # observation only — never fail the round
        return list(replies)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._client.close_session(self.session_id)
        except TransportError:
            pass  # a dead daemon cannot acknowledge; the session is gone


# -- per-process client registry -------------------------------------------

#: address -> live client.
_CLIENTS: dict[str, S2Client] = {}
_CLIENTS_LOCK = threading.Lock()


def _reset_after_fork() -> None:
    # A forked child must not touch the parent's connections (frames
    # from two processes would interleave on one stream) and must not
    # inherit a lock some other parent thread held at fork time: start
    # the child with an empty registry and a fresh lock.  The inherited
    # socket objects are simply abandoned — closing the child's fds
    # never FINs a stream the parent still holds.
    global _CLIENTS_LOCK
    _CLIENTS_LOCK = threading.Lock()
    _CLIENTS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def client_for(address: str, timeout: float | None = 10.0) -> S2Client:
    """The process-wide shared client for ``address``.

    One connection per (process, address): concurrent sessions
    multiplex over it, worker processes get their own (a forked child
    never reuses the parent's socket — frames from two processes on one
    stream would interleave; the pid check catches inherited entries),
    and a poisoned connection is transparently replaced.
    """
    with _CLIENTS_LOCK:
        client = _CLIENTS.get(address)
        if client is not None and (client.pid != os.getpid() or client.dead):
            if client.pid != os.getpid():
                # Forked-off inheritance: quietly drop our duplicate fd
                # (the parent's open description keeps the stream alive).
                try:
                    client._sock.close()
                except OSError:
                    pass
            else:
                client.close()
            _CLIENTS.pop(address, None)
            client = None
        if client is None:
            client = S2Client(address, timeout)
            _CLIENTS[address] = client
        return client


def disconnect_all() -> None:
    """Drop every cached daemon connection (tests and benchmarks)."""
    with _CLIENTS_LOCK:
        clients = list(_CLIENTS.values())
        _CLIENTS.clear()
    for client in clients:
        client.close()


def open_remote_session(
    address: str,
    keypair,
    dj,
    s2_rng,
    leakage,
    relation_id: str | None = None,
    label: str = "",
    on_progress=None,
) -> SocketTransport:
    """Open one protocol session against the S2 daemon at ``address``.

    Registers the deployment's key material if the daemon does not hold
    it yet (first contact only) — under :func:`default_registration_id`,
    or under ``relation_id`` when the caller names its own opaque id —
    then hands the session its randomness stream — the exact
    :class:`SecureRandom` the in-process wiring would give a local
    crypto cloud, so a remote query is bit-identical to a local one.
    ``on_progress(batches, values, seconds)``, when given, receives the
    daemon's per-round decrypt progress piggybacked on REPLY frames
    (purely observational).
    """
    rid = relation_id or default_registration_id(keypair, dj)

    def registration_payload() -> bytes:
        return pickle.dumps(
            {"relation_id": rid, "keypair": keypair, "dj": dj},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    client = client_for(address)
    session_id = client.open_session(
        rid,
        registration_payload,
        pickle.dumps(s2_rng, protocol=pickle.HIGHEST_PROTOCOL),
        label=label,
    )
    return SocketTransport(client, session_id, leakage, on_progress=on_progress)
