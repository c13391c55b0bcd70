"""Socket transport: the S1 <-> S2 link as a real network connection.

This is the deployment half of the transport layer: where
:class:`~repro.net.transport.InProcessTransport` hands message objects
to a local dispatcher, :class:`SocketTransport` encodes them as
:class:`~repro.net.wire.WireCodec` byte streams and carries them over a
TCP or Unix-domain socket to a standalone S2 daemon
(:mod:`repro.server.s2_service`), so the two clouds genuinely run in
different processes or on different hosts — the paper's two-provider
threat model made literal.

Wire format (headers big-endian)::

    frame   := u32 payload_len | u8 type | u32 session_id | payload
    HELLO / HELLO_OK      version banner, once per connection
    REGISTER / REGISTERED key registration: ``(registration_id, p, q, s)``
    OPEN / OPENED         open one protocol session:
                          ``(registration_id, label, stream_key)`` — the
                          label names the job/session that opened it, so
                          daemon-side observability can attribute
                          sessions to client jobs; the stream key is the
                          key of the session's S2 randomness stream
    REQUEST / REPLY       one coalesced protocol round
    CLOSE / CLOSED        end one session
    ERROR                 failure report ``kind NUL text`` (session_id 0 =
                          connection)

REGISTER, OPEN, REQUEST and REPLY payloads are
:class:`~repro.net.wire.WireCodec` bytes; HELLO's banner and ERROR's
report stay plain, so that a peer of any version can read a refusal;
the other payloads are empty.  HELLO, REGISTER, OPEN and CLOSE payloads
have small caps of their own (:data:`FRAME_CAPS`), checked on the
header before the payload is read.

Every frame is tagged with its session id, and each session keeps its
own codec pair — the isolation of one in-process crypto cloud per
session.  The daemon answers a connection's frames in arrival order and
serves separate connections in parallel, so this client gives each
session a connection of its own for the session's life: it sends a
frame and reads the reply on the calling thread.  Connections are
pooled per process (:func:`client_for` / :func:`release`), so a
sequence of sessions reuses one and concurrent sessions each dial
their own.

**Key registration.** Before a session can open, the daemon must hold
the deployment's key material (the data owner provisions S2 with the
secret key in the paper's model — Section 3.1).  Nothing S2 holds
depends on which relation, version or window S1 scans, so the client
registers that key once under an id derived from the key itself
(:func:`default_registration_id`; :func:`open_remote_session` is the
one place that names a registration); every later session — any
relation under that key, from this process, a worker process, or
another client machine — opens by id alone and never re-uploads it.

Failure model: a dead peer surfaces as
:class:`~repro.exceptions.PeerDisconnected` on the in-flight or next
exchange (never a hang); a daemon-side dispatch failure surfaces as
:class:`~repro.exceptions.RemoteS2Error` carrying the remote exception
kind.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import socket
import struct
import threading

from repro.exceptions import PeerDisconnected, RemoteS2Error, TransportError
from repro.net.transport import Transport
from repro.net.wire import WireCodec, _Reader

# -- frame protocol --------------------------------------------------------

#: The one HELLO banner both sides speak.  Bumped to /6 when every
#: ciphertext list became one vector on the wire (/5 when a round's
#: item batch became its buffer, /4 when REGISTER and OPEN
#: became codec values, /3 when REPLY frames grew the S2-progress
#: element, /2 when the OPEN payload grew its session-label segment).
PROTOCOL_BANNER = b"repro-s2/6"

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
# 0x0C / 0x0D are retired — never reuse them.  Like any type the daemon
# does not know, they get an ``unknown-frame`` ERROR on their session.

_HEADER = struct.Struct("!IBI")  # payload length, frame type, session id

#: Upper bound on one frame's payload — far above any real round, so a
#: mis-framed or hostile stream fails fast instead of allocating wildly.
MAX_FRAME_BYTES = 1 << 30

#: The control frames' own caps: a banner; an id with the primes of a
#: key of up to ~8k bits; an id, a label and a stream key; nothing.
FRAME_CAPS = {HELLO: 64, REGISTER: 4096, OPEN: 2048, CLOSE: 0}

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
            try:
                sock.settimeout(timeout)
                sock.connect(target)
            except OSError:
                sock.close()
                raise
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
    if length > FRAME_CAPS.get(ftype, MAX_FRAME_BYTES):
        raise TransportError(f"frame type {ftype} of {length} bytes exceeds its cap")
    return ftype, session_id, _recv_exact(sock, length) if length else b""


def encode_error(kind: str, text: str) -> bytes:
    """Serialize an ERROR payload (plain UTF-8: any peer can read it)."""
    return kind.encode("utf-8") + b"\x00" + text.encode("utf-8", "replace")


def decode_error(payload: bytes) -> tuple[str, str]:
    """Inverse of :func:`encode_error`."""
    kind, _, text = payload.partition(b"\x00")
    return kind.decode("utf-8", "replace"), text.decode("utf-8", "replace")


def _control_payload(value: tuple) -> bytes:
    out = bytearray()
    WireCodec().encode_value(value, out)
    return bytes(out)


def encode_registration(registration_id: str, keypair, dj) -> bytes:
    """The REGISTER payload ``(registration_id, p, q, s)``: the secret
    primes and the DJ degree, all the daemon rebuilds the key from."""
    secret = keypair.secret_key
    return _control_payload((registration_id, secret.p, secret.q, dj.s))


def encode_open(registration_id: str, label: str, rng) -> bytes:
    """The OPEN payload ``(registration_id, label, stream_key)``: the
    session stream's own key (``b""`` for OS entropy) — never the key it
    was spawned from, which would name S1's streams too."""
    return _control_payload((registration_id, label[:128], rng.stream_key))


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
    """One connection to the S2 daemon, used by one session at a time.

    Every exchange is one frame out and the reply read back on the
    calling thread — no reader thread, no reply routing.  A send or
    receive that fails partway leaves the stream out of step, so it
    marks the connection :attr:`dead`; a typed ERROR reply leaves it in
    step and usable.  :func:`client_for` hands connections out and
    :func:`release` takes them back.
    """

    def __init__(self, address: str, timeout: float | None = 10.0):
        self.address = address
        self.pid = os.getpid()
        self._session_ids = itertools.count(1)
        self._dead: BaseException | None = None
        self._sock = connect_socket(address, timeout)
        try:
            self._sock.settimeout(timeout)
            self._handshake()
            self._sock.settimeout(None)
        except BaseException:
            self._sock.close()
            raise

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

    @property
    def dead(self) -> bool:
        """Whether the connection has failed or been closed."""
        return self._dead is not None

    def close(self, reason: BaseException | None = None) -> None:
        """Drop the connection (idempotent).  Safe from another thread:
        an exchange blocked on it fails with :class:`PeerDisconnected`."""
        if self._dead is None:
            self._dead = reason or TransportError("client connection closed")
        # shutdown() before close(): close alone does not wake a thread
        # blocked in recv on this fd.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def idle_and_open(self) -> bool:
        """Whether the connection can take a new session: not dead, and
        nothing to read while idle (a readable idle connection means
        the peer hung up or broke the protocol)."""
        if self._dead is not None:
            return False
        try:
            self._sock.setblocking(False)
            try:
                self._sock.recv(1, socket.MSG_PEEK)
            finally:
                self._sock.setblocking(True)
        except BlockingIOError:
            return True
        except OSError:
            pass
        return False

    # -- request/reply ---------------------------------------------------

    def _send(self, ftype: int, session_id: int, payload: bytes) -> None:
        if self._dead is not None:
            raise PeerDisconnected(
                f"connection to {self.address} is down: {self._dead}"
            ) from self._dead
        try:
            send_frame(self._sock, ftype, session_id, payload)
        except BaseException as exc:
            self.close(exc)
            raise

    def _receive(self, session_id: int, expect: int) -> bytes:
        try:
            ftype, got, payload = recv_frame(self._sock)
            if ftype != ERROR and (ftype, got) != (expect, session_id):
                raise TransportError(
                    f"expected frame {expect} on session {session_id}, "
                    f"peer sent {ftype} on session {got}"
                )
        except BaseException as exc:
            self.close(exc)
            raise
        if ftype == ERROR:
            raise RemoteS2Error(*decode_error(payload))
        return payload

    def roundtrip(
        self, ftype: int, session_id: int, payload: bytes, expect: int
    ) -> bytes:
        """One exchange: ``ftype`` out, the matching ``expect`` payload back."""
        self._send(ftype, session_id, payload)
        return self._receive(session_id, expect)

    # One protocol round in two halves, so the send and the wait for the
    # reply can be timed apart: REQUEST out, the matching REPLY back.

    def request_begin(self, session_id: int, data: bytes) -> None:
        """Send one REQUEST frame."""
        self._send(REQUEST, session_id, data)

    def request_finish(self, session_id: int) -> bytes:
        """Read the REPLY to the REQUEST just sent: the next frame on
        this connection."""
        return self._receive(session_id, REPLY)

    # -- session lifecycle -----------------------------------------------

    def open_session(self, open_payload: bytes, registration_payload) -> int:
        """Open a session with ``open_payload``, registering on demand:
        ``registration_payload()`` builds the REGISTER payload only when
        the daemon does not know the OPEN's registration id yet, so the
        steady state ships nothing but the small OPEN frame."""
        session_id = next(self._session_ids)
        try:
            self.roundtrip(OPEN, session_id, open_payload, OPENED)
        except RemoteS2Error as exc:
            if exc.kind != UNKNOWN_RELATION:
                raise
            self.roundtrip(REGISTER, 0, registration_payload(), REGISTERED)
            self.roundtrip(OPEN, session_id, open_payload, OPENED)
        return session_id


class SocketTransport(Transport):
    """One session's transport over an :class:`S2Client` it holds alone.

    Each endpoint of a session owns one stateful :class:`WireCodec`;
    the two registries stay in sync because both process the identical
    byte stream in the same order, so rounds on one session must never
    interleave — the session lock spans a whole exchange, encode to
    decode.  One exchange is one REQUEST/REPLY pair on the session's
    connection.  S2-side leakage events ride back inside each REPLY and
    are folded into the local log at the position they would occupy
    in-process.  :meth:`close` ends the session and returns the
    connection to the pool.
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
            self._client.request_begin(
                self.session_id, self._codec.encode_envelope(messages)
            )
            payload = self._client.request_finish(self.session_id)
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
                self._client.roundtrip(CLOSE, self.session_id, b"", CLOSED)
            except TransportError:
                pass  # a dead daemon cannot acknowledge; the session is gone
            finally:
                release(self._client)


# -- per-process connection pool -------------------------------------------

#: Every connection this process holds, idle or checked out.
_CLIENTS: set[S2Client] = set()
#: address -> idle connections, most recently returned last.
_IDLE: dict[str, list[S2Client]] = {}
_POOL_LOCK = threading.Lock()


def _reset_after_fork() -> None:
    # A forked child must not touch the parent's connections (frames
    # from two processes would interleave on one stream) and must not
    # inherit a lock some other parent thread held at fork time: start
    # the child with an empty pool and a fresh lock.  The inherited
    # socket objects are simply abandoned — closing the child's fds
    # never FINs a stream the parent still holds.
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()
    _CLIENTS.clear()
    _IDLE.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def client_for(address: str, timeout: float | None = 10.0) -> S2Client:
    """Check out a connection to ``address`` for one session.

    Reuses an idle connection this process dialled, closing any whose
    peer hung up while it sat idle, or dials a new one.  Hand it back
    with :func:`release`.  A forked child never reuses the parent's
    connections (frames from two processes on one stream would
    interleave; the pid check backs up the fork hook).
    """
    while True:
        with _POOL_LOCK:
            idle = _IDLE.get(address)
            client = idle.pop() if idle else None
        if client is None:
            break
        if client.pid == os.getpid() and client.idle_and_open():
            return client
        _discard(client)
    client = S2Client(address, timeout)
    with _POOL_LOCK:
        _CLIENTS.add(client)
    return client


def _discard(client: S2Client) -> None:
    with _POOL_LOCK:
        _CLIENTS.discard(client)
    if client.pid == os.getpid():
        client.close()


def release(client: S2Client) -> None:
    """Return a checked-out connection: to the idle pool if it is still
    in step, closed otherwise."""
    with _POOL_LOCK:
        if not client.dead and client in _CLIENTS:
            _IDLE.setdefault(client.address, []).append(client)
            return
    _discard(client)


def disconnect_all() -> None:
    """Close every connection this process holds, idle or checked out;
    a live session's next exchange raises :class:`PeerDisconnected`."""
    with _POOL_LOCK:
        clients = list(_CLIENTS)
        _CLIENTS.clear()
        _IDLE.clear()
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
    then hands the session the key of its randomness stream: ``s2_rng``,
    unread, is the exact :class:`SecureRandom` the in-process wiring
    would give a local crypto cloud, so a remote query is bit-identical
    to a local one.  ``on_progress(batches, values, seconds)``, when
    given, receives the daemon's per-round decrypt progress piggybacked
    on REPLY frames (purely observational).
    """
    rid = relation_id or default_registration_id(keypair, dj)
    open_payload = encode_open(rid, label, s2_rng)
    client = client_for(address)
    try:
        session_id = client.open_session(
            open_payload, lambda: encode_registration(rid, keypair, dj)
        )
    except RemoteS2Error:
        release(client)  # the daemon refused in step: the link is fine
        raise
    except BaseException:
        _discard(client)
        raise
    return SocketTransport(client, session_id, leakage, on_progress=on_progress)
