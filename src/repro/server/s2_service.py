"""The standalone S2 crypto-cloud daemon.

Runs the S2 half of the two-cloud protocol as its own process (or
host)::

    PYTHONPATH=src python -m repro.server.s2_service \\
        --listen tcp://127.0.0.1:9317 [--backend auto] \\
        [--state-dir /var/lib/repro-s2]

The daemon owns nothing at start — no keys, no relations.  A client
(the S1 side: :class:`~repro.server.topk_server.TopKServer` or any
``repro.connect(scheme, relation, "tcp://...")`` client) provisions it
through the frame protocol of :mod:`repro.net.socket_transport`:

1. **HELLO** — version banner check, once per connection.
2. **REGISTER** — the data owner's provisioning step (Section 3.1):
   the secret primes and the DJ degree, from which the daemon rebuilds
   the key, stored under a *registration id* the client derives from
   the key itself.
   Idempotent, and shared daemon-wide: any later connection — another
   session, another worker process, another machine — opens sessions
   by id alone, so queries against any relation, version or window
   under a registered key never re-upload it.
3. **OPEN** — one protocol session: its own
   :class:`~repro.protocols.base.CryptoCloud` (on the rng stream whose
   key the client ships, so transcripts match in-process runs),
   :class:`~repro.net.dispatch.S2Dispatcher`, wire codec and leakage
   log.  A connection can carry several sessions, told apart by the
   session id tagged on every frame; the client holds one session per
   connection at a time.
4. **REQUEST/REPLY** — one coalesced protocol round per frame: the
   wire-encoded message batch one
   :meth:`~repro.net.transport.Transport.exchange` carries.  S2-side
   leakage events ride back inside the REPLY.

Scheduling: S2 only answers — every round is one request and one
reply — so a connection's read thread serves its frames itself, in
arrival order, each REQUEST's round run to completion before the next
frame is read.  Parallelism is across connections, each with its own
read thread: the client gives every concurrent session a connection of
its own.

Error scoping: a *handler* failure is answered with a typed ERROR on
the offending session id (typed :class:`~repro.exceptions.RemoteS2Error`
on the client) and the connection lives — its other sessions never
notice; only a *framing* failure — oversize frame, short read, bad
HELLO — drops the connection, and a dropped connection tears down all
of its sessions.  A control payload is decoded by the wire codec into
plain values and checked field by field before a key or a session is
built from it.

``--state-dir`` makes registrations *persistent*: each REGISTER payload
is spilled (atomically) to ``<state_dir>/<registration id>.reg`` and
decoded by the same decoder on restart, so a bounced daemon keeps
serving its registered keys without any client re-upload.  The spill
holds the secret key material the client provisioned — protect the
directory like the key itself.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import selectors
import socket
import subprocess
import sys
import threading
import time

from repro.crypto import backend
from repro.crypto.paillier import PaillierKeypair, PaillierSecretKey
from repro.crypto.rng import SecureRandom
from repro.crypto.vector import CtVector
from repro.exceptions import KeyMismatchError, PeerDisconnected, ProtocolError, TransportError
from repro.net.dispatch import S2Dispatcher
from repro.net.socket_transport import (
    CLOSE,
    CLOSED,
    ERROR,
    HELLO,
    HELLO_OK,
    OPEN,
    OPENED,
    PROTOCOL_BANNER,
    REGISTER,
    REGISTERED,
    REPLY,
    REQUEST,
    UNKNOWN_RELATION,
    VERSION_MISMATCH,
    encode_error,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.net.wire import _MAX_DJ_DEGREE, WireCodec, decode_plain, shared_key, shared_scheme
from repro.obs.exporter import HealthState, MetricsExporter
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.protocols.base import CryptoCloud, LeakageLog
from repro.structures.items import ItemBatch

#: Seconds a fresh connection gets to send its HELLO.
_HELLO_TIMEOUT_S = 30.0

#: Seconds :meth:`S2Service.close` waits for each connection thread to
#: notice its socket is gone (a handler mid-computation finishes first).
_CONNECTION_JOIN_S = 5.0

#: ``stats()`` key -> (metric name, help text): ``*_total`` names are
#: counters, the rest gauges.
_INSTRUMENTS = {
    "connections_total": ("repro_s2_connections_total", "Client connections accepted."),
    "connections_active": (
        "repro_s2_connections_active", "Client connections currently open."
    ),
    "registrations": ("repro_s2_registrations_total", "Keys registered (uploads)."),
    "registrations_restored": (
        "repro_s2_registrations_restored_total",
        "Keys reloaded from the state dir at boot.",
    ),
    "registration_uploads": (
        "repro_s2_registration_uploads_total",
        "REGISTER frames received (including idempotent repeats).",
    ),
    "registration_bytes": (
        "repro_s2_registration_bytes_total", "Bytes of REGISTER payload received."
    ),
    "sessions_opened": ("repro_s2_sessions_opened_total", "Protocol sessions opened."),
    "sessions_active": ("repro_s2_sessions_active", "Protocol sessions currently live."),
    "job_sessions": (
        "repro_s2_job_sessions_total",
        "Sessions opened by server jobs (label ``job-*``).",
    ),
    "requests_served": ("repro_s2_requests_total", "REQUEST frames accepted."),
    "requests_in_flight": (
        "repro_s2_requests_in_flight", "Requests accepted and not yet answered."
    ),
    "requests_in_flight_peak": (
        "repro_s2_requests_in_flight_peak",
        "High-water mark of concurrent in-flight requests.",
    ),
}


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so a reader sees the old content or the
    new, never a partial file: owner-only (0600, whatever the umask —
    spills hold key material) temp file, then rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _control(payload: bytes, shape: tuple) -> tuple:
    """One control payload: a single plain codec value, a tuple whose
    fields have exactly the types of ``shape``; anything else is
    refused."""
    value = decode_plain(payload)
    if type(value) is not tuple or tuple(map(type, value)) != shape:
        fields = ", ".join(kind.__name__ for kind in shape)
        raise ProtocolError(f"a control payload must be one ({fields}) tuple")
    return value


def decode_registration(payload: bytes) -> tuple:
    """A REGISTER payload (or a ``.reg`` spill) as ``(registration_id,
    p, q, s)``, checked; no key object is built until the daemon
    installs the registration."""
    registration_id, p, q, s = _control(payload, (str, int, int, int))
    if not (1 <= s <= _MAX_DJ_DEGREE and p > 2 and q > 2):
        raise ProtocolError(f"key parameters out of range (s = {s})")
    return registration_id, p, q, s


def decode_open(payload: bytes) -> tuple:
    """An OPEN payload as ``(registration_id, label, rng)``: the stream
    is rebuilt from its own key, OS entropy when the key is empty."""
    registration_id, label, stream_key = _control(payload, (str, str, bytes))
    if len(stream_key) not in (0, 32):
        raise ProtocolError(f"a stream key has 0 or 32 bytes, not {len(stream_key)}")
    return registration_id, label, SecureRandom.from_stream_key(stream_key)


class _Session:
    """One protocol session: crypto cloud, dispatcher and codec.

    ``label`` is the client-supplied session label from the OPEN frame
    (a job id like ``job-17``, a server session tag, ...): it feeds the
    daemon's per-job observability.
    """

    def __init__(self, cloud: CryptoCloud, label: str = ""):
        self.cloud = cloud
        self.label = label
        self.dispatcher = S2Dispatcher(cloud)
        self.codec = WireCodec()

    def _round(self, data: bytes) -> tuple[bytes, float]:
        """Dispatch one coalesced round; returns the REPLY payload and
        the dispatch wall-clock in seconds."""
        started = time.perf_counter()
        messages = self.codec.decode_envelope(data)
        replies = [self.dispatcher.dispatch(msg) for msg in messages]
        elapsed = time.perf_counter() - started
        # The session log holds exactly this round's S2 observations
        # (drained every round); they ride back in the reply so the
        # client's log interleaves S1 and S2 events at the in-process
        # positions.
        events = [
            (e.observer, e.protocol, e.kind, e.payload)
            for e in self.cloud.leakage.events
        ]
        self.cloud.leakage.clear()
        # The REPLY piggybacks the round's decrypt progress: (batches,
        # values, microseconds) int triples — the wire codec carries no
        # floats, and integers keep transcripts byte-comparable.
        progress = ((len(messages), _values_in(replies), int(elapsed * 1e6)),)
        out = bytearray()
        self.codec.encode_value((replies, events, progress), out)
        return bytes(out), elapsed


def _values_in(reply) -> int:
    """How many values a reply carries: a vector its length, an item
    batch its components, a list or tuple the sum of its entries, and
    anything else (a sign, a bit) one."""
    if isinstance(reply, (list, tuple)):
        return sum(map(_values_in, reply))
    if isinstance(reply, ItemBatch):
        return len(reply.vector)
    return len(reply) if isinstance(reply, CtVector) else 1


class Connection:
    """One accepted client connection; :meth:`run`'s thread reads its
    frames and answers each one, rounds included."""

    def __init__(self, service: S2Service, sock: socket.socket):
        self.service = service
        self.sock = sock
        #: The read thread running :meth:`run`; joined by ``close()``.
        self.thread = threading.Thread(
            target=self.run, name="s2-connection", daemon=True
        )
        #: Live sessions by id; touched only by this connection's read
        #: thread.
        self.sessions: dict[int, _Session] = {}

    def send(self, ftype: int, session_id: int, payload: bytes = b"") -> None:
        # Only the read thread writes, so frames never interleave.
        send_frame(self.sock, ftype, session_id, payload)

    def send_error(self, session_id: int, kind: str, text: str) -> None:
        with contextlib.suppress(TransportError):
            self.send(ERROR, session_id, encode_error(kind, text))

    def run(self) -> None:
        service = self.service
        try:
            # A peer that connects but never greets should not pin a
            # thread forever; after the banner the link blocks freely.
            self.sock.settimeout(_HELLO_TIMEOUT_S)
            ftype, _, payload = recv_frame(self.sock)
            if ftype != HELLO or payload != PROTOCOL_BANNER:
                # Name the banner we speak, then drop the connection.
                self.send_error(0, VERSION_MISMATCH, PROTOCOL_BANNER.decode())
                return
            self.send(HELLO_OK, 0, payload)
            self.sock.settimeout(None)
            while True:
                ftype, session_id, payload = recv_frame(self.sock)
                handler = service.handlers.get(ftype)
                if handler is None:
                    self.send_error(session_id, "unknown-frame", str(ftype))
                else:
                    service.run_handler(handler, self, session_id, payload)
        except PeerDisconnected:
            pass  # normal client departure
        except Exception as exc:  # noqa: BLE001 — last-resort report
            self.send_error(0, type(exc).__name__, str(exc))
        finally:
            service._sessions_closed(len(self.sessions))
            self.sessions.clear()
            with contextlib.suppress(OSError):
                self.sock.close()
            service._connection_closed(self)


class S2Service:
    """The S2 daemon: listener, connections and their protocol sessions,
    the registration store, metrics mount and state dir.

    Parameters
    ----------
    listen:
        ``tcp://host:port`` (port 0 picks a free one) or
        ``unix:///path`` (a stale socket file is replaced).
    state_dir:
        When set, every registration is spilled to
        ``<state_dir>/<registration id>.reg`` (the REGISTER payload,
        written atomically, once per key) and decoded on :meth:`start`
        — a restarted daemon serves its registered keys without any
        client re-upload.  The files hold secret key material: protect the
        directory like the key itself.
    metrics_port:
        When set, serve Prometheus text at
        ``http://127.0.0.1:PORT/metrics`` (process-wide instruments plus
        this service's own counters) and a ``/healthz`` endpoint that
        flips to draining on :meth:`drain` / :meth:`close`.  ``0`` picks
        a free port — read it back from :attr:`metrics_port`.
    """

    def __init__(
        self,
        listen: str = "tcp://127.0.0.1:0",
        state_dir: str | None = None,
        metrics_port: int | None = None,
    ):
        self.listen_spec = listen
        self.state_dir = state_dir
        self.address: str | None = None
        #: frame type -> ``handler(connection, session_id, payload)``.
        self.handlers = {
            REGISTER: self._on_register,
            OPEN: self._on_open,
            REQUEST: self._on_request,
            CLOSE: self._on_close,
        }
        self._registry: dict[str, tuple] = {}
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._unix_path: str | None = None
        self._lock = threading.Lock()
        self._connections: set[Connection] = set()
        # Per-instance metrics registry: the service counters *are*
        # these instruments (``stats()`` reads them back), so the dict
        # snapshot and a ``/metrics`` scrape can never disagree — one
        # source, two renderings.  A private registry keeps concurrent
        # services (tests run several) from folding into each other.
        self.registry = MetricsRegistry()
        self._counters = {
            key: (
                self.registry.counter if name.endswith("_total") else self.registry.gauge
            )(name, help_text)
            for key, (name, help_text) in _INSTRUMENTS.items()
        }
        self._request_seconds = self.registry.histogram(
            "repro_s2_request_seconds",
            "Per-round dispatch wall-clock on connection read threads.",
        )
        self._health = HealthState()
        self._metrics_port = metrics_port
        self._exporter: MetricsExporter | None = None
        self._closed = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> str:
        """Bind, listen, and start accepting; returns the bound address.

        With a ``state_dir``, previously spilled registrations are
        reloaded first, so clients of the restarted daemon open
        sessions by registration id without re-uploading key material.
        """
        for registration in self.restore():
            self._register(registration, None)
        family, target = parse_address(self.listen_spec)
        if family == "tcp":
            host, port = target
            listener = socket.create_server((host, port))
            bound_port = listener.getsockname()[1]
            self.address = f"tcp://{host}:{bound_port}"
        else:
            if not hasattr(socket, "AF_UNIX"):
                raise TransportError("Unix-domain sockets unavailable here")
            with contextlib.suppress(OSError):
                os.unlink(target)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(target)
            listener.listen()
            self._unix_path = target
            self.address = f"unix://{target}"
        # A blocking accept() does not reliably wake when another thread
        # closes the listener; a short timeout lets the loop observe the
        # shutdown flag, so close() can join deterministically.
        listener.settimeout(0.1)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="s2-accept", daemon=True
        )
        self._accept_thread.start()
        if self._metrics_port is not None:
            # Serve both the process-wide registry (channel/pool/cache
            # instruments the daemon's own code records into) and this
            # service's private counters on one endpoint.
            exporter = MetricsExporter(
                port=self._metrics_port,
                registries=[REGISTRY, self.registry],
                health=self._health,
            )
            try:
                exporter.start()
            except BaseException:
                self.close()
                raise
            self._exporter = exporter
        return self.address

    @property
    def metrics_port(self) -> int | None:
        """Bound port of the metrics exporter (``None`` when not mounted)."""
        exporter = self._exporter
        return exporter.port if exporter is not None else None

    def drain(self) -> None:
        """Flip ``/healthz`` to draining (sticky; :meth:`close` implies it)."""
        self._health.drain()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed
            sock.settimeout(None)
            if isinstance(sock.getsockname(), tuple):
                with contextlib.suppress(OSError):
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = Connection(self, sock)
            with self._lock:
                self._connections.add(connection)
                self._counters["connections_total"].inc()
                self._counters["connections_active"].inc()
                # Started under the lock: every connection close() finds
                # in the set has a thread it can join.
                connection.thread.start()

    def serve_forever(self) -> None:
        """Block until :meth:`close` (or the process) ends the service."""
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, drop every connection, unmount the exporter."""
        self._health.drain()
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        # The accept thread first, so the connection set is final.
        if self._accept_thread is not None:
            self._accept_thread.join()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):
                connection.sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                connection.sock.close()
        # Each read thread finishes the round it is serving, then
        # settles its connection's gauges on its way out; waiting for
        # them is what makes ``stats()`` settled the moment close()
        # returns.
        for connection in connections:
            connection.thread.join(_CONNECTION_JOIN_S)
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)
        exporter, self._exporter = self._exporter, None
        if exporter is not None:
            exporter.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """A consistent point-in-time snapshot of the service counters.

        Read under the same lock every mutator holds, from the same
        instruments ``/metrics`` renders — the two views are one set of
        numbers and can never disagree.  Values come back as ints.
        """
        with self._lock:
            return {name: int(c.value) for name, c in self._counters.items()}

    # -- frame handlers --------------------------------------------------

    def run_handler(self, handler, connection, session_id, payload) -> None:
        """Run one frame's handler; its failure is that session's ERROR."""
        try:
            handler(connection, session_id, payload)
        except PeerDisconnected:
            pass  # client gone mid-reply; the read loop notices
        except Exception as exc:  # noqa: BLE001 — report, don't die
            connection.send_error(session_id, type(exc).__name__, str(exc))

    def _on_register(self, conn: Connection, session_id: int, payload: bytes) -> None:
        self._register(decode_registration(payload), payload)
        conn.send(REGISTERED, session_id)

    def _on_open(self, conn: Connection, session_id: int, payload: bytes) -> None:
        registration_id, label, rng = decode_open(payload)
        with self._lock:
            entry = self._registry.get(registration_id)
        if entry is None:
            conn.send_error(session_id, UNKNOWN_RELATION, registration_id)
            return
        if session_id in conn.sessions:
            conn.send_error(session_id, "duplicate-session", str(session_id))
            return
        keypair, dj = entry
        cloud = CryptoCloud(keypair, dj, rng=rng, leakage=LeakageLog())
        conn.sessions[session_id] = _Session(cloud, label)
        with self._lock:
            self._counters["sessions_opened"].inc()
            self._counters["sessions_active"].inc()
            if label.startswith("job-"):
                self._counters["job_sessions"].inc()
        conn.send(OPENED, session_id)

    def _on_request(self, conn: Connection, session_id: int, payload: bytes) -> None:
        session = conn.sessions.get(session_id)
        if session is None:
            conn.send_error(session_id, "unknown-session", str(session_id))
            return
        with self._lock:
            self._counters["requests_served"].inc()
            self._counters["requests_in_flight"].inc()
            in_flight = self._counters["requests_in_flight"].value
            if in_flight > self._counters["requests_in_flight_peak"].value:
                self._counters["requests_in_flight_peak"].set(in_flight)
        try:
            reply, elapsed = session._round(payload)
        except Exception:
            # Drop any events the failed round recorded before the
            # error: the client never sees that round's reply, and stale
            # events must not ride the *next* reply at wrong positions.
            # ``run_handler`` answers with the typed ERROR.
            session.cloud.leakage.clear()
            raise
        finally:
            # Settle the gauge before the frame leaves: a client holding
            # its answer must never read this request as still in flight.
            with self._lock:
                self._counters["requests_in_flight"].dec()
        self._request_seconds.observe(elapsed)
        conn.send(REPLY, session_id, reply)

    def _on_close(self, conn: Connection, session_id: int, payload: bytes) -> None:
        if conn.sessions.pop(session_id, None) is not None:
            self._sessions_closed(1)
        conn.send(CLOSED, session_id)

    def _connection_closed(self, connection: Connection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.discard(connection)
                self._counters["connections_active"].dec()

    def _sessions_closed(self, count: int) -> None:
        with self._lock:
            self._counters["sessions_active"].dec(count)

    # -- registration store ----------------------------------------------

    def _register(self, registration: tuple, payload: bytes | None) -> None:
        """Install one decoded registration.

        ``payload`` is the raw REGISTER frame body (``None`` when
        restoring from disk) — persisted verbatim so a restart replays
        exactly what the client uploaded.  An id already held under
        another key is refused: its sessions would decrypt under the
        wrong primes.
        """
        registration_id, p, q, s = registration
        if payload is not None and self.state_dir is not None:
            # An id the spill-name rule refuses is refused before
            # anything is installed: never kept in memory alone.
            self._spill_path(registration_id)
        persist = False
        with self._lock:
            if payload is not None:
                self._counters["registration_uploads"].inc()
                self._counters["registration_bytes"].inc(len(payload))
            held = self._registry.get(registration_id)
            if held is None:
                # Through the process's key objects, only once installed.
                public_key = shared_key(p * q)
                keypair = PaillierKeypair(public_key, PaillierSecretKey(p, q, public_key))
                self._registry[registration_id] = (keypair, shared_scheme(public_key.n, s))
                if payload is None:
                    self._counters["registrations_restored"].inc()
                else:
                    self._counters["registrations"].inc()
                    persist = self.state_dir is not None
            elif (held[1].n, held[1].s) != (p * q, s):
                raise KeyMismatchError(f"{registration_id} is registered to another key")
        if persist:
            self.spill(registration_id, payload)

    # -- state dir -------------------------------------------------------

    def _spill_path(self, registration_id: str) -> str:
        # Registration ids are hex digests — filesystem-safe by
        # construction; reject anything else rather than risk a traversal.
        if not registration_id.isalnum():
            raise TransportError(f"unsafe spill name: {registration_id!r}")
        return os.path.join(self.state_dir, f"{registration_id}.reg")

    def spill(self, registration_id: str, payload: bytes) -> None:
        """Atomically write ``<state_dir>/<registration_id>.reg``.  The
        directory is created owner-only (0700): spills hold the
        provisioned secret key."""
        path = self._spill_path(registration_id)
        os.makedirs(self.state_dir, mode=0o700, exist_ok=True)
        atomic_write(path, payload)

    def restore(self) -> list:
        """The ``.reg`` spills, in name order, that decode as a
        registration (:func:`decode_registration`) for their own file's
        id.  A file that does not (a truncated write, a spill in another
        format) is skipped whole — a bad spill must not kill boot,
        clients register again on first contact."""
        registrations = []
        if self.state_dir is None or not os.path.isdir(self.state_dir):
            return registrations
        for name in sorted(os.listdir(self.state_dir)):
            stem, ext = os.path.splitext(name)
            if ext != ".reg":
                continue
            try:
                with open(os.path.join(self.state_dir, name), "rb") as handle:
                    registration = decode_registration(handle.read())
            except Exception:  # noqa: BLE001 — see docstring
                continue
            if registration[0] == stem:
                registrations.append(registration)
        return registrations


# -- process launcher and CLI ----------------------------------------------


def launch_daemon(
    listen: str = "tcp://127.0.0.1:0", quiet: bool = False, timeout: float = 30.0
):
    """Start ``python -m repro.server.s2_service`` as a separate OS
    process; returns (process, address).

    The real deployment shape for examples, benchmarks, and smoke
    scripts: the daemon is spawned with this package on its path, the
    bound address is read from its one announce line on stdout (echoed
    unless ``quiet``) as soon as it is written, and the caller owns the
    returned :class:`subprocess.Popen` (terminate it when done).
    """
    src_root = str(pathlib.Path(__file__).resolve().parent.parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server.s2_service", "--listen", listen],
        env=env,
        stdout=subprocess.PIPE,
    )
    try:
        line = b""
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(process.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError("the S2 daemon did not become ready in time")
                if selector.select(remaining):
                    chunk = os.read(process.stdout.fileno(), 4096)
                    if not chunk:
                        raise RuntimeError("the S2 daemon exited before becoming ready")
                    line += chunk
    except BaseException:
        process.terminate()
        raise
    finally:
        # The announce is the daemon's only stdout line.
        process.stdout.close()
    announce = line.decode("utf-8")
    if not quiet:
        print(announce, end="", flush=True)
    return process, announce.split(_ANNOUNCE, 1)[1].strip()


#: What the daemon prints, followed by its bound address, once listening.
_ANNOUNCE = "repro-s2: listening on "


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.server.s2_service`` — parse,
    start, announce, serve until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro.server.s2_service", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--listen",
        default="tcp://127.0.0.1:0",
        help="tcp://host:port (port 0 = ephemeral) or unix:///path",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=("pure", "gmp-kernel", "auto"),
        help="big-int backend (default: REPRO_BACKEND)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="spill registrations here and reload them on restart (the "
        "spills hold secret key material — protect accordingly)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve Prometheus text at http://127.0.0.1:PORT/metrics "
        "plus /healthz (0 = ephemeral port; default: no exporter)",
    )
    args = parser.parse_args(argv)

    if args.backend:
        backend.set_backend(args.backend)
    service = S2Service(
        args.listen, state_dir=args.state_dir, metrics_port=args.metrics_port
    )
    address = service.start()
    print(f"{_ANNOUNCE}{address}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()


if __name__ == "__main__":
    main()
