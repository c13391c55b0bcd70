"""The standalone S2 crypto-cloud daemon.

Runs the S2 half of the two-cloud protocol as its own process (or
host)::

    PYTHONPATH=src python -m repro.server.s2_service \\
        --listen tcp://127.0.0.1:9317 [--s2-workers 4] [--s2-mode auto] \\
        [--backend auto] [--state-dir /var/lib/repro-s2]

The daemon owns nothing at start — no keys, no relations.  A client
(the S1 side: :class:`~repro.server.topk_server.TopKServer` or any
``scheme.make_clouds(transport="tcp://...")``) provisions it through
the frame protocol of :mod:`repro.net.socket_transport`:

1. **HELLO** — version banner check, once per connection.
2. **REGISTER** — the data owner's provisioning step (Section 3.1):
   key material (Paillier keypair, DJ instance) stored under a
   *relation id*.  Idempotent, and shared daemon-wide: any later
   connection — another session, another worker process, another
   machine — opens sessions by id alone, so repeated queries against
   a registered relation never re-upload the blob.
3. **OPEN** — one protocol session: its own
   :class:`~repro.protocols.base.CryptoCloud` (seeded with the rng
   stream the client ships, so transcripts match in-process runs),
   :class:`~repro.net.dispatch.S2Dispatcher`, wire codec, leakage log,
   and service thread.  Sessions are multiplexed over the connection by
   the session id tagged on every frame; each runs on its own thread,
   so a large batch in one session never blocks another's round.
4. **REQUEST/REPLY** — one coalesced protocol round per frame, exactly
   the batches :class:`~repro.net.transport.ThreadedTransport` carries
   in-process.  S2-side leakage events ride back inside the REPLY.

``--s2-workers N`` attaches one shared
:class:`~repro.crypto.parallel.ComputePool` that chunks every session's
large decrypt batches across workers — the daemon-side analog of
``TopKServer(s2_workers=...)``.  ``--s2-mode`` picks the pool flavour
(GIL-free kernel threads / worker processes / auto).  The pool starts at
the *first registration* (the earliest moment key material exists),
outside the service lock; ``make_pool_executor`` documents why fork
stays the right start method even with service threads live.

A dropped client connection tears down all of its sessions; a dispatch
failure is reported as an ERROR frame (typed
:class:`~repro.exceptions.RemoteS2Error` on the client) and leaves the
connection usable.

``--state-dir`` makes registrations *persistent*: each REGISTER payload
is spilled (atomically) to ``<state_dir>/<relation_id>.reg`` and
reloaded on restart, so a bounced daemon keeps serving its registered
relation ids without any client re-upload.  The spill holds the secret
key material the client provisioned — protect the directory like the
key itself.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pickle
import queue
import socket
import threading
import time

from repro.crypto import backend
from repro.crypto.parallel import ComputePool
from repro.exceptions import PeerDisconnected, TransportError
from repro.net.dispatch import S2Dispatcher
from repro.net.socket_transport import (
    CLOSE,
    CLOSED,
    ERROR,
    HELLO,
    HELLO_OK,
    MUTATE,
    MUTATED,
    OPEN,
    OPENED,
    PROTOCOL_BANNER,
    PROTOCOL_BANNER_V2,
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
from repro.net.wire import WireCodec
from repro.obs.exporter import HealthState, MetricsExporter
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.protocols.base import CryptoCloud, LeakageLog

#: Banners this daemon speaks, newest first.  Tests shrink this to
#: emulate an old /2-only daemon against a new client.
SUPPORTED_BANNERS = (PROTOCOL_BANNER, PROTOCOL_BANNER_V2)


class _Session:
    """One protocol session: crypto cloud + codec + service thread.

    ``label`` is the client-supplied session label from the OPEN frame
    (a job id like ``job-17``, a server session tag, ...): it names the
    service thread and feeds the daemon's per-job observability.
    """

    def __init__(
        self,
        connection: "_Connection",
        session_id: int,
        cloud: CryptoCloud,
        label: str = "",
    ):
        self.connection = connection
        self.session_id = session_id
        self.cloud = cloud
        self.label = label
        self.dispatcher = S2Dispatcher(cloud)
        self.codec = WireCodec()
        self.requests: queue.SimpleQueue = queue.SimpleQueue()
        self._abort = False
        suffix = f":{label}" if label else ""
        self.thread = threading.Thread(
            target=self._serve, name=f"s2-session-{session_id}{suffix}", daemon=True
        )
        self.thread.start()

    def _serve(self) -> None:
        while True:
            data = self.requests.get()
            if data is None:
                return
            if self._abort:
                # Teardown path: the client is gone, so dispatching the
                # round and writing its reply to a dead socket would be
                # pure waste — but the in-flight gauge still has to come
                # back down for every request this session accepted.
                self.connection.service._request_done()
                continue
            try:
                started = time.perf_counter()
                messages = self.codec.decode_envelope(data)
                replies = [self.dispatcher.dispatch(msg) for msg in messages]
                elapsed = time.perf_counter() - started
                # The session log holds exactly this round's S2
                # observations (drained every round); they ride back in
                # the reply so the client's log interleaves S1 and S2
                # events at the in-process positions.
                events = [
                    (e.observer, e.protocol, e.kind, e.payload)
                    for e in self.cloud.leakage.events
                ]
                self.cloud.leakage.clear()
                out = bytearray()
                if self.connection.protocol_version >= 3:
                    # /3 REPLY piggybacks the round's decrypt progress:
                    # (batches, values, microseconds) int triples — the
                    # wire codec carries no floats, and integers keep
                    # old/new transcripts byte-comparable per version.
                    values = sum(
                        len(r) if isinstance(r, (list, tuple)) else 1
                        for r in replies
                    )
                    progress = ((len(messages), values, int(elapsed * 1e6)),)
                    self.codec.encode_value((replies, events, progress), out)
                else:
                    self.codec.encode_value((replies, events), out)
                self.connection.send(REPLY, self.session_id, bytes(out))
                self.connection.service._observe_request(elapsed)
            except Exception as exc:  # noqa: BLE001 — report, don't die
                # Drop any events the failed round recorded before the
                # error: the client never sees that round's reply, and
                # stale events must not ride the *next* reply at wrong
                # positions.
                self.cloud.leakage.clear()
                self.connection.send_error(
                    self.session_id, type(exc).__name__, str(exc)
                )
            finally:
                self.connection.service._request_done()

    def stop(self, abort: bool = False) -> None:
        """Retire the service thread: finish queued rounds (graceful
        CLOSE), or with ``abort`` drain them unserved (dead connection)
        — either way every accepted request's in-flight accounting is
        settled before the thread joins."""
        self._abort = abort or self._abort
        self.requests.put(None)
        self.thread.join()


class _Connection:
    """One accepted client connection and its session table."""

    def __init__(self, service: "S2Service", sock: socket.socket):
        self.service = service
        self.sock = sock
        self._write_lock = threading.Lock()
        self._sessions: dict[int, _Session] = {}
        #: Major protocol version this connection's HELLO negotiated
        #: (3, or 2 for old clients — their REPLYs carry no progress).
        self.protocol_version = 2

    # -- frame output ----------------------------------------------------

    def send(self, ftype: int, session_id: int, payload: bytes = b"") -> None:
        with self._write_lock:
            send_frame(self.sock, ftype, session_id, payload)

    def send_error(self, session_id: int, kind: str, text: str) -> None:
        with contextlib.suppress(TransportError):
            self.send(ERROR, session_id, encode_error(kind, text))

    # -- frame input -----------------------------------------------------

    def run(self) -> None:
        try:
            # A peer that connects but never greets should not pin a
            # thread forever; after the banner the link blocks freely.
            self.sock.settimeout(30.0)
            ftype, _, payload = recv_frame(self.sock)
            if ftype != HELLO or payload not in SUPPORTED_BANNERS:
                # Name every banner we speak so a newer client can pick
                # one and redial.
                self.send_error(
                    0,
                    VERSION_MISMATCH,
                    " ".join(b.decode() for b in SUPPORTED_BANNERS),
                )
                return
            self.protocol_version = 3 if payload == PROTOCOL_BANNER else 2
            self.send(HELLO_OK, 0, payload)
            self.sock.settimeout(None)
            while True:
                ftype, session_id, payload = recv_frame(self.sock)
                self._handle(ftype, session_id, payload)
        except PeerDisconnected:
            pass  # normal client departure
        except Exception as exc:  # noqa: BLE001 — last-resort report
            self.send_error(0, type(exc).__name__, str(exc))
        finally:
            self._teardown()

    def _handle(self, ftype: int, session_id: int, payload: bytes) -> None:
        if ftype == REGISTER:
            self.service._register(pickle.loads(payload), payload)
            self.send(REGISTERED, session_id)
        elif ftype == OPEN:
            relation_id, _, rest = payload.partition(b"\x00")
            label_bytes, _, blob = rest.partition(b"\x00")
            label = label_bytes.decode("utf-8", "replace")
            entry = self.service._registration(relation_id.decode("utf-8"))
            if entry is None:
                self.send_error(session_id, UNKNOWN_RELATION, relation_id.decode())
                return
            if session_id in self._sessions:
                self.send_error(session_id, "duplicate-session", str(session_id))
                return
            keypair, dj = entry
            cloud = CryptoCloud(
                keypair,
                dj,
                rng=pickle.loads(blob),
                leakage=LeakageLog(),
                compute=self.service.compute,
            )
            self._sessions[session_id] = _Session(self, session_id, cloud, label)
            self.service._session_opened(label)
            self.send(OPENED, session_id)
        elif ftype == REQUEST:
            session = self._sessions.get(session_id)
            if session is None:
                self.send_error(session_id, "unknown-session", str(session_id))
                return
            self.service._request_received()
            session.requests.put(payload)
        elif ftype == CLOSE:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                session.stop()
                self.service._session_closed()
            self.send(CLOSED, session_id)
        elif ftype == MUTATE:
            old_id, _, new_id = payload.partition(b"\x00")
            self.service._mutate_registration(
                old_id.decode("utf-8"), new_id.decode("utf-8")
            )
            # Idempotent by design: MUTATED even for an unknown old id —
            # the client's fallback (lazy re-register on the next OPEN)
            # makes the distinction irrelevant, and retries stay safe.
            self.send(MUTATED, session_id)
        else:
            self.send_error(session_id, "unknown-frame", str(ftype))

    def _teardown(self) -> None:
        for session in self._sessions.values():
            session.stop(abort=True)
            self.service._session_closed()
        self._sessions.clear()
        with contextlib.suppress(OSError):
            self.sock.close()
        self.service._connection_closed(self)


class S2Service:
    """The S2 daemon: listener, registry, and live session bookkeeping.

    Parameters
    ----------
    listen:
        ``tcp://host:port`` (port 0 picks a free one) or
        ``unix:///path`` (a stale socket file is replaced).
    s2_workers:
        When positive, one shared :class:`ComputePool` of that many
        workers chunks every session's large decrypt batches.
    s2_mode:
        Pool flavour — ``"thread"`` / ``"process"`` / ``"auto"`` (see
        :class:`~repro.crypto.parallel.ComputePool`).
    state_dir:
        When set, every relation registration is spilled to
        ``<state_dir>/<relation_id>.reg`` (the raw REGISTER payload,
        written atomically) and reloaded on :meth:`start` — a restarted
        daemon serves its registered relation ids without any client
        re-upload.  The files hold secret key material: protect the
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
        s2_workers: int = 0,
        s2_mode: str = "auto",
        state_dir: str | None = None,
        metrics_port: int | None = None,
    ):
        self.listen_spec = listen
        self.s2_workers = s2_workers
        self.s2_mode = s2_mode
        self.state_dir = state_dir
        self.address: str | None = None
        self.compute: ComputePool | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._unix_path: str | None = None
        self._lock = threading.Lock()
        self._pool_started = False
        self._connections: set[_Connection] = set()
        self._registry: dict[str, tuple] = {}
        # Per-instance metrics registry: the service counters *are*
        # these instruments (``stats()`` reads them back), so the dict
        # snapshot and a ``/metrics`` scrape can never disagree — one
        # source, two renderings.  A private registry keeps concurrent
        # services (tests run several) from folding into each other.
        self.registry = MetricsRegistry()
        reg = self.registry
        self._counters = {
            "registrations": reg.counter(
                "repro_s2_registrations_total", "Relations registered (uploads)."
            ),
            "registrations_restored": reg.counter(
                "repro_s2_registrations_restored_total",
                "Relations reloaded from the state dir at boot.",
            ),
            "registration_mutations": reg.counter(
                "repro_s2_registration_mutations_total",
                "Registrations re-keyed by MUTATE frames.",
            ),
            "registration_uploads": reg.counter(
                "repro_s2_registration_uploads_total",
                "REGISTER frames received (including idempotent repeats).",
            ),
            "registration_bytes": reg.counter(
                "repro_s2_registration_bytes_total",
                "Bytes of REGISTER payload received.",
            ),
            "connections_total": reg.counter(
                "repro_s2_connections_total", "Client connections accepted."
            ),
            "connections_active": reg.gauge(
                "repro_s2_connections_active", "Client connections currently open."
            ),
            "sessions_opened": reg.counter(
                "repro_s2_sessions_opened_total", "Protocol sessions opened."
            ),
            "sessions_active": reg.gauge(
                "repro_s2_sessions_active", "Protocol sessions currently live."
            ),
            "job_sessions": reg.counter(
                "repro_s2_job_sessions_total",
                "Sessions opened by server jobs (label ``job-*``).",
            ),
            "requests_served": reg.counter(
                "repro_s2_requests_total", "REQUEST frames accepted."
            ),
            "requests_in_flight": reg.gauge(
                "repro_s2_requests_in_flight",
                "Requests accepted and not yet answered.",
            ),
            "requests_in_flight_peak": reg.gauge(
                "repro_s2_requests_in_flight_peak",
                "High-water mark of concurrent in-flight requests.",
            ),
        }
        self._request_seconds = reg.histogram(
            "repro_s2_request_seconds",
            "Per-round dispatch wall-clock inside session service threads.",
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
        sessions by relation id without re-uploading key material.
        """
        if self.state_dir is not None:
            self._restore_registry()
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
            connection = _Connection(self, sock)
            with self._lock:
                self._connections.add(connection)
                self._counters["connections_total"].inc()
                self._counters["connections_active"].inc()
            threading.Thread(
                target=connection.run, name="s2-connection", daemon=True
            ).start()

    def serve_forever(self) -> None:
        """Block until :meth:`close` (or the process) ends the service."""
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, drop every connection, release the pool."""
        self._health.drain()
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            with contextlib.suppress(OSError):
                connection.sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                connection.sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join()
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)
        if self.compute is not None:
            # Connections were torn down above, so the drain is usually
            # instant; wait=True covers a handler that slipped a batch in
            # just before the shutdown flag landed.
            self.compute.close(wait=True)
            self.compute = None
        exporter, self._exporter = self._exporter, None
        if exporter is not None:
            exporter.close()

    def __enter__(self) -> "S2Service":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- registry and bookkeeping (called by connections) ---------------

    def _register(self, blob: dict, payload: bytes | None) -> None:
        """Install one registration.

        ``payload`` is the raw REGISTER frame body (``None`` when
        restoring from disk) — persisted verbatim so a restart replays
        exactly what the client uploaded.
        """
        relation_id = blob["relation_id"]
        build_pool = False
        persist = False
        with self._lock:
            if payload is not None:
                self._counters["registration_uploads"].inc()
                self._counters["registration_bytes"].inc(len(payload))
            if relation_id not in self._registry:
                self._registry[relation_id] = (blob["keypair"], blob["dj"])
                if payload is None:
                    self._counters["registrations_restored"].inc()
                else:
                    self._counters["registrations"].inc()
                    persist = self.state_dir is not None
                # The pool workers hold key material, so the first
                # registration is the earliest the pool can fork.  The
                # multi-second fork+warmup happens *outside* the lock —
                # other connections keep registering and opening sessions
                # meanwhile (their clouds just run pool-less until the
                # pool lands, which is transcript-invisible).
                if self.s2_workers > 0 and not self._pool_started:
                    self._pool_started = True
                    build_pool = True
        if persist:
            self._persist_registration(relation_id, payload)
        if build_pool:
            pool = ComputePool(
                blob["keypair"], blob["dj"], workers=self.s2_workers, mode=self.s2_mode
            )
            with self._lock:
                closed = self._closed.is_set()
                if not closed:
                    self.compute = pool
            if closed:
                pool.close()

    def _mutate_registration(self, old_id: str, new_id: str) -> None:
        """Re-key one registration after a client-side relation mutation.

        The key material is identical across versions of one relation
        (mutations only re-randomize ciphertexts), so the entry moves —
        it is never re-uploaded.  With a ``state_dir`` the spill moves
        too: the payload is re-pickled under the new relation id (the
        restore path validates the id against the file name) and the old
        spill is removed.  Unknown old ids and an identity move are
        no-ops; persistence failures are swallowed (the spill is an
        optimization — the client re-registers on demand either way).
        """
        if not new_id or old_id == new_id:
            return
        with self._lock:
            entry = self._registry.pop(old_id, None)
            if entry is None:
                return
            # Never clobber an existing registration for the new id (a
            # racing client may have re-registered it directly).
            self._registry.setdefault(new_id, entry)
            self._counters["registration_mutations"].inc()
        if self.state_dir is None:
            return
        try:
            keypair, dj = entry
            payload = pickle.dumps(
                {"relation_id": new_id, "keypair": keypair, "dj": dj},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self._persist_registration(new_id, payload)
            old_path = self._registration_path(old_id)
            with contextlib.suppress(OSError):
                os.remove(old_path)
        except Exception:  # noqa: BLE001 — spill moves are best-effort
            pass

    def _registration_path(self, relation_id: str) -> str:
        # Relation ids are hex digests (filesystem-safe by construction);
        # reject anything else rather than risk a traversal.
        if not relation_id or not all(c.isalnum() for c in relation_id):
            raise TransportError(f"unsafe relation id: {relation_id!r}")
        return os.path.join(self.state_dir, f"{relation_id}.reg")

    def _persist_registration(self, relation_id: str, payload: bytes) -> None:
        """Atomically spill one registration payload to the state dir.

        The payload holds the provisioned secret key, so the directory
        is created owner-only (0700) and the spill owner-read/write
        (0600) regardless of the process umask.
        """
        os.makedirs(self.state_dir, mode=0o700, exist_ok=True)
        path = self._registration_path(relation_id)
        tmp = f"{path}.tmp.{os.getpid()}"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)

    def _restore_registry(self) -> None:
        """Reload spilled registrations (corrupt files are skipped, not
        fatal — the client re-registers on demand)."""
        if not os.path.isdir(self.state_dir):
            return
        for name in sorted(os.listdir(self.state_dir)):
            if not name.endswith(".reg"):
                continue
            path = os.path.join(self.state_dir, name)
            try:
                with open(path, "rb") as handle:
                    payload = handle.read()
                blob = pickle.loads(payload)
                # A valid spill is a registration dict for this file's
                # relation id with complete key material; anything else
                # (truncated write, foreign pickle) is skipped whole.
                if (
                    isinstance(blob, dict)
                    and blob.get("relation_id") == name[: -len(".reg")]
                    and "keypair" in blob
                    and "dj" in blob
                ):
                    self._register(blob, None)
            except Exception:  # noqa: BLE001 — a bad spill must not kill boot
                continue

    def _registration(self, relation_id: str) -> tuple | None:
        with self._lock:
            return self._registry.get(relation_id)

    def _session_opened(self, label: str = "") -> None:
        with self._lock:
            self._counters["sessions_opened"].inc()
            self._counters["sessions_active"].inc()
            if label.startswith("job-"):
                self._counters["job_sessions"].inc()

    def _session_closed(self) -> None:
        with self._lock:
            self._counters["sessions_active"].dec()

    def _request_received(self) -> None:
        with self._lock:
            self._counters["requests_served"].inc()
            self._counters["requests_in_flight"].inc()
            in_flight = self._counters["requests_in_flight"].value
            # Peak concurrency is how rendezvous coalescing shows up on
            # the daemon side: a coalesced group of N jobs lands N
            # REQUEST frames near-simultaneously.
            if in_flight > self._counters["requests_in_flight_peak"].value:
                self._counters["requests_in_flight_peak"].set(in_flight)

    def _request_done(self) -> None:
        with self._lock:
            self._counters["requests_in_flight"].dec()

    def _observe_request(self, seconds: float) -> None:
        self._request_seconds.observe(seconds)

    def _connection_closed(self, connection: _Connection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.discard(connection)
                self._counters["connections_active"].dec()

    def stats(self) -> dict:
        """A consistent point-in-time snapshot of the service counters.

        Read under the same lock every mutator holds, from the same
        instruments ``/metrics`` renders — the two views are one set of
        numbers and can never disagree.  Values come back as ints.
        """
        with self._lock:
            return {name: int(c.value) for name, c in self._counters.items()}


def launch_daemon(
    listen: str = "tcp://127.0.0.1:0",
    extra_args: tuple[str, ...] = (),
    quiet: bool = False,
    timeout: float = 30.0,
):
    """Start the daemon as a separate OS process; returns (process, address).

    The real deployment shape for examples, benchmarks, and smoke
    scripts: ``python -m repro.server.s2_service`` is spawned with this
    package on its path, the bound address is read from a ready file,
    and the caller owns the returned :class:`subprocess.Popen`
    (terminate it when done).
    """
    import pathlib
    import subprocess
    import sys
    import tempfile
    import time

    src_root = str(pathlib.Path(__file__).resolve().parent.parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.NamedTemporaryFile(suffix=".addr", delete=False) as handle:
        ready_file = handle.name
    os.unlink(ready_file)
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.s2_service",
            "--listen",
            listen,
            "--ready-file",
            ready_file,
            *extra_args,
        ],
        env=env,
        stdout=subprocess.DEVNULL if quiet else None,
    )
    try:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(ready_file):
                address = pathlib.Path(ready_file).read_text().strip()
                # The daemon creates the file before it writes it: an
                # empty read is "not ready yet", not an address.
                if address:
                    os.unlink(ready_file)
                    return process, address
            if process.poll() is not None:
                raise RuntimeError("S2 daemon exited before becoming ready")
            time.sleep(0.05)
        raise RuntimeError("S2 daemon did not become ready in time")
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(ready_file)
        process.terminate()
        raise


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.server.s2_service``."""
    parser = argparse.ArgumentParser(
        prog="repro.server.s2_service", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--listen",
        default="tcp://127.0.0.1:0",
        help="tcp://host:port (port 0 = ephemeral) or unix:///path",
    )
    parser.add_argument(
        "--s2-workers",
        type=int,
        default=0,
        help="compute-pool workers for large decrypt batches",
    )
    parser.add_argument(
        "--s2-mode",
        default="auto",
        choices=("auto", "thread", "process"),
        help="compute-pool flavour: GIL-free kernel threads, worker "
        "processes, or auto-select (default)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="big-int backend (pure / gmpy2 / gmp-kernel / auto; "
        "default: REPRO_BACKEND)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="spill relation registrations here and reload them on "
        "restart (holds secret key material — protect accordingly)",
    )
    parser.add_argument(
        "--ready-file",
        default=None,
        help="write the bound address here once listening (CI/scripts)",
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
        args.listen,
        s2_workers=args.s2_workers,
        s2_mode=args.s2_mode,
        state_dir=args.state_dir,
        metrics_port=args.metrics_port,
    )
    address = service.start()
    print(f"repro-s2: listening on {address}", flush=True)
    if args.ready_file:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(address)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()


if __name__ == "__main__":
    main()
