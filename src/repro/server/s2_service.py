"""The standalone S2 crypto-cloud daemon.

Runs the S2 half of the two-cloud protocol as its own process (or
host)::

    PYTHONPATH=src python -m repro.server.s2_service \\
        --listen tcp://127.0.0.1:9317 [--backend auto] \\
        [--state-dir /var/lib/repro-s2]

The daemon owns nothing at start — no keys, no relations.  A client
(the S1 side: :class:`~repro.server.topk_server.TopKServer` or any
``repro.connect(scheme, relation, "tcp://...")`` client) provisions it
through the frame protocol of :mod:`repro.net.socket_transport`, served
by the shared daemon core (:mod:`repro.server.frame_service`):

1. **HELLO** — version banner check, once per connection.
2. **REGISTER** — the data owner's provisioning step (Section 3.1):
   key material (Paillier keypair, DJ instance) stored under a
   *registration id* the client derives from the key itself.
   Idempotent, and shared daemon-wide: any later connection — another
   session, another worker process, another machine — opens sessions
   by id alone, so queries against any relation, version or window
   under a registered key never re-upload the blob.
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

A dropped client connection tears down all of its sessions; a dispatch
or handler failure is reported as an ERROR frame on the session it
belongs to (typed :class:`~repro.exceptions.RemoteS2Error` on the
client) and leaves the connection usable.

``--state-dir`` makes registrations *persistent*: each REGISTER payload
is spilled (atomically) to ``<state_dir>/<registration id>.reg`` and
reloaded on restart, so a bounced daemon keeps serving its registered
keys without any client re-upload.  The spill holds the secret
key material the client provisioned — protect the directory like the
key itself.
"""

from __future__ import annotations

import contextlib
import functools
import pickle
import queue
import threading
import time

from repro.exceptions import TransportError
from repro.net.dispatch import S2Dispatcher
from repro.net.socket_transport import (
    CLOSE,
    CLOSED,
    ERROR,
    OPEN,
    OPENED,
    PROTOCOL_BANNER,
    PROTOCOL_BANNER_V2,
    REGISTER,
    REGISTERED,
    REPLY,
    REQUEST,
    UNKNOWN_RELATION,
    encode_error,
)
from repro.net.wire import WireCodec, shared_key, shared_scheme
from repro.protocols.base import CryptoCloud, LeakageLog
from repro.server import frame_service
from repro.server.frame_service import Connection, FrameService

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
        connection: Connection,
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
        service = self.connection.service
        while True:
            data = self.requests.get()
            if data is None:
                return
            if self._abort:
                # Teardown path: the client is gone, so dispatching the
                # round and writing its reply to a dead socket would be
                # pure waste — but the in-flight gauge still has to come
                # back down for every request this session accepted.
                service._request_done()
                continue
            try:
                ftype, payload = REPLY, self._round(data)
            except Exception as exc:  # noqa: BLE001 — report, don't die
                # Drop any events the failed round recorded before the
                # error: the client never sees that round's reply, and
                # stale events must not ride the *next* reply at wrong
                # positions.
                self.cloud.leakage.clear()
                ftype, payload = ERROR, encode_error(type(exc).__name__, str(exc))
            # Settle the gauge before the frame leaves: a client holding
            # its answer must never read this request as still in flight.
            service._request_done()
            with contextlib.suppress(TransportError):
                self.connection.send(ftype, self.session_id, payload)

    def _round(self, data: bytes) -> bytes:
        """Dispatch one coalesced round; returns the REPLY payload."""
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
        out = bytearray()
        if self.connection.banner == PROTOCOL_BANNER:
            # /3 REPLY piggybacks the round's decrypt progress:
            # (batches, values, microseconds) int triples — the wire
            # codec carries no floats, and integers keep old/new
            # transcripts byte-comparable per version.
            values = sum(
                len(r) if isinstance(r, (list, tuple)) else 1 for r in replies
            )
            progress = ((len(messages), values, int(elapsed * 1e6)),)
            self.codec.encode_value((replies, events, progress), out)
        else:
            self.codec.encode_value((replies, events), out)
        self.connection.service._request_seconds.observe(elapsed)
        return bytes(out)

    def stop(self, abort: bool = False) -> None:
        """Retire the service thread: finish queued rounds (graceful
        CLOSE), or with ``abort`` drain them unserved (dead connection)
        — either way every accepted request's in-flight accounting is
        settled before the thread joins."""
        self._abort = abort or self._abort
        self.requests.put(None)
        self.thread.join()


def _valid_registration(stem: str, blob) -> bool:
    # A valid spill is a registration dict for this file's id (wire
    # field ``relation_id``) with complete key material.
    return (
        isinstance(blob, dict)
        and blob.get("relation_id") == stem
        and "keypair" in blob
        and "dj" in blob
    )


class S2Service(FrameService):
    """The S2 daemon: registration store and live protocol sessions on
    the shared :class:`~repro.server.frame_service.FrameService` core.

    Parameters
    ----------
    listen:
        ``tcp://host:port`` (port 0 picks a free one) or
        ``unix:///path`` (a stale socket file is replaced).
    state_dir:
        When set, every registration is spilled to
        ``<state_dir>/<registration id>.reg`` (the raw REGISTER payload,
        written atomically, once per key) and reloaded on :meth:`start`
        — a restarted daemon serves its registered keys without any
        client re-upload.  The files hold secret key material: protect the
        directory like the key itself.
    metrics_port:
        When set, serve ``/metrics`` and ``/healthz`` there (see
        :class:`~repro.server.frame_service.FrameService`).
    """

    name = "s2"

    def __init__(
        self,
        listen: str = "tcp://127.0.0.1:0",
        state_dir: str | None = None,
        metrics_port: int | None = None,
    ):
        super().__init__(listen, SUPPORTED_BANNERS, state_dir, metrics_port)
        self._registry: dict[str, tuple] = {}
        self.handlers = {
            REGISTER: self._on_register,
            OPEN: self._on_open,
            REQUEST: self._on_request,
            CLOSE: self._on_close,
        }
        self._counter("registrations", "Keys registered (uploads).")
        self._counter(
            "registrations_restored", "Keys reloaded from the state dir at boot."
        )
        self._counter(
            "registration_uploads",
            "REGISTER frames received (including idempotent repeats).",
        )
        self._counter("registration_bytes", "Bytes of REGISTER payload received.")
        self._counter("sessions_opened", "Protocol sessions opened.")
        self._gauge("sessions_active", "Protocol sessions currently live.")
        self._counter(
            "job_sessions", "Sessions opened by server jobs (label ``job-*``)."
        )
        self._counter("requests_served", "REQUEST frames accepted.", metric="requests")
        self._gauge("requests_in_flight", "Requests accepted and not yet answered.")
        self._gauge(
            "requests_in_flight_peak",
            "High-water mark of concurrent in-flight requests.",
        )
        self._request_seconds = self.registry.histogram(
            "repro_s2_request_seconds",
            "Per-round dispatch wall-clock inside session service threads.",
        )

    def start(self) -> str:
        """Bind, listen, and start accepting; returns the bound address.

        With a ``state_dir``, previously spilled registrations are
        reloaded first, so clients of the restarted daemon open
        sessions by registration id without re-uploading key material.
        """
        for blob in self.restore(".reg", _valid_registration):
            self._register(blob, None)
        return super().start()

    # -- frame handlers --------------------------------------------------

    def _on_register(self, conn: Connection, session_id: int, payload: bytes) -> None:
        self._register(pickle.loads(payload), payload)
        conn.send(REGISTERED, session_id)

    def _on_open(self, conn: Connection, session_id: int, payload: bytes) -> None:
        registration_id, _, rest = payload.partition(b"\x00")
        label_bytes, _, blob = rest.partition(b"\x00")
        label = label_bytes.decode("utf-8", "replace")
        with self._lock:
            entry = self._registry.get(registration_id.decode("utf-8"))
        if entry is None:
            conn.send_error(session_id, UNKNOWN_RELATION, registration_id.decode())
            return
        if session_id in conn.sessions:
            conn.send_error(session_id, "duplicate-session", str(session_id))
            return
        keypair, dj = entry
        cloud = CryptoCloud(keypair, dj, rng=pickle.loads(blob), leakage=LeakageLog())
        conn.sessions[session_id] = _Session(conn, session_id, cloud, label)
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
        session.requests.put(payload)

    def _on_close(self, conn: Connection, session_id: int, payload: bytes) -> None:
        session = conn.sessions.pop(session_id, None)
        if session is not None:
            session.stop()
            self._session_closed()
        conn.send(CLOSED, session_id)

    def _connection_lost(self, conn: Connection) -> None:
        for session in conn.sessions.values():
            session.stop(abort=True)
            self._session_closed()
        conn.sessions.clear()

    def _session_closed(self) -> None:
        with self._lock:
            self._counters["sessions_active"].dec()

    def _request_done(self) -> None:
        with self._lock:
            self._counters["requests_in_flight"].dec()

    # -- registration store ----------------------------------------------

    def _register(self, blob: dict, payload: bytes | None) -> None:
        """Install one registration.

        ``payload`` is the raw REGISTER frame body (``None`` when
        restoring from disk) — persisted verbatim so a restart replays
        exactly what the client uploaded.
        """
        registration_id = blob["relation_id"]  # the wire field's name
        persist = False
        with self._lock:
            if payload is not None:
                self._counters["registration_uploads"].inc()
                self._counters["registration_bytes"].inc(len(payload))
            if registration_id not in self._registry:
                keypair, dj = blob["keypair"], blob["dj"]
                self._registry[registration_id] = (keypair, dj)
                # What sessions decode under these moduli is then these
                # very objects: key guards pass on identity.
                shared_key(keypair.public_key.n, keypair.public_key)
                shared_scheme(dj.n, dj.s, dj)
                if payload is None:
                    self._counters["registrations_restored"].inc()
                else:
                    self._counters["registrations"].inc()
                    persist = self.state_dir is not None
        if persist:
            self.spill(f"{registration_id}.reg", payload)


#: Start this daemon as a separate OS process; returns (process, address)
#: — :func:`repro.server.frame_service.launch_daemon` bound to this module.
launch_daemon = functools.partial(
    frame_service.launch_daemon, "repro.server.s2_service"
)


def main(argv: list[str] | None = None) -> None:
    """CLI entry point: ``python -m repro.server.s2_service``."""
    frame_service.daemon_main(S2Service, argv)


if __name__ == "__main__":
    main()
