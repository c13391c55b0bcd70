"""The standalone S2 daemon: handshake, registration, multiplexing,
failure modes.

Each test spins up an in-process :class:`S2Service` on an ephemeral
TCP port (or a temp Unix socket) — the same code path the
``python -m repro.server.s2_service`` daemon runs — and talks to it
through the real client stack.  Query parity against a daemon in a
separate OS process (``REPRO_REMOTE_S2``) is a transport the
differential harness draws.

The daemon's connection handling (handshake, error scoping, close,
``/healthz``, state dir, launcher) is pinned in
:class:`TestDaemonLifecycle`, the client's connections and their pool
in :class:`TestClientLink`, what the daemon process imports in
:class:`TestImportBoundary`.
"""

from __future__ import annotations

import builtins
import collections
import importlib.util
import json
import os
import pathlib
import pickle
import socket as socket_module
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.damgard_jurik import LayeredCiphertext
from repro.crypto.paillier import Ciphertext, PaillierKeypair, PaillierPublicKey, PaillierSecretKey
from repro.crypto.rng import SecureRandom
from repro.crypto.vector import CtVector
from repro.exceptions import PeerDisconnected, RemoteS2Error, TransportError
from repro.net import messages, socket_transport, wire
from repro.net.socket_transport import (
    client_for,
    connect_socket,
    decode_error,
    default_registration_id,
    disconnect_all,
    encode_open,
    encode_registration,
    parse_address,
    recv_frame,
    release,
    send_frame,
)
from repro.net.wire import WireCodec, _Reader
from repro.protocols.base import LeakageLog
from repro.server import S2Service, TopKServer
from repro.server import s2_service
from repro.structures.items import ItemBatch

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")


@pytest.fixture()
def daemon():
    service = S2Service("tcp://127.0.0.1:0")
    address = service.start()
    yield service, address
    disconnect_all()
    service.close()


def _fresh_deployment(seed: int = 55):
    rng = SecureRandom(123)
    rows = [[rng.randint_below(40) for _ in range(3)] for _ in range(10)]
    scheme = SecTopK(SystemParams.tiny(), seed=seed)
    return scheme, scheme.encrypt(rows), rows


def _requests(scheme):
    return [
        (scheme.token([0, 1], k=2), QueryConfig(variant="elim")),
        (scheme.token([1, 2], k=2), QueryConfig(variant="elim")),
        (scheme.token([0, 1, 2], k=3), QueryConfig(variant="elim")),
    ]


class TestRegistration:
    def test_second_query_skips_relation_upload(self, daemon):
        """Acceptance: repeated queries against a registered relation
        perform no re-upload — the daemon sees exactly one registration
        payload no matter how many sessions follow."""
        service, address = daemon
        scheme, relation, _ = _fresh_deployment()
        with TopKServer(scheme, relation, transport=address) as server:
            server.query(scheme.token([0, 1], k=2))
            after_first = service.stats()
            server.query(scheme.token([1, 2], k=2))
            after_second = service.stats()

        assert after_first["registrations"] == 1
        assert after_first["registration_uploads"] == 1
        # The second query opened a fresh session but shipped no blob.
        assert after_second["sessions_opened"] == 2
        assert after_second["registration_uploads"] == 1
        assert after_second["registration_bytes"] == after_first["registration_bytes"]

    def test_two_relations_register_separately(self, daemon):
        """Two relations under two keys on one daemon: each session
        decrypts under its own registration's key material, so both
        answer their plaintext top-k."""
        from repro.nra import SortedLists, nra_topk

        service, address = daemon
        scheme_a, relation_a, rows_a = _fresh_deployment(seed=55)
        scheme_b, relation_b, rows_b = _fresh_deployment(seed=56)
        assert relation_a.relation_id() != relation_b.relation_id()
        assert scheme_a.public_key != scheme_b.public_key
        for scheme, relation, rows in (
            (scheme_a, relation_a, rows_a),
            (scheme_b, relation_b, rows_b),
        ):
            with TopKServer(scheme, relation, transport=address) as server:
                result = server.query(scheme.token([0, 1, 2], k=3))
            winners = {o for o, _ in scheme.reveal(result)}
            expected = nra_topk(SortedLists(rows, [0, 1, 2]), 3).topk
            assert winners == {o for o, _ in expected}
        assert service.stats()["registrations"] == 2

    def test_stats_count_with_metrics_off_in_the_environment(self):
        """``stats()`` reads the registry's instruments, so nothing in
        the environment may stop them counting — a stale
        ``REPRO_METRICS=0`` included: the daemon still counts the
        registration, the session and the requests of one query."""
        code = (
            "import json\n"
            "from repro.core.params import SystemParams\n"
            "from repro.core.scheme import SecTopK\n"
            "from repro.net.socket_transport import disconnect_all\n"
            "from repro.server import S2Service, TopKServer\n"
            "service = S2Service('tcp://127.0.0.1:0')\n"
            "address = service.start()\n"
            "scheme = SecTopK(SystemParams.tiny(), seed=5)\n"
            "relation = scheme.encrypt([[3, 1], [2, 7], [5, 4], [1, 1]])\n"
            "with TopKServer(scheme, relation, transport=address) as server:\n"
            "    server.query(scheme.token([0, 1], k=2))\n"
            "disconnect_all()\n"
            "print(json.dumps(service.stats()))\n"
            "service.close()\n"
        )
        src = str(pathlib.Path(s2_service.__file__).parents[2])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, REPRO_METRICS="0")
        env["PYTHONPATH"] = src + os.pathsep + path if path else src
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        stats = json.loads(done.stdout.splitlines()[-1])
        assert stats["registrations"] == 1
        assert stats["sessions_opened"] == 1
        assert stats["requests_served"] >= 1


class TestMultiplexing:
    def test_concurrent_sessions_each_hold_their_own_connection(self, daemon):
        """Thread-mode execute_many over tcp: results match the
        sequential in-process run, each concurrent session reads its
        replies on a connection of its own (at most one per session in
        the window), and the client runs no thread of its own."""
        service, address = daemon
        scheme_a, relation_a, rows = _fresh_deployment()
        with TopKServer(scheme_a, relation_a) as server:
            baseline = server.execute_many(_requests(scheme_a), concurrency=1)

        scheme_b, relation_b, _ = _fresh_deployment()
        with TopKServer(scheme_b, relation_b, transport=address) as server:
            concurrent = server.execute_many(_requests(scheme_b), concurrency=3)
            client_threads = [
                t.name for t in threading.enumerate() if t.name.startswith("S2Client:")
            ]

        for a, b in zip(baseline, concurrent):
            assert scheme_a.reveal(a) == scheme_b.reveal(b)
            assert a.halting_depth == b.halting_depth
            assert a.channel_stats.rounds == b.channel_stats.rounds
            assert a.channel_stats.total_bytes == b.channel_stats.total_bytes
        assert client_threads == []
        stats = service.stats()
        assert 1 <= stats["connections_total"] <= 3
        assert stats["sessions_opened"] == len(concurrent)
        assert stats["sessions_active"] == 0

    def test_sessions_run_their_rounds_on_the_read_thread(self, daemon):
        """Three sessions open on one connection, each having run a
        round: the daemon answered them all without a thread per
        session."""
        service, address = daemon
        before = set(threading.enumerate())
        sock, scheme = _raw_connection(address, sessions=3)
        try:
            for session_id in (1, 2, 3):
                finish = _pending_request(sock, scheme, WireCodec(), session_id)
                assert finish(), f"session {session_id} was not answered"
            stats = service.stats()
            assert stats["connections_active"] == 1
            assert stats["sessions_active"] == 3
            assert stats["requests_served"] == 3
            started = [
                t.name
                for t in threading.enumerate()
                if t not in before and t.name.startswith("s2-")
            ]
            assert started == ["s2-connection"]
        finally:
            sock.close()

    def test_process_mode_workers_reuse_registration(self, daemon, leakage_tuples):
        """Process-mode worker processes open their own connections but
        find the relation already registered — no blob re-upload."""
        service, address = daemon
        # Both servers run the same warm-up query first: request salts
        # derive from session ids, so the remote batch replays the local
        # one only if their id sequences line up.
        scheme_a, relation_a, _ = _fresh_deployment()
        with TopKServer(scheme_a, relation_a) as server:
            server.query(scheme_a.token([0], k=1))
            baseline = server.execute_many(_requests(scheme_a), concurrency=1)

        scheme_b, relation_b, _ = _fresh_deployment()
        with TopKServer(scheme_b, relation_b, transport=address) as server:
            # The warm-up also registers the relation from the parent, so
            # the worker-side upload *skip* is what the stats assert.
            server.query(scheme_b.token([0], k=1))
            results = server.execute_many(
                _requests(scheme_b), concurrency=2, mode="process"
            )

        for a, b in zip(baseline, results):
            assert scheme_a.reveal(a) == scheme_b.reveal(b)
            assert leakage_tuples(a) == leakage_tuples(b)
        stats = service.stats()
        assert stats["registration_uploads"] == 1
        assert stats["connections_total"] >= 2  # parent + workers


class TestKeyObjectsOutliveSessions:
    """A modulus decoded from the wire is one key object per process, so
    S2's randomizer pool under S1's own key ``pk'`` is built once — not
    once per session, as when every session's codec decoded its own
    ``PaillierPublicKey``."""

    @staticmethod
    def _spy(monkeypatch):
        from repro.crypto import paillier

        builds: dict[int, int] = {}
        real = paillier.fresh_pool

        def fresh_pool(n, exponent, modulus, size, picks):
            builds[modulus] = builds.get(modulus, 0) + 1
            return real(n, exponent, modulus, size, picks)

        monkeypatch.setattr(paillier, "fresh_pool", fresh_pool)
        return builds

    @staticmethod
    def _five_sessions(server, scheme, builds):
        """Three sequential and two concurrent sessions, every one
        through SecDupElim (a ``DedupBatch`` sealed under ``pk'``);
        returns the build counts as the first session left them."""
        config = QueryConfig(variant="elim")
        (first_token, _), *rest = _requests(scheme)
        results = [server.query(first_token, config)]
        after_first = dict(builds)
        results += [server.query(token, cfg) for token, cfg in rest]
        results += server.execute_many(
            [(scheme.token([0, 2], k=2), config), (scheme.token([2], k=1), config)],
            concurrency=2,
        )
        assert [len(r.items) for r in results] == [2, 2, 3, 2, 1]
        return after_first

    def test_tcp_daemon_builds_each_pool_once(self, daemon, monkeypatch):
        service, address = daemon
        scheme, relation, _ = _fresh_deployment(seed=2201)
        builds = self._spy(monkeypatch)
        with TopKServer(scheme, relation, transport=address) as server:
            after_first = self._five_sessions(server, scheme, builds)
        assert service.stats()["sessions_opened"] == 5
        # pk' exists once in this process (S1's object, adopted when it
        # first crossed the codec): one pool for five sessions.
        assert builds[scheme._s1_keypair.public_key.n_squared] == 1
        # The daemon rebuilds the registered key from its primes through
        # the process's key objects: at most one pool per cloud, none per
        # session.
        assert all(count <= 2 for count in builds.values())
        assert builds == after_first


class TestFailureModes:
    def test_daemon_death_raises_typed_error_not_hang(self, daemon):
        service, address = daemon
        scheme, relation, _ = _fresh_deployment()
        ctx = scheme._make_context(transport=address)
        service.close()
        with pytest.raises(PeerDisconnected):
            ctx.call(
                messages.ZeroTestBatch(
                    protocol="probe", cts=[scheme.public_key.encrypt(0)]
                )
            )
        ctx.close()  # tolerates the dead daemon

    def test_client_drop_tears_down_daemon_sessions(self, daemon):
        service, address = daemon
        scheme, relation, _ = _fresh_deployment()
        ctx = scheme._make_context(transport=address)
        assert service.stats()["sessions_active"] == 1
        # Abrupt departure: sever the socket without a CLOSE frame.
        ctx.transport._client.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            stats = service.stats()
            if stats["sessions_active"] == 0 and stats["connections_active"] == 0:
                break
            time.sleep(0.02)
        assert service.stats()["sessions_active"] == 0
        assert service.stats()["connections_active"] == 0

    def test_dispatch_failure_surfaces_remote_kind(self, daemon):
        """A daemon-side dispatch error travels back typed: the remote
        exception class name is preserved and the connection survives."""
        _, address = daemon
        scheme, relation, _ = _fresh_deployment()
        foreign = SecTopK(SystemParams.tiny(), seed=91)
        ctx = scheme._make_context(transport=address)
        try:
            with pytest.raises(RemoteS2Error) as excinfo:
                ctx.call(
                    messages.ZeroTestBatch(
                        protocol="probe", cts=[foreign.public_key.encrypt(0)]
                    )
                )
            assert excinfo.value.kind == "KeyMismatchError"
        finally:
            ctx.close()

    def test_malformed_dedup_batch_surfaces_protocol_error(self, daemon):
        """S2 checks a ``DedupBatch``'s shape: a matrix one entry short,
        and every batch of ``test_item_batch.hostile_batches`` in place
        of its items, each come back as a typed ``ProtocolError``, not an
        ``AttributeError`` or ``IndexError`` from inside the handler, and
        the session then answers a well-formed round."""
        from test_item_batch import hostile_batches, with_items

        from repro.protocols.sec_dedup import _prepare
        from repro.structures.items import ScoredItem

        _, address = daemon
        scheme, relation, _ = _fresh_deployment()
        ctx = scheme._make_context(transport=address)
        own = scheme._s1_keypair
        entries = next(iter(relation.lists.values()))[:3]
        items = [
            ScoredItem(ehl=e.ehl, worst=e.score, best=e.score, record=e.record)
            for e in entries
        ]

        def dedup_batch(fields):
            return messages.DedupBatch(
                protocol="SecDedup",
                **fields,
                own_public=own.public_key,
                sentinel=-ctx.encoder.sentinel,
                eliminate=False,
            )

        def refused(send):
            with pytest.raises(RemoteS2Error) as excinfo:
                send()
            assert excinfo.value.kind == "ProtocolError"
            assert "IndexError" not in str(excinfo.value)
            assert "AttributeError" not in str(excinfo.value)

        try:
            # The short matrix also registers every key on both ends.
            _, fields = _prepare(ctx, items, [0, 0, 0], own, None)
            fields["matrix"] = fields["matrix"][:-1]
            refused(lambda: ctx.call(dedup_batch(fields)))
            _, fields = _prepare(ctx, items, [0, 0, 0], own, None)
            msg = dedup_batch(fields)
            transport = ctx.transport
            codec, client = transport._codec, transport._client
            batch = bytearray()
            codec.encode_value(msg.items, batch)
            for hostile, rest in hostile_batches(bytes(batch)).values():

                def send(payload=with_items(codec, msg, hostile, rest)):
                    client.request_begin(transport.session_id, payload)
                    client.request_finish(transport.session_id)

                refused(send)
            items_out, comps = ctx.call(msg)
            assert 2 * len(items_out) == len(comps) == 6
        finally:
            ctx.close()

    @staticmethod
    def _hostile_selects(scheme):
        """One ``BlindedSelect`` per shape S2 must refuse: slots and group
        indices disagree, a group index names no value, a bit-mode slot
        holds a non-bit."""
        pk, rng = scheme.public_key, SecureRandom(7)
        tests, value = pk.encrypt_batch([0, 1], rng), pk.encrypt(5, rng)
        return [
            messages.BlindedSelect(
                protocol="probe", cts=tests, values=[value], groups=[0], bit_mode=False
            ),
            messages.BlindedSelect(
                protocol="probe", cts=tests, values=[value], groups=[0, 1], bit_mode=False
            ),
            messages.BlindedSelect(
                protocol="probe",
                cts=pk.encrypt_batch([1, 2], rng),
                values=[value],
                groups=[0, 0],
                bit_mode=True,
            ),
        ]

    def test_malformed_blinded_select_is_refused_before_any_draw(self):
        from repro.exceptions import ProtocolError
        from repro.protocols.base import CryptoCloud

        scheme, _, _ = _fresh_deployment()
        cloud = CryptoCloud(scheme.keypair, scheme.dj, SecureRandom(1), LeakageLog())
        for msg in self._hostile_selects(scheme):
            with pytest.raises(ProtocolError):
                cloud.blinded_select(
                    msg.cts, msg.values, msg.groups, msg.bit_mode, msg.protocol
                )
        assert cloud.leakage.events == []
        assert cloud.rng.randbytes(32) == SecureRandom(1).randbytes(32)

    def test_malformed_blinded_select_spares_the_sibling(self, daemon):
        """Over tcp each refused ``BlindedSelect`` comes back as a typed
        ``ProtocolError``, and a sibling session's round on the same
        connection — then the victim's own — still completes."""
        _, address = daemon
        scheme, _, _ = _fresh_deployment()
        victim = scheme._make_context(transport=address)
        sibling = scheme._make_context(transport=address)
        hostile = self._hostile_selects(scheme)
        sk = scheme.keypair.secret_key
        try:
            for msg in hostile:
                with pytest.raises(RemoteS2Error) as excinfo:
                    victim.call(msg)
                assert excinfo.value.kind == "ProtocolError"
            probe = messages.BlindedSelect(
                protocol="probe",
                cts=hostile[0].cts,
                values=hostile[0].values,
                groups=[0, 0],
                bit_mode=True,
            )
            for ctx in (sibling, victim):
                selected, bits = ctx.call(probe)
                # cts hold the bits 0 and 1; the value holds 5.
                assert sk.decrypt_batch(selected) == [0, 5]
                assert sk.decrypt_batch(bits) == [0, 1]
        finally:
            victim.close()
            sibling.close()

    def test_hostile_integers_surface_protocol_error_and_spare_the_sibling(
        self, daemon, monkeypatch
    ):
        """A REQUEST whose ``_DJ_NEW`` header claims ``s = 20000``
        (seconds of ``n ** (s + 1)`` if believed), that references a
        key index nobody registered, that names a retired or unknown
        message type id, whose value nests past the recursion limit, or
        whose ``BlindedSelect`` value lies outside ``0 < c < N^2`` (at
        ``N^2``, or 0: served, that slot would read 0 exactly when its
        bit is 1) comes back as a typed ``ProtocolError`` before any
        scheme is built or any message is dispatched, and the
        connection's other session answers as the victim then does."""
        from repro.net.dispatch import S2Dispatcher

        _, address = daemon
        scheme, relation, _ = _fresh_deployment()
        victim = scheme._make_context(transport=address)
        sibling = scheme._make_context(transport=address)
        built = []
        real_dj = wire.DamgardJurik
        monkeypatch.setattr(
            wire,
            "DamgardJurik",
            lambda pk, s=2: built.append(s) or real_dj(pk, s),
        )
        dispatched = []
        real_dispatch = S2Dispatcher.dispatch
        monkeypatch.setattr(
            S2Dispatcher,
            "dispatch",
            lambda self, msg: dispatched.append(msg) or real_dispatch(self, msg),
        )

        def envelope(body: bytes, type_id: int | None = None) -> bytes:
            # One message (default StripLayerBatch) with protocol="x", then <body>.
            if type_id is None:
                type_id = messages.message_type_id(messages.StripLayerBatch)
            head = bytearray([1])
            wire._write_varint(head, type_id)
            WireCodec().encode_value("x", head)
            return bytes(head) + body

        n = scheme.public_key.n
        raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
        degree = bytearray()
        wire._write_varint(degree, 20000)
        hostile = [
            envelope(bytes([wire._VEC, wire._DJ_NEW, len(raw)]) + raw + bytes(degree) + b"\x00" * 40),
            envelope(bytes([wire._VEC, wire._DJ_NEW, len(raw)]) + raw + b"\x00" + b"\x00" * 40),
            envelope(bytes([wire._LIST, 2, wire._CT, 99]) + b"\x00" * 200),
            envelope(bytes([wire._VEC, wire._DJ, 5]) + b"\x00" * 200),
            envelope(bytes([wire._PK, 7])),
        ]
        # Ids 12 and 13 once made S2 decrypt (score, record) lists and
        # answer with the record ids in the clear; give them such a body.
        shipped = bytearray()
        codec = WireCodec()
        codec.encode_value(scheme.public_key.encrypt_batch([0], SecureRandom(4)), shipped)
        codec.encode_value(scheme.public_key.encrypt_batch([424242], SecureRandom(5)), shipped)
        for type_id in (12, 13, len(messages.MESSAGE_TYPES)):
            hostile.append(envelope(bytes(shipped), type_id))
        # A ZeroTestBatch whose cts nest 5,000 1-tuples deep: past the
        # decoder's recursion limit.
        hostile.append(envelope(
            bytes([wire._TUPLE, 1]) * 5000 + bytes([wire._INT, 0]),
            messages.message_type_id(messages.ZeroTestBatch),
        ))
        # BlindedSelect values outside 0 < c < N^2, written by the
        # victim's own codec (its key registrations stay in step).
        pk = scheme.public_key
        tests = CtVector.encrypt(pk, [0, 1], SecureRandom(6))
        stride = tests.stride
        for value in (pk.n_squared, 0):
            hostile.append(victim.transport._codec.encode_envelope([messages.BlindedSelect(
                protocol="probe", cts=tests, values=CtVector(pk, 1, value.to_bytes(stride, "little")),
                groups=[0, 0], bit_mode=False,
            )]))
        try:
            client = victim.transport._client
            session_id = victim.transport.session_id
            for request in hostile:
                with pytest.raises(RemoteS2Error) as excinfo:
                    client.request_begin(session_id, request)
                    client.request_finish(session_id)
                assert excinfo.value.kind == "ProtocolError"
            assert 20000 not in built and 0 not in built
            assert dispatched == []
            probe = messages.ZeroTestBatch(
                protocol="probe",
                cts=scheme.public_key.encrypt_batch([0, 5], SecureRandom(3)),
            )
            answers = []
            for ctx in (sibling, victim):
                reply = ctx.call(probe)
                answers.append(scheme.dj.decrypt_batch(reply, scheme.keypair))
            assert answers == [[1, 0], [1, 0]]
        finally:
            victim.close()
            sibling.close()

    def test_unregistered_relation_autoregisters(self, daemon):
        """The OPEN -> unknown-relation -> REGISTER -> OPEN dance is
        invisible to callers: a bare session works on first contact."""
        service, address = daemon
        scheme, relation, _ = _fresh_deployment()
        ctx = scheme._make_context(transport=address)
        try:
            assert service.stats()["sessions_active"] == 1
        finally:
            ctx.close()
        assert service.stats()["registrations"] == 1

    def test_non_daemon_peer_fails_cleanly(self):
        """Connecting to a socket that does not speak the protocol must
        raise, not hang."""
        listener = socket_module.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        rogue: list[socket_module.socket] = []

        def _accept_and_garbage():
            sock, _ = listener.accept()
            rogue.append(sock)
            sock.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n" + b"\x00" * 64)

        thread = threading.Thread(target=_accept_and_garbage, daemon=True)
        thread.start()
        try:
            from repro.net.socket_transport import S2Client

            with pytest.raises(TransportError):
                S2Client(f"tcp://127.0.0.1:{port}", timeout=5.0)
        finally:
            thread.join()
            for sock in rogue:
                sock.close()
            listener.close()


class TestGaugeRegression:
    """The in-flight/active gauges must return to zero on *every* exit
    path — clean completion, dispatch errors, mid-request socket death,
    daemon shutdown — or ``/metrics`` drifts permanently."""

    @staticmethod
    def _settled(service, deadline_s: float = 5.0) -> dict:
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            stats = service.stats()
            if (
                stats["requests_in_flight"] == 0
                and stats["sessions_active"] == 0
                and stats["connections_active"] == 0
            ):
                return stats
            time.sleep(0.02)
        return service.stats()

    def test_midrequest_socket_death_returns_gauges_to_zero(self, daemon):
        service, address = daemon
        scheme, relation, _ = _fresh_deployment()
        ctx = scheme._make_context(transport=address)
        severed = threading.Event()

        def _spam():
            try:
                while not severed.is_set():
                    ctx.call(
                        messages.ZeroTestBatch(
                            protocol="probe",
                            cts=[scheme.public_key.encrypt(0) for _ in range(8)],
                        )
                    )
            except Exception:
                pass  # PeerDisconnected mid-call is the point

        thread = threading.Thread(target=_spam, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if service.stats()["requests_served"] >= 1:
                break
            time.sleep(0.005)
        # Sever the socket with requests (possibly) on the wire.
        ctx.transport._client.close()
        severed.set()
        thread.join(timeout=10)
        stats = self._settled(service)
        assert stats["requests_in_flight"] == 0
        assert stats["sessions_active"] == 0
        assert stats["connections_active"] == 0
        assert stats["requests_in_flight_peak"] >= 1

    def test_dispatch_error_still_decrements_in_flight(self, daemon):
        service, address = daemon
        scheme, relation, _ = _fresh_deployment()
        foreign = SecTopK(SystemParams.tiny(), seed=92)
        ctx = scheme._make_context(transport=address)
        try:
            with pytest.raises(RemoteS2Error):
                ctx.call(
                    messages.ZeroTestBatch(
                        protocol="probe", cts=[foreign.public_key.encrypt(0)]
                    )
                )
            assert service.stats()["requests_in_flight"] == 0
            assert service.stats()["requests_served"] >= 1
        finally:
            ctx.close()

    def test_service_close_with_live_session_zeroes_gauges(self):
        service = S2Service("tcp://127.0.0.1:0")
        address = service.start()
        scheme, relation, _ = _fresh_deployment()
        ctx = scheme._make_context(transport=address)
        try:
            assert service.stats()["sessions_active"] == 1
            assert service.stats()["connections_active"] == 1
            service.close()
            stats = self._settled(service)
            assert stats["sessions_active"] == 0
            assert stats["connections_active"] == 0
            assert stats["requests_in_flight"] == 0
        finally:
            ctx.close()  # tolerates the dead daemon
            disconnect_all()


@pytest.mark.skipif(
    not hasattr(socket_module, "AF_UNIX"), reason="no Unix-domain sockets"
)
class TestUnixSocket:
    def test_query_over_unix_socket(self, tmp_path):
        service = S2Service(f"unix://{tmp_path}/s2.sock")
        address = service.start()
        try:
            scheme, relation, rows = _fresh_deployment()
            with TopKServer(scheme, relation, transport=address) as server:
                result = server.query(scheme.token([0, 2], k=2))
            from repro.nra import SortedLists, nra_topk

            winners = {o for o, _ in scheme.reveal(result)}
            expected = nra_topk(SortedLists(rows, [0, 2]), 2).topk
            assert winners == {o for o, _ in expected}
        finally:
            disconnect_all()
            service.close()
        assert not os.path.exists(f"{tmp_path}/s2.sock")


class TestPersistentRegistry:
    """``--state-dir``: registrations survive a daemon restart."""

    def test_restarted_daemon_serves_registered_relations(self, tmp_path):
        state_dir = str(tmp_path / "registry")
        scheme, relation, rows = _fresh_deployment()

        first = S2Service("tcp://127.0.0.1:0", state_dir=state_dir)
        address = first.start()
        try:
            with TopKServer(scheme, relation, transport=address) as server:
                baseline = server.query(scheme.token([0, 1], k=2))
            stats = first.stats()
            assert stats["registrations"] == 1
            assert stats["registration_uploads"] == 1
        finally:
            disconnect_all()
            first.close()
        spills = os.listdir(state_dir)
        key_id = default_registration_id(scheme.keypair, scheme.dj)
        assert spills == [f"{key_id}.reg"]

        # Restart: a fresh service over the same state dir serves the
        # relation id without any client re-upload.
        second = S2Service("tcp://127.0.0.1:0", state_dir=state_dir)
        address = second.start()
        try:
            assert second.stats()["registrations_restored"] == 1
            with TopKServer(scheme, relation, transport=address) as server:
                revived = server.query(scheme.token([0, 1], k=2))
            assert second.stats()["registration_uploads"] == 0
            assert scheme.reveal(revived) == scheme.reveal(baseline)
        finally:
            disconnect_all()
            second.close()

    def test_refused_spill_name_leaves_no_registration(self, tmp_path):
        """An id the spill-name rule refuses (``probe-1``, the shape
        ``perfbench``'s daemon probe passes) fails its REGISTER every
        time and leaves nothing behind — no registration held in memory
        that the state dir lacks."""
        state_dir = tmp_path / "registry"
        service = S2Service("tcp://127.0.0.1:0", state_dir=str(state_dir))
        address = service.start()
        scheme, _, _ = _fresh_deployment()
        try:
            for attempt in range(2):
                with pytest.raises(RemoteS2Error, match="unsafe spill name") as excinfo:
                    socket_transport.open_remote_session(
                        address,
                        scheme.keypair,
                        scheme.dj,
                        SecureRandom(attempt),
                        LeakageLog(),
                        relation_id="probe-1",
                    )
                assert excinfo.value.kind == "TransportError"
            assert service._registry == {}
            assert service.stats()["registrations"] == 0
            assert not state_dir.exists()
        finally:
            disconnect_all()
            service.close()


# ---------------------------------------------------------------------------
# The daemon's connections, lifecycle and state dir.
# ---------------------------------------------------------------------------

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "wire_s2v6"

@pytest.fixture()
def core():
    service = S2Service("tcp://127.0.0.1:0", metrics_port=0)
    address = service.start()
    yield service, address
    disconnect_all()
    service.close()


def _wait_for(predicate, deadline_s: float = 5.0) -> bool:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _http_status(url: str) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


def _codec_bytes(value) -> bytes:
    out = bytearray()
    WireCodec().encode_value(value, out)
    return bytes(out)


class _ExecProbe:
    """Unpickling this runs code: it sets ``builtins.REPRO_PROBE_RAN``."""

    def __reduce__(self):
        return (exec, ("import builtins; builtins.REPRO_PROBE_RAN = True",))


def _nested_key_payload(n: int) -> bytes:
    """The codec bytes of ``("x", PaillierPublicKey(n), 3, 2)``, written
    by hand: encoding the key would enter ``n`` in this process's key
    table before the daemon ever saw it."""
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    key = bytearray([wire._PK_NEW])
    wire._write_varint(key, len(raw))
    return (
        bytes([wire._TUPLE, 4]) + _codec_bytes("x") + bytes(key) + raw
        + _codec_bytes(3) + _codec_bytes(2)
    )


def _raw_connection(address, sessions: int):
    """One raw connection to ``address``, greeted, with the key of a fresh
    deployment registered and sessions ``1..sessions`` open on it;
    returns the socket and the deployment's scheme."""
    scheme, _, _ = _fresh_deployment()
    rid = default_registration_id(scheme.keypair, scheme.dj)
    frames = [
        (socket_transport.HELLO, 0, socket_transport.PROTOCOL_BANNER, socket_transport.HELLO_OK),
        (
            socket_transport.REGISTER,
            0,
            encode_registration(rid, scheme.keypair, scheme.dj),
            socket_transport.REGISTERED,
        ),
    ] + [
        (
            socket_transport.OPEN,
            session_id,
            encode_open(rid, "probe", SecureRandom(session_id)),
            socket_transport.OPENED,
        )
        for session_id in range(1, sessions + 1)
    ]
    sock = connect_socket(address)
    sock.settimeout(30.0)
    for ftype, session_id, payload, expect in frames:
        send_frame(sock, ftype, session_id, payload)
        assert recv_frame(sock)[:2] == (expect, session_id)
    return sock, scheme


def _pending_request(sock, scheme, codec: WireCodec, session_id: int = 1):
    """Put one real REQUEST for ``session_id`` on ``sock`` without
    collecting it; returns ``finish()`` -> whether the next frame on the
    connection is that request's correct answer.  ``codec`` is the
    session's own: it must see every round of the session in order."""
    probe = messages.ZeroTestBatch(protocol="probe", cts=[scheme.public_key.encrypt(0)])
    send_frame(sock, socket_transport.REQUEST, session_id, codec.encode_envelope([probe]))

    def finish() -> bool:
        ftype, got, payload = recv_frame(sock)
        if (ftype, got) != (socket_transport.REPLY, session_id):
            return False
        (reply,), _, _ = codec.decode_value(_Reader(payload))
        return scheme.dj.decrypt_batch(reply, scheme.keypair) == [1]

    return finish


class TestDaemonLifecycle:
    def test_wrong_banner_rejection_names_the_daemon_banner(self, core):
        """Any other banner, the previous one included (no downgrade), is
        refused with the daemon's own banner named."""
        service, address = core
        for banner in (b"repro-bogus/9", b"repro-s2/3", b"repro-s2/4", b"repro-s2/5"):
            sock = connect_socket(address)
            try:
                send_frame(sock, socket_transport.HELLO, 0, banner)
                ftype, session_id, payload = recv_frame(sock)
                assert (ftype, session_id) == (socket_transport.ERROR, 0)
                assert decode_error(payload) == (
                    socket_transport.VERSION_MISMATCH,
                    socket_transport.PROTOCOL_BANNER.decode(),
                )
                # A bad HELLO is a framing failure: the connection is dropped.
                with pytest.raises(PeerDisconnected):
                    recv_frame(sock)
            finally:
                sock.close()
        assert _wait_for(lambda: service.stats()["connections_active"] == 0)

    def test_peer_that_never_greets_is_dropped(self, core, monkeypatch):
        service, address = core
        monkeypatch.setattr(s2_service, "_HELLO_TIMEOUT_S", 0.2)
        sock = connect_socket(address)
        try:
            sock.settimeout(5.0)
            assert sock.recv(1) == b"", "daemon kept a mute peer's connection"
        finally:
            sock.close()
        assert _wait_for(lambda: service.stats()["connections_active"] == 0)
        assert service.stats()["connections_total"] == 1

    def test_handler_error_is_scoped_to_its_session(self, core):
        """A garbage control frame on session 7 is answered with a typed
        ERROR on session 7; the connection — and a request in flight on
        it — is untouched."""
        service, address = core
        sock, scheme = _raw_connection(address, sessions=1)
        codec = WireCodec()
        try:
            finish = _pending_request(sock, scheme, codec)
            send_frame(sock, socket_transport.REGISTER, 7, b"\x00garbage")
            assert finish(), "the sibling request did not complete"
            ftype, session_id, payload = recv_frame(sock)
            assert (ftype, session_id) == (socket_transport.ERROR, 7)
            assert decode_error(payload)[0] == "ProtocolError"
            assert _pending_request(sock, scheme, codec)(), "the connection did not survive"
            stats = service.stats()
            assert (stats["connections_total"], stats["connections_active"]) == (1, 1)
        finally:
            sock.close()

    HOSTILE_CONTROL = {
        "truncated": (socket_transport.REGISTER, lambda rid, key, other: key[:-1]),
        "list-not-tuple": (
            socket_transport.REGISTER,
            lambda rid, key, other: _codec_bytes(["x", other.p, other.q, 2]),
        ),
        "int-id": (
            socket_transport.REGISTER,
            lambda rid, key, other: _codec_bytes((7, other.p, other.q, 2)),
        ),
        "degree-9": (
            socket_transport.REGISTER,
            lambda rid, key, other: _codec_bytes(("x", other.p, other.q, 9)),
        ),
        "pq-not-n": (
            socket_transport.REGISTER,
            lambda rid, key, other: _codec_bytes((rid, other.p, other.q, 2)),
        ),
        "stream-key-31": (
            socket_transport.OPEN,
            lambda rid, key, other: _codec_bytes((rid, "probe", b"k" * 31)),
        ),
        "exec-pickle-register": (
            socket_transport.REGISTER,
            lambda rid, key, other: pickle.dumps(_ExecProbe()),
        ),
        "exec-pickle-open": (
            socket_transport.OPEN,
            lambda rid, key, other: rid.encode() + b"\x00probe\x00" + pickle.dumps(_ExecProbe()),
        ),
        "nested-public-key": (
            socket_transport.REGISTER,
            lambda rid, key, other: _nested_key_payload(2**2047 + 12345),
        ),
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE_CONTROL))
    def test_hostile_control_payload_is_a_session_error(self, core, monkeypatch, case):
        """A malformed REGISTER or OPEN on session 7 runs nothing, builds
        nothing and is answered with a typed ERROR on session 7, while a
        sibling session's round on the same connection completes.
        ``pq-not-n`` names the registered id with primes of another key.
        The pickle — a REGISTER payload, and the stream of an OPEN in the
        NUL-separated layout of the previous banner — would set
        ``builtins.REPRO_PROBE_RAN`` if unpickled.  No case adds a key
        to the process's key table: ``nested-public-key`` carries a
        modulus where a prime goes, and ``pq-not-n`` is refused before
        its key is built."""
        service, address = core
        monkeypatch.setattr(builtins, "REPRO_PROBE_RAN", False, raising=False)
        sock, scheme = _raw_connection(address, sessions=1)
        rid = default_registration_id(scheme.keypair, scheme.dj)
        other = _fresh_deployment(seed=56)[0].keypair.secret_key
        ftype, build = self.HOSTILE_CONTROL[case]
        payload = build(rid, encode_registration(rid, scheme.keypair, scheme.dj), other)
        codec = WireCodec()
        try:
            finish = _pending_request(sock, scheme, codec)
            shared = set(wire._SHARED)
            send_frame(sock, ftype, 7, payload)
            assert finish(), "the sibling request did not complete"
            got, session_id, reply = recv_frame(sock)
            assert (got, session_id) == (socket_transport.ERROR, 7)
            kind = "KeyMismatchError" if case == "pq-not-n" else "ProtocolError"
            assert decode_error(reply)[0] == kind
            assert set(wire._SHARED) == shared
            assert _pending_request(sock, scheme, codec)(), "the connection did not survive"
        finally:
            sock.close()
        assert builtins.REPRO_PROBE_RAN is False
        ((keypair, _),) = service._registry.values()
        assert keypair.secret_key.p == scheme.keypair.secret_key.p
        assert service.stats()["sessions_opened"] == 1

    def test_control_frame_over_its_cap_drops_the_connection(self, core):
        """A REGISTER header one byte over its cap is a framing failure,
        seen before its payload is read: typed ERROR, then the connection
        drops; a round on another connection completes."""
        service, address = core
        sibling, scheme = _raw_connection(address, sessions=1)
        sock = connect_socket(address)
        try:
            sock.settimeout(30.0)
            send_frame(sock, socket_transport.HELLO, 0, socket_transport.PROTOCOL_BANNER)
            assert recv_frame(sock)[0] == socket_transport.HELLO_OK
            cap = socket_transport.FRAME_CAPS[socket_transport.REGISTER]
            sock.sendall(struct.pack("!IBI", cap + 1, socket_transport.REGISTER, 0))
            ftype, session_id, payload = recv_frame(sock)
            assert (ftype, session_id) == (socket_transport.ERROR, 0)
            assert decode_error(payload)[0] == "TransportError"
            with pytest.raises(PeerDisconnected):
                recv_frame(sock)
            assert _pending_request(sibling, scheme, WireCodec())()
        finally:
            sock.close()
            sibling.close()
        assert _wait_for(lambda: service.stats()["connections_active"] == 0)

    def test_unknown_frame_type_is_a_session_error(self, core):
        _, address = core
        client = client_for(address)
        with pytest.raises(RemoteS2Error) as excinfo:
            client.roundtrip(0x7F, 3, b"", socket_transport.REPLY)
        assert excinfo.value.kind == "unknown-frame"
        assert not client.dead

    def test_retired_rekey_frame_is_an_unknown_frame_error(self, core):
        """``0x0C`` (a registration re-key before registrations were
        keyed by key material) is retired: a client that still sends it
        gets the typed ERROR on its session id — what such clients
        already treat as "fall back to lazy re-register" — and a sibling
        session's round on the same connection completes."""
        service, address = core
        sock, scheme = _raw_connection(address, sessions=1)
        codec = WireCodec()
        old_id, new_id = b"a" * 32, b"b" * 32
        try:
            finish = _pending_request(sock, scheme, codec)
            send_frame(sock, 0x0C, 9, old_id + b"\x00" + new_id)
            assert finish(), "the sibling request did not complete"
            ftype, session_id, payload = recv_frame(sock)
            assert (ftype, session_id) == (socket_transport.ERROR, 9)
            assert decode_error(payload)[0] == "unknown-frame"
            assert _pending_request(sock, scheme, codec)(), "the connection did not survive"
        finally:
            sock.close()
        # Only the sibling's key is registered; nothing moved or appeared.
        assert len(service._registry) == 1

    def test_oversize_frame_drops_the_connection(self, core):
        service, address = core
        sock = connect_socket(address)
        try:
            send_frame(sock, socket_transport.HELLO, 0, socket_transport.PROTOCOL_BANNER)
            assert recv_frame(sock)[0] == socket_transport.HELLO_OK
            sock.sendall(
                struct.pack("!IBI", socket_transport.MAX_FRAME_BYTES + 1, 0x07, 1)
            )
            ftype, session_id, payload = recv_frame(sock)
            assert (ftype, session_id) == (socket_transport.ERROR, 0)
            assert decode_error(payload)[0] == "TransportError"
            with pytest.raises(PeerDisconnected):
                recv_frame(sock)
        finally:
            sock.close()
        assert _wait_for(lambda: service.stats()["connections_active"] == 0)

    def test_close_joins_accept_thread_and_zeroes_connections(self):
        service = S2Service("tcp://127.0.0.1:0")
        address = service.start()
        try:
            client_for(address)
            assert service.stats()["connections_active"] == 1
            service.close()
            assert not service._accept_thread.is_alive()
            assert _wait_for(lambda: service.stats()["connections_active"] == 0)
            service.close()  # idempotent
            with pytest.raises(TransportError):
                connect_socket(address, timeout=1.0)
        finally:
            disconnect_all()
            service.close()

    def test_close_returns_with_the_gauges_settled(self):
        """``close()`` joins every connection's read thread, so what those
        threads decrement on their way out reads settled the moment it
        returns — no polling."""
        service = S2Service("tcp://127.0.0.1:0")
        address = service.start()
        idle = connect_socket(address)
        try:
            send_frame(idle, socket_transport.HELLO, 0, socket_transport.PROTOCOL_BANNER)
            assert recv_frame(idle)[0] == socket_transport.HELLO_OK
            client_for(address)
            assert service.stats()["connections_active"] == 2
            connections = list(service._connections)
            service.close()
            stats = service.stats()
            assert stats["connections_active"] == 0
            assert stats["requests_in_flight"] == 0
            assert not any(c.thread.is_alive() for c in connections)
        finally:
            idle.close()
            disconnect_all()
            service.close()

    def test_healthz_flips_ready_to_draining(self, core):
        service, _ = core
        base = f"http://127.0.0.1:{service.metrics_port}"
        assert _http_status(f"{base}/healthz") == (200, "ready\n")
        status, body = _http_status(f"{base}/metrics")
        assert status == 200
        assert "repro_s2_connections_active 0" in body
        service.drain()
        assert _http_status(f"{base}/healthz") == (503, "draining\n")

    @pytest.mark.skipif(
        not hasattr(socket_module, "AF_UNIX"), reason="no Unix-domain sockets"
    )
    def test_stale_unix_socket_file_is_replaced(self, tmp_path):
        path = f"{tmp_path}/daemon.sock"
        stale = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        stale.bind(path)
        stale.close()  # the file outlives its socket: a crashed daemon's leftover
        assert os.path.exists(path)
        service = S2Service(f"unix://{path}")
        try:
            address = service.start()
            assert not client_for(address).dead
        finally:
            disconnect_all()
            service.close()
        assert not os.path.exists(path)

    def test_corrupt_spill_is_skipped_not_fatal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(builtins, "REPRO_PROBE_RAN", False, raising=False)
        corrupt = {
            "deadbeef.reg": b"not a codec value",
            # Codec values of the wrong shape must be skipped too.
            "cafe.reg": _codec_bytes([1, 2, 3]),
            "f00d.reg": _codec_bytes(("f00d",)),  # no key material
            # A spill in the pickled format is skipped unread.
            "beef.reg": pickle.dumps(_ExecProbe()),
        }
        for name, content in corrupt.items():
            (tmp_path / name).write_bytes(content)
        service = S2Service("tcp://127.0.0.1:0", state_dir=str(tmp_path))
        address = service.start()
        try:
            assert service.stats()["registrations_restored"] == 0
            assert builtins.REPRO_PROBE_RAN is False
            scheme, relation, _ = _fresh_deployment()
            with TopKServer(scheme, relation, transport=address) as server:
                result = server.query(scheme.token([0, 1], k=2))
            assert len(result.items) == 2
            assert service.stats()["registrations"] == 1
        finally:
            disconnect_all()
            service.close()

    def test_spill_rejects_unsafe_names(self, tmp_path):
        service = S2Service("tcp://127.0.0.1:0", state_dir=str(tmp_path / "state"))
        for registration_id in ("../evil", "a/b", ".hidden", "", "x.", "a.b"):
            with pytest.raises(TransportError, match="unsafe"):
                service.spill(registration_id, b"payload")
        service.spill("abc123", b"payload")
        assert os.listdir(tmp_path / "state") == ["abc123.reg"]
        assert os.stat(tmp_path / "state" / "abc123.reg").st_mode & 0o777 == 0o600

    def test_launch_daemon_reads_a_live_address_then_closes_the_pipe(self):
        process, address = s2_service.launch_daemon(quiet=True)
        try:
            parse_address(address)
            assert process.stdout.closed, "stdout pipe left open after the announce"
            assert not client_for(address).dead
        finally:
            disconnect_all()
            process.terminate()
            process.wait(timeout=10)
        # Daemon death before its announce line: a typed failure.
        with pytest.raises(RuntimeError, match="exited before becoming ready"):
            s2_service.launch_daemon("bogus://nowhere", quiet=True)


def _modules_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter with ``launch_daemon``'s
    environment (this package first on the path); returns the JSON
    object it leaves in ``out`` plus its ``sys.modules`` names."""
    src = str(pathlib.Path(s2_service.__file__).parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import json, sys\nout = {}\n" + code
        + "\nout['modules'] = sorted(sys.modules)\nprint(json.dumps(out))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestImportBoundary:
    """What a process loads: the S2 daemon holds S2's code only, and a
    cached kernel loads without parsing C."""

    def test_daemon_module_loads_no_s1_code_and_no_c_parser(self):
        modules = set(_modules_after("import repro.server.s2_service")["modules"])
        forbidden = {
            f"repro.server.{name}"
            for name in (
                "topk_server", "jobs", "mutations", "query_cache", "sharding",
                "query_workers",
            )
        } | {
            f"repro.protocols.{name}"
            for name in (
                "recover_enc", "enc_compare", "enc_sort", "sec_worst", "sec_best",
                "sec_dedup", "sec_dup_elim", "sec_update",
            )
        } | {"repro.core.scheme", "repro.core.engine", "pycparser", "cffi.cparser"}
        assert not forbidden & modules

    def test_loading_the_cached_kernel_parses_no_c(self):
        from repro.crypto import _gmp_kernel

        available = _gmp_kernel.available()  # builds it into the cache if it can
        out = _modules_after(
            "import repro.crypto.backend\n"
            "from repro.crypto import _gmp_kernel\n"
            "out['loaded'] = _gmp_kernel.load() is not None"
        )
        assert out["loaded"] == available
        assert not {"pycparser", "cffi.cparser"} & set(out["modules"])

    def test_every_export_resolves_to_its_submodule_object(self):
        # Importing a flow module first binds its name on the package.
        out = _modules_after(
            "import importlib\n"
            "import repro.protocols.enc_sort\n"
            "out['same'] = {}\n"
            "for package in ('repro.server', 'repro.protocols'):\n"
            "    module = importlib.import_module(package)\n"
            "    star = {}\n"
            "    exec(f'from {package} import *', star)\n"
            "    out['same'].update({\n"
            "        f'{package}.{name}': star[name] is getattr(module, name)\n"
            "        is getattr(importlib.import_module(star[name].__module__), name)\n"
            "        for name in module.__all__\n"
            "    })"
        )
        assert out["same"] and all(out["same"].values()), out["same"]


def _recorder():
    """``fixtures/wire_s2v6/record.py`` as a module."""
    spec = importlib.util.spec_from_file_location("wire_s2v6_record", FIXTURES / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWireCompatibility:
    #: What a recording's REQUESTs carry between them: every message type
    #: the default and the literal engine send.
    LIVE = {
        "DedupSort", "BlindedSelect", "DedupBatch", "SortAffine", "ZeroTestBatch",
        "StripLayerBatch", "BlindedSign",
    }

    @pytest.mark.parametrize("recording", ["committed", "fresh"])
    def test_recorded_session_replays(self, recording, tmp_path):
        """The frames a recorded ``S2Client`` sent for two tiny queries get
        the replies the recording daemon gave.  ``committed`` is
        ``fixtures/wire_s2v6`` (see its ``record.py``: HELLO, OPEN,
        REGISTER, OPEN, 11 REQUESTs, CLOSE, OPEN, 16 REQUESTs, CLOSE);
        ``fresh`` is what ``record.py`` writes from this tree.

        Every client frame goes out verbatim, and together the REQUESTs
        carry every type of :attr:`LIVE`.  Control replies (the
        ``unknown-relation`` ERROR, HELLO_OK, REGISTERED, OPENED, CLOSED)
        must match byte for byte.  A REPLY carries ciphertexts S2
        rerandomized from its process's randomizer pools, so REPLYs are
        compared decoded, every ciphertext decrypted under the key of the
        recorded ``.reg`` spill: same values, same leakage events, same
        progress counts; only the progress element's timing integer is
        free."""
        directory = FIXTURES
        if recording == "fresh":
            _recorder().main(str(tmp_path))
            directory = tmp_path
        data = (directory / "s2_session.frames").read_bytes()
        (reg,) = directory.glob("*.reg")
        _, p, q, _ = s2_service.decode_registration(reg.read_bytes())
        public_key = PaillierPublicKey(p * q)
        keypair = PaillierKeypair(public_key, PaillierSecretKey(p, q, public_key))
        header = struct.Struct("!IBI")
        frames = []
        pos = 0
        while pos < len(data):
            length = header.unpack_from(data, pos + 1)[0]
            end = pos + 1 + header.size + length
            frames.append((data[pos : pos + 1], data[pos + 1 : end]))
            pos = end
        assert [mark for mark, _ in frames] == [b">", b"<"] * (len(frames) // 2)

        def plain(value):
            if isinstance(value, ItemBatch):
                # A round's items decode as one batch: compare the items.
                value = value.unpack()
            if isinstance(value, CtVector):
                value = value.ciphertexts()
            if isinstance(value, Ciphertext):
                if value.public_key.n != keypair.public_key.n:
                    return ("foreign-ct", value.public_key.n)
                return ("ct", keypair.secret_key.decrypt(value))
            if isinstance(value, LayeredCiphertext):
                return ("lc", value.scheme.decrypt(value, keypair))
            if isinstance(value, PaillierPublicKey):
                return ("pk", value.n)
            if isinstance(value, (list, tuple)):
                return [plain(v) for v in value]
            slots = [
                slot
                for cls in type(value).__mro__
                for slot in getattr(cls, "__slots__", ())
            ]
            if slots:
                return (type(value).__name__, [plain(getattr(value, s)) for s in slots])
            if hasattr(value, "__dict__"):
                return (
                    type(value).__name__,
                    {k: plain(v) for k, v in vars(value).items()},
                )
            return value

        def decoded(codec: WireCodec, request: bytes, reply: bytes):
            # One registry serves both directions of a session's stream,
            # so the codec has to see the request before the reply.
            sent = codec.decode_envelope(request)
            replies, events, ((batches, values, _micros),) = codec.decode_value(
                _Reader(reply)
            )
            return {type(msg).__name__ for msg in sent}, (
                plain(replies), plain(events), (batches, values)
            )

        service = S2Service("tcp://127.0.0.1:0")
        sock = connect_socket(service.start())
        recorded_codecs = collections.defaultdict(WireCodec)
        replayed_codecs = collections.defaultdict(WireCodec)
        sent_types = set()
        rounds = 0
        try:
            sock.settimeout(30.0)
            for (_, sent), (_, expected) in zip(frames[::2], frames[1::2]):
                sock.sendall(sent)
                ftype, session_id, payload = recv_frame(sock)
                want_type, want_session = header.unpack_from(expected)[1:]
                assert (ftype, session_id) == (want_type, want_session)
                if ftype != socket_transport.REPLY:
                    assert payload == expected[header.size :]
                    continue
                rounds += 1
                request = sent[header.size :]
                types, replayed = decoded(replayed_codecs[session_id], request, payload)
                _, recorded = decoded(
                    recorded_codecs[session_id], request, expected[header.size :]
                )
                assert replayed == recorded, f"REPLY {rounds} diverged"
                sent_types |= types
        finally:
            sock.close()
            service.close()
        assert rounds == sum(
            header.unpack_from(frame)[1] == socket_transport.REQUEST for _, frame in frames
        )
        assert sent_types == self.LIVE


# ---------------------------------------------------------------------------
# The client link.
# ---------------------------------------------------------------------------


class TestClientLink:
    @pytest.mark.skipif(
        not hasattr(socket_module, "AF_UNIX"), reason="no Unix-domain sockets"
    )
    def test_failed_unix_connect_closes_its_socket(self, tmp_path, monkeypatch):
        made: list[socket_module.socket] = []
        real = socket_module.socket

        def spy(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(socket_transport.socket, "socket", spy)
        with pytest.raises(TransportError, match="cannot connect"):
            connect_socket(f"unix://{tmp_path}/missing.sock")
        assert len(made) == 1 and made[0].fileno() == -1

    @pytest.mark.skipif(
        not hasattr(socket_module, "AF_UNIX"), reason="no Unix-domain sockets"
    )
    def test_restarted_daemon_is_redialled(self, tmp_path):
        """The pooled connection to a daemon that went away is readable
        (EOF) while idle: the next query dials the daemon now listening
        at the same path instead of failing on the dead one."""
        address = f"unix://{tmp_path}/s2.sock"
        scheme, relation, _ = _fresh_deployment()
        first = S2Service(address)
        first.start()
        second = S2Service(address)
        try:
            with TopKServer(scheme, relation, transport=address) as server:
                token = scheme.token([0, 1], k=2)
                before = server.query(token, QueryConfig(cache=False))
                first.close()
                second.start()
                after = server.query(token, QueryConfig(cache=False))
            assert scheme.reveal(after) == scheme.reveal(before)
            assert second.stats()["connections_total"] == 1
        finally:
            disconnect_all()
            first.close()
            second.close()

    def test_failed_exchange_connection_is_not_handed_out_again(self, core):
        """A typed ERROR leaves the connection in step, so it goes back
        to the pool; a round that fails on the wire leaves it out of
        step, so it is closed and the next session dials afresh."""
        service, address = core
        scheme, _, _ = _fresh_deployment()
        foreign = SecTopK(SystemParams.tiny(), seed=91)
        ctx = scheme._make_context(transport=address)
        client = ctx.transport._client
        with pytest.raises(RemoteS2Error):
            ctx.call(
                messages.ZeroTestBatch(protocol="probe", cts=[foreign.public_key.encrypt(0)])
            )
        ctx.close()
        assert not client.dead

        ctx = scheme._make_context(transport=address)
        assert ctx.transport._client is client
        (connection,) = service._connections
        connection.sock.shutdown(socket_module.SHUT_RDWR)
        with pytest.raises(PeerDisconnected):
            ctx.call(messages.ZeroTestBatch(protocol="probe", cts=[scheme.public_key.encrypt(0)]))
        ctx.close()  # tolerates the dead link
        assert client.dead and client._sock.fileno() == -1

        fresh = client_for(address)
        assert fresh is not client and not fresh.dead
        with pytest.raises(RemoteS2Error, match="unknown-frame"):
            fresh.roundtrip(0x7F, 1, b"", socket_transport.REPLY)
        assert service.stats()["connections_total"] == 2

    def test_disconnect_all_fails_a_live_session(self, core):
        """``disconnect_all`` closes connections that are checked out
        too: the session holding one fails its next exchange with
        ``PeerDisconnected`` instead of hanging or reusing it."""
        _, address = core
        scheme, _, _ = _fresh_deployment()
        ctx = scheme._make_context(transport=address)
        probe = messages.ZeroTestBatch(protocol="probe", cts=[scheme.public_key.encrypt(0)])
        ctx.call(probe)
        disconnect_all()
        with pytest.raises(PeerDisconnected):
            ctx.call(probe)
        ctx.close()  # tolerates the closed link
        assert ctx.transport._client.dead

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork()")
    def test_forked_child_gets_a_fresh_connection(self, core):
        service, address = core
        parent_client = client_for(address)
        release(parent_client)  # idle in the parent's pool across the fork
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report through the pipe, never return to pytest
            verdict = b"error"
            try:
                os.close(read_fd)
                child_client = client_for(address)
                fresh = (
                    child_client is not parent_client
                    and child_client.pid == os.getpid()
                    and not child_client.dead
                )
                # The fresh link actually works (an unknown frame type is
                # answered on its session).
                try:
                    child_client.roundtrip(0x7F, 5, b"", socket_transport.REPLY)
                except RemoteS2Error as exc:
                    verdict = b"fresh" if fresh and exc.kind == "unknown-frame" else b"stale"
            finally:
                os.write(write_fd, verdict)
                os._exit(0)
        os.close(write_fd)
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                assert pipe.read() == b"fresh"
        finally:
            os.waitpid(pid, 0)
        assert service.stats()["connections_total"] == 2
        # The parent's link was not disturbed by the child's life or exit.
        assert client_for(address) is parent_client
        with pytest.raises(RemoteS2Error):
            parent_client.roundtrip(0x7F, 6, b"", socket_transport.REPLY)
        assert not parent_client.dead


class TestJobSessionsOverTheWire:
    def test_submitted_jobs_are_attributed_daemon_side(self, daemon):
        service, address = daemon
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation, address) as client:
            job = client.submit(client.token([0, 1], k=2))
            assert len(job.result(timeout=120).items) == 2
        assert service.stats()["job_sessions"] >= 1
