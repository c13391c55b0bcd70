"""The standalone shard-worker daemon: lifecycle and failure modes.

The parity property (remote placement is transcript-invisible) lives in
``tests/test_sharding.py``; this suite covers everything around it —
the slice registry (racing uploads, restart from the state dir), the
mutation delta-sync (touched prefixes re-key held slices bit-identically
to a full re-upload), and the failure surface (a worker dying or going
silent mid-window raises a typed error instead of hanging the fan-in).

What the shard daemon shares with the S2 daemon (handshake rejection,
mute peers, stale unix sockets, ``close()``, corrupt spills,
``launch_daemon``, ``/healthz``, handler-error scoping) is asserted once
for both in ``tests/test_s2_service.py::TestFrameCore``.

A CI leg additionally launches two shard daemons as separate OS
processes and points ``REPRO_REMOTE_SHARDS`` here, which activates
:class:`TestExternalDaemons` against them.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.exceptions import ShardWorkerError, TransportError
from repro.net.socket_transport import disconnect_all, shard_client_for
from repro.server import TopKServer
from repro.server.mutations import MutableRelation
from repro.server.shard_service import ShardService
from repro.server import sharding

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)

SEED = 424242
ROWS = [[(11 * i + 5 * j + i * j) % 31 for j in range(3)] for i in range(9)]


@pytest.fixture()
def daemon():
    service = ShardService("tcp://127.0.0.1:0")
    address = service.start()
    yield service, address
    disconnect_all()
    service.close()


def _deployment(seed: int = SEED):
    scheme = SecTopK(SystemParams.tiny(), seed=seed)
    return scheme, scheme.encrypt(ROWS)


def _transcript(scheme, result):
    return (
        scheme.reveal(result),
        result.halting_depth,
        result.channel_stats.rounds,
        result.channel_stats.bytes_s1_to_s2,
        result.channel_stats.bytes_s2_to_s1,
        tuple(
            (e.observer, e.protocol, e.kind, repr(e.payload))
            for e in result.leakage_events
        ),
    )


def _slice_payload(relation, shard_id: int, n_shards: int) -> dict:
    plan = sharding.ShardPlan.for_scan(relation.n_objects, n_shards)
    lo, hi = plan.bounds[shard_id]
    return {
        "relation_id": relation.relation_id(),
        "shard_id": shard_id,
        "n_shards": plan.n_shards,
        "lo": lo,
        "hi": hi,
        "lists": {
            name: entries[lo:hi] for name, entries in relation.lists.items()
        },
    }


class TestPlacementRoutes:
    def test_server_placement_form(self, daemon):
        """``TopKServer(shards=[...])`` serves the same answers as a
        local deployment, with shard stats tiling the scan."""
        _, address = daemon
        scheme_a, relation_a = _deployment()
        with TopKServer(scheme_a, relation_a) as server:
            base = server.execute(scheme_a.token([0, 1, 2], k=2))

        scheme_b, relation_b = _deployment()
        with TopKServer(scheme_b, relation_b, shards=[address]) as server:
            remote = server.execute(scheme_b.token([0, 1, 2], k=2))
        assert _transcript(scheme_a, base) == _transcript(scheme_b, remote)
        assert remote.shard_stats
        assert remote.shard_stats[0].depth_lo == 0
        assert remote.shard_stats[-1].depth_hi == relation_b.n_objects

    def test_placement_validation(self):
        scheme, relation = _deployment()
        with pytest.raises(ValueError, match="at least one address"):
            TopKServer(scheme, relation, shards=[])
        with pytest.raises(ValueError, match="socket addresses"):
            TopKServer(scheme, relation, shards=["inprocess"])

    def test_second_query_reuses_uploaded_slices(self, daemon):
        """The repeat query ships zero SLICE frames — and both queries
        still match a local control run transcript for transcript (a
        repeat legitimately differs from its first run, so the pairing
        is first-with-first, second-with-second)."""
        service, address = daemon
        scheme_a, relation_a = _deployment()
        token_a = scheme_a.token([0, 1, 2], k=2)
        with TopKServer(scheme_a, relation_a, cache=False) as server:
            local = [
                _transcript(scheme_a, server.execute(token_a)) for _ in range(2)
            ]

        scheme_b, relation_b = _deployment()
        token_b = scheme_b.token([0, 1, 2], k=2)
        with TopKServer(
            scheme_b, relation_b, shards=[address], cache=False
        ) as server:
            first = server.execute(token_b)
            uploads = service.stats()["slice_uploads"]
            assert uploads >= 2, "first sharded query did not upload slices"
            second = server.execute(token_b)
            assert service.stats()["slice_uploads"] == uploads, (
                "repeat query re-uploaded slices"
            )
        assert _transcript(scheme_b, first) == local[0]
        assert _transcript(scheme_b, second) == local[1]

    def test_round_robin_over_fewer_daemons_than_shards(self, daemon):
        """A 4-shard plan over one daemon still works (round-robin)."""
        _, address = daemon
        scheme_a, relation_a = _deployment()
        with TopKServer(scheme_a, relation_a) as server:
            base = server.execute(scheme_a.token([0, 1, 2], k=2))
        scheme_b, relation_b = _deployment()
        with TopKServer(scheme_b, relation_b, shards=[address]) as server:
            remote = server.execute(
                scheme_b.token([0, 1, 2], k=2), QueryConfig(shards=4)
            )
        assert _transcript(scheme_a, base) == _transcript(scheme_b, remote)
        assert len(remote.shard_stats) == 4


class TestSliceRegistry:
    def test_racing_uploads_register_once(self, daemon):
        """Concurrent SLICE frames for the same (relation, shard) are
        idempotent: one registration, every uploader acknowledged."""
        service, address = daemon
        _, relation = _deployment()
        payload = _slice_payload(relation, 0, 2)
        client = shard_client_for(address)
        barrier = threading.Barrier(8)
        errors = []

        def _upload():
            try:
                barrier.wait(timeout=5)
                client.upload_slice(payload)
            except Exception as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=_upload) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        stats = service.stats()
        assert stats["slice_uploads"] == 8
        assert stats["slices"] == 1

    def test_restart_from_state_dir_skips_reupload(self, tmp_path):
        """A restarted daemon serves its spilled slices: the client's
        next query needs zero SLICE frames and the answers match.

        The *daemon* restarts, not the deployment — ciphertext
        randomness is not replayable, so only the live relation carries
        the id the spills are keyed under (same contract as the S2
        registration spill)."""
        state = str(tmp_path / "shard-state")
        scheme, relation = _deployment()
        token = scheme.token([0, 1, 2], k=2)

        first = ShardService("tcp://127.0.0.1:0", state_dir=state)
        address = first.start()
        try:
            with TopKServer(scheme, relation, shards=[address]) as server:
                baseline = server.execute(token)
            assert first.stats()["slice_uploads"] >= 2
        finally:
            disconnect_all()
            first.close()
        spills = [f for f in os.listdir(state) if f.endswith(".slice")]
        assert {f.split(".")[0] for f in spills} == {relation.relation_id()}

        second = ShardService("tcp://127.0.0.1:0", state_dir=state)
        address = second.start()
        try:
            assert second.stats()["slices_restored"] >= 2
            with TopKServer(scheme, relation, shards=[address]) as server:
                revived = server.execute(token)
            assert second.stats()["slice_uploads"] == 0, (
                "restart lost the spilled slices"
            )
            # The repeat run may halt at a different depth (the scheme's
            # depth history), revealing exact scores where the first run
            # revealed NRA bounds — the winning set is the invariant.
            assert {oid for oid, _ in scheme.reveal(revived)} == {
                oid for oid, _ in scheme.reveal(baseline)
            }
        finally:
            disconnect_all()
            second.close()

    def test_handshake_requires_shard_banner(self, daemon):
        """An S2 client (wrong banner) is rejected at the handshake —
        the shard link never silently downgrades."""
        from repro.net.socket_transport import client_for

        _, address = daemon
        with pytest.raises(TransportError):
            client_for(address)
        disconnect_all()


class TestFailureModes:
    def test_worker_death_mid_query_raises_typed_error(self):
        """Killing the daemon between queries fails the next scan with
        :class:`ShardWorkerError` naming the shard and address — and a
        submitted job resolves FAILED instead of hanging."""
        service = ShardService("tcp://127.0.0.1:0")
        address = service.start()
        scheme, relation = _deployment()
        token = scheme.token([0, 1, 2], k=2)
        try:
            with TopKServer(
                scheme, relation, shards=[address], cache=False
            ) as server:
                server.execute(token)  # healthy round, slices uploaded
                service.close()
                with pytest.raises(ShardWorkerError) as exc_info:
                    server.execute(token)
                assert exc_info.value.address == address
                assert exc_info.value.shard_id is not None
        finally:
            disconnect_all()
            service.close()

    def test_silent_worker_times_out_not_hangs(self, daemon, monkeypatch):
        """A daemon that accepts the request but never answers trips the
        per-request timeout: the connection is poisoned and the scan
        surfaces :class:`ShardWorkerError`, not a hung fan-in."""
        service, address = daemon
        monkeypatch.setattr(sharding, "SHARD_REQUEST_TIMEOUT", 0.3)

        def _never_answer(self, msg):
            time.sleep(2.0)
            return None

        monkeypatch.setattr(ShardService, "_depth_batch", _never_answer)
        scheme, relation = _deployment()
        token = scheme.token([0, 1, 2], k=2)
        started = time.monotonic()
        with TopKServer(scheme, relation, shards=[address], cache=False) as server:
            with pytest.raises(ShardWorkerError, match="did not answer"):
                server.execute(token)
        assert time.monotonic() - started < 10.0

    def test_dead_daemon_fails_job_not_scheduler(self):
        service = ShardService("tcp://127.0.0.1:0")
        address = service.start()
        scheme, relation = _deployment()
        token = scheme.token([0, 1, 2], k=2)
        try:
            with TopKServer(
                scheme, relation, shards=[address], cache=False
            ) as server:
                server.execute(token)
                service.close()
                job = server.submit(token)
                with pytest.raises(ShardWorkerError):
                    job.result(timeout=30)
                # The scheduler survives the failed job: queries against
                # a repaired placement would dispatch fine (closed check).
                assert job.status == "failed"
        finally:
            disconnect_all()
            service.close()


class TestMutationDeltaSync:
    OPS = (
        ("insert", ([29, 7, 16],)),
        ("update", (2, [1, 25, 3])),
        ("delete", (4,)),
    )

    def _run_mutation_leg(self, wipe_between: bool, n_daemons: int = 1):
        """One full deployment: query, mutate thrice, query again.

        ``wipe_between=False`` exercises the delta-sync path (the daemon
        re-keys its held slices from the shipped prefixes);
        ``wipe_between=True`` wipes the daemon after the mutations so the
        second query must fall back to a full slice re-upload.  Both legs
        are identically seeded, so their transcripts must match bit for
        bit — the acceptance criterion for the delta-sync.
        """
        services = [
            ShardService("tcp://127.0.0.1:0") for _ in range(n_daemons)
        ]
        addresses = [service.start() for service in services]
        try:
            scheme = SecTopK(SystemParams.tiny(), seed=SEED)
            mutable = MutableRelation(scheme, ROWS)
            token = scheme.token([0, 1, 2], k=2)
            with TopKServer(
                scheme, mutable, shards=addresses, cache=False
            ) as server:
                server.execute(token)  # registers pre-mutation slices
                for op, args in self.OPS:
                    getattr(server, op)(*args)
                if wipe_between:
                    for service in services:
                        with service._lock:
                            service._slices.clear()
                            service._weighted.clear()
                result = server.execute(token)
                transcript = _transcript(scheme, result)
            uploads = sum(s.stats()["slice_uploads"] for s in services)
            rekeyed = sum(s.stats()["slices_rekeyed"] for s in services)
            dropped = sum(s.stats()["slices_dropped"] for s in services)
            return transcript, uploads, rekeyed, dropped
        finally:
            disconnect_all()
            for service in services:
                service.close()

    def test_delta_sync_matches_full_reupload(self):
        """One daemon holding every slice: all rebuilds are fillable, so
        the post-mutation query runs on delta-synced slices alone —
        bit-identical to the full re-upload and cheaper on the wire."""
        delta, delta_uploads, delta_rekeyed, _ = self._run_mutation_leg(False)
        full, full_uploads, _, _ = self._run_mutation_leg(True)
        assert delta == full, "delta-synced transcript diverged from re-upload"
        assert delta_rekeyed > 0, "no slice was actually delta-synced"
        # The whole point: only prefix rows shipped, no second upload.
        assert delta_uploads < full_uploads

    def test_partial_drop_falls_back_to_reupload(self):
        """Two daemons, one slice each: the delete's suffix shift needs
        a row the sibling daemon holds, so that rebuild is dropped (not
        re-keyed stale) and lazily re-uploaded — transcripts must still
        match the wiped-daemon control exactly."""
        delta, _, _, dropped = self._run_mutation_leg(False, n_daemons=2)
        full, _, _, _ = self._run_mutation_leg(True, n_daemons=2)
        assert delta == full, "partial-drop fallback diverged"
        assert dropped > 0, "expected at least one unfillable rebuild"

    def test_drop_only_mutate_purges_slices(self, daemon):
        service, address = daemon
        _, relation = _deployment()
        client = shard_client_for(address)
        client.upload_slice(_slice_payload(relation, 0, 2))
        client.upload_slice(_slice_payload(relation, 1, 2))
        assert service.stats()["slices"] == 2
        summary = client.mutate(
            {"old_id": relation.relation_id(), "new_id": None, "prefixes": None}
        )
        assert summary == {"rekeyed": 0, "dropped": 2}
        assert service.stats()["slices"] == 0

    def test_unknown_old_id_is_a_noop(self, daemon):
        _, address = daemon
        client = shard_client_for(address)
        summary = client.mutate(
            {"old_id": "facefeed", "new_id": None, "prefixes": None}
        )
        assert summary == {"rekeyed": 0, "dropped": 0}


@pytest.mark.skipif(
    "REPRO_REMOTE_SHARDS" not in os.environ,
    reason="needs externally launched shard daemons (CI socket-smoke leg)",
)
class TestExternalDaemons:
    """Against real daemon subprocesses (comma-separated addresses in
    ``REPRO_REMOTE_SHARDS``): the in-process suite above already pins
    semantics; this leg pins the packaging — ``python -m
    repro.server.shard_service`` serves the same transcripts."""

    def test_query_parity_over_external_daemons(self):
        placement = tuple(os.environ["REPRO_REMOTE_SHARDS"].split(","))
        scheme_a, relation_a = _deployment()
        with TopKServer(scheme_a, relation_a) as server:
            base = server.execute(scheme_a.token([0, 1, 2], k=2))
        scheme_b, relation_b = _deployment()
        try:
            with TopKServer(scheme_b, relation_b, shards=list(placement)) as server:
                remote = server.execute(scheme_b.token([0, 1, 2], k=2))
        finally:
            disconnect_all()
        assert _transcript(scheme_a, base) == _transcript(scheme_b, remote)
        assert len(remote.shard_stats) == max(2, len(placement))
