"""Equivalence of the transport backends (and the coalescing layer).

The socket transport serializes every message to bytes and carries the
byte streams to a standalone S2 daemon over TCP or a Unix-domain
socket.  On a fixed seed it must produce the in-process transcript —
results, halting depth, rounds, bytes both ways and the ordered leakage
sequence — through the differential runner (``differential.run_case``,
whose drawn cases in ``tests/test_differential.py`` add a daemon in
another process).  Also here: a closed session's refusal,
transport-kind validation, the join and SkNN schemes over the wire, and
per-depth round coalescing.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from differential import make_case, run_case

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.exceptions import ProtocolError, TransportError
from repro.net import messages
from repro.net.socket_transport import disconnect_all
from repro.protocols.base import make_parties
from repro.server import S2Service


def _rows(seed: int, n: int, m: int) -> list[list[int]]:
    rng = SecureRandom(seed)
    return [[rng.randint_below(30) for _ in range(m)] for _ in range(n)]


def _run(config: QueryConfig, rows, attrs):
    """One in-process query on a fresh deployment: its depth and stats."""
    scheme = SecTopK(SystemParams.tiny(), seed=97)
    result = scheme.query(scheme.encrypt(rows), scheme.token(attrs, k=2), config)
    return result.halting_depth, result.stats


CONFIGS = {
    "eager": QueryConfig(),
    "eager-full": QueryConfig(variant="full"),
    "literal": QueryConfig(engine="literal"),
    "eager-batch": QueryConfig(variant="batch", batch_p=3),
    "dgk-network": QueryConfig(compare_method="dgk", sort_method="network", max_depth=4),
    # The sharded scan is a faithful carrier across transports too.
    "eager-sharded": QueryConfig(shards=2),
    "literal-sharded": QueryConfig(engine="literal", shards=3),
}


class TestSocketMatchesInProcess:
    """A query against the standalone S2 daemon — over TCP or a
    Unix-domain socket — has the in-process transcript."""

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("family", ["tcp", "unix"])
    def test_identical_runs(self, config, family, request):
        address = request.getfixturevalue(f"{family}_daemon")
        if address is None:
            pytest.skip("no Unix-domain sockets on this platform")
        config = CONFIGS[config]
        run_case(make_case(_rows(5, n=8, m=3), [([0, 1, 2], 2, None)],
                           replace(config, shards=0), shards=config.shards, transport=address))

    def test_remaining_message_types_over_tcp(self, tcp_daemon):
        """DGK comparison + sorting-network gates cross the socket on
        the literal engine's full variant too."""
        config = QueryConfig(variant="full", engine="literal", compare_method="dgk",
                             sort_method="network", max_depth=3)
        run_case(make_case(_rows(5, n=8, m=3), [([0, 1, 2], 2, None)], config,
                           transport=tcp_daemon))

    def test_matches_plaintext_oracle(self, tcp_daemon):
        """Both transports agree with plain NRA on the winning set."""
        for transport in ("inprocess", tcp_daemon):
            run_case(make_case(_rows(11, n=10, m=2), [([0, 1], 2, None)], transport=transport))

    def test_exchange_after_close_raises(self):
        """A closed session refuses the next round locally: no REQUEST
        frame leaves for a session the daemon already dropped."""
        service = S2Service("tcp://127.0.0.1:0")
        address = service.start()
        try:
            scheme = SecTopK(SystemParams.tiny(), seed=3)
            ctx = make_parties(scheme.keypair, transport=address)
            ctx.close()
            with pytest.raises(TransportError, match="session transport is closed"):
                ctx.call(
                    messages.ZeroTestBatch(
                        protocol="probe", cts=[scheme.public_key.encrypt(0)]
                    )
                )
            assert service.stats()["requests_served"] == 0
        finally:
            disconnect_all()
            service.close()

    def test_threaded_kind_is_refused(self):
        """Only ``"inprocess"`` and daemon addresses name a transport."""
        scheme = SecTopK(SystemParams.tiny(), seed=3)
        with pytest.raises(ProtocolError, match="unknown transport kind: 'threaded'"):
            make_parties(scheme.keypair, transport="threaded")
        with pytest.raises(ProtocolError, match="repro.connect"):
            scheme._make_context(transport="threaded")


class TestOtherSchemesOverTheWire:
    """Join and SkNN cross every remaining message type (SortGateBatch,
    FilterBatch, SquareBlinded, RecordShipment); the serialized transport
    must carry them identically too."""

    @staticmethod
    def _join_run(transport: str):
        from repro.join import SecTopKJoin

        scheme = SecTopKJoin(SystemParams.tiny(), seed=13)
        er1 = scheme.encrypt("A", [[1, 5], [2, 6], [3, 9]])
        er2 = scheme.encrypt("B", [[1, 7], [3, 8]])
        ctx = scheme.make_clouds(transport=transport)
        try:
            result = scheme.join_query(
                er1, er2, scheme.token("A", "B", (0, 0), (1, 1), 2), ctx=ctx
            )
            return (
                scheme.reveal(result),
                result.join_cardinality,
                ctx.channel.stats.bytes_s1_to_s2,
                ctx.channel.stats.bytes_s2_to_s1,
                ctx.channel.stats.rounds,
            )
        finally:
            ctx.close()

    def test_join_identical(self, tcp_daemon):
        assert self._join_run(tcp_daemon) == self._join_run("inprocess")

    @staticmethod
    def _sknn_run(transport: str):
        from repro.baselines.sknn import SknnScheme

        scheme = SknnScheme(SystemParams.tiny(), seed=29)
        encrypted = scheme.encrypt([[i % 5, (3 * i) % 7] for i in range(6)])
        ctx = scheme.make_clouds(transport=transport)
        try:
            result = scheme.query(encrypted, k=2, ctx=ctx)
            return (
                scheme.reveal(result),
                ctx.channel.stats.bytes_s1_to_s2,
                ctx.channel.stats.bytes_s2_to_s1,
                ctx.channel.stats.rounds,
            )
        finally:
            ctx.close()

    def test_sknn_identical(self, tcp_daemon):
        assert self._sknn_run(tcp_daemon) == self._sknn_run("inprocess")


class TestRoundCoalescing:
    def test_eager_rounds_constant_per_depth(self):
        """Per-depth round counts are O(1): independent of the number of
        query lists m (the uncoalesced formulation paid O(m) per depth)."""
        per_m = {}
        for m in (2, 3, 4):
            rows = _rows(7, n=8, m=4)
            depth, stats = _run(
                QueryConfig(variant="elim", engine="eager", halting="paper"),
                rows,
                list(range(m)),
            )
            per_m[m] = stats.rounds / depth
        # Absorption contributes exactly 2 rounds/depth for every m; the
        # check-point machinery adds a constant.  Widening m must not
        # widen rounds/depth by anything close to a per-list round.
        assert per_m[4] <= per_m[2] + 1.0

    def test_strict_halting_is_one_round_per_check(self):
        """Strict halting coalesces its per-candidate comparisons."""
        rows = _rows(9, n=8, m=3)
        depth, stats = _run(
            QueryConfig(variant="elim", engine="eager", halting="strict"),
            rows,
            [0, 1, 2],
        )
        # 2 absorb rounds + 1 refresh + 1 dedup + 1 sort + 1 halting
        # round per depth (blinded compare), plus slack for the final
        # depth; far below the uncoalesced O(|T|) halting cost.
        assert stats.rounds <= 7 * depth
