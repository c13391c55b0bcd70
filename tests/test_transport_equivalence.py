"""Equivalence of the transport backends (and the coalescing layer).

The threaded transport genuinely serializes every message to bytes and
services it on an S2 thread, and the socket transport carries the same
byte streams to a standalone S2 daemon over TCP or a Unix-domain
socket; these tests pin down that, on a fixed seed, every backend
produces *identical* results, leakage event multisets, and S1 <-> S2
byte totals as the in-process path — i.e. the wire layer is a faithful
carrier, not a reinterpretation of the protocol, whether the crypto
cloud lives in-process, on a thread, or behind a real socket.
"""

from __future__ import annotations

import socket as socket_module
import threading

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.net.socket_transport import disconnect_all
from repro.server import S2Service


def _rows(seed: int, n: int, m: int) -> list[list[int]]:
    rng = SecureRandom(seed)
    return [[rng.randint_below(30) for _ in range(m)] for _ in range(n)]


def _run(transport: str, config: QueryConfig, rows, attrs, k=2):
    """Build a fresh identically-seeded deployment and run one query."""
    scheme = SecTopK(SystemParams.tiny(), seed=97)
    encrypted = scheme.encrypt(rows)
    token = scheme.token(attrs, k=k)
    ctx = scheme._make_context(transport=transport)
    try:
        result = scheme.query(encrypted, token, config, ctx=ctx)
        revealed = scheme.reveal(result)
        events = sorted(
            (e.observer, e.protocol, e.kind, repr(e.payload))
            for e in ctx.leakage.events
        )
        stats = ctx.channel.snapshot()
    finally:
        ctx.close()
    return revealed, result.halting_depth, events, stats


CONFIGS = [
    pytest.param(QueryConfig(variant="elim", engine="eager"), id="eager-elim"),
    pytest.param(QueryConfig(variant="full", engine="eager"), id="eager-full"),
    pytest.param(QueryConfig(variant="elim", engine="literal"), id="literal-elim"),
    pytest.param(
        QueryConfig(variant="batch", engine="eager", batch_p=3), id="eager-batch"
    ),
    pytest.param(
        QueryConfig(
            variant="elim",
            engine="eager",
            compare_method="dgk",
            sort_method="network",
            max_depth=4,
        ),
        id="dgk-network",
    ),
    # Shard-enabled legs: the sharded scan must be a faithful carrier
    # across transports exactly like the unsharded one (its bit-parity
    # *with* the unsharded scan is pinned property-style in
    # tests/test_sharding.py).
    pytest.param(
        QueryConfig(variant="elim", engine="eager", shards=2), id="eager-sharded"
    ),
    pytest.param(
        QueryConfig(variant="elim", engine="literal", shards=3),
        id="literal-sharded",
    ),
]


class TestThreadedMatchesInProcess:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_identical_runs(self, config):
        rows = _rows(5, n=8, m=3)
        base = _run("inprocess", config, rows, [0, 1, 2])
        wired = _run("threaded", config, rows, [0, 1, 2])

        assert wired[0] == base[0], "top-k results differ across transports"
        assert wired[1] == base[1], "halting depth differs"
        assert wired[2] == base[2], "leakage event multisets differ"
        assert wired[3].bytes_s1_to_s2 == base[3].bytes_s1_to_s2
        assert wired[3].bytes_s2_to_s1 == base[3].bytes_s2_to_s1
        assert wired[3].rounds == base[3].rounds

    def test_close_retires_service_thread(self):
        """ThreadedTransport.close joins its worker — no S2 service
        thread may outlive its context."""
        rows = _rows(5, n=6, m=2)
        before = {t for t in threading.enumerate()}
        _run("threaded", QueryConfig(variant="elim", engine="eager"), rows, [0, 1])
        leaked = [
            t
            for t in threading.enumerate()
            if t not in before and t.name.startswith("s2-transport")
        ]
        assert leaked == [], f"leaked S2 service threads: {leaked}"

    def test_exchange_after_close_raises(self):
        from repro.exceptions import ProtocolError
        from repro.net import messages
        from repro.protocols.base import make_parties

        scheme = SecTopK(SystemParams.tiny(), seed=3)
        ctx = make_parties(scheme.keypair, transport="threaded")
        ctx.close()
        assert ctx.transport.closed
        with pytest.raises(ProtocolError):
            ctx.call(
                messages.ZeroTestBatch(
                    protocol="probe", cts=[scheme.public_key.encrypt(0)]
                )
            )

    def test_matches_plaintext_oracle(self):
        """Both transports agree with plain NRA on the winning set."""
        from repro.nra import SortedLists, nra_topk

        rows = _rows(11, n=10, m=2)
        config = QueryConfig(variant="elim", engine="eager")
        for transport in ("inprocess", "threaded"):
            revealed, _, _, _ = _run(transport, config, rows, [0, 1], k=2)
            expected = nra_topk(SortedLists(rows, [0, 1]), 2, halting="strict")
            assert {o for o, _ in revealed} == {o for o, _ in expected.topk}


@pytest.fixture(scope="module")
def tcp_daemon():
    service = S2Service("tcp://127.0.0.1:0")
    address = service.start()
    yield address
    disconnect_all()
    service.close()


@pytest.fixture(scope="module")
def unix_daemon(tmp_path_factory):
    if not hasattr(socket_module, "AF_UNIX"):
        pytest.skip("no Unix-domain sockets on this platform")
    path = tmp_path_factory.mktemp("s2") / "s2.sock"
    service = S2Service(f"unix://{path}")
    address = service.start()
    yield address
    disconnect_all()
    service.close()


class TestSocketMatchesInProcess:
    """The remote deployment is transport-equivalent: a query against
    the standalone S2 daemon — over TCP or a Unix-domain socket —
    returns bit-identical results with identical round counts, byte
    totals, and leakage profiles (the tentpole acceptance criterion)."""

    ENGINE_CONFIGS = [
        pytest.param(QueryConfig(variant="elim", engine="eager"), id="eager"),
        pytest.param(QueryConfig(variant="elim", engine="literal"), id="literal"),
        pytest.param(
            QueryConfig(variant="elim", engine="eager", shards=2),
            id="eager-sharded",
        ),
    ]

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    @pytest.mark.parametrize("family", ["tcp", "unix"])
    def test_identical_runs(self, config, family, request):
        address = request.getfixturevalue(f"{family}_daemon")
        rows = _rows(5, n=8, m=3)
        base = _run("inprocess", config, rows, [0, 1, 2])
        remote = _run(address, config, rows, [0, 1, 2])

        assert remote[0] == base[0], "top-k results differ across the socket"
        assert remote[1] == base[1], "halting depth differs"
        assert remote[2] == base[2], "leakage event multisets differ"
        assert remote[3].bytes_s1_to_s2 == base[3].bytes_s1_to_s2
        assert remote[3].bytes_s2_to_s1 == base[3].bytes_s2_to_s1
        assert remote[3].rounds == base[3].rounds

    def test_remaining_message_types_over_tcp(self, tcp_daemon):
        """DGK comparison + sorting-network gates cross the socket too."""
        config = QueryConfig(
            variant="elim",
            engine="eager",
            compare_method="dgk",
            sort_method="network",
            max_depth=4,
        )
        rows = _rows(5, n=8, m=3)
        base = _run("inprocess", config, rows, [0, 1, 2])
        remote = _run(tcp_daemon, config, rows, [0, 1, 2])
        assert remote == base


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

    def test_join_identical(self):
        assert self._join_run("threaded") == self._join_run("inprocess")

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

    def test_sknn_identical(self):
        assert self._sknn_run("threaded") == self._sknn_run("inprocess")


class TestRoundCoalescing:
    def test_eager_rounds_constant_per_depth(self):
        """Per-depth round counts are O(1): independent of the number of
        query lists m (the uncoalesced formulation paid O(m) per depth)."""
        per_m = {}
        for m in (2, 3, 4):
            rows = _rows(7, n=8, m=4)
            _, depth, _, stats = _run(
                "inprocess",
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
        _, depth, _, stats = _run(
            "inprocess",
            QueryConfig(variant="elim", engine="eager", halting="strict"),
            rows,
            [0, 1, 2],
        )
        # 2 absorb rounds + 1 refresh + 1 dedup + 1 sort + 1 halting
        # round per depth (blinded compare), plus slack for the final
        # depth; far below the uncoalesced O(|T|) halting cost.
        assert stats.rounds <= 7 * depth
