"""Security-oriented tests: the leakage audit of Section 9.

CQA security says the servers learn nothing beyond the declared leakage
functions.  We check that empirically: after full protocol runs, every
observation either server recorded must be classified by the declared
profile, S1 must never hold key material, and the equality patterns S2
sees must match the (permuted) ground truth — no more, no less.
"""

import random

import pytest

from repro.core.leakage import ALLOWED_KINDS, audit, equality_pattern_matrices
from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.paillier import PaillierSecretKey
from repro.crypto.rng import SecureRandom
from repro.nra import SortedLists


@pytest.fixture(scope="module")
def query_run():
    """One full secure query, returning (scheme, ctx-leakage, result)."""
    rng = SecureRandom(77)
    rows = [[rng.randint_below(30) for _ in range(3)] for _ in range(10)]
    scheme = SecTopK(SystemParams.tiny(), seed=31)
    encrypted = scheme.encrypt(rows)
    token = scheme.token([0, 1, 2], k=2)
    ctx = scheme._make_context()
    result = scheme.query(
        encrypted, token, QueryConfig(variant="elim", engine="eager"), ctx=ctx
    )
    return scheme, ctx, result, rows


class TestLeakageAudit:
    def test_full_query_is_clean(self, query_run):
        _, ctx, _, _ = query_run
        report = audit(ctx.leakage)
        assert report.clean, report.unclassified

    def test_only_declared_kinds(self, query_run):
        _, ctx, _, _ = query_run
        kinds = {e.kind for e in ctx.leakage.events}
        assert kinds <= set(ALLOWED_KINDS)

    def test_query_pattern_and_depth_recorded(self, query_run):
        _, ctx, result, _ = query_run
        s1_events = [e for e in ctx.leakage.events if e.observer == "S1"]
        s1_kinds = {e.kind for e in s1_events}
        assert "query_pattern" in s1_kinds
        assert "halting_depth" in s1_kinds
        depth_events = [e for e in s1_events if e.kind == "halting_depth"]
        assert depth_events[-1].payload == result.halting_depth

    def test_dgk_and_network_paths_also_clean(self):
        rng = SecureRandom(11)
        rows = [[rng.randint_below(30) for _ in range(2)] for _ in range(8)]
        scheme = SecTopK(SystemParams.tiny(), seed=41)
        encrypted = scheme.encrypt(rows)
        token = scheme.token([0, 1], k=2)
        ctx = scheme._make_context()
        scheme.query(
            encrypted,
            token,
            QueryConfig(
                variant="elim",
                engine="eager",
                compare_method="dgk",
                sort_method="network",
            ),
            ctx=ctx,
        )
        report = audit(ctx.leakage)
        assert report.clean, report.unclassified

    def test_join_run_is_clean(self, own_keypair):
        from repro.join import SecTopKJoin

        scheme = SecTopKJoin(SystemParams.tiny(), seed=13)
        er1 = scheme.encrypt("A", [[1, 5], [2, 6]])
        er2 = scheme.encrypt("B", [[1, 7], [3, 8]])
        ctx = scheme.make_clouds()
        scheme.join_query(er1, er2, scheme.token("A", "B", (0, 0), (1, 1), 1), ctx=ctx)
        report = audit(ctx.leakage)
        assert report.clean, report.unclassified


class TestS1HoldsNoSecrets:
    def test_context_has_no_secret_key(self, query_run):
        """No PaillierSecretKey is reachable from the S1 context except
        through the CryptoCloud boundary object (which stands in for the
        remote S2)."""
        _, ctx, _, _ = query_run
        assert not isinstance(getattr(ctx, "secret_key", None), PaillierSecretKey)
        for attr in ("public_key", "dj", "encoder", "channel", "rng"):
            value = getattr(ctx, attr)
            assert not isinstance(value, PaillierSecretKey)
            assert not any(
                isinstance(v, PaillierSecretKey) for v in vars(value).values()
            ) if hasattr(value, "__dict__") else True

    def test_s2_private_key_is_name_mangled_away(self, query_run):
        """The crypto cloud sits behind the transport's dispatcher; even
        there the keypair is a private attribute, not ``secret_key``."""
        _, ctx, _, _ = query_run
        cloud = ctx.transport.dispatcher.cloud
        assert not hasattr(cloud, "secret_key")

    def test_s1_protocol_code_holds_no_s2_handle(self, query_run):
        """The transport boundary is real: the context exposes no ``s2``
        attribute for protocol code to call around the message layer."""
        _, ctx, _, _ = query_run
        assert not hasattr(ctx, "s2")


class TestEqualityPatternSemantics:
    def test_eq_bits_count_matches_truth(self, keypair, own_keypair):
        """S2's per-batch equality bits have the ground-truth multiset
        (the permutation hides positions, not the count) — for one
        SecWorst, and for every absorb batch of an eager query."""
        from repro.protocols.base import make_parties
        from repro.protocols.sec_worst import sec_worst
        from repro.structures.ehl_plus import EhlPlusFactory
        from repro.structures.items import EncryptedItem

        ctx = make_parties(keypair, rng=SecureRandom(3))
        factory = EhlPlusFactory(ctx.public_key, b"q" * 32, n_hashes=3, rng=ctx.rng)
        item = EncryptedItem(ehl=factory.encode("x"), score=ctx.encrypt(1))
        others = [
            EncryptedItem(ehl=factory.encode(o), score=ctx.encrypt(1))
            for o in ("x", "y", "x", "z")
        ]
        sec_worst(ctx, item, others)
        matrices = equality_pattern_matrices(ctx.leakage)
        assert len(matrices) == 1
        assert sorted(matrices[0]) == [0, 0, 1, 1]

        # Eager, elim variant (a deduplication every depth): each list's
        # item against every candidate known before it — the distinct
        # objects of earlier depths, then this depth's earlier items.
        shuffle = random.Random(5)
        rows = [list(r) for r in zip(*(shuffle.sample(range(40), 10) for _ in range(3)))]
        scheme = SecTopK(SystemParams.tiny(), seed=19)
        ctx = scheme._make_context()
        try:
            result = scheme.query(
                scheme.encrypt(rows),
                scheme.token([0, 1, 2], k=2),
                QueryConfig(engine="eager", variant="elim"),
                ctx=ctx,
            )
        finally:
            ctx.close()
        lists = SortedLists(rows, [0, 1, 2])
        known, expected = [], []
        for depth in range(result.halting_depth):
            objects = [entry.object_id for entry in lists.depth(depth)]
            for j, obj in enumerate(objects):
                if known or j:
                    expected.append(sorted(int(o == obj) for o in known + objects[:j]))
            known = list(dict.fromkeys(known + objects))
        assert any(1 in bits for bits in expected)
        assert [sorted(bits) for bits in equality_pattern_matrices(ctx.leakage)] == expected
        assert not ctx.leakage.by_kind("recover_batch")

    def test_no_plaintext_scores_in_log(self, query_run):
        """Blinded-value observations must not carry payloads."""
        _, ctx, _, rows = query_run
        blinded_kinds = {"sort_key_blinded", "dedup_matrix", "dedup_count", "dgk_blinded"}
        for event in ctx.leakage.events:
            if event.kind in blinded_kinds:
                assert event.payload is None
