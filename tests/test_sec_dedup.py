"""Tests for SecDedup (Algorithm 7) and SecDupElim (Section 10.1)."""

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto import backend
from repro.crypto.vector import CtVector
from repro.net.messages import DedupBatch
from repro.nra import naive_topk
from repro.protocols.sec_dedup import _prepare, sec_dedup
from repro.protocols.sec_dup_elim import sec_dup_elim
from repro.exceptions import ProtocolError
from repro.structures.ehl import EncryptedHashList
from repro.structures.ehl_plus import EhlPlusFactory
from repro.structures.items import ScoredItem


@pytest.fixture()
def factory(ctx):
    return EhlPlusFactory(ctx.public_key, b"d" * 32, n_hashes=3, rng=ctx.rng)


def _scored(ctx, factory, object_id, worst, best):
    return ScoredItem(
        ehl=factory.encode(object_id),
        worst=ctx.encrypt(worst),
        best=ctx.encrypt(best),
        record=ctx.encrypt(hash(object_id) % 1000),
    )


def _decrypt_pairs(items, keypair):
    sk = keypair.secret_key
    return sorted((sk.decrypt_signed(i.worst), sk.decrypt_signed(i.best)) for i in items)


class TestSecDedup:
    def test_no_duplicates_preserved(self, ctx, factory, keypair, own_keypair):
        items = [_scored(ctx, factory, f"o{i}", i * 10, i * 10 + 1) for i in range(4)]
        result = sec_dedup(ctx, items, own_keypair)
        assert len(result) == 4
        assert _decrypt_pairs(result, keypair) == _decrypt_pairs(items, keypair)

    def test_duplicates_buried(self, ctx, factory, keypair, own_keypair):
        items = [
            _scored(ctx, factory, "dup", 10, 20),
            _scored(ctx, factory, "dup", 10, 20),
            _scored(ctx, factory, "solo", 5, 6),
        ]
        result = sec_dedup(ctx, items, own_keypair)
        assert len(result) == 3
        scores = _decrypt_pairs(result, keypair)
        sentinel = -ctx.encoder.sentinel
        assert (sentinel, sentinel) in scores
        assert (10, 20) in scores
        assert (5, 6) in scores

    def test_buried_identity_randomized(self, ctx, factory, keypair, own_keypair):
        items = [_scored(ctx, factory, "dup", 1, 1) for _ in range(2)]
        result = sec_dedup(ctx, items, own_keypair)
        # After burial the two items must no longer test equal.
        eq = result[0].ehl.minus(result[1].ehl, ctx.rng)
        assert keypair.secret_key.decrypt(eq) != 0

    def test_rank_preference(self, ctx, factory, keypair, own_keypair):
        """The lowest-rank copy survives with its scores intact."""
        items = [
            _scored(ctx, factory, "dup", 111, 222),   # rank 1
            _scored(ctx, factory, "dup", 333, 444),   # rank 0  <- keeper
        ]
        result = sec_dedup(ctx, items, own_keypair, ranks=[1, 0])
        scores = _decrypt_pairs(result, keypair)
        assert (333, 444) in scores
        assert (111, 222) not in scores

    def test_fresh_encryptions(self, ctx, factory, own_keypair):
        items = [_scored(ctx, factory, "a", 1, 2), _scored(ctx, factory, "b", 3, 4)]
        originals = {i.worst.value for i in items}
        result = sec_dedup(ctx, items, own_keypair)
        assert all(i.worst.value not in originals for i in result)

    def test_trivial_inputs(self, ctx, factory, own_keypair):
        assert sec_dedup(ctx, [], own_keypair) == []
        single = [_scored(ctx, factory, "x", 1, 2)]
        assert sec_dedup(ctx, single, own_keypair) == single

    def test_rank_length_validated(self, ctx, factory, own_keypair):
        items = [_scored(ctx, factory, "a", 1, 2), _scored(ctx, factory, "b", 3, 4)]
        with pytest.raises(ProtocolError):
            sec_dedup(ctx, items, own_keypair, ranks=[0])

    def test_group_size_leakage_recorded(self, ctx, factory, own_keypair):
        items = [
            _scored(ctx, factory, "dup", 1, 2),
            _scored(ctx, factory, "dup", 1, 2),
            _scored(ctx, factory, "x", 3, 4),
        ]
        sec_dedup(ctx, items, own_keypair)
        groups = ctx.leakage.by_kind("dedup_groups")[-1].payload
        assert groups == [1, 2]


class TestSecDupElim:
    def test_duplicates_dropped(self, ctx, factory, keypair, own_keypair):
        items = [
            _scored(ctx, factory, "dup", 10, 20),
            _scored(ctx, factory, "dup", 10, 20),
            _scored(ctx, factory, "solo", 5, 6),
        ]
        result = sec_dup_elim(ctx, items, own_keypair)
        assert len(result) == 2
        assert _decrypt_pairs(result, keypair) == [(5, 6), (10, 20)]

    def test_three_way_group(self, ctx, factory, keypair, own_keypair):
        items = [_scored(ctx, factory, "t", 7, 8) for _ in range(3)]
        items.append(_scored(ctx, factory, "u", 1, 2))
        result = sec_dup_elim(ctx, items, own_keypair)
        assert len(result) == 2

    def test_rank_preference(self, ctx, factory, keypair, own_keypair):
        items = [
            _scored(ctx, factory, "dup", 111, 222),
            _scored(ctx, factory, "dup", 333, 444),
        ]
        result = sec_dup_elim(ctx, items, own_keypair, ranks=[5, 2])
        assert _decrypt_pairs(result, keypair) == [(333, 444)]

    def test_uniqueness_leakage_recorded(self, ctx, factory, own_keypair):
        items = [
            _scored(ctx, factory, "dup", 1, 1),
            _scored(ctx, factory, "dup", 1, 1),
        ]
        sec_dup_elim(ctx, items, own_keypair)
        uniques = [e for e in ctx.leakage.by_kind("unique_count")]
        assert any(e.payload == 1 for e in uniques)

    def test_no_duplicates_noop(self, ctx, factory, keypair, own_keypair):
        items = [_scored(ctx, factory, f"o{i}", i, i) for i in range(3)]
        result = sec_dup_elim(ctx, items, own_keypair)
        assert len(result) == 3


class TestMalformedBatch:
    """S2 checks a ``DedupBatch``'s shape instead of trusting it."""

    @pytest.mark.parametrize(
        "field, reshape",
        [
            ("matrix", lambda cts: cts[:-1]),
            ("matrix", lambda cts: CtVector.concat([cts, cts])),
            ("ranks", lambda ranks: ranks[:-1]),
            ("companions", lambda cts: cts[:-1]),
        ],
        ids=["matrix-short", "matrix-long", "ranks-short", "companions-short"],
    )
    def test_wrong_shape_is_a_protocol_error(
        self, ctx, factory, own_keypair, field, reshape
    ):
        items = [_scored(ctx, factory, f"o{i}", i, i + 1) for i in range(3)]
        _, parts = _prepare(ctx, items, [0, 0, 0], own_keypair, None)
        parts[field] = reshape(parts[field])
        with pytest.raises(ProtocolError, match="malformed dedup batch"):
            ctx.call(
                DedupBatch(
                    protocol="SecDedup",
                    own_public=own_keypair.public_key,
                    sentinel=-ctx.encoder.sentinel,
                    eliminate=False,
                    **parts,
                )
            )


class TestMatrixReusesHeldEqualities:
    """Engine level: a deduplication matrix never recomputes ``⊖`` for a
    pair S1 already holds, and covered + computed pairs tile the triangle."""

    ROWS = [[(7 * i + 3 * a) % 23 for a in range(3)] for i in range(10)]

    @staticmethod
    def _spy(monkeypatch):
        calls, inside = [], []
        real_matrix = EncryptedHashList.minus_matrix
        real_powmod = backend.powmod_pairs

        def powmod_pairs(bases, exps, mod):
            if inside:
                inside[-1]["exps"] += len(bases)
            return real_powmod(bases, exps, mod)

        def minus_matrix(items, rng, known=None):
            held = [
                known.lookup(items[i], items[j]) if known else None
                for i in range(len(items))
                for j in range(i + 1, len(items))
            ]
            call = {
                "knowledge": known is not None,
                "cells": len(items[0]),
                "triangle": len(items) * (len(items) - 1) // 2,
                "computed": sum(h is None for h in held),
                # a tested pair's earlier ⊖ value
                "tested": sum(isinstance(h, int) for h in held),
                "exps": 0,
            }
            call["distinct"] = len(held) - call["computed"] - call["tested"]
            inside.append(call)
            try:
                return real_matrix(items, rng, known)
            finally:
                calls.append(inside.pop())

        monkeypatch.setattr(backend, "powmod_pairs", powmod_pairs)
        monkeypatch.setattr(
            EncryptedHashList, "minus_matrix", staticmethod(minus_matrix)
        )
        return calls

    @pytest.mark.parametrize(
        "config",
        [
            # The eager engine's matrix is the network sort's DedupBatch;
            # its affine settle has none (test_eager_affine_settle_has_no_matrix).
            {"variant": "elim", "sort_method": "network"},
            {"variant": "full", "sort_method": "network"},
            {"variant": "batch", "batch_p": 4, "sort_method": "network"},
            {"engine": "literal", "variant": "elim"},
            {"engine": "literal", "variant": "full"},
        ],
        ids=["eager-elim", "eager-full", "eager-batch", "literal-elim", "literal-full"],
    )
    def test_no_full_minus_for_a_covered_pair(self, monkeypatch, config):
        scheme = SecTopK(SystemParams.tiny(), seed=21)
        relation = scheme.encrypt(self.ROWS)
        calls = self._spy(monkeypatch)
        result = scheme.query(
            relation, scheme.token([0, 1, 2], k=3), QueryConfig(**config)
        )
        assert {o for o, _ in scheme.reveal(result)} == {
            o for o, _ in naive_topk(self.ROWS, [0, 1, 2], 3)
        }

        assert calls
        for call in calls:
            assert call["distinct"] + call["tested"] + call["computed"] == call["triangle"]
            # One rescale per tested pair, one per cell only where computed.
            assert call["exps"] == call["tested"] + call["computed"] * call["cells"]
            if call["knowledge"]:
                assert call["computed"] == 0
        # Every matrix is informed — the literal engine's per-depth Γ
        # dedup by the pairs its SecWorst runs tested — so none computes.
        assert all(call["knowledge"] for call in calls)
        assert sum(call["tested"] for call in calls) > 0
        assert sum(call["distinct"] for call in calls) > 0

    @pytest.mark.parametrize("variant", ["elim", "full", "batch"])
    def test_eager_affine_settle_has_no_matrix(self, monkeypatch, variant):
        """A ``DedupSort`` reads the absorbs' counts: no ``⊖`` pair is
        built for it, known or not."""
        scheme = SecTopK(SystemParams.tiny(), seed=21)
        relation = scheme.encrypt(self.ROWS)
        calls = self._spy(monkeypatch)
        result = scheme.query(
            relation,
            scheme.token([0, 1, 2], k=3),
            QueryConfig(variant=variant, batch_p=4),
        )
        assert {o for o, _ in scheme.reveal(result)} == {
            o for o, _ in naive_topk(self.ROWS, [0, 1, 2], 3)
        }
        assert calls == []

    @pytest.mark.parametrize("variant", ["elim", "full"])
    def test_literal_gamma_matrix_is_all_rescales(self, monkeypatch, variant):
        """Γ holds one item per list, every pair of which SecWorst ⊖-tested
        in the same depth: its matrix is m(m-1)/2 one-exponent rescales."""
        scheme = SecTopK(SystemParams.tiny(), seed=21)
        relation = scheme.encrypt(self.ROWS)
        calls = self._spy(monkeypatch)
        scheme.query(
            relation,
            scheme.token([0, 1, 2], k=3),
            QueryConfig(engine="literal", variant=variant),
        )
        gamma = [call for call in calls if call["triangle"] == 3 and call["tested"]]
        assert gamma
        for call in gamma:
            assert (call["computed"], call["tested"], call["exps"]) == (0, 3, 3)
