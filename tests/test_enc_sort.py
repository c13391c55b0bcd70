"""Tests for both EncSort constructions and the Batcher network."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.rng import SecureRandom
from repro.exceptions import ProtocolError
from repro.protocols.base import make_parties
from repro.protocols.enc_sort import batcher_network, enc_sort
from repro.structures.ehl_plus import EhlPlusFactory
from repro.structures.items import ScoredItem


def _items(ctx, scores, with_state=False):
    factory = EhlPlusFactory(ctx.public_key, b"s" * 32, n_hashes=2, rng=ctx.rng)
    items = []
    for i, score in enumerate(scores):
        items.append(
            ScoredItem(
                ehl=factory.encode(i),
                worst=ctx.encrypt(score),
                best=ctx.encrypt(score + 1),
                list_scores=[ctx.encrypt(score)] if with_state else None,
                seen_bits=[ctx.encrypt(1)] if with_state else None,
                record=ctx.encrypt(i),
            )
        )
    return items


class TestBatcherNetwork:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 16, 33])
    def test_sorts_plaintext(self, n):
        """Apply the comparator network to plain integers: must sort."""
        rng = SecureRandom(n)
        values = [rng.randint_below(100) for _ in range(n)]
        for layer in batcher_network(n):
            for i, j in layer:
                if values[i] > values[j]:
                    values[i], values[j] = values[j], values[i]
        assert values == sorted(values)

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=24))
    @settings(max_examples=30)
    def test_zero_one_principle(self, bits):
        """A comparator network sorting all 0/1 inputs sorts everything."""
        values = list(bits)
        for layer in batcher_network(len(values)):
            for i, j in layer:
                if values[i] > values[j]:
                    values[i], values[j] = values[j], values[i]
        assert values == sorted(values)

    def test_layers_are_disjoint(self):
        for layer in batcher_network(16):
            touched = [idx for gate in layer for idx in gate]
            assert len(touched) == len(set(touched))


class TestAffineSort:
    def test_sorts_descending(self, ctx, own_keypair, keypair):
        scores = [5, 1, 9, 3, 7, 7, 0]
        result = enc_sort(ctx, _items(ctx, scores), own_keypair, descending=True)
        decrypted = [keypair.secret_key.decrypt(i.worst) for i in result]
        assert decrypted == sorted(scores, reverse=True)

    def test_sorts_ascending(self, ctx, own_keypair, keypair):
        scores = [5, 1, 9]
        result = enc_sort(ctx, _items(ctx, scores), own_keypair, descending=False)
        assert [keypair.secret_key.decrypt(i.worst) for i in result] == sorted(scores)

    def test_payload_travels_with_key(self, ctx, own_keypair, keypair):
        """best and record must stay attached to their worst score."""
        scores = [4, 8, 2, 6]
        result = enc_sort(ctx, _items(ctx, scores), own_keypair, descending=True)
        sk = keypair.secret_key
        for item in result:
            worst = sk.decrypt(item.worst)
            assert sk.decrypt(item.best) == worst + 1
            assert sk.decrypt(item.record) == scores.index(worst)

    def test_eager_state_travels(self, ctx, own_keypair, keypair):
        scores = [4, 8, 2]
        result = enc_sort(
            ctx, _items(ctx, scores, with_state=True), own_keypair, descending=True
        )
        sk = keypair.secret_key
        for item in result:
            worst = sk.decrypt(item.worst)
            assert sk.decrypt(item.list_scores[0]) == worst
            assert sk.decrypt(item.seen_bits[0]) == 1

    def test_fresh_encryptions(self, ctx, own_keypair):
        items = _items(ctx, [3, 1, 2])
        originals = {i.worst.value for i in items} | {i.best.value for i in items}
        result = enc_sort(ctx, items, own_keypair)
        for item in result:
            assert item.worst.value not in originals
            assert item.best.value not in originals

    def test_negative_keys(self, ctx, own_keypair, keypair):
        sentinel = -ctx.encoder.sentinel
        items = _items(ctx, [5, 1])
        items[0].worst = ctx.encrypt(sentinel)
        result = enc_sort(ctx, items, own_keypair, descending=True)
        assert keypair.secret_key.decrypt_signed(result[-1].worst) == sentinel

    def test_trivial_inputs(self, ctx, own_keypair):
        assert enc_sort(ctx, [], own_keypair) == []
        single = _items(ctx, [5])
        assert enc_sort(ctx, single, own_keypair) == single

    def test_one_round(self, ctx, own_keypair):
        before = ctx.channel.stats.rounds
        enc_sort(ctx, _items(ctx, [3, 1, 2]), own_keypair)
        assert ctx.channel.stats.rounds == before + 1

    def test_unknown_method_rejected(self, ctx, own_keypair):
        with pytest.raises(ProtocolError):
            enc_sort(ctx, _items(ctx, [1, 2]), own_keypair, method="bogus")


class TestNetworkSort:
    def test_sorts_descending(self, ctx, own_keypair, keypair):
        scores = [5, 1, 9, 3, 7]
        result = enc_sort(
            ctx, _items(ctx, scores), own_keypair, descending=True, method="network"
        )
        decrypted = [keypair.secret_key.decrypt(i.worst) for i in result]
        assert decrypted == sorted(scores, reverse=True)

    def test_payload_integrity(self, ctx, own_keypair, keypair):
        scores = [4, 8, 2, 6]
        result = enc_sort(
            ctx, _items(ctx, scores), own_keypair, descending=True, method="network"
        )
        sk = keypair.secret_key
        for item in result:
            assert sk.decrypt(item.best) == sk.decrypt(item.worst) + 1

    @pytest.mark.parametrize("bad", [[], [[]], "items"], ids=["empty", "nested", "str"])
    def test_a_gate_reply_without_a_batch_is_refused(self, ctx, own_keypair, monkeypatch, bad):
        """A gate reply whose items are not one batch is a ProtocolError
        on S1, as every other malformed batch is."""
        call = ctx.call

        def tampered(msg):
            return [(keys, bad, comps) for keys, _, comps in call(msg)]

        monkeypatch.setattr(ctx, "call", tampered)
        with pytest.raises(ProtocolError):
            enc_sort(ctx, _items(ctx, [3, 1, 2, 4]), own_keypair, method="network")

    def test_more_rounds_than_affine(self, ctx, own_keypair):
        items = _items(ctx, [3, 1, 2, 9, 4, 6])
        before = ctx.channel.stats.rounds
        enc_sort(ctx, items, own_keypair, method="network")
        assert ctx.channel.stats.rounds - before > 1
