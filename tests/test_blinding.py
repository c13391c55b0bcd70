"""Tests for the item blinding shared by EncSort/SecDedup/SecDupElim."""

import pytest

from repro.core.params import SystemParams
from repro.core.scheme import SecTopK
from repro.crypto import backend
from repro.crypto.paillier import Ciphertext, PaillierKeypair
from repro.crypto.rng import SecureRandom
from repro.crypto.vector import CtVector
from repro.protocols.blinding import SEED_BYTES, ItemBlinder, junk_batch, seed_key_bits
from repro.exceptions import ProtocolError
from repro.join.scheme import SecTopKJoin
from repro.structures.ehl_plus import EhlPlusFactory
from repro.structures.items import ItemBatch, ScoredItem


@pytest.fixture()
def blinder(ctx):
    return ItemBlinder(ctx.public_key)


def _pack(ctx, items):
    return ItemBatch.pack(ctx.public_key, items)


def junk_item(public_key, template, sentinel, rng):
    """The junk replacement of one template item."""
    junk = junk_batch(public_key, ItemBatch.pack(public_key, [template]), sentinel, rng)
    (item,) = junk.unpack()
    return item


@pytest.fixture()
def item(ctx):
    factory = EhlPlusFactory(ctx.public_key, b"b" * 32, n_hashes=3, rng=ctx.rng)
    return ScoredItem(
        ehl=factory.encode("obj"),
        worst=ctx.encrypt(10),
        best=ctx.encrypt(20),
        list_scores=[ctx.encrypt(3), ctx.encrypt(7)],
        seen_bits=[ctx.encrypt(1), ctx.encrypt(0)],
        record=ctx.encrypt(5),
    )


def _decrypt_item(item, ctx, keypair):
    sk = keypair.secret_key
    return {
        "worst": sk.decrypt_signed(item.worst),
        "best": sk.decrypt_signed(item.best),
        "scores": [sk.decrypt_signed(c) for c in item.list_scores],
        "seen": sk.decrypt_batch(item.seen_bits),
        "record": sk.decrypt(item.record),
    }


class TestBlindUnblind:
    def test_roundtrip_single_seed(self, blinder, item, ctx, keypair):
        (seed,) = blinder.fresh_seeds(ctx.rng, 1)
        blinded = blinder.blind_batch(_pack(ctx, [item]), [[seed]], ctx.rng)
        (restored,) = blinder.unblind_batch(blinded, [[seed]]).unpack()
        assert _decrypt_item(restored, ctx, keypair) == _decrypt_item(item, ctx, keypair)

    def test_roundtrip_double_seed(self, blinder, item, ctx, keypair):
        s1, s2 = blinder.fresh_seeds(ctx.rng, 2)
        once = blinder.blind_batch(_pack(ctx, [item]), [[s1]], ctx.rng)
        blinded = blinder.blind_batch(once, [[s2]], ctx.rng)
        (restored,) = blinder.unblind_batch(blinded, [[s2, s1]]).unpack()  # order-independent
        assert _decrypt_item(restored, ctx, keypair) == _decrypt_item(item, ctx, keypair)

    def test_blinding_changes_plaintexts(self, blinder, item, ctx, keypair):
        (seed,) = blinder.fresh_seeds(ctx.rng, 1)
        (blinded,) = blinder.blind_batch(_pack(ctx, [item]), [[seed]], ctx.rng).unpack()
        assert keypair.secret_key.decrypt(blinded.worst) != 10

    def test_blinding_breaks_equality(self, blinder, item, ctx, keypair):
        (seed,) = blinder.fresh_seeds(ctx.rng, 1)
        (blinded,) = blinder.blind_batch(_pack(ctx, [item]), [[seed]], ctx.rng).unpack()
        assert keypair.secret_key.decrypt(item.ehl.minus(blinded.ehl, ctx.rng)) != 0

    def test_plain_item_without_state(self, blinder, ctx, keypair):
        factory = EhlPlusFactory(ctx.public_key, b"b" * 32, n_hashes=2, rng=ctx.rng)
        item = ScoredItem(ehl=factory.encode(1), worst=ctx.encrypt(1), best=ctx.encrypt(2))
        (seed,) = blinder.fresh_seeds(ctx.rng, 1)
        blinded = blinder.blind_batch(_pack(ctx, [item]), [[seed]], ctx.rng)
        (restored,) = blinder.unblind_batch(blinded, [[seed]]).unpack()
        assert keypair.secret_key.decrypt(restored.worst) == 1
        assert restored.list_scores is None


class TestWholeRound:
    """The batch forms S1 and S2 run per round: S1 blinds under fresh
    seeds, S2 blinds on top (one more seed, or two for a junk
    replacement), S1 decrypts the companions and unblinds — every field
    of every item must come back."""

    @pytest.fixture()
    def items(self, ctx, item):
        factory = EhlPlusFactory(ctx.public_key, b"b" * 32, n_hashes=2, rng=ctx.rng)
        bare = ScoredItem(ehl=factory.encode(1), worst=ctx.encrypt(-4), best=ctx.encrypt(2))
        no_record = ScoredItem(
            ehl=factory.encode(2),
            worst=ctx.encrypt(1),
            best=ctx.encrypt(9),
            list_scores=[ctx.encrypt(1)],
            seen_bits=[ctx.encrypt(1)],
        )
        three_bits = ScoredItem(
            ehl=factory.encode(3),
            worst=ctx.encrypt(7),
            best=ctx.encrypt(8),
            seen_bits=[ctx.encrypt(0), ctx.encrypt(1), ctx.encrypt(1)],
            record=ctx.encrypt(3),
        )
        return [item, bare, no_record, three_bits]

    @staticmethod
    def _plain(scored, ctx, keypair):
        sk = keypair.secret_key
        return {
            "ehl": sk.decrypt_batch(scored.ehl.cells),
            "worst": sk.decrypt_signed(scored.worst),
            "best": sk.decrypt_signed(scored.best),
            "scores": scored.list_scores
            and [sk.decrypt_signed(c) for c in scored.list_scores],
            "seen": scored.seen_bits and sk.decrypt_batch(scored.seen_bits),
            "record": scored.record and sk.decrypt(scored.record),
        }

    def test_s1_blind_s2_blind_s1_unblind(self, blinder, items, ctx, keypair, own_keypair):
        from repro.crypto.rng import SecureRandom

        own_public = own_keypair.public_key
        s2_rng = SecureRandom(43)
        blinded, companions = blinder.blind_fresh(_pack(ctx, items), own_public, ctx.rng)
        # S2: a different blinder object, as on the other cloud.
        s2_blinder = ItemBlinder(ctx.public_key)
        reblinded, fresh = s2_blinder.blind_fresh(blinded, own_public, s2_rng)
        pairs = [v for pair in zip(companions.values(), fresh.values()) for v in pair]
        restored = blinder.unblind_companions(
            own_keypair, reblinded, CtVector.of(own_public, pairs)
        )
        for before, between, after in zip(items, reblinded.unpack(), restored):
            assert self._plain(after, ctx, keypair) == self._plain(before, ctx, keypair)
            assert self._plain(between, ctx, keypair) != self._plain(before, ctx, keypair)
            assert after.list_scores is None or len(after.list_scores) == len(before.list_scores)
            assert (after.seen_bits is None) == (before.seen_bits is None)
            assert (after.record is None) == (before.record is None)

    def test_two_seeds_in_one_pass(self, blinder, items, ctx, keypair):
        """The junk-replacement shape: one item under two of S2's seeds."""
        seed_lists = [blinder.fresh_seeds(ctx.rng, 2) for _ in items]
        blinded = blinder.blind_batch(_pack(ctx, items), seed_lists, ctx.rng)
        restored = blinder.unblind_batch(blinded, [s[::-1] for s in seed_lists]).unpack()
        for before, after in zip(items, restored):
            assert self._plain(after, ctx, keypair) == self._plain(before, ctx, keypair)

    def test_batch_equals_item_by_item(self, blinder, items, ctx, keypair):
        """Blinds are a function of (seed, item shape) alone, whichever
        batch the item travels in: blind in one batch, unblind singly."""
        seeds = blinder.fresh_seeds(ctx.rng, len(items))
        blinded = blinder.blind_batch(_pack(ctx, items), [[s] for s in seeds], ctx.rng)
        for before, between, seed in zip(items, blinded.unpack(), seeds):
            (after,) = blinder.unblind_batch(_pack(ctx, [between]), [[seed]]).unpack()
            assert self._plain(after, ctx, keypair) == self._plain(before, ctx, keypair)

    def test_unblind_does_not_rerandomize(self, blinder, item, ctx):
        """Removing a known constant needs no fresh randomness: a second
        unblind of the same input is the same ciphertexts."""
        (seed,) = blinder.fresh_seeds(ctx.rng, 1)
        blinded = blinder.blind_batch(_pack(ctx, [item]), [[seed]], ctx.rng)
        (once,) = blinder.unblind_batch(blinded, [[seed]]).unpack()
        (twice,) = blinder.unblind_batch(blinded, [[seed]]).unpack()
        assert [b.value for b in once.seen_bits] == [b.value for b in twice.seen_bits]
        assert once.worst.value == twice.worst.value

    def test_companions_decrypt_as_one_batch(self, blinder, ctx, own_keypair):
        seeds = blinder.fresh_seeds(ctx.rng, 5)
        assert len(set(seeds)) == 5
        companions = blinder.encrypt_seeds(own_keypair.public_key, seeds, ctx.rng)
        assert blinder.decrypt_seeds(own_keypair, companions) == seeds


class TestSeedTransport:
    def test_encrypt_decrypt_seed(self, blinder, ctx, own_keypair):
        (seed,) = blinder.fresh_seeds(ctx.rng, 1)
        companions = blinder.encrypt_seeds(own_keypair.public_key, [seed], ctx.rng)
        assert blinder.decrypt_seeds(own_keypair, companions) == [seed]

    def test_seed_size(self, blinder, ctx):
        assert [len(seed) for seed in blinder.fresh_seeds(ctx.rng, 3)] == [SEED_BYTES] * 3

    def test_non_seed_value_rejected(self, blinder, ctx, own_keypair):
        bogus = own_keypair.public_key.encrypt(1 << (8 * SEED_BYTES), ctx.rng)
        with pytest.raises(ProtocolError):
            blinder.decrypt_seeds(own_keypair, [bogus])

    @pytest.mark.parametrize("preset", ["tiny", "insecure_demo", "paper", "secure"])
    def test_half_crt_decrypt_matches_full(self, blinder, preset):
        """``pk'`` is ``2 * key_bits + 16`` bits in every preset, so its
        primes are wider than a seed and the mod-``p`` half of the CRT
        decryption is the whole seed."""
        params = getattr(SystemParams, preset)()
        own = PaillierKeypair.generate(2 * params.key_bits + 16, SecureRandom(21))
        sk, pk = own.secret_key, own.public_key
        assert min(sk.p, sk.q).bit_length() > 8 * SEED_BYTES
        rng = SecureRandom(22)
        seeds = [0, 1, (1 << 8 * SEED_BYTES) - 1]
        seeds += [rng.randbits(8 * SEED_BYTES) for _ in range(3)]
        # One shared randomizer, by hand: the key's pool is 64 full-width
        # exponentiations — most of a minute on the pure backend at the
        # `secure` size.
        rho = backend.powmod(rng.rand_unit(pk.n), pk.n, pk.n_squared)
        cts = [Ciphertext((1 + m * pk.n) * rho % pk.n_squared, pk) for m in seeds]
        assert sk.decrypt_batch_below_p(cts) == sk.decrypt_batch(cts) == seeds
        assert blinder.decrypt_seeds(own, cts) == [
            m.to_bytes(SEED_BYTES, "big") for m in seeds
        ]

    def test_seed_decrypt_is_one_exponentiation_each(
        self, blinder, ctx, own_keypair, monkeypatch
    ):
        seeds = blinder.fresh_seeds(ctx.rng, 4)
        companions = blinder.encrypt_seeds(own_keypair.public_key, seeds, ctx.rng)
        calls = []
        real = backend.paillier_decrypt

        def spy(crt, values, below_p=False):
            # a vector's values arrive as its packed buffer
            width = backend.WORD_BYTES * backend.words_for(crt.n_squared)
            count = len(values) // width if isinstance(values, (bytes, bytearray)) else len(values)
            calls.append((count, crt.n, below_p))
            return real(crt, values, below_p)

        monkeypatch.setattr(backend, "paillier_decrypt", spy)
        assert blinder.decrypt_seeds(own_keypair, companions) == seeds
        assert calls == [(4, own_keypair.public_key.n, True)]

    @pytest.mark.parametrize(
        "preset, bits",
        [("tiny", 224), ("insecure_demo", 224), ("paper", 256), ("secure", 2048)],
    )
    def test_seed_key_is_sized_by_the_seed_bound(self, preset, bits):
        """``SecTopK``'s ``pk'`` carries seeds alone: ``seed_key_bits``
        wide, never narrower than the main key, with both primes wider
        than a seed."""
        params = getattr(SystemParams, preset)()
        own = SecTopK(params, seed=5)._s1_keypair
        assert own.public_key.bits == seed_key_bits(params.key_bits) == bits
        assert bits >= params.key_bits
        primes = {own.secret_key.p.bit_length(), own.secret_key.q.bit_length()}
        assert primes == {bits // 2} and bits // 2 > 8 * SEED_BYTES

    @pytest.mark.parametrize("preset", ["tiny", "paper"])
    def test_join_seed_key_keeps_the_sec_filter_width(self, preset):
        """``SecTopKJoin``'s ``pk'`` also carries SecFilter's combined
        unblinding values, so it stays ``2 * key_bits + 16`` wide."""
        params = getattr(SystemParams, preset)()
        own = SecTopKJoin(params, seed=5)._s1_keypair
        assert own.public_key.bits == 2 * params.key_bits + 16
        assert min(own.secret_key.p, own.secret_key.q).bit_length() == params.key_bits + 8

    def test_key_too_narrow_for_a_seed_rejected(self, blinder, ctx, keypair):
        """The main test key's primes are 64 bits: a 96-bit seed would
        come back reduced mod ``p``, so the blinder refuses the key."""
        companion = keypair.public_key.encrypt(5, ctx.rng)
        with pytest.raises(ProtocolError, match="too narrow"):
            blinder.decrypt_seeds(keypair, [companion])


class TestJunkItem:
    def test_sentinel_scores(self, ctx, item, keypair):
        junk = junk_item(ctx.public_key, item, -ctx.encoder.sentinel, ctx.rng)
        sk = keypair.secret_key
        assert sk.decrypt_signed(junk.worst) == -ctx.encoder.sentinel
        assert sk.decrypt_signed(junk.best) == -ctx.encoder.sentinel

    def test_eager_state_recomputes_to_sentinel(self, ctx, item, keypair):
        """An eager candidate carries a running worst and seen bits, no
        best: the junk keeps that shape, its worst is the sentinel and
        every list is seen, so best = worst + unseen bottoms is too."""
        eager = ScoredItem(ehl=item.ehl, worst=item.worst, seen_bits=item.seen_bits)
        junk = junk_item(ctx.public_key, eager, -ctx.encoder.sentinel, ctx.rng)
        assert keypair.secret_key.decrypt_signed(junk.worst) == -ctx.encoder.sentinel
        assert junk.best is None and junk.list_scores is None and junk.record is None
        assert keypair.secret_key.decrypt_batch(junk.seen_bits) == [1, 1]

    def test_paillier_seen_bits_stay_paillier(self, ctx, item, keypair):
        """The junk marks every list seen as a Paillier ``Enc(1)``, with
        the template's other fields beside it."""
        eager = ScoredItem(
            ehl=item.ehl,
            worst=item.worst,
            seen_bits=[ctx.encrypt(0), ctx.encrypt(1), ctx.encrypt(0)],
            record=item.record,
        )
        junk = junk_item(ctx.public_key, eager, -ctx.encoder.sentinel, ctx.rng)
        sk = keypair.secret_key
        assert sk.decrypt_signed(junk.worst) == -ctx.encoder.sentinel
        assert all(type(b) is Ciphertext for b in junk.seen_bits)
        assert [sk.decrypt(b) for b in junk.seen_bits] == [1, 1, 1]
        assert junk.record is not None and junk.best is None

    def test_seen_bits_of_two_kinds_are_refused(self, ctx, item):
        """Seen bits are Paillier ciphertexts: an item with an ``E2`` one,
        beside a Paillier one or alone, is refused before it is packed
        (so before any junk or blind is made of it)."""
        e2 = ctx.dj.encrypt(1, ctx.rng)
        for bits in ([ctx.encrypt(1), e2], [e2]):
            refused = ScoredItem(ehl=item.ehl, worst=item.worst, seen_bits=bits)
            with pytest.raises(ProtocolError, match="Paillier"):
                _pack(ctx, [refused])

    def test_random_identity(self, ctx, item, keypair):
        junk = junk_item(ctx.public_key, item, -1, ctx.rng)
        assert keypair.secret_key.decrypt(item.ehl.minus(junk.ehl, ctx.rng)) != 0

    def test_shape_matches_template(self, ctx, item):
        junk = junk_item(ctx.public_key, item, -1, ctx.rng)
        assert len(junk.ehl.cells) == len(item.ehl.cells)
        assert len(junk.list_scores) == len(item.list_scores)
        assert len(junk.seen_bits) == len(item.seen_bits)
        assert junk.record is not None
