"""Tests for EHL and EHL+ (Section 5): the ⊖ equality operator,
blinding, rerandomization and size accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import backend
from repro.crypto.paillier import PaillierKeypair, PaillierPublicKey
from repro.crypto.rng import SecureRandom
from repro.exceptions import KeyMismatchError, ProtocolError
from repro.structures.ehl import EhlFactory, EncryptedHashList, KnownPairs
from repro.structures.ehl_plus import EhlPlusFactory


@pytest.fixture()
def factory(keypair, rng):
    return EhlFactory(keypair.public_key, b"m" * 32, table_size=16, n_hashes=3, rng=rng)


@pytest.fixture()
def factory_plus(keypair, rng):
    return EhlPlusFactory(keypair.public_key, b"m" * 32, n_hashes=3, rng=rng)


class TestEhlEquality:
    """Lemma 5.2 for the bit-list EHL."""

    def test_same_object_yields_zero(self, factory, keypair, rng):
        a, b = factory.encode(42), factory.encode(42)
        assert keypair.secret_key.decrypt(a.minus(b, rng)) == 0

    def test_distinct_objects_yield_nonzero(self, factory, keypair, rng):
        hits = 0
        for i in range(20):
            a = factory.encode(("x", i).__repr__())
            b = factory.encode(("y", i).__repr__())
            if factory.positions(("x", i).__repr__()) == factory.positions(
                ("y", i).__repr__()
            ):
                continue  # genuine Bloom collision: ⊖ must report equal
            if keypair.secret_key.decrypt(a.minus(b, rng)) != 0:
                hits += 1
        assert hits >= 15  # overwhelming majority must separate

    def test_result_randomized(self, factory, keypair, rng):
        a, b = factory.encode(1), factory.encode(2)
        r1 = keypair.secret_key.decrypt(a.minus(b, rng))
        r2 = keypair.secret_key.decrypt(a.minus(b, rng))
        assert r1 != r2  # fresh random masks per invocation

    def test_length_mismatch(self, keypair, rng):
        f1 = EhlFactory(keypair.public_key, b"m" * 32, table_size=8, n_hashes=2, rng=rng)
        f2 = EhlFactory(keypair.public_key, b"m" * 32, table_size=16, n_hashes=2, rng=rng)
        with pytest.raises(KeyMismatchError):
            f1.encode(1).minus(f2.encode(1), rng)

    def test_rerandomize(self, factory, keypair, rng):
        a = factory.encode(5)
        b = a.rerandomized(rng)
        assert all(x.value != y.value for x, y in zip(a.cells, b.cells))
        assert keypair.secret_key.decrypt(a.minus(b, rng)) == 0


class TestEhlPlusEquality:
    """Section 5's EHL+ has the same ⊖ semantics at O(s) cost."""

    def test_same_object_yields_zero(self, factory_plus, keypair, rng):
        a, b = factory_plus.encode("alice"), factory_plus.encode("alice")
        assert keypair.secret_key.decrypt(a.minus(b, rng)) == 0

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=20)
    def test_equality_semantics(self, keypair, x, y):
        rng = SecureRandom(x ^ y)
        factory = EhlPlusFactory(keypair.public_key, b"m" * 32, n_hashes=3, rng=rng)
        result = keypair.secret_key.decrypt(
            factory.encode(x).minus(factory.encode(y), rng)
        )
        assert (result == 0) == (x == y)

    def test_blind_add_roundtrip(self, factory_plus, keypair, rng):
        n = keypair.public_key.n
        a = factory_plus.encode(9)
        alphas = [rng.randint_below(n) for _ in range(len(a))]
        blinded = a.blind_add(alphas)
        # Blinded structure no longer matches the original...
        assert keypair.secret_key.decrypt(a.minus(blinded, rng)) != 0
        # ...until the blind is removed.
        restored = blinded.blind_add([n - x for x in alphas])
        assert keypair.secret_key.decrypt(a.minus(restored, rng)) == 0

    def test_blind_arity_checked(self, factory_plus):
        with pytest.raises(KeyMismatchError):
            factory_plus.encode(1).blind_add([1, 2])

    def test_random_encode_distinct(self, factory_plus, keypair, rng):
        a = factory_plus.encode_random(rng)
        b = factory_plus.encode(1)
        assert keypair.secret_key.decrypt(a.minus(b, rng)) != 0


class TestBatchedMinus:
    """``minus_matrix`` / ``minus_many`` are the ``minus`` loop, batched."""

    @pytest.fixture(params=["bits", "plus"])
    def ehls(self, request, factory, factory_plus):
        source = factory if request.param == "bits" else factory_plus
        # Objects 0..3, then 0 and 2 again: two duplicate pairs.
        return [source.encode(oid) for oid in (0, 1, 2, 3, 0, 2)]

    def test_matrix_equals_loop_ciphertext_for_ciphertext(self, ehls):
        from repro.structures.ehl import EncryptedHashList

        matrix = EncryptedHashList.minus_matrix(ehls, SecureRandom(99))
        rng = SecureRandom(99)
        loop = [
            ehls[i].minus(ehls[j], rng)
            for i in range(len(ehls))
            for j in range(i + 1, len(ehls))
        ]
        assert [c.value for c in matrix] == [c.value for c in loop]

    def test_many_equals_loop_ciphertext_for_ciphertext(self, ehls):
        row = ehls[0].minus_many(ehls[1:], SecureRandom(98))
        rng = SecureRandom(98)
        assert [c.value for c in row] == [
            ehls[0].minus(other, rng).value for other in ehls[1:]
        ]

    def test_matrix_is_zero_exactly_on_equal_objects(self, ehls, keypair, rng):
        from repro.structures.ehl import EncryptedHashList

        oids = (0, 1, 2, 3, 0, 2)
        entries = keypair.secret_key.decrypt_batch(
            EncryptedHashList.minus_matrix(ehls, rng)
        )
        expected = [
            oids[i] == oids[j]
            for i in range(len(oids))
            for j in range(i + 1, len(oids))
        ]
        assert [entry == 0 for entry in entries] == expected

    def test_empty_and_mismatched_batches(self, factory_plus, keypair, rng):
        from repro.structures.ehl import EncryptedHashList

        a = factory_plus.encode(1)
        assert a.minus_many([], rng) == []
        assert EncryptedHashList.minus_matrix([a], rng) == []
        longer = EhlPlusFactory(keypair.public_key, b"m" * 32, n_hashes=4, rng=rng)
        with pytest.raises(KeyMismatchError):
            a.minus_many([factory_plus.encode(2), longer.encode(1)], rng)


def _triangle(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestKnownPairs:
    """``minus_matrix`` with knowledge: same zero pattern, no recomputed ⊖."""

    @staticmethod
    def _encode(keypair, oids, plus, rng):
        if plus:
            source = EhlPlusFactory(keypair.public_key, b"m" * 32, n_hashes=3, rng=rng)
        else:
            source = EhlFactory(
                keypair.public_key, b"m" * 32, table_size=16, n_hashes=3, rng=rng
            )
        return [source.encode(oid) for oid in oids]

    @given(
        oids=st.lists(st.integers(0, 4), min_size=2, max_size=6),
        plus=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_zero_pattern_matches_the_full_matrix(self, keypair, oids, plus, data):
        rng = SecureRandom(11)
        sk = keypair.secret_key
        ehls = self._encode(keypair, oids, plus, rng)
        pairs = _triangle(len(ehls))
        full = sk.decrypt_batch(EncryptedHashList.minus_matrix(ehls, rng))
        is_zero = {pair: entry == 0 for pair, entry in zip(pairs, full)}

        split = data.draw(
            st.lists(
                st.sampled_from(["distinct", "tested", "unknown"]),
                min_size=len(pairs),
                max_size=len(pairs),
            )
        )
        known = KnownPairs()
        source_plain = {}
        for (i, j), rule in zip(pairs, split):
            if rule == "distinct" and not is_zero[i, j]:
                known.distinct([ehls[j], ehls[i]])
            elif rule != "unknown":
                # Recorded the other way round than the matrix asks.
                ct = ehls[j].minus(ehls[i], rng)
                known.tested(ehls[j], [ehls[i]], [ct])
                source_plain[i, j] = sk.decrypt(ct)

        order = data.draw(st.permutations(range(len(ehls))))
        got = sk.decrypt_batch(
            EncryptedHashList.minus_matrix([ehls[i] for i in order], rng, known)
        )
        for (a, b), entry in zip(pairs, got):
            pair = tuple(sorted((order[a], order[b])))
            assert (entry == 0) == is_zero[pair]
            if source_plain.get(pair):
                # Rule (b) on a non-zero source: non-zero and rescaled.
                assert entry not in (0, source_plain[pair])

    @pytest.mark.parametrize("plus", [False, True], ids=["bits", "plus"])
    def test_empty_knowledge_is_the_loop_ciphertext_for_ciphertext(self, keypair, plus):
        ehls = self._encode(keypair, (0, 1, 2, 0), plus, SecureRandom(3))
        rng = SecureRandom(99)
        loop = [ehls[i].minus(ehls[j], rng).value for i, j in _triangle(len(ehls))]
        for known in (None, KnownPairs()):
            matrix = EncryptedHashList.minus_matrix(ehls, SecureRandom(99), known)
            assert [c.value for c in matrix] == loop

    def test_covered_entries_draw_in_batches(self, keypair, monkeypatch):
        """One ``encrypt_batch`` for rule (a), one ``randomizers`` plus one
        ``powmod_pairs`` for rule (b), one ``powmod_products`` for rule (c)
        — per matrix, not per pair."""
        rng = SecureRandom(5)
        ehls = self._encode(keypair, range(5), True, rng)
        known = KnownPairs()
        known.distinct(ehls[:3])
        known.tested(ehls[4], ehls[:4], ehls[4].minus_many(ehls[:4], rng))

        powmods, products, draws = [], [], []
        real_powmod = backend.powmod_pairs
        real_products = backend.powmod_products
        real_randomizers = PaillierPublicKey.randomizers
        monkeypatch.setattr(
            backend,
            "powmod_pairs",
            lambda bases, exps, mod: powmods.append(len(bases))
            or real_powmod(bases, exps, mod),
        )
        monkeypatch.setattr(
            backend,
            "powmod_products",
            lambda accs, bases, exps, counts, mod: products.append(counts)
            or real_products(accs, bases, exps, counts, mod),
        )
        monkeypatch.setattr(
            PaillierPublicKey,
            "randomizers",
            lambda self, rng, count: draws.append(count)
            or real_randomizers(self, rng, count),
        )
        matrix = EncryptedHashList.minus_matrix(ehls, rng, known)
        cells = len(ehls[0])
        # 10 pairs: 3 known distinct, 4 tested, 3 computed (ehls[3] vs 0..2).
        assert powmods == [4]
        assert products == [[cells] * 3]
        assert sorted(draws) == [1, 1, 1, 3, 4]
        assert all(e != 0 for e in keypair.secret_key.decrypt_batch(matrix))

    def test_claimed_but_uncovered_pair_raises(self, keypair):
        rng = SecureRandom(6)
        a, b, c = self._encode(keypair, (1, 2, 3), True, rng)
        known = KnownPairs()
        with pytest.raises(ProtocolError, match="claimed tested"):
            known.tested(a, [b, c], [a.minus(b, rng)])
        # Nothing was half-recorded: the matrix computes both pairs.
        assert known.lookup(a, b) is None and known.lookup(a, c) is None

    def test_tested_ciphertext_under_another_key_raises(self, keypair):
        rng = SecureRandom(8)
        a, b = self._encode(keypair, (1, 2), True, rng)
        foreign = PaillierKeypair.generate(128, SecureRandom(77))
        known = KnownPairs()
        known.tested(a, [b], [foreign.public_key.encrypt(5, rng)])
        with pytest.raises(KeyMismatchError):
            EncryptedHashList.minus_matrix([a, b], rng, known)


class TestIndistinguishabilityShape:
    """Lemma 5.1 sanity: encodings are probabilistic ciphertext lists."""

    def test_same_object_fresh_ciphertexts(self, factory_plus):
        a, b = factory_plus.encode(7), factory_plus.encode(7)
        assert all(x.value != y.value for x, y in zip(a.cells, b.cells))

    def test_hash_vector_deterministic(self, factory_plus):
        assert factory_plus.hash_vector(7) == factory_plus.hash_vector(7)


class TestSizes:
    def test_plus_smaller_than_bits(self, factory, factory_plus):
        # The headline claim behind Figure 7.
        assert factory_plus.structure_bytes() < factory.structure_bytes()

    def test_structure_bytes_matches_encoding(self, factory_plus):
        a = factory_plus.encode(3)
        assert a.serialized_size() == factory_plus.structure_bytes()

    def test_validation(self, keypair, rng):
        with pytest.raises(ValueError):
            EhlPlusFactory(keypair.public_key, b"m" * 32, n_hashes=0, rng=rng)
        with pytest.raises(ValueError):
            EhlFactory(
                keypair.public_key, b"m" * 32, table_size=2, n_hashes=5, rng=rng
            )
