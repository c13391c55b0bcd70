"""Unit and property tests for the Paillier cryptosystem."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto import backend
from repro.crypto.paillier import (
    Ciphertext,
    PaillierKeypair,
    PaillierPublicKey,
)
from repro.crypto.rng import SecureRandom
from repro.data import correlated_relation
from repro.exceptions import DecryptionError, KeyMismatchError


@pytest.fixture(scope="module")
def other_keypair():
    return PaillierKeypair.generate(128, SecureRandom(55))


class TestRoundtrip:
    @pytest.mark.parametrize("m", [0, 1, 2, 255, 10**9])
    def test_encrypt_decrypt(self, keypair, m, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        assert sk.decrypt(pk.encrypt(m, rng)) == m

    def test_modulus_edge(self, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        assert sk.decrypt(pk.encrypt(pk.n - 1, rng)) == pk.n - 1
        assert sk.decrypt(pk.encrypt(pk.n, rng)) == 0

    def test_probabilistic(self, keypair, rng):
        pk = keypair.public_key
        assert pk.encrypt(5, rng).value != pk.encrypt(5, rng).value

    def test_signed_roundtrip(self, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        for m in (-1, -12345, 12345, 0):
            assert sk.decrypt_signed(pk.encrypt_signed(m, rng)) == m

    def test_rerandomize_preserves_plaintext(self, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        c = pk.encrypt(77, rng)
        c2 = pk.rerandomize(c, rng)
        assert c2.value != c.value
        assert sk.decrypt(c2) == 77

    @given(st.integers(min_value=0, max_value=2**64))
    @settings(max_examples=25)
    def test_roundtrip_property(self, keypair, m):
        rng = SecureRandom(m)
        assert keypair.secret_key.decrypt(keypair.public_key.encrypt(m, rng)) == m


class TestHomomorphisms:
    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    @settings(max_examples=25)
    def test_addition(self, keypair, x, y):
        rng = SecureRandom(x * 31 + y)
        pk, sk = keypair.public_key, keypair.secret_key
        assert sk.decrypt(pk.encrypt(x, rng) + pk.encrypt(y, rng)) == x + y

    @given(st.integers(0, 2**30), st.integers(0, 2**20))
    @settings(max_examples=25)
    def test_scalar_multiplication(self, keypair, x, a):
        rng = SecureRandom(x + a)
        pk, sk = keypair.public_key, keypair.secret_key
        assert sk.decrypt(pk.encrypt(x, rng) * a) == x * a % pk.n

    def test_plaintext_addition(self, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        assert sk.decrypt(pk.encrypt(10, rng) + 32) == 42
        assert sk.decrypt(32 + pk.encrypt(10, rng)) == 42

    def test_negation_and_subtraction(self, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        a, b = pk.encrypt(50, rng), pk.encrypt(8, rng)
        assert sk.decrypt(a - b) == 42
        assert sk.decrypt_signed(b - a) == -42
        assert sk.decrypt(-(-a)) == 50
        assert sk.decrypt(a - 8) == 42

    def test_operator_type_errors(self, keypair, rng):
        c = keypair.public_key.encrypt(1, rng)
        with pytest.raises(TypeError):
            c + 1.5
        with pytest.raises(TypeError):
            c * 2.5


class TestKeySeparation:
    def test_cross_key_add_rejected(self, keypair, other_keypair, rng):
        a = keypair.public_key.encrypt(1, rng)
        b = other_keypair.public_key.encrypt(1, rng)
        with pytest.raises(KeyMismatchError):
            a + b

    def test_cross_key_decrypt_rejected(self, keypair, other_keypair, rng):
        c = other_keypair.public_key.encrypt(1, rng)
        with pytest.raises(KeyMismatchError):
            keypair.secret_key.decrypt(c)

    def test_secret_key_requires_matching_primes(self, keypair, other_keypair):
        from repro.crypto.paillier import PaillierSecretKey

        with pytest.raises(KeyMismatchError):
            PaillierSecretKey(
                other_keypair.secret_key.p,
                other_keypair.secret_key.q,
                keypair.public_key,
            )


class TestValidation:
    def test_decrypt_out_of_range(self, keypair):
        with pytest.raises(DecryptionError):
            keypair.secret_key.raw_decrypt_batch([0])
        with pytest.raises(DecryptionError):
            keypair.secret_key.raw_decrypt_batch([keypair.public_key.n_squared + 1])

    def test_decrypt_non_unit(self, keypair):
        with pytest.raises(DecryptionError):
            keypair.secret_key.raw_decrypt_batch([keypair.secret_key.p])

    def test_decrypt_below_p_validates_like_decrypt(self, keypair, other_keypair, rng):
        """The half-CRT decrypt keeps every check of the full one, and
        returns ``m mod p`` — ``m`` itself exactly when ``m < p``."""
        sk, pk = keypair.secret_key, keypair.public_key
        values = [0, 7, sk.p - 1, sk.p, sk.p + 5, pk.n - 1]
        cts = pk.encrypt_batch(values, rng)
        assert sk.decrypt_batch_below_p(cts) == [m % sk.p for m in values]
        assert sk.decrypt_batch_below_p([]) == []
        with pytest.raises(KeyMismatchError):
            sk.decrypt_batch_below_p([other_keypair.public_key.encrypt(1, rng)])
        with pytest.raises(DecryptionError):
            sk.decrypt_batch_below_p([Ciphertext(sk.p, pk)])


class TestSerialization:
    def test_bytes_roundtrip(self, keypair, rng):
        pk = keypair.public_key
        c = pk.encrypt(12345, rng)
        assert int.from_bytes(c.to_bytes(), "big") == c.value
        assert len(c.to_bytes()) == pk.ciphertext_bytes

    def test_ciphertext_bytes_survives_old_and_new_pickles(self, keypair):
        """Computed once per key object; a key pickled before the cached
        value existed (a pickle from an older release) recomputes it."""
        import pickle

        from repro.crypto.damgard_jurik import DamgardJurik

        for key in (keypair.public_key, DamgardJurik(keypair.public_key)):
            width = key.ciphertext_bytes
            assert vars(key)["ciphertext_bytes"] == width
            assert pickle.loads(pickle.dumps(key)).ciphertext_bytes == width
            older = type(key).__new__(type(key))
            older.__dict__.update(
                {k: v for k, v in key.__getstate__().items() if k != "ciphertext_bytes"}
            )
            assert older.ciphertext_bytes == width

    def test_serialized_size_constant(self, keypair, rng):
        pk = keypair.public_key
        assert (
            pk.encrypt(0, rng).serialized_size()
            == pk.encrypt(pk.n - 1, rng).serialized_size()
        )


class TestKeypairGeneration:
    def test_modulus_size(self):
        kp = PaillierKeypair.generate(96, SecureRandom(2))
        assert kp.public_key.n.bit_length() == 96

    def test_deterministic_generation(self):
        a = PaillierKeypair.generate(96, SecureRandom(3))
        b = PaillierKeypair.generate(96, SecureRandom(3))
        assert a.public_key.n == b.public_key.n


class TestRandomizers:
    """No randomness reuse in the batched randomizer draw: every
    randomizer owns one 36-bit read of the stream, and a batch reads
    exactly what the same number of single draws would."""

    @pytest.fixture(params=["paillier", "dj"])
    def scheme(self, request, keypair):
        from repro.crypto.damgard_jurik import DamgardJurik

        pk = keypair.public_key
        if request.param == "paillier":
            return pk, pk.n_squared
        dj = DamgardJurik(pk, s=2)
        return dj, dj.n_s1

    def test_one_disjoint_read_per_randomizer(self, scheme):
        key, modulus = scheme
        count = 50
        got = key.randomizers(SecureRandom(9), count)
        pool = key._pool
        reference = SecureRandom(9)
        reads = [reference.randbits(36) for _ in range(count)]
        assert len(set(reads)) == count
        expected = []
        for read in reads:
            product = 1
            for digit in range(6):
                product = product * pool[(read >> 6 * digit) & 63] % modulus
            expected.append(product)
        assert got == expected

    def test_batch_leaves_stream_where_singles_would(self, scheme):
        key, _ = scheme
        batch_rng, single_rng = SecureRandom(10), SecureRandom(10)
        batch = key.randomizers(batch_rng, 7)
        singles = [key.randomizers(single_rng, 1)[0] for _ in range(7)]
        assert batch == singles
        assert batch_rng.randbytes(16) == single_rng.randbytes(16)
        assert key.randomizers(batch_rng, 0) == []

    def test_ten_thousand_draws_are_pairwise_distinct(self, scheme):
        """A product of 6 of 64 pool elements has ~1.2e8 possible values,
        so 10k draws sit near the birthday bound; the seed is one whose
        reads pick pairwise-distinct index multisets.  What this guards
        is *reuse*: a batch that hands two ciphertexts the same read (the
        PR 9 window bug's shape) collapses the set at once."""
        key, _ = scheme
        rng = SecureRandom(7)
        drawn = key.randomizers(rng, 4000) + [
            r for _ in range(60) for r in key.randomizers(rng, 100)
        ]
        assert len(drawn) == 10_000
        assert len(set(drawn)) == 10_000


class TestRandomizerRepeats:
    """How often a seeded run draws a randomizer it already drew under
    the same key — a repeated pool-index multiset.  Counted, not fixed:
    the pool shape allows ~1.2e8 multisets per key, so a long run
    repeats (CHANGES.md records the paper-size count).  The pins
    move only when the seeded streams or the number of draws do."""

    def test_counts_repeated_multisets_per_key(self, pool_draws):
        # 2 elements, 2 picks: index bits 1, one byte per read, top bits.
        pool = backend.RandomizerPool([3, 5], 101, 2)
        reads = bytes(digits << 6 for digits in (0b01, 0b10, 0b11, 0b00, 0b11))
        backend.pool_products(pool, reads)
        assert pool_draws.draws == {101: [(0, 1), (0, 1), (1, 1), (0, 0), (1, 1)]}
        assert pool_draws.repeats() == {101: 2}

    def test_seeded_tiny_run(self, pool_draws):
        """Upload plus one query per engine and variant at tiny sizes."""
        scheme = SecTopK(SystemParams.tiny(), seed=12)
        rows = correlated_relation(16, 6, seed=12, correlation=0.95).rows
        relation = scheme.encrypt(rows)
        for attributes, config in (
            ([0, 1], QueryConfig()),
            ([2, 3, 4], QueryConfig(variant="full")),
            ([1, 5], QueryConfig(variant="batch", batch_p=4)),
            ([0, 4], QueryConfig(engine="literal")),
        ):
            scheme.query(relation, scheme.token(attributes, k=3), config)
        # (draws, repeats) per key; N'^2 is S1's own key (sealed seeds).
        role = {scheme.public_key.n_squared: "N^2", scheme.dj.n_s1: "N^3"}
        repeats = pool_draws.repeats()
        assert {
            role.get(mod, "N'^2"): (len(draws), repeats[mod])
            for mod, draws in pool_draws.draws.items()
        } == {"N^2": (3012, 1), "N'^2": (189, 0), "N^3": (101, 0)}


class TestSharedKeyFirstDraw:
    def test_two_threads_taking_the_first_draw_together(self, keypair):
        """A key object decoded from the wire serves every session of the
        process, so two threads can reach a pool's first draw together:
        whichever build wins, both get valid randomizers (``r^N`` units —
        re-blinded zeros still decrypt to zero) and the pool the key
        keeps serves the next draw, limb cache included."""
        import threading

        pk = PaillierPublicKey(keypair.public_key.n)
        barrier = threading.Barrier(2)
        results, errors = {}, []

        def draw(slot):
            try:
                barrier.wait(timeout=10)
                results[slot] = pk.encrypt_batch([slot] * 50, SecureRandom(slot))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=draw, args=(slot,)) for slot in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        sk = keypair.secret_key
        for slot in (1, 2):
            assert sk.decrypt_batch(results[slot]) == [slot] * 50
            assert len({c.value for c in results[slot]}) == 50
        pool = pk._pool
        assert pool is not None and len(pool) == pk._POOL_SIZE
        assert sk.decrypt_batch(pk.encrypt_batch([7, 8], SecureRandom(3))) == [7, 8]
        assert pk._pool is pool
