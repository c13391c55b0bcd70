"""Unit and property tests for Damgård–Jurik and the layered homomorphism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.damgard_jurik import (
    DamgardJurik,
    LayeredCiphertext,
    layered_one_hot_select,
    layered_select,
    layered_select_batch,
)
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.rng import SecureRandom
from repro.exceptions import KeyMismatchError


@pytest.fixture(scope="module")
def dj(keypair):
    return DamgardJurik(keypair.public_key, s=2)


class TestRoundtrip:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_roundtrip_degrees(self, keypair, s, rng):
        scheme = DamgardJurik(keypair.public_key, s=s)
        for m in (0, 1, 12345, scheme.n_s - 1):
            assert scheme.decrypt(scheme.encrypt(m, rng), keypair) == m

    def test_degree_one_matches_paillier_space(self, keypair, rng):
        scheme = DamgardJurik(keypair.public_key, s=1)
        assert scheme.n_s == keypair.public_key.n

    def test_invalid_degree(self, keypair):
        with pytest.raises(ValueError):
            DamgardJurik(keypair.public_key, s=0)

    @given(st.integers(min_value=0, max_value=2**100))
    @settings(max_examples=20)
    def test_roundtrip_property(self, keypair, m):
        scheme = DamgardJurik(keypair.public_key, s=2)
        rng = SecureRandom(m)
        assert scheme.decrypt(scheme.encrypt(m, rng), keypair) == m % scheme.n_s

    def test_binomial_matches_pow(self, keypair):
        """The fast (1+N)^m evaluation equals the naive exponentiation."""
        scheme = DamgardJurik(keypair.public_key, s=2)
        n = keypair.public_key.n
        for m in (0, 1, 2, n, n * n - 1, 123456789):
            assert scheme._g_pow(m) == pow(1 + n, m % scheme.n_s, scheme.n_s1)


class TestHomomorphisms:
    def test_outer_addition(self, dj, keypair, rng):
        a, b = dj.encrypt(100, rng), dj.encrypt(23, rng)
        assert dj.decrypt(a + b, keypair) == 123

    def test_outer_scalar(self, dj, keypair, rng):
        assert dj.decrypt(dj.encrypt(21, rng) * 2, keypair) == 42

    def test_negation(self, dj, keypair, rng):
        assert dj.decrypt(-dj.encrypt(5, rng), keypair) == dj.n_s - 5
        assert dj.decrypt(dj.encrypt(7, rng) - dj.encrypt(3, rng), keypair) == 4

    def test_layered_identity(self, dj, keypair, rng):
        """E2(Enc(m1))^{Enc(m2)} = E2(Enc(m1 + m2)) — Section 3.3."""
        pk, sk = keypair.public_key, keypair.secret_key
        inner1 = pk.encrypt(10, rng)
        inner2 = pk.encrypt(32, rng)
        layered = dj.encrypt_ciphertext(inner1, rng).scalar_ct(inner2)
        assert sk.decrypt(dj.decrypt_inner(layered, keypair)) == 42

    def test_decrypt_inner(self, dj, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        inner = pk.encrypt(99, rng)
        assert sk.decrypt(dj.decrypt_inner(dj.encrypt_ciphertext(inner, rng), keypair)) == 99

    def test_layered_requires_s2(self, keypair, rng):
        scheme = DamgardJurik(keypair.public_key, s=1)
        with pytest.raises(ValueError):
            scheme.encrypt_ciphertext(keypair.public_key.encrypt(1, rng), rng)


class TestSelects:
    def test_select_one(self, dj, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        a, b = pk.encrypt(10, rng), pk.encrypt(20, rng)
        chosen = layered_select(dj, dj.encrypt(1, rng), a, b)
        assert sk.decrypt(dj.decrypt_inner(chosen, keypair)) == 10

    def test_select_zero(self, dj, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        a, b = pk.encrypt(10, rng), pk.encrypt(20, rng)
        chosen = layered_select(dj, dj.encrypt(0, rng), a, b)
        assert sk.decrypt(dj.decrypt_inner(chosen, keypair)) == 20

    @pytest.mark.parametrize("hot", [None, 0, 1, 2])
    def test_one_hot_select(self, dj, keypair, rng, hot):
        pk, sk = keypair.public_key, keypair.secret_key
        options = [pk.encrypt(v, rng) for v in (11, 22, 33)]
        default = pk.encrypt(99, rng)
        bits = [dj.encrypt(1 if i == hot else 0, rng) for i in range(3)]
        chosen = layered_one_hot_select(dj, bits, options, default)
        expected = 99 if hot is None else (11, 22, 33)[hot]
        assert sk.decrypt(dj.decrypt_inner(chosen, keypair)) == expected


    def test_select_batch_is_the_loop_of_selects(self, dj, keypair, rng):
        """Mixed one-hot widths (0, 1 and 3 selector bits) in one batch;
        seeded, the batch equals the scalar calls ciphertext for ciphertext."""
        pk, sk = keypair.public_key, keypair.secret_key
        options = [pk.encrypt(v, rng) for v in (11, 22, 33)]
        default = pk.encrypt(99, rng)
        selections = [
            ([dj.encrypt(i == 2, rng) for i in range(3)], options, default),
            ([], [], default),
            ([dj.encrypt(1, rng)], [options[0]], default),
            ([dj.encrypt(0, rng)], [options[1]], options[2]),
        ]
        batch = layered_select_batch(dj, selections, SecureRandom(5))
        assert [sk.decrypt(c) for c in dj.decrypt_inner_batch(batch, keypair)] == [
            33, 99, 11, 33,
        ]
        # The scalar forms draw from the DJ key's own rng: swap in the
        # same seeded stream to compare ciphertexts.
        dj._rng = SecureRandom(5)
        try:
            loop = [layered_one_hot_select(dj, *sel) for sel in selections]
        finally:
            dj._rng = None
        assert [c.value for c in batch] == [c.value for c in loop]
        assert layered_select_batch(dj, [], rng) == []

    def test_add_plaintext_constant(self, dj, keypair, rng):
        """``E2(x) + k`` multiplies in ``(1+N)^k`` only — no randomizer,
        so it is deterministic — and wraps modulo ``N^s``."""
        c = dj.encrypt(1000, rng)
        assert dj.decrypt(c + 234, keypair) == 1234
        assert dj.decrypt(c + (-1001), keypair) == dj.n_s - 1
        assert (c + 5).value == (c + 5).value
        assert (c + 0).value == c.value


class TestKeySeparation:
    def test_cross_instance_rejected(self, keypair, rng):
        other = PaillierKeypair.generate(128, SecureRandom(77))
        dj1 = DamgardJurik(keypair.public_key, s=2)
        dj2 = DamgardJurik(other.public_key, s=2)
        with pytest.raises(KeyMismatchError):
            dj1.encrypt(1, rng) + dj2.encrypt(1, rng)
        with pytest.raises(KeyMismatchError):
            dj2.decrypt(dj1.encrypt(1, rng), other)
        with pytest.raises(KeyMismatchError):
            layered_select_batch(
                dj1,
                [([dj2.encrypt(1, rng)], [keypair.public_key.encrypt(1, rng)],
                  keypair.public_key.encrypt(2, rng))],
                rng,
            )

    def test_wrong_inner_key(self, dj, rng):
        other = PaillierKeypair.generate(128, SecureRandom(88))
        with pytest.raises(KeyMismatchError):
            dj.encrypt_ciphertext(other.public_key.encrypt(1, rng), rng)


class TestSerialization:
    def test_bytes_roundtrip(self, dj, rng):
        c = dj.encrypt(12345, rng)
        assert LayeredCiphertext.from_bytes(c.to_bytes(), dj).value == c.value

    def test_size(self, dj, rng):
        assert dj.encrypt(0, rng).serialized_size() == dj.ciphertext_bytes
