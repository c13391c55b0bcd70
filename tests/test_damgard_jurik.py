"""Unit and property tests for Damgård–Jurik and the layered homomorphism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import backend
from repro.crypto.damgard_jurik import (
    DamgardJurik,
    LayeredCiphertext,
    layered_select_batch,
)
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.rng import SecureRandom
from repro.exceptions import DecryptionError, KeyMismatchError


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
        assert sk.decrypt(dj.decrypt_inner_batch([layered], keypair)[0]) == 42

    def test_decrypt_inner(self, dj, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        inner = pk.encrypt(99, rng)
        (stripped,) = dj.decrypt_inner_batch([dj.encrypt_ciphertext(inner, rng)], keypair)
        assert sk.decrypt(stripped) == 99

    def test_layered_requires_s2(self, keypair, rng):
        scheme = DamgardJurik(keypair.public_key, s=1)
        with pytest.raises(ValueError):
            scheme.encrypt_ciphertext(keypair.public_key.encrypt(1, rng), rng)


class TestSelects:
    def test_select_one(self, dj, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        a, b = pk.encrypt(10, rng), pk.encrypt(20, rng)
        chosen = layered_select_batch(dj, [([dj.encrypt(1, rng)], [a], b)], rng)
        assert sk.decrypt(dj.decrypt_inner_batch(chosen, keypair)[0]) == 10

    def test_select_zero(self, dj, keypair, rng):
        pk, sk = keypair.public_key, keypair.secret_key
        a, b = pk.encrypt(10, rng), pk.encrypt(20, rng)
        chosen = layered_select_batch(dj, [([dj.encrypt(0, rng)], [a], b)], rng)
        assert sk.decrypt(dj.decrypt_inner_batch(chosen, keypair)[0]) == 20

    @pytest.mark.parametrize("hot", [None, 0, 1, 2])
    def test_one_hot_select(self, dj, keypair, rng, hot):
        pk, sk = keypair.public_key, keypair.secret_key
        options = [pk.encrypt(v, rng) for v in (11, 22, 33)]
        default = pk.encrypt(99, rng)
        bits = [dj.encrypt(1 if i == hot else 0, rng) for i in range(3)]
        chosen = layered_select_batch(dj, [(bits, options, default)], rng)
        expected = 99 if hot is None else (11, 22, 33)[hot]
        assert sk.decrypt(dj.decrypt_inner_batch(chosen, keypair)[0]) == expected


    def test_select_batch_is_the_loop_of_selects(self, dj, keypair, rng):
        """Mixed one-hot widths (0, 1 and 3 selector bits) in one batch;
        seeded, the batch equals one call per select on the same stream,
        ciphertext for ciphertext."""
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
        stream = SecureRandom(5)
        loop = [layered_select_batch(dj, [sel], stream)[0] for sel in selections]
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
    def test_size(self, dj, rng):
        assert dj.encrypt(0, rng).serialized_size() == dj.ciphertext_bytes


# ---------------------------------------------------------------------------
# Short-exponent CRT decryption against the full-exponent formula.
# ---------------------------------------------------------------------------


def _theorem1_dlog(a: int, n: int, s: int) -> int:
    """``m`` from ``a = (1 + n)^m mod n^{s+1}`` — Damgård–Jurik's
    Theorem 1 written out step by step (the oracle's own copy)."""
    i = 0
    for j in range(1, s + 1):
        n_j = n**j
        t1 = ((a % n ** (j + 1)) - 1) // n
        t2 = i
        factorial = 1
        for k in range(2, j + 1):
            i = i - 1
            t2 = t2 * i % n_j
            factorial *= k
            t1 = (t1 - t2 * n ** (k - 1) * pow(factorial, -1, n_j)) % n_j
        i = t1
    return i % n**s


def _full_exponent_decrypt(scheme: DamgardJurik, keypair, value: int) -> int:
    """The textbook decryption: ``c^d`` with ``d = 1 mod N^s`` and
    ``d = 0 mod λ`` is ``(1 + N)^m``.  Lives here, as the oracle."""
    lam = keypair.secret_key.lam
    d = lam * pow(lam, -1, scheme.n_s)
    return _theorem1_dlog(pow(value, d, scheme.n_s1), scheme.n, scheme.s)


@pytest.fixture(scope="module")
def paper_keypair():
    return PaillierKeypair.generate(256, SecureRandom(0xD1))


@pytest.fixture(scope="module")
def tiny_keypair():
    return PaillierKeypair.generate(32, SecureRandom(0xD2))


class TestShortExponentDecrypt:
    @given(
        s=st.sampled_from([1, 2, 3]),
        size=st.sampled_from(["tiny", "test", "paper"]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_full_exponent_formula(
        self, keypair, tiny_keypair, paper_keypair, s, size, seed
    ):
        pair = {"tiny": tiny_keypair, "test": keypair, "paper": paper_keypair}[size]
        scheme = DamgardJurik(pair.public_key, s=s)
        rng = SecureRandom(seed)
        plaintexts = [0, 1, scheme.n_s - 1, rng.randint_below(scheme.n_s)]
        # What RecoverEnc strips is an inner Paillier ciphertext value
        # (reduced into the plaintext space when s = 1 is too small).
        plaintexts.append(pair.public_key.encrypt(seed, rng).value % scheme.n_s)
        cts = scheme.encrypt_batch(plaintexts, rng)
        # Every unit of Z_{N^{s+1}} is some ciphertext: arbitrary ones too.
        while len(cts) < len(plaintexts) + 4:
            value = rng.randint_below(scheme.n_s1)
            if backend.gcd(value, scheme.n) == 1:
                cts.append(LayeredCiphertext(value, scheme))
        got = scheme.decrypt_batch(cts, pair)
        assert got[: len(plaintexts)] == plaintexts
        assert got == [_full_exponent_decrypt(scheme, pair, c.value) for c in cts]
        assert all(0 <= m < scheme.n_s for m in got)

    def test_guards_survive(self, dj, keypair, rng):
        p = keypair.secret_key.p
        with pytest.raises(DecryptionError):
            dj.decrypt_batch([dj.encrypt(1, rng), LayeredCiphertext(p, dj)], keypair)
        other = PaillierKeypair.generate(128, SecureRandom(78))
        foreign = DamgardJurik(other.public_key, s=2)
        with pytest.raises(KeyMismatchError):
            dj.decrypt_batch([foreign.encrypt(1, rng)], keypair)
        with pytest.raises(KeyMismatchError):
            dj.decrypt_batch([dj.encrypt(1, rng)], other)
        # Equal schemes that are not one object still pass the guard.
        twin = DamgardJurik(keypair.public_key, s=2)
        assert dj.decrypt_batch([twin.encrypt(5, rng)], keypair) == [5]
        assert dj.decrypt(dj.encrypt(2, rng) + twin.encrypt(3, rng), keypair) == 5

    def test_constants_stay_on_the_secret_key(self, rng):
        """The dlog tables and inverses derive from ``p`` and ``q``: they
        are cached on the secret key alone, never reach a pickle, and a
        pickle that carries another layout (a spill written before this
        decryption) is not trusted."""
        import pickle

        pair = PaillierKeypair.generate(64, SecureRandom(0xD3))
        scheme = DamgardJurik(pair.public_key, s=2)
        before = set(vars(scheme))
        ct = scheme.encrypt(41, rng)
        assert scheme.decrypt(ct, pair) == 41
        assert set(vars(scheme)) == before
        assert set(pair.secret_key.dj_crt_cache) == {2}
        clone = pickle.loads(pickle.dumps(pair))
        assert clone.secret_key.dj_crt_cache == {}
        assert scheme.decrypt(ct, clone) == 41
        stale = pickle.loads(pickle.dumps(pair))
        state = dict(vars(stale.secret_key), dj_crt_cache={2: (1, 2, 3, 4, 5)})
        stale.secret_key.__setstate__(state)
        assert scheme.decrypt(ct, stale) == 41

    @pytest.mark.parametrize("variant", ["elim", "full"])
    def test_no_wide_exponent_over_a_prime_power_in_a_query(self, monkeypatch, variant):
        """Every ``powmod_vec`` of a seeded query whose modulus is
        ``p^3`` / ``q^3`` (the layer strips) carries an exponent no wider
        than the larger prime.  The literal engine is the query engine
        that strips (the eager one never touches the layer)."""
        from repro.core.params import SystemParams
        from repro.core.results import QueryConfig
        from repro.core.scheme import SecTopK

        rows = [[(7 * i + 3 * a) % 23 for a in range(3)] for i in range(10)]
        scheme = SecTopK(SystemParams.tiny(), seed=21)
        relation = scheme.encrypt(rows)
        sk = scheme.keypair.secret_key
        strip_moduli = {sk.p**3, sk.q**3}
        widest = max(sk.p.bit_length(), sk.q.bit_length())
        seen = []
        real = backend.powmod_vec

        def powmod_vec(bases, exp, mod):
            if mod in strip_moduli:
                seen.append((len(bases), exp.bit_length()))
            return real(bases, exp, mod)

        monkeypatch.setattr(backend, "powmod_vec", powmod_vec)
        result = scheme.query(
            relation,
            scheme.token([0, 1, 2], k=3),
            QueryConfig(engine="literal", variant=variant),
        )
        assert len(scheme.reveal(result)) == 3
        assert sum(count for count, _ in seen) > 0
        assert max(bits for _, bits in seen) <= widest
