"""Unit and property tests for the PRF / PRP constructions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prf import Prf, derive_keys, encode_object_id, random_key
from repro.crypto.prp import Prp
from repro.crypto.rng import SecureRandom


class TestPrf:
    def test_deterministic(self):
        prf = Prf(b"k" * 32)
        assert prf.digest(b"msg") == prf.digest(b"msg")

    def test_key_dependence(self):
        assert Prf(b"a" * 32).digest(b"m") != Prf(b"b" * 32).digest(b"m")

    def test_message_dependence(self):
        prf = Prf(b"k" * 32)
        assert prf.digest(b"m1") != prf.digest(b"m2")

    def test_long_output(self):
        prf = Prf(b"k" * 32)
        out = prf.digest(b"m", out_bytes=100)
        assert len(out) == 100
        assert out[:32] == prf.digest(b"m", out_bytes=32)

    def test_golden_vectors(self):
        """HMAC-SHA-256 in counter mode, pinned: the keyed-context cache
        is an internal of ``digest``, its output is not."""
        prf = Prf(b"k" * 32)
        assert [prf.digest(b"message", n).hex() for n in (0, 1, 32, 33, 80)] == [
            "",
            "c8",
            "c8ad057841a16b972eb0eae4683c1d321f9985f37a1ac14aeeaf0f1226d478b1",
            "c8ad057841a16b972eb0eae4683c1d321f9985f37a1ac14aeeaf0f1226d478b160",
            "c8ad057841a16b972eb0eae4683c1d321f9985f37a1ac14aeeaf0f1226d478b1"
            "607deb209786b15a46d616cd13f1141cfdb68fc70bfc312ebd2406290e1b2aba"
            "d3c47896be363bdb55be84bce0fada94",
        ]
        assert [prf.to_range(b"obj-%d" % i, (1 << 127) - 1) for i in range(3)] == [
            34093844924465301717461368162323546551,
            51511100349297517651562321405637362288,
            129376288346941588318228674605892913227,
        ]
        assert prf.to_int(b"x", 13) == 431

    def test_pickles_without_its_keyed_context(self):
        import pickle

        prf = Prf(b"k" * 32)
        before = prf.digest(b"m", 40)
        clone = pickle.loads(pickle.dumps(prf))
        assert clone.digest(b"m", 40) == before

    def test_to_int_range(self):
        prf = Prf(b"k" * 32)
        for bits in (1, 8, 100, 300):
            assert 0 <= prf.to_int(b"m", bits) < (1 << bits)

    def test_to_range(self):
        prf = Prf(b"k" * 32)
        for modulus in (2, 97, 1 << 128):
            assert 0 <= prf.to_range(b"m", modulus) < modulus

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            Prf(b"")

    def test_derive_keys_distinct(self):
        prfs = derive_keys(b"master", 5)
        outputs = {p.digest(b"x") for p in prfs}
        assert len(outputs) == 5

    def test_derive_keys_label_separation(self):
        a = derive_keys(b"master", 1, label="x")[0]
        b = derive_keys(b"master", 1, label="y")[0]
        assert a.digest(b"m") != b.digest(b"m")

    def test_random_key_length(self):
        assert len(random_key(SecureRandom(1))) == 32


class TestEncodeObjectId:
    def test_types_supported(self):
        for value in (0, -5, 123456789, "alice", b"\x00\x01"):
            assert isinstance(encode_object_id(value), bytes)

    def test_injective_across_types(self):
        values = [1, -1, "1", b"1", "a", b"a", 0, ""]
        encodings = [encode_object_id(v) for v in values]
        assert len(set(encodings)) == len(values)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            encode_object_id(1.5)

    @given(st.integers(), st.integers())
    @settings(max_examples=40)
    def test_injective_ints(self, a, b):
        if a != b:
            assert encode_object_id(a) != encode_object_id(b)


class TestPrp:
    @pytest.mark.parametrize("size", [1, 2, 5, 16, 100])
    def test_bijection(self, size):
        prp = Prp(b"k" * 32, size)
        assert sorted(prp.forward(i) for i in range(size)) == list(range(size))

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_inverse(self, size):
        prp = Prp(b"k" * 32, size)
        assert all(prp.inverse(prp.forward(i)) == i for i in range(size))

    def test_key_dependence(self):
        a, b = Prp(b"a" * 32, 50), Prp(b"b" * 32, 50)
        assert [a.forward(i) for i in range(50)] != [b.forward(i) for i in range(50)]

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Prp(b"k" * 32, 0)
