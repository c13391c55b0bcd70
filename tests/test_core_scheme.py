"""Tests for SecTopK's Enc (Algorithm 2) and Token (Section 7)."""

import dataclasses

import pytest

from repro.core.params import SystemParams
from repro.core.scheme import SecTopK
from repro.core.token import Token
from repro.crypto.prf import Prf
from repro.crypto.prp import Prp
from repro.exceptions import DataError, QueryError
from repro.server import MutableRelation

ROWS = [
    [10, 3, 2],
    [8, 8, 0],
    [5, 7, 6],
    [3, 2, 8],
]


@pytest.fixture(scope="module")
def scheme():
    return SecTopK(SystemParams.tiny(), seed=11)


@pytest.fixture(scope="module")
def encrypted(scheme):
    return scheme.encrypt(ROWS)


class TestEnc:
    def test_shape(self, encrypted):
        assert encrypted.n_objects == 4
        assert encrypted.n_attributes == 3
        assert len(encrypted.lists) == 3
        assert set(encrypted.lists) == {0, 1, 2}

    def test_lists_sorted_descending(self, scheme, encrypted):
        sk = scheme.keypair.secret_key
        for entries in encrypted.lists.values():
            scores = [sk.decrypt(e.score) for e in entries]
            assert scores == sorted(scores, reverse=True)

    def test_lists_are_permuted_attributes(self, scheme, encrypted):
        """Each permuted list holds exactly one attribute's multiset."""
        sk = scheme.keypair.secret_key
        found = set()
        columns = [
            tuple(sorted(row[a] for row in ROWS)) for a in range(3)
        ]
        for entries in encrypted.lists.values():
            scores = tuple(sorted(sk.decrypt(e.score) for e in entries))
            assert scores in columns
            found.add(scores)
        assert len(found) == 3

    def test_records_decrypt_to_row_ids(self, scheme, encrypted):
        sk = scheme.keypair.secret_key
        for entries in encrypted.lists.values():
            ids = sorted(sk.decrypt(e.record) for e in entries)
            assert ids == [0, 1, 2, 3]

    def test_validation(self, scheme):
        with pytest.raises(DataError):
            scheme.encrypt([])
        with pytest.raises(DataError):
            scheme.encrypt([[1], [1, 2]])

    def test_score_range_enforced(self):
        small = SecTopK(SystemParams.tiny(), seed=1)
        from repro.exceptions import EncodingRangeError

        with pytest.raises(EncodingRangeError):
            small.encrypt([[1 << 40]])

    def test_size_accounting(self, encrypted):
        assert encrypted.serialized_size() > 0
        assert encrypted.size_mb() == encrypted.serialized_size() / 1e6

    def test_same_shape_same_size(self):
        """Theorem 6.1's observable: equal-shape relations produce
        equal-size encryptions (nothing else is revealed by ER)."""
        a = SecTopK(SystemParams.tiny(), seed=1).encrypt([[1, 2], [3, 4]])
        b = SecTopK(SystemParams.tiny(), seed=2).encrypt([[9, 9], [0, 1]])
        assert a.serialized_size() == b.serialized_size()


def _values(entry):
    return [c.value for c in entry.ehl.cells] + [entry.score.value, entry.record.value]


def _mutate(mutable, op):
    """One insert, or one update of object 1; returns (result, row)."""
    row = [4, 4, 4] if op == "insert" else [9, 0, 9]
    return (mutable.insert(row) if op == "insert" else mutable.update(1, row)), row


@pytest.fixture
def count_prf(monkeypatch):
    """A list that grows by one per PRF evaluation (``Prf.to_range``;
    the EHL bit positions go through it too)."""
    calls = []
    real = Prf.to_range

    def counted(self, message, modulus):
        calls.append(message)
        return real(self, message, modulus)

    monkeypatch.setattr(Prf, "to_range", counted)
    return calls


@pytest.fixture(params=["plus", "bits"])
def variant_scheme(request):
    params = dataclasses.replace(SystemParams.tiny(), ehl_variant=request.param)
    if request.param == "bits":
        params = dataclasses.replace(params, ehl_hashes=2, ehl_table_size=8)
    return SecTopK(params, seed=11)


class TestEncOnce:
    """Enc (Algorithm 2) writes ``EHL(o)`` into every sorted list, but
    the plaintext vector it encrypts is one per object: it is hashed
    once per relation (once per mutation), never once per list."""

    def test_prf_evaluations_per_relation(self, variant_scheme, count_prf):
        variant_scheme.encrypt(ROWS)
        assert len(count_prf) == len(ROWS) * variant_scheme.params.ehl_hashes

    def test_matches_per_entry_encode(self, variant_scheme):
        """Each list equals the per-entry ``factory.encode`` / ``encrypt``
        calls on the same scheme (one randomizer pool), ciphertext for
        ciphertext."""
        scheme = variant_scheme
        relation = scheme.encrypt(ROWS)
        rng = scheme._rng.spawn("enc")
        factory = scheme._ehl_factory(rng)
        pk = scheme.public_key
        prp = Prp(scheme._prp_key, len(ROWS[0]))
        for attribute in range(len(ROWS[0])):
            ranked = sorted(range(len(ROWS)), key=lambda o: (-ROWS[o][attribute], o))
            expected = [
                [c.value for c in factory.encode(o).cells]
                + [pk.encrypt(ROWS[o][attribute], rng).value, pk.encrypt(o, rng).value]
                for o in ranked
            ]
            got = [_values(e) for e in relation.lists[prp.forward(attribute)]]
            assert got == expected

    @pytest.mark.parametrize("op", ["insert", "update"])
    def test_mutation_hashes_once(self, variant_scheme, count_prf, op):
        mutable = MutableRelation(variant_scheme, ROWS)
        del count_prf[:]
        _mutate(mutable, op)
        assert len(count_prf) == variant_scheme.params.ehl_hashes

    @pytest.mark.parametrize("op", ["insert", "update"])
    def test_mutation_entry_matches_per_entry_encode(self, variant_scheme, op):
        """The mutated object's fresh entry in every list equals
        ``factory.encode`` + two ``encrypt`` calls at the same point of
        the mutation's stream (each list's touched prefix is
        rerandomized after its fresh entry)."""
        scheme = variant_scheme
        mutable = MutableRelation(scheme, ROWS)
        result, row = _mutate(mutable, op)
        oid = result.object_id
        rng = scheme._rng.spawn(f"mutate-v{result.version}")
        factory = scheme._ehl_factory(rng)
        pk, sk = scheme.public_key, scheme.keypair.secret_key
        touched = dict(result.touched)
        for attribute, name in enumerate(scheme.attribute_list_names()):
            expected = (
                [c.value for c in factory.encode(oid).cells]
                + [pk.encrypt(row[attribute], rng).value, pk.encrypt(oid, rng).value]
            )
            (fresh,) = [
                e for e in mutable.relation.lists[name] if sk.decrypt(e.record) == oid
            ]
            assert _values(fresh) == expected
            # Skip the prefix rerandomization that follows in the stream.
            pk.randomizers(rng, (touched[name] - 1) * len(expected))


class TestToken:
    def test_permuted_names_exist(self, scheme, encrypted):
        token = scheme.token([0, 2], k=2)
        assert set(token.permuted_lists) <= set(encrypted.lists)
        assert token.m == 2

    def test_deterministic(self, scheme):
        assert scheme.token([0, 1], 2) == scheme.token([0, 1], 2)

    def test_fingerprint_pattern(self, scheme):
        t1 = scheme.token([0, 1], 2)
        t2 = scheme.token([0, 1], 2)
        t3 = scheme.token([0, 1], 3)
        assert t1.fingerprint() == t2.fingerprint()
        assert t1.fingerprint() != t3.fingerprint()

    def test_validation(self, scheme):
        with pytest.raises(QueryError):
            scheme.token([], 1)
        with pytest.raises(QueryError):
            scheme.token([0], 0)
        with pytest.raises(QueryError):
            scheme.token([99], 1)
        with pytest.raises(QueryError):
            Token(permuted_lists=(0, 0), k=1)
        with pytest.raises(QueryError):
            Token(permuted_lists=(0, 1), k=1, weights=(1,))
        with pytest.raises(QueryError):
            Token(permuted_lists=(0,), k=1, weights=(-1,))

    def test_requires_prior_encrypt(self):
        fresh = SecTopK(SystemParams.tiny(), seed=99)
        with pytest.raises(QueryError):
            fresh.token([0], 1)

    def test_effective_weights_default(self, scheme):
        assert scheme.token([0, 1], 2).effective_weights() == (1, 1)
        assert scheme.token([0, 1], 2, weights=[2, 3]).effective_weights() == (2, 3)


class TestParams:
    def test_presets_valid(self):
        SystemParams.paper()
        SystemParams.tiny()
        SystemParams.insecure_demo()
        SystemParams.secure()

    def test_invalid_combinations(self):
        with pytest.raises(QueryError):
            SystemParams(key_bits=64, score_bits=32, blind_bits=40)
        with pytest.raises(QueryError):
            SystemParams(ehl_variant="magic")
        with pytest.raises(QueryError):
            SystemParams(compare_method="magic")
        with pytest.raises(QueryError):
            SystemParams(sort_method="magic")

    def test_plaintext_bound_refuses_old_tiny_widths(self):
        """S2 reads every protocol value mod ``p`` (``|p| = key_bits/2``),
        so ``score_bits + 2·blind_bits + 4`` must stay below ``|p| − 1``:
        the 128 / 16 / 24 widths (68 bits against 63) are refused, and
        the next blind width down is the widest a 128-bit key takes."""
        with pytest.raises(QueryError, match=r"68 must be below \|p\| - 1 = 63"):
            SystemParams(key_bits=128, score_bits=16, blind_bits=24)
        assert SystemParams(key_bits=128, score_bits=16, blind_bits=21).plaintext_room == 1
        with pytest.raises(QueryError):
            SystemParams(key_bits=128, score_bits=18, blind_bits=21)
        # The old bound read |N|: 32 + 80 + 4 = 116 < 128 passed it.
        with pytest.raises(QueryError):
            SystemParams(key_bits=128, score_bits=32, blind_bits=40)

    @pytest.mark.parametrize(
        "preset, widths, room, zero_test_bits",
        [
            ("paper", (256, 32, 40), 11, 127),
            ("tiny", (128, 16, 20), 3, 63),
            ("insecure_demo", (192, 20, 28), 15, 95),
            ("secure", (2048, 48, 60), 851, 1023),
        ],
    )
    def test_preset_plaintext_room(self, preset, widths, room, zero_test_bits):
        """Each shipped preset's widths, its room under the plaintext
        bound, ``(|p| − 1) − (score_bits + 2·blind_bits + 4)``, and its
        zero-test false-positive bound: a uniform non-zero ``m`` is
        ``≡ 0 mod p`` with probability at most ``2^−(|p|−1)``."""
        params = getattr(SystemParams, preset)()
        assert (params.key_bits, params.score_bits, params.blind_bits) == widths
        assert params.plaintext_room == room
        assert params.zero_test_error_bits == zero_test_bits == params.key_bits // 2 - 1

    def test_zero_test_bound_holds(self):
        """The pinned bound is a bound: at ``tiny()`` the multiples of
        ``p`` among the non-zero residues of ``Z_N`` are ``q − 1`` of
        ``N − 1``, below ``2^−63``."""
        from fractions import Fraction

        scheme = SecTopK(SystemParams.tiny(), seed=11)
        sk = scheme.keypair.secret_key
        rate = Fraction(sk.q - 1, sk.public_key.n - 1)
        assert rate < Fraction(1, sk.p) <= Fraction(
            1, 2 ** scheme.params.zero_test_error_bits
        )

    def test_bits_variant_encrypts(self):
        params = SystemParams(
            key_bits=128,
            score_bits=16,
            blind_bits=20,
            ehl_variant="bits",
            ehl_hashes=2,
            ehl_table_size=8,
        )
        scheme = SecTopK(params, seed=3)
        encrypted = scheme.encrypt([[1, 2], [3, 4]])
        assert encrypted.ehl_variant == "bits"
