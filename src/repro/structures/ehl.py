"""The Encrypted Hash List (EHL) of Section 5.

To encode an object ``o``:

1. hash ``o`` with ``s`` keyed PRFs into a length-``H`` bit list
   (a single-object Bloom filter), and
2. encrypt every bit with Paillier.

Two EHLs support the randomized homomorphic equality operator

.. math::

   EHL(x) \\ominus EHL(y) \\;=\\; \\prod_{i=0}^{H-1}
       \\bigl(EHL(x)[i] \\cdot EHL(y)[i]^{-1}\\bigr)^{r_i}

which encrypts ``0`` iff the two bit lists agree (Lemma 5.2) and a value
statistically close to uniform in ``Z_N`` otherwise.  A false ``Enc(0)``
occurs only when two distinct objects hash to the identical position set —
the Bloom-filter false-positive event analysed in
:mod:`repro.structures.bloom`.

The compact variant EHL+ lives in :mod:`repro.structures.ehl_plus`; both
share :class:`EncryptedHashList` — the cell list and the ``⊖`` operator in
its one-pair (``minus``), one-against-many (``minus_many``) and
all-pairs (``minus_matrix``) shapes — so the protocols are agnostic to
which one the database was encrypted with.

S1 often already holds the answer for a pair it is about to test again
(survivors of a deduplication are pairwise distinct; a pair tested one
round ago still has its ciphertext): :class:`KnownPairs` carries that to
:func:`minus_pairs`, which then fills the entry without recomputing ``⊖``.
"""

from __future__ import annotations

from repro.crypto import backend
from repro.crypto.paillier import Ciphertext, PaillierPublicKey
from repro.crypto.prf import Prf, derive_keys
from repro.crypto.rng import SecureRandom
from repro.exceptions import KeyMismatchError, ProtocolError
from repro.structures.bloom import BloomFilter


class EncryptedHashList:
    """A list of Paillier-encrypted hash cells with the ``⊖`` operator."""

    __slots__ = ("cells",)

    #: How error messages name the structure.
    _NAME = "EHL"

    def __init__(self, cells: list[Ciphertext]):
        if not cells:
            raise ValueError(f"{self._NAME} must have at least one cell")
        self.cells = cells

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def public_key(self) -> PaillierPublicKey:
        return self.cells[0].public_key

    def minus(self, other: "EncryptedHashList", rng: SecureRandom) -> Ciphertext:
        """The randomized equality operator ``self ⊖ other``.

        Returns ``Enc(Σ r_i (x_i − y_i))`` — an encryption of ``0`` iff
        the underlying cell plaintexts are identical, otherwise of a value
        uniform in ``Z_N`` with overwhelming probability.
        """
        return minus_pairs([(self, other)], rng)[0]

    def minus_many(
        self, others: list["EncryptedHashList"], rng: SecureRandom
    ) -> list[Ciphertext]:
        """``[self ⊖ other for other in others]`` as one batch."""
        return minus_pairs([(self, other) for other in others], rng)

    @staticmethod
    def minus_matrix(
        items: list["EncryptedHashList"],
        rng: SecureRandom,
        known: "KnownPairs | None" = None,
    ) -> list[Ciphertext]:
        """The upper triangle ``items[i] ⊖ items[j]`` (``i < j``,
        row-major) of the pairwise equality matrix as one batch."""
        return minus_pairs(
            [
                (items[i], items[j])
                for i in range(len(items))
                for j in range(i + 1, len(items))
            ],
            rng,
            known,
        )

    def rerandomized(self, rng: SecureRandom) -> "EncryptedHashList":
        """A fresh-looking structure encrypting the same cell plaintexts."""
        return type(self)(self.public_key.rerandomize_batch(self.cells, rng))

    def serialized_size(self) -> int:
        """Byte size on the wire (all cells)."""
        return sum(cell.serialized_size() for cell in self.cells)


#: :class:`KnownPairs` value for a pair known to hold different objects.
_DISTINCT = object()


class KnownPairs:
    """Equalities S1 already holds, keyed by the structures themselves.

    A pair is looked up by the identity of its two EHL objects, never by
    a list position, so permuting or re-slicing the lists in between
    cannot attribute an answer to the wrong pair; a structure that was
    re-encrypted since (a new object) is simply unknown again.
    """

    __slots__ = ("_held",)

    def __init__(self):
        self._held: dict[frozenset, object] = {}

    def distinct(self, ehls: list[EncryptedHashList]) -> None:
        """``ehls`` hold pairwise different objects (the survivors of a
        ``SecDedup`` / ``SecDupElim``: ``⊖`` has no false negatives, and
        junk replacements carry fresh random identities)."""
        for i, mine in enumerate(ehls):
            for theirs in ehls[i + 1 :]:
                self._held[frozenset((mine, theirs))] = _DISTINCT

    def tested(
        self,
        mine: EncryptedHashList,
        others: list[EncryptedHashList],
        cts: list[Ciphertext],
    ) -> None:
        """``cts[i]`` is ``mine ⊖ others[i]`` (or its mirror image)."""
        if len(cts) != len(others):
            raise ProtocolError(
                f"{len(others)} pairs claimed tested, {len(cts)} ciphertexts held"
            )
        for theirs, ct in zip(others, cts):
            self._held[frozenset((mine, theirs))] = ct

    def lookup(self, mine: EncryptedHashList, theirs: EncryptedHashList):
        """``_DISTINCT``, the pair's earlier ``⊖`` ciphertext, or ``None``."""
        return self._held.get(frozenset((mine, theirs)))


def minus_pairs(
    pairs: list[tuple[EncryptedHashList, EncryptedHashList]],
    rng: SecureRandom,
    known: KnownPairs | None = None,
) -> list[Ciphertext]:
    """``mine ⊖ theirs`` for every pair, each by the cheapest rule that
    leaves the decryptor's view unchanged in distribution:

    (a) a pair ``known`` to be distinct gets a fresh ``Enc(u)``, ``u``
        uniform non-zero — what ``⊖`` of two different objects decrypts
        to, for no exponentiation;
    (b) a pair whose ``⊖`` ciphertext ``c = Enc(v)`` is ``known`` gets
        ``c^ρ · r^N`` for a fresh uniform non-zero ``ρ`` and a fresh
        randomizer: ``ρ·v`` is zero iff ``v`` is and otherwise uniform and
        independent of ``v``, for one exponentiation instead of one per
        cell;
    (c) every other pair (all of them without ``known``) is computed.

    The rng is read rule (c) first — exactly the reads of a call without
    ``known`` — then (a)'s scalars and randomizers, then (b)'s.
    """
    if known is None or not pairs:
        return _minus_computed(pairs, rng)
    pk = pairs[0][0].public_key
    n, n2 = pk.n, pk.n_squared
    computed, distinct, rescaled, sources = [], [], [], []
    for slot, pair in enumerate(pairs):
        answer = known.lookup(*pair)
        if answer is None:
            computed.append(slot)
        elif answer is _DISTINCT:
            distinct.append(slot)
        else:
            if answer.public_key is not pk and answer.public_key != pk:
                raise KeyMismatchError(
                    "cannot combine ciphertexts under different keys"
                )
            rescaled.append(slot)
            sources.append(answer.value)

    out: list[Ciphertext | None] = [None] * len(pairs)
    for slot, ct in zip(
        computed, _minus_computed([pairs[slot] for slot in computed], rng)
    ):
        out[slot] = ct
    if distinct:
        fresh = pk.encrypt_batch([rng.rand_nonzero(n) for _ in distinct], rng)
        for slot, ct in zip(distinct, fresh):
            out[slot] = ct
    if rescaled:
        rhos = [rng.rand_nonzero(n) for _ in rescaled]
        powers = backend.powmod_pairs(sources, rhos, n2)
        scaled = pk.rerandomize_batch([Ciphertext(power, pk) for power in powers], rng)
        for slot, ct in zip(rescaled, scaled):
            out[slot] = ct
    return out


def _minus_computed(
    pairs: list[tuple[EncryptedHashList, EncryptedHashList]], rng: SecureRandom
) -> list[Ciphertext]:
    """The real ``⊖`` of every pair, as whole-batch kernel calls.

    Each right-hand cell is inverted once however many pairs it appears
    in (Montgomery's trick over all of them: one inversion), and each
    pair's ``Enc(0) · Π (mine / theirs)^r`` is one multi-exponentiation
    of one :func:`~repro.crypto.backend.powmod_products` call for the
    whole batch.  The rng is read in the
    order a loop of single ``⊖`` calls reads it — per pair the ``Enc(0)``
    randomizer, then one scalar per cell — so batch and loop agree
    ciphertext for ciphertext under a seed.
    """
    if not pairs:
        return []
    pk = pairs[0][0].public_key
    n, n2 = pk.n, pk.n_squared

    involved: dict[int, EncryptedHashList] = {}
    rights: dict[int, EncryptedHashList] = {}
    for mine, theirs in pairs:
        if len(theirs) != len(mine):
            raise KeyMismatchError(f"{mine._NAME} length mismatch")
        involved[id(mine)] = mine
        involved[id(theirs)] = rights[id(theirs)] = theirs
    for structure in involved.values():
        for cell in structure.cells:
            if cell.public_key is not pk and cell.public_key != pk:
                raise KeyMismatchError(
                    "cannot combine ciphertexts under different keys"
                )
    inverses = backend.invert_vec(
        [cell.value for theirs in rights.values() for cell in theirs.cells], n2
    )
    inverse_of: dict[int, list[int]] = {}
    start = 0
    for key, theirs in rights.items():
        inverse_of[key] = inverses[start : start + len(theirs)]
        start += len(theirs)

    accs, bases, scalars = [], [], []
    for mine, theirs in pairs:
        accs.append(pk.randomizers(rng, 1)[0])  # Enc(0; r) is the randomizer
        for cell, inverse in zip(mine.cells, inverse_of[id(theirs)]):
            scalars.append(rng.rand_nonzero(n))
            bases.append(cell.value * inverse % n2)
    counts = [len(mine) for mine, _ in pairs]
    return [
        Ciphertext(value, pk)
        for value in backend.powmod_products(accs, bases, scalars, counts, n2)
    ]


class Ehl(EncryptedHashList):
    """An encrypted hash list: ``H`` Paillier-encrypted bits."""

    __slots__ = ()


class EhlFactory:
    """Builds :class:`Ehl` structures for objects under a fixed key set.

    Parameters mirror Section 5: ``table_size`` is ``H`` and ``n_hashes``
    is ``s``.  The factory owns the PRF keys (derived from ``master_key``)
    and the Paillier public key; it is held by the data owner during
    ``Enc`` and by nobody afterwards.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        master_key: bytes,
        table_size: int = 23,
        n_hashes: int = 5,
        rng: SecureRandom | None = None,
    ):
        if n_hashes > table_size:
            raise ValueError("more hash functions than table cells")
        self.public_key = public_key
        self.table_size = table_size
        self.n_hashes = n_hashes
        self.prfs: list[Prf] = derive_keys(master_key, n_hashes, label="ehl")
        self._bloom = BloomFilter(table_size, self.prfs)
        self.rng = rng or SecureRandom()

    def encode(self, object_id) -> Ehl:
        """Return ``EHL(o)`` for the given object identifier."""
        bits = self._bloom.bit_vector(object_id)
        return Ehl([self.public_key.encrypt(b, self.rng) for b in bits])

    def positions(self, object_id) -> list[int]:
        """The plaintext hash positions (exposed for tests/analysis only)."""
        return self._bloom.positions(object_id)

    def structure_bytes(self) -> int:
        """Size of one EHL in bytes (for the Fig. 7/8 size series)."""
        return self.table_size * self.public_key.ciphertext_bytes


def ehl_equal_plain(factory: EhlFactory, x, y) -> bool:
    """Plaintext oracle for whether ``⊖`` would report equality.

    Used by tests to distinguish genuine matches from Bloom false
    positives.
    """
    return factory.positions(x) == factory.positions(y) and set(
        factory.positions(x)
    ) == set(factory.positions(y))
