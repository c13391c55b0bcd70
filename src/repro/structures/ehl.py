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
from repro.crypto.vector import CtVector
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
        return minus_pairs([(self, other)], rng).ciphertexts()[0]

    def minus_many(
        self, others: list["EncryptedHashList"], rng: SecureRandom
    ) -> CtVector:
        """``[self ⊖ other for other in others]`` as one batch."""
        return minus_pairs([(self, other) for other in others], rng)

    @staticmethod
    def minus_matrix(
        items: list["EncryptedHashList"],
        rng: SecureRandom,
        known: "KnownPairs | None" = None,
    ) -> CtVector:
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
        """Byte size on the wire (all cells, each a ciphertext of the
        structure's key)."""
        return len(self.cells) * self.public_key.ciphertext_bytes


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
        cts: CtVector,
    ) -> None:
        """``cts[i]`` is ``mine ⊖ others[i]`` (or its mirror image)."""
        if len(cts) != len(others):
            raise ProtocolError(
                f"{len(others)} pairs claimed tested, {len(cts)} ciphertexts held"
            )
        for theirs, value in zip(others, cts.checked(mine.public_key).values()):
            self._held[frozenset((mine, theirs))] = value

    def lookup(self, mine: EncryptedHashList, theirs: EncryptedHashList):
        """``_DISTINCT``, the value of the pair's earlier ``⊖``
        ciphertext, or ``None``."""
        return self._held.get(frozenset((mine, theirs)))


def minus_pairs(
    pairs: list[tuple[EncryptedHashList, EncryptedHashList]],
    rng: SecureRandom,
    known: KnownPairs | None = None,
) -> CtVector:
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
            rescaled.append(slot)
            sources.append(answer)

    out: list = [None] * len(pairs)

    def place(slots: list[int], vector: CtVector) -> None:
        stride, buffer = vector.stride, vector.buffer
        for i, slot in enumerate(slots):
            out[slot] = buffer[i * stride : (i + 1) * stride]

    if computed:
        place(computed, _minus_computed([pairs[slot] for slot in computed], rng))
    if distinct:
        place(distinct, CtVector.encrypt(pk, [rng.rand_nonzero(n) for _ in distinct], rng))
    if rescaled:
        rhos = [rng.rand_nonzero(n) for _ in rescaled]
        place(rescaled, CtVector.randomized(pk, backend.powmod_pairs(sources, rhos, n2), rng))
    return CtVector(pk, len(pairs), b"".join(out))


def _minus_program() -> backend.Program:
    """The ⊖ of a batch of pairs: per pair ``r · Π (mine_i · theirs_i^-1)
    ^ s_i mod N^2`` over its cells, ``r`` the pair's ``Enc(0)`` pool
    draw.  Inputs: ``N^2``, the pool and one read per pair, the left
    structures' cells and each pair cell's index into them, the right
    structures' cells (inverted once each, by one ``inv``) and each pair
    cell's index into them, one scalar per pair cell and the pairs' cell
    counts."""
    program = backend.Program()
    n2 = program.input(backend.MOD)
    pool, reads = program.input(backend.POOL), program.input(backend.BYTES)
    cells, lefts = program.input(backend.LIMBS), program.input(backend.INTS)
    theirs, rights = program.input(backend.LIMBS), program.input(backend.INTS)
    scalars, counts = program.input(backend.EXPS), program.input(backend.INTS)
    quotients = program.op(
        "mul", n2,
        program.op("gather", n2, cells, lefts),
        program.op("gather", n2, program.op("inv", n2, theirs), rights),
    )
    randomizers = program.op("pool", n2, pool, reads)
    program.output(program.op("powprod", n2, randomizers, quotients, scalars, counts))
    return program


MINUS = _minus_program()


def _minus_computed(
    pairs: list[tuple[EncryptedHashList, EncryptedHashList]], rng: SecureRandom
) -> CtVector:
    """The real ``⊖`` of every pair, as one run of :data:`MINUS`.

    The run inverts each right-hand cell once however many pairs it
    appears in (one ``inv``: Montgomery's trick over all of them), draws
    every pair's ``Enc(0)`` randomizer and computes its ``Enc(0) · Π
    (mine / theirs)^r`` as one multi-exponentiation; each structure's
    cells are packed once, however many pairs it is in.  The rng is read
    in the order a loop of single ``⊖`` calls reads it — per pair the
    ``Enc(0)`` randomizer's pool read, then one scalar per cell — so
    batch and loop agree ciphertext for ciphertext under a seed.
    """
    if not pairs:
        return CtVector(None, 0, b"")
    pk = pairs[0][0].public_key
    n, n2 = pk.n, pk.n_squared

    lefts: dict[int, int] = {}
    rights: dict[int, int] = {}
    cells: list[int] = []
    theirs_cells: list[int] = []
    for mine, theirs in pairs:
        if len(theirs) != len(mine):
            raise KeyMismatchError(f"{mine._NAME} length mismatch")
    for mine, theirs in pairs:
        for structure, starts, column in ((mine, lefts, cells), (theirs, rights, theirs_cells)):
            if id(structure) in starts:
                continue
            for cell in structure.cells:
                if cell.public_key is not pk and cell.public_key != pk:
                    raise KeyMismatchError(
                        "cannot combine ciphertexts under different keys"
                    )
            starts[id(structure)] = len(column)
            column.extend(cell.value for cell in structure.cells)

    pool = pk.randomizer_pool()
    reads, left_index, right_index, scalars = [], [], [], []
    for mine, theirs in pairs:
        reads.append(rng.randbytes(pool.read_bytes))  # Enc(0; r) is the randomizer
        start = lefts[id(mine)]
        left_index.extend(range(start, start + len(mine)))
        start = rights[id(theirs)]
        right_index.extend(range(start, start + len(theirs)))
        scalars.extend(rng.rand_nonzero_batch(n, len(mine)))
    (values,) = backend.run(MINUS, [
        n2, pool, b"".join(reads), cells, left_index, theirs_cells, right_index, scalars,
        [len(mine) for mine, _ in pairs],
    ])
    return CtVector.of(pk, values)


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

    structure = Ehl

    def vector(self, object_id) -> list[int]:
        """The plaintext bit list ``EHL(o)`` encrypts."""
        return self._bloom.bit_vector(object_id)

    def encode(self, object_id) -> Ehl:
        """Return ``EHL(o)`` for the given object identifier."""
        return Ehl(self.public_key.encrypt_batch(self.vector(object_id), self.rng))

    def positions(self, object_id) -> list[int]:
        """The plaintext hash positions (exposed for tests/analysis only)."""
        return self._bloom.positions(object_id)

    def structure_bytes(self) -> int:
        """Size of one EHL in bytes (for the Fig. 7/8 size series)."""
        return self.table_size * self.public_key.ciphertext_bytes

