"""Encrypted item containers used by the sorted lists and candidate list.

* :class:`EncryptedItem` — ``E(I) = ⟨EHL(o), Enc(x)⟩``: one entry of an
  encrypted sorted list (Section 6).
* :class:`ScoredItem` — ``E(I) = (EHL(o), Enc(W), Enc(B))``: a candidate
  carried in the list ``T`` during query processing with its encrypted
  worst and best scores (Section 8.1).
* :class:`ItemBatch` — the candidates of one blinded round (``SecDedup``,
  ``EncSort``), packed: each item's :class:`ItemShape` and one limb
  buffer of its components, every one a Paillier ciphertext under the
  main key, from S1's blind through S2's re-blind to S1's unblind.

A ``ScoredItem`` carries only the fields its next reader needs; an
absent field (``None``) is neither blinded nor shipped.  The ``eager``
engine keeps a running ``Enc(W)`` and the per-list encrypted
seen-indicators (its best bounds never ride an item); the
paper-literal mode carries worst and best.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from repro.crypto import backend
from repro.crypto.paillier import Ciphertext, PaillierPublicKey
from repro.crypto.vector import CtVector
from repro.exceptions import ProtocolError


@dataclass
class EncryptedItem:
    """One encrypted sorted-list entry ``⟨EHL(o), Enc(x)⟩``.

    ``ehl`` is an :class:`~repro.structures.ehl.Ehl` or
    :class:`~repro.structures.ehl_plus.EhlPlus`; the protocols only use the
    shared ``minus`` interface.
    """

    ehl: object
    score: Ciphertext
    record: Ciphertext | None = None
    """Optional ``Enc(object_id)`` rider so the client can decrypt the
    winners; travels blinded through every protocol like the scores do."""

    def serialized_size(self) -> int:
        """Byte size on the wire."""
        size = self.ehl.serialized_size() + self.score.serialized_size()
        if self.record is not None:
            size += self.record.serialized_size()
        return size


def weight_entries(
    entries: list["EncryptedItem"], weight: int
) -> "list[EncryptedItem] | WeightedEntries":
    """Apply a query weight to a sorted list's entries.

    The single home of the weighting construction: the unsharded query
    path and the shard workers both call it, and the sharded-vs-unsharded
    bit-parity invariant depends on the two producing identical
    ciphertexts (scalar multiplication is deterministic, and ``weight ==
    1`` keeps the original objects on both paths).  The weighted entries
    are a :class:`WeightedEntries` view, which weights a block at a time
    on first access: a scan halts a few depths in, and an entry it never
    reads costs no exponentiation.
    """
    if weight == 1 or not entries:
        return entries
    return WeightedEntries(entries, weight)


class WeightedEntries:
    """``entries`` under a query weight, weighted :attr:`BLOCK` entries
    at a time on first access — the sequence operations a scan uses
    (``len`` and integer indexing, which iteration falls back on).

    A block is one ``backend.powmod_vec`` call: the same exponent
    reduction as ``Ciphertext.__mul__`` (``weight % n``), so the
    ciphertexts stay bit-identical, and the gmp-kernel backend converts
    the shared exponent and modulus once and releases the GIL across the
    block.  Two threads that weight a block together
    compute the same values; the last store wins.
    """

    __slots__ = ("_entries", "_weight", "_blocks")

    #: Entries weighted per backend call (a constant, not a knob).
    BLOCK = 8

    def __init__(self, entries: list["EncryptedItem"], weight: int):
        self._entries = entries
        self._weight = weight
        self._blocks: list[list[EncryptedItem] | None] = [None] * (
            -(-len(entries) // self.BLOCK)
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> "EncryptedItem":
        if index < 0:
            index += len(self._entries)
        if not 0 <= index < len(self._entries):
            raise IndexError("entry index out of range")
        block, offset = divmod(index, self.BLOCK)
        weighted = self._blocks[block]
        if weighted is None:
            weighted = self._blocks[block] = self._weigh(block)
        return weighted[offset]

    def _weigh(self, block: int) -> list["EncryptedItem"]:
        entries = self._entries[block * self.BLOCK : (block + 1) * self.BLOCK]
        pk = entries[0].score.public_key
        powers = backend.powmod_vec(
            [e.score.value for e in entries], self._weight % pk.n, pk.n_squared
        )
        return [
            EncryptedItem(ehl=e.ehl, score=Ciphertext(value, pk), record=e.record)
            for e, value in zip(entries, powers)
        ]


@dataclass
class JoinedTuple:
    """One combined join tuple ``E(o) = (Enc(s), [Enc(x_1) ... Enc(x_m)])``.

    Produced by ``SecJoin`` and filtered by ``SecFilter``; lives here (and
    not in the protocol modules) because it is a pure data container that
    also crosses the inter-cloud wire.
    """

    score: Ciphertext
    attributes: CtVector
    """One vector under the score's key; a list of ciphertexts given
    here (S1's constructors) is packed into one.  The wire decoder
    checks a decoded tuple's types before it builds one."""

    def __post_init__(self):
        if type(self.attributes) is not CtVector:
            attributes = list(self.attributes)
            self.attributes = (
                CtVector.pack(attributes) if attributes
                else CtVector.of(self.score.public_key, [])
            )

    def serialized_size(self) -> int:
        """Byte size on the wire."""
        return self.score.serialized_size() + self.attributes.serialized_size()


class ListPrefix:
    """A zero-copy view of the first ``length`` entries of a sorted list.

    ``SecBest`` consumes one prefix per other query list per depth; slicing
    ``lists[j][: depth + 1]`` for every item at every depth costs
    ``O(n·m²)`` list copying over a scan.  This view supports exactly the
    operations the protocol needs — ``len``, indexing (including negative
    indices for the bottom item) and iteration — without copying.
    """

    __slots__ = ("_items", "_length")

    def __init__(self, items: list, length: int):
        if not 0 <= length <= len(items):
            raise ValueError("prefix length out of range")
        self._items = items
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int):
        if not isinstance(index, int):
            raise TypeError("ListPrefix supports integer indices only")
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("prefix index out of range")
        return self._items[index]

    def __iter__(self):
        for i in range(self._length):
            yield self._items[i]


@dataclass
class ScoredItem:
    """A top-k candidate with encrypted worst/best scores.

    Attributes
    ----------
    ehl:
        Encrypted hash list of the object id.
    worst:
        ``Enc(W)`` — encrypted lower bound of the aggregate score.
        ``None`` while ``EncSort`` carries it as the separate sort key.
    best:
        ``Enc(B)`` — encrypted upper bound of the aggregate score.  The
        eager engine never stores it: it derives the bound for exactly
        the candidates its halting rule compares and hands it straight
        to the comparison.
    list_scores:
        Payload ciphertexts riding along unchanged (the join's
        attributes through ``EncSort``).
    seen_bits:
        Eager mode only: per query list ``j``, the Paillier ciphertext
        ``Enc(seen_j)`` of whether the object has been seen in list ``j``
        yet — the sum of the ``Enc(t)`` bits S2 returned for it.
    uid:
        An S1-local handle for bookkeeping.  Carries no information about
        the object (S1 assigns it sequentially), and never leaves S1: a
        batch decoded from the wire holds ``-1`` for every item.
    """

    ehl: object
    worst: Ciphertext | None
    best: Ciphertext | None = None
    list_scores: list[Ciphertext] | None = None
    seen_bits: list[Ciphertext] | None = None
    record: Ciphertext | None = None
    uid: int = -1

    def serialized_size(self) -> int:
        """Byte size on the wire (EHL + every field present)."""
        size = self.ehl.serialized_size()
        if self.worst is not None:
            size += self.worst.serialized_size()
        if self.best is not None:
            size += self.best.serialized_size()
        if self.list_scores is not None:
            size += sum(c.serialized_size() for c in self.list_scores)
        if self.seen_bits is not None:
            size += sum(c.serialized_size() for c in self.seen_bits)
        if self.record is not None:
            size += self.record.serialized_size()
        return size

    def clone_shallow(self) -> "ScoredItem":
        """A copy sharing the (immutable) ciphertext objects."""
        return ScoredItem(
            ehl=self.ehl,
            worst=self.worst,
            best=self.best,
            list_scores=list(self.list_scores) if self.list_scores is not None else None,
            seen_bits=list(self.seen_bits) if self.seen_bits is not None else None,
            record=self.record,
            uid=self.uid,
        )


class ItemShape(NamedTuple):
    """What one item of an :class:`ItemBatch` carries: its EHL class and
    cell count, which of worst / best / record it has, and how many
    payload ciphertexts (``list_scores``) and seen bits (``None``: the
    field is absent)."""

    ehl: type
    cells: int
    worst: bool
    best: bool
    scores: int | None
    seen: int | None
    record: bool

    def count(self) -> int:
        """How many components the item has."""
        return (
            self.cells + self.worst + self.best + (self.scores or 0) + (self.seen or 0)
            + self.record
        )


class ItemBatch:
    """The items of one blinded round, packed.

    * :attr:`shapes` and :attr:`uids` — each item's layout and S1-local
      handle;
    * :attr:`vector` — every component of every item, item by item in
      the blinding order (EHL cells, worst, best, ``list_scores``, seen
      bits, record), one :class:`~repro.crypto.vector.CtVector` of
      Paillier ciphertexts under the main key: what
      :data:`~repro.protocols.blinding.BLIND_ROUND` reads and writes.

    S1 packs a round once (:meth:`pack`), the blinders and S2 keep,
    reorder and extend it by whole item slices (:meth:`select`,
    :meth:`concat`, :meth:`with_components`), and S1 builds its
    :class:`ScoredItem` objects once, after unblinding (:meth:`unpack`).
    On the wire a batch is its shapes and its vector as it is
    (:mod:`repro.net.wire`), and its size is its vector's.  A batch is
    never modified in place.
    """

    __slots__ = ("shapes", "uids", "vector", "_counts")

    def __init__(self, shapes: list[ItemShape], uids: list[int], vector: CtVector):
        self.shapes = shapes
        self.uids = uids
        self.vector = vector
        self._counts: list[int] | None = None

    @property
    def public_key(self) -> PaillierPublicKey:
        """The key every component is under."""
        return self.vector.key

    @property
    def buffer(self) -> bytes:
        """The components, packed."""
        return self.vector.buffer

    @classmethod
    def pack(cls, public_key: PaillierPublicKey, items: list[ScoredItem]) -> "ItemBatch":
        """``items`` packed under ``public_key``: the one pass over their
        components on the way into a blinded round."""
        shapes, uids, values = [], [], []
        for item in items:
            bits = item.seen_bits
            if any(type(c) is not Ciphertext for c in bits or ()):
                raise ProtocolError("an item's seen bits must be Paillier ciphertexts")
            values += [c.value for c in item.ehl.cells]
            if item.worst is not None:
                values.append(item.worst.value)
            if item.best is not None:
                values.append(item.best.value)
            if item.list_scores is not None:
                values += [c.value for c in item.list_scores]
            if bits is not None:
                values += [c.value for c in bits]
            if item.record is not None:
                values.append(item.record.value)
            shapes.append(
                ItemShape(
                    type(item.ehl),
                    len(item.ehl.cells),
                    item.worst is not None,
                    item.best is not None,
                    None if item.list_scores is None else len(item.list_scores),
                    None if bits is None else len(bits),
                    item.record is not None,
                )
            )
            uids.append(item.uid)
        return cls(shapes, uids, CtVector.of(public_key, values))

    @classmethod
    def concat(cls, batches: list["ItemBatch"]) -> "ItemBatch":
        """One batch of the items of ``batches`` (at least one, all under
        one key), in order."""
        if len(batches) == 1:
            return batches[0]
        return cls(
            [shape for batch in batches for shape in batch.shapes],
            [uid for batch in batches for uid in batch.uids],
            CtVector.concat([batch.vector for batch in batches]),
        )

    def counts(self) -> list[int]:
        """Per item, how many components it has."""
        if self._counts is None:
            self._counts = [shape.count() for shape in self.shapes]
        return self._counts

    def with_components(self, public_key: PaillierPublicKey, buffer: bytes) -> "ItemBatch":
        """The same items with new component values under ``public_key``
        (a blinding's output, under the blinder's key object): same
        layout, ``buffer`` in its order."""
        batch = ItemBatch(self.shapes, self.uids, CtVector(public_key, self.vector.count, buffer))
        batch._counts = self._counts
        return batch

    def select(self, indices) -> "ItemBatch":
        """The items at ``indices``, in that order, as whole slices of
        this batch."""
        starts = list(itertools.accumulate(self.counts(), initial=0))
        vector = self.vector
        stride = vector.stride
        buffer = vector.buffer
        shapes, uids = self.shapes, self.uids
        return ItemBatch(
            [shapes[i] for i in indices],
            [uids[i] for i in indices],
            CtVector(
                vector.key,
                sum(starts[i + 1] - starts[i] for i in indices),
                b"".join([buffer[starts[i] * stride : starts[i + 1] * stride] for i in indices]),
            ),
        )

    def unpack(self) -> list[ScoredItem]:
        """The :class:`ScoredItem` objects of the batch: the one pass
        that builds ciphertext objects on the way out of a round."""
        cts = self.vector.ciphertexts()
        items = []
        at = 0
        for shape, uid in zip(self.shapes, self.uids):
            end = at + shape.cells
            ehl = shape.ehl(cts[at:end])
            at = end
            worst = best = scores = bits = record = None
            if shape.worst:
                worst = cts[at]
                at += 1
            if shape.best:
                best = cts[at]
                at += 1
            if shape.scores is not None:
                scores = cts[at : at + shape.scores]
                at += shape.scores
            if shape.seen is not None:
                bits = cts[at : at + shape.seen]
                at += shape.seen
            if shape.record:
                record = cts[at]
                at += 1
            items.append(
                ScoredItem(
                    ehl=ehl,
                    worst=worst,
                    best=best,
                    list_scores=scores,
                    seen_bits=bits,
                    record=record,
                    uid=uid,
                )
            )
        return items

    def __len__(self) -> int:
        return len(self.shapes)

    def serialized_size(self) -> int:
        """Byte size on the wire: its components' (each one ciphertext of
        the key)."""
        return self.vector.serialized_size()
