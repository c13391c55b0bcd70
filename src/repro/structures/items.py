"""Encrypted item containers used by the sorted lists and candidate list.

* :class:`EncryptedItem` — ``E(I) = ⟨EHL(o), Enc(x)⟩``: one entry of an
  encrypted sorted list (Section 6).
* :class:`ScoredItem` — ``E(I) = (EHL(o), Enc(W), Enc(B))``: a candidate
  carried in the list ``T`` during query processing with its encrypted
  worst and best scores (Section 8.1).

A ``ScoredItem`` carries only the fields its next reader needs; an
absent field (``None``) is neither blinded nor shipped.  The ``eager``
engine keeps a running ``Enc(W)`` and the per-list encrypted
seen-indicators (its best bounds never ride an item); the
paper-literal mode carries worst and best.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import backend
from repro.crypto.damgard_jurik import LayeredCiphertext
from repro.crypto.paillier import Ciphertext


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
    attributes: list[Ciphertext]

    def serialized_size(self) -> int:
        """Byte size on the wire."""
        return self.score.serialized_size() + sum(
            a.serialized_size() for a in self.attributes
        )


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
        yet — the sum of the ``Enc(t)`` bits S2 returned for it.  S2
        also still serves items whose seen bits are layered
        ``E2(seen_j)`` ciphertexts (the form an earlier eager engine
        shipped).
    uid:
        An S1-local handle for bookkeeping.  Carries no information about
        the object (S1 assigns it sequentially), so it is not leakage.
    """

    ehl: object
    worst: Ciphertext | None
    best: Ciphertext | None = None
    list_scores: list[Ciphertext] | None = None
    seen_bits: list[Ciphertext] | list[LayeredCiphertext] | None = None
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
