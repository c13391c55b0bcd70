"""``SecDedup`` — oblivious duplicate burial (Algorithm 7 + ``Rand``).

The same object can surface in several sorted lists at the same depth; S1
cannot detect this because everything is probabilistically encrypted.
``SecDedup`` lets S2 find the duplicate groups from a *permuted* pairwise
equality matrix and neutralize all but one member of each group:

1. S1 fills the upper triangle of the symmetric matrix
   ``B_{ij} = EHL(o_i) ⊖ EHL(o_j)``, blinds every item component with a
   per-item seed, encrypts the seed under S1's own key ``pk'`` into the
   companion ciphertext ``H_i``, applies a random permutation ``π`` to
   matrix, items and companions, and ships everything.  An entry whose
   answer S1 already holds (a pair of earlier survivors, a pair tested
   one round ago) is filled from that instead of recomputing ``⊖`` —
   same distribution for S2, see :func:`repro.structures.ehl.minus_pairs`.
2. S2 decrypts the matrix entries (learning the equality pattern ``EP_d``
   of a permuted list — the declared ``L2`` leakage), groups duplicates by
   union-find, keeps the lowest-``rank`` member of each group and replaces
   the rest with *junk*: fresh random identity, worst/best pinned to the
   huge-negative sentinel so they sort last and never block halting.
   Every outgoing item (kept or junk) is re-blinded with a fresh seed of
   S2's, so its components are fresh encryptions, and carries two
   companions: a survivor S1's ``H_i``, forwarded untouched, next to
   S2's, a junk item two of S2's.  S2 permutes with its own ``π'`` and
   returns.  The forwarded ``H_i`` is the catch: S1 decrypts its own
   seed, maps every survivor back to the input slot it blinded with it
   and so tells junk from survivors — the uniqueness pattern the full
   variant is meant to hide from S1 (a known gap, ROADMAP; ``SecFilter``
   extends its material homomorphically instead and does not leak so).
3. S1 decrypts both companion seeds per item and unblinds.

``ranks`` bias which group member survives; ``SecUpdate`` uses them to
make sure the accumulated candidate (not the freshly appended duplicate)
is the copy that is kept.  The ranks are sent in the clear, which reveals
to S2 how duplicate groups split between old and new items — leakage of
the same granularity as ``EP_d`` (recorded in the leakage log; see
ARCHITECTURE.md, "Protocol substitutions and declared leakage").

``counts`` make it ``DedupSort``, the eager engine's check depth in one
round.  The items are the candidates carried from the last check
(pairwise distinct, rank 0) followed by the window's new entries in
creation order (ranks ``1, 2, …``), and ``counts[j]`` is the new entry's
``Enc(c_j)``, ``c_j`` the number of earlier entries its absorb matched —
the sum of the equality bits S2 decrypted for it then.  An entry is the
first of its object exactly when ``c_j = 0``, so S2 needs no matrix: it
keeps every carried item and every entry whose count decrypts to 0.  S1
also ships each item's worst score as a one-way key
(:func:`repro.protocols.enc_sort.one_way_keys`), and S2 returns the
survivors ordered by it, descending, with new junk last — the item's
own (blinded) worst is what S1 gets back, so no key returns.  What S2
reads is a function of the absorbs' ``EP_d`` bits it already saw: the
counts, and the group sizes they imply (``dedup_groups``).
"""

from __future__ import annotations

from collections import Counter

from repro.crypto.paillier import PaillierKeypair
from repro.crypto.vector import CtVector, vector_of
from repro.exceptions import ProtocolError
from repro.net.messages import DedupBatch, DedupSort
from repro.protocols.base import CryptoCloud, S1Context
from repro.protocols.blinding import ItemBlinder, check_batch, junk_batch
from repro.protocols.enc_sort import PROTOCOL as SORT_PROTOCOL
from repro.protocols.enc_sort import companion_pairs, one_way_keys, s2_order
from repro.structures.ehl import EncryptedHashList, KnownPairs
from repro.structures.items import ItemBatch, ScoredItem

PROTOCOL = "SecDedup"


class _UnionFind:
    """Union-find over ``range(n)`` for duplicate grouping."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def groups(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return out


def _prepare(
    ctx: S1Context,
    items: list[ScoredItem],
    ranks: list[int],
    own_keypair: PaillierKeypair,
    known: KnownPairs | None,
    counts: CtVector | None = None,
):
    """S1's permutation ``π`` and blinding of one round: its blinder and
    the per-item fields of its ``DedupBatch`` — the ``⊖`` matrix — or,
    given ``counts``, of its ``DedupSort``.

    ``known`` is what the caller already holds about pairs of these
    items' EHLs; those matrix entries are filled without recomputing
    ``⊖`` (see :func:`repro.structures.ehl.minus_pairs`).  ``counts[r −
    1]`` belongs to the item of rank ``r ≥ 1``; the counts are
    rerandomized in one batch and travel in the permuted order of those
    items.  The engine passes a vector; ``tests/test_dedup_sort.py``
    passes lists of ciphertexts.
    """
    blinder = ItemBlinder(ctx.public_key)
    if counts is not None and type(counts) is not CtVector:
        counts = CtVector.of(ctx.public_key, [c.value for c in counts])
    order = ctx.rng.permutation(len(items))
    permuted = [items[i] for i in order]
    fields = {"ranks": [ranks[i] for i in order]}
    if counts is None:
        fields["matrix"] = EncryptedHashList.minus_matrix(
            [item.ehl for item in permuted], ctx.rng, known
        )
    else:
        fresh = CtVector.randomized(ctx.public_key, counts.buffer, ctx.rng, len(counts))
        fields["counts"] = fresh.select([ranks[i] - 1 for i in order if ranks[i]])
        fields["keys"] = one_way_keys(ctx, [item.worst.value for item in permuted])
    fields["items"], fields["companions"] = blinder.blind_fresh(
        ItemBatch.pack(ctx.public_key, permuted), own_keypair.public_key, ctx.rng
    )
    return blinder, fields


def dedup_round(
    ctx: S1Context,
    items: list[ScoredItem],
    own_keypair: PaillierKeypair,
    ranks: list[int] | None,
    protocol: str,
    known: KnownPairs | None,
    eliminate: bool,
    counts: CtVector | list | None = None,
) -> list[ScoredItem]:
    """S1's side of one deduplication round, shared by ``SecDedup``
    (bury), ``SecDupElim`` (drop) and, with ``counts``, ``DedupSort``,
    whose ranks the counts imply: 0 for the items before the last
    ``len(counts)``, then ``1, 2, …``."""
    if len(items) <= 1:
        return list(items)
    if counts is not None:
        ranks = [0] * (len(items) - len(counts)) + list(range(1, len(counts) + 1))
    ranks = ranks if ranks is not None else [0] * len(items)
    if len(ranks) != len(items):
        raise ProtocolError("ranks/items length mismatch")

    blinder, fields = _prepare(ctx, items, ranks, own_keypair, known, counts)
    message = DedupBatch if counts is None else DedupSort
    items_out, comps_out = ctx.call(
        message(
            protocol=protocol,
            own_public=own_keypair.public_key,
            sentinel=-ctx.encoder.sentinel,
            eliminate=eliminate,
            **fields,
        )
    )
    if eliminate:
        ctx.leakage.record("S1", protocol, "unique_count", len(items_out))
    return blinder.unblind_companions(own_keypair, items_out, comps_out)


def sec_dedup(
    ctx: S1Context,
    items: list[ScoredItem],
    own_keypair: PaillierKeypair,
    ranks: list[int] | None = None,
    protocol: str = PROTOCOL,
    known: KnownPairs | None = None,
    counts: CtVector | list | None = None,
) -> list[ScoredItem]:
    """Return a same-length list with duplicate objects buried as junk;
    with ``counts`` (``DedupSort``), the survivors first, by worst
    score, descending."""
    return dedup_round(
        ctx, items, own_keypair, ranks, protocol, known, eliminate=False, counts=counts
    )


# ----------------------------------------------------------------------
# S2's side: one grouping and one re-blinding, shared by DedupBatch and
# DedupSort.
# ----------------------------------------------------------------------


def _s2_keepers(
    s2: CryptoCloud,
    matrix: CtVector,
    ranks: list[int],
    protocol: str,
) -> list[int]:
    """Decrypt the matrix, group the items by union-find and return each
    group's keeper — its lowest-``rank`` member — in input order."""
    l = len(ranks)
    uf = _UnionFind(l)
    entries = s2.decrypt_batch_for_protocol(matrix, protocol, "dedup_matrix")
    idx = 0
    for i in range(l):
        for j in range(i + 1, l):
            if entries[idx] == 0:
                uf.union(i, j)
            idx += 1

    groups = uf.groups()
    s2.leakage.record(
        "S2", protocol, "dedup_groups", sorted(len(g) for g in groups.values())
    )
    return sorted(min(members, key=lambda i: (ranks[i], i)) for members in groups.values())


def _group_sizes(copies: list[int]) -> list[int]:
    """Duplicate-group sizes, ascending, from each item's count of
    earlier copies: a group of ``g`` items holds one item of each count
    ``0 … g − 1``, so ``#(count = s) − #(count = s + 1)`` groups have
    ``s + 1`` members."""
    tally = Counter(copies)
    sizes: list[int] = []
    for s in sorted(tally):
        sizes += [s + 1] * max(tally[s] - tally.get(s + 1, 0), 0)
    return sorted(sizes)


def _s2_release(
    s2: CryptoCloud,
    own_public,
    blinded: ItemBatch,
    companions: CtVector,
    kept: list[int],
    sentinel: int,
    eliminate: bool,
    protocol: str,
):
    """The outgoing batch, each item re-blinded once: the ``kept`` input
    slots in that order, then — unless ``eliminate`` drops them — a junk
    replacement for every other item, all in one blinding call.

    A survivor travels on under one more seed next to its companion; a
    junk item gets two seeds of S2's, so every outgoing item has the
    uniform companion shape ``(H_a, H_b)``, flat in one vector.
    """
    outgoing = blinded.select(kept)
    buried = []
    if not eliminate:
        survivors = set(kept)
        buried = [i for i in range(len(blinded)) if i not in survivors]
        junk = junk_batch(s2.public_key, blinded.select(buried), sentinel, s2.rng)
        outgoing = ItemBatch.concat([outgoing, junk])

    blinder = ItemBlinder(s2.public_key)
    seeds = blinder.fresh_seeds(s2.rng, len(kept) + 2 * len(buried))
    sealed = blinder.encrypt_seeds(own_public, seeds, s2.rng)
    # Survivor j's pair is its companion and sealed seed j; the junk
    # items' pairs are the sealed seeds after those, two each.
    survivors = len(kept)
    comps_out = CtVector.concat([
        companion_pairs(companions.select(kept), sealed[:survivors]), sealed[survivors:]
    ])
    rest = seeds[survivors:]
    seed_lists = [[seed] for seed in seeds[:survivors]]
    seed_lists += [rest[i : i + 2] for i in range(0, len(rest), 2)]
    items_out = blinder.blind_batch(outgoing, seed_lists, s2.rng)
    if eliminate:
        s2.leakage.record("S2", protocol, "unique_count", len(items_out))
    return items_out, comps_out


def _check_shape(blinded: ItemBatch, sized: tuple[str, CtVector, int], **per_item) -> None:
    """Refuse a batch that does not fit its items: a ``per_item`` field
    (``ranks`` among them) of another length, a rank that is not a
    non-negative integer, or the ``sized`` field ``(name, values,
    length)`` of another length."""
    l = len(blinded)
    name, values, length = sized
    if (
        len(values) != length
        or any(len(v) != l for v in per_item.values())
        or any(type(rank) is not int or rank < 0 for rank in per_item["ranks"])
    ):
        shapes = ", ".join(f"{len(v)} {field}" for field, v in per_item.items())
        raise ProtocolError(
            f"malformed dedup batch: {l} items with {len(values)} {name} "
            f"entries, {shapes}"
        )


def s2_dedup(
    s2: CryptoCloud,
    own_public,
    matrix: CtVector,
    blinded: ItemBatch,
    companions: CtVector,
    ranks: list[int],
    sentinel: int,
    eliminate: bool,
    protocol: str,
):
    """S2's side, shared by ``SecDedup`` (bury) and ``SecDupElim`` (drop)."""
    blinded = check_batch(blinded, s2.public_key)
    l = len(blinded)
    _check_shape(
        blinded,
        ("matrix", vector_of(matrix, s2.public_key), l * (l - 1) // 2),
        companions=vector_of(companions, own_public),
        ranks=ranks,
    )
    kept = _s2_keepers(s2, matrix, ranks, protocol)
    items_out, comps_out = _s2_release(
        s2, own_public, blinded, companions, kept, sentinel, eliminate, protocol
    )
    order = s2.rng.permutation(len(items_out))
    return items_out.select(order), comps_out.select([2 * i + j for i in order for j in (0, 1)])


def s2_dedup_sort(
    s2: CryptoCloud,
    own_public,
    counts: CtVector,
    blinded: ItemBatch,
    keys: CtVector,
    companions: CtVector,
    ranks: list[int],
    sentinel: int,
    eliminate: bool,
    protocol: str,
):
    """S2's side of ``DedupSort``: every rank-0 item survives, and every
    new item whose count of earlier copies decrypts to 0; then only the
    survivors' keys are decrypted, the survivors ordered by them
    (descending) and new junk appended; no second permutation."""
    pk = s2.public_key
    blinded = check_batch(blinded, pk)
    _check_shape(
        blinded,
        ("counts", vector_of(counts, pk), sum(1 for rank in ranks if rank != 0)),
        keys=vector_of(keys, pk),
        companions=vector_of(companions, own_public),
        ranks=ranks,
    )
    new = [i for i, rank in enumerate(ranks) if rank != 0]
    copies = [0] * len(blinded)
    for i, c in zip(new, s2.decrypt_batch_for_protocol(counts, protocol, "dedup_count")):
        copies[i] = c
    s2.leakage.record("S2", protocol, "dedup_groups", _group_sizes(copies))
    kept = [i for i, c in enumerate(copies) if c == 0]
    ordered = s2_order(s2, keys.select(kept), kept, True, SORT_PROTOCOL)
    return _s2_release(
        s2, own_public, blinded, companions, [i for _, i in ordered],
        sentinel, eliminate, protocol,
    )
