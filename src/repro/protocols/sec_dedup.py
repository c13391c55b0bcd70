"""``SecDedup`` — oblivious duplicate burial (Algorithm 7 + ``Rand``).

The same object can surface in several sorted lists at the same depth; S1
cannot detect this because everything is probabilistically encrypted.
``SecDedup`` lets S2 find the duplicate groups from a *permuted* pairwise
equality matrix and neutralize all but one member of each group, without
S1 learning which items were touched:

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
   Every outgoing item (kept or junk) is re-blinded with a fresh seed and
   its companion extended to the uniform shape ``(H_a, H_b)``, so S1
   cannot distinguish replaced items.  S2 permutes with its own ``π'`` and
   returns.
3. S1 decrypts both companion seeds per item and unblinds.

``ranks`` bias which group member survives; ``SecUpdate`` uses them to
make sure the accumulated candidate (not the freshly appended duplicate)
is the copy that is kept.  The ranks are sent in the clear, which reveals
to S2 how duplicate groups split between old and new items — leakage of
the same granularity as ``EP_d`` (recorded in the leakage log and
documented in DESIGN.md).
"""

from __future__ import annotations

from repro.crypto.paillier import Ciphertext, PaillierKeypair
from repro.exceptions import ProtocolError
from repro.net.messages import DedupBatch
from repro.protocols.base import CryptoCloud, S1Context
from repro.protocols.blinding import ItemBlinder, junk_item
from repro.structures.ehl import EncryptedHashList, KnownPairs
from repro.structures.items import ScoredItem

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
):
    """S1's blinding + permutation stage shared with ``SecDupElim``.

    ``known`` is what the caller already holds about pairs of these
    items' EHLs; those matrix entries are filled without recomputing
    ``⊖`` (see :func:`repro.structures.ehl.minus_pairs`).
    """
    blinder = ItemBlinder(ctx.public_key, ctx.dj)
    l = len(items)
    order = ctx.rng.permutation(l)
    permuted = [items[i] for i in order]
    permuted_ranks = [ranks[i] for i in order]

    matrix = EncryptedHashList.minus_matrix(
        [item.ehl for item in permuted], ctx.rng, known
    )
    blinded, companions = blinder.blind_fresh(
        permuted, own_keypair.public_key, ctx.rng
    )
    return blinder, matrix, blinded, companions, permuted_ranks


def sec_dedup(
    ctx: S1Context,
    items: list[ScoredItem],
    own_keypair: PaillierKeypair,
    ranks: list[int] | None = None,
    protocol: str = PROTOCOL,
    known: KnownPairs | None = None,
) -> list[ScoredItem]:
    """Return a same-length list with duplicate objects buried as junk."""
    if len(items) <= 1:
        return list(items)
    ranks = ranks if ranks is not None else [0] * len(items)
    if len(ranks) != len(items):
        raise ProtocolError("ranks/items length mismatch")

    blinder, matrix, blinded, companions, permuted_ranks = _prepare(
        ctx, items, ranks, own_keypair, known
    )
    items_out, comps_out = ctx.call(
        DedupBatch(
            protocol=protocol,
            matrix=matrix,
            items=blinded,
            companions=companions,
            ranks=permuted_ranks,
            own_public=own_keypair.public_key,
            sentinel=-ctx.encoder.sentinel,
            eliminate=False,
        )
    )
    return blinder.unblind_companions(own_keypair, items_out, comps_out)


def s2_dedup(
    s2: CryptoCloud,
    own_public,
    matrix: list[Ciphertext],
    blinded: list[ScoredItem],
    companions: list[Ciphertext],
    ranks: list[int],
    sentinel: int,
    eliminate: bool,
    protocol: str,
):
    """S2's side, shared by ``SecDedup`` (bury) and ``SecDupElim`` (drop)."""
    blinder = ItemBlinder(s2.public_key, s2.dj)
    l = len(blinded)
    if len(matrix) != l * (l - 1) // 2 or not len(companions) == len(ranks) == l:
        raise ProtocolError(
            f"malformed dedup batch: {l} items with {len(matrix)} matrix "
            f"entries, {len(companions)} companions, {len(ranks)} ranks"
        )
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

    survivors: set[int] = set()
    for members in groups.values():
        keeper = min(members, key=lambda i: (ranks[i], i))
        survivors.add(keeper)

    # Survivors travel on under one more seed next to their companion;
    # junk replacements get two seeds of S2's, so every outgoing item
    # has the uniform companion shape (H_a, H_b).  eliminate=True simply
    # drops the duplicates.
    outgoing: list[ScoredItem] = []
    carried: list[Ciphertext | None] = []
    for i in range(l):
        if i in survivors:
            outgoing.append(blinded[i])
            carried.append(companions[i])
        elif not eliminate:
            outgoing.append(junk_item(s2.public_key, s2.dj, blinded[i], sentinel, s2.rng))
            carried.append(None)
    counts = [1 if h is not None else 2 for h in carried]
    seeds = blinder.fresh_seeds(s2.rng, sum(counts))
    sealed = blinder.encrypt_seeds(own_public, seeds, s2.rng)
    seed_lists: list[list[bytes]] = []
    comps_out: list[tuple[Ciphertext, Ciphertext]] = []
    at = 0
    for h, count in zip(carried, counts):
        seed_lists.append(seeds[at : at + count])
        comps_out.append(
            (h, sealed[at]) if h is not None else (sealed[at], sealed[at + 1])
        )
        at += count
    items_out = blinder.blind_many(outgoing, seed_lists, s2.rng)

    if eliminate:
        s2.leakage.record("S2", protocol, "unique_count", len(items_out))

    order = s2.rng.permutation(len(items_out))
    return [items_out[i] for i in order], [comps_out[i] for i in order]
