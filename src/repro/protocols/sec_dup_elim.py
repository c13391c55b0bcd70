"""``SecDupElim`` — the optimized duplicate *elimination* of Section 10.1.

Identical to :mod:`repro.protocols.sec_dedup` except that S2 drops the
non-surviving members of each duplicate group instead of replacing them
with junk, so the returned list shrinks.  The extra price is leakage of
the *uniqueness pattern* ``UP_d`` — the number of distinct objects in the
batch — to S1 (who sees the shorter list) and S2; the paper trades this
for a 5–7x query speed-up (Section 11.2.3) because the costly ``EncSort``
then runs on far fewer items.
"""

from __future__ import annotations

from repro.crypto.paillier import PaillierKeypair
from repro.crypto.vector import CtVector
from repro.protocols.base import S1Context
from repro.protocols.sec_dedup import dedup_round
from repro.structures.ehl import KnownPairs
from repro.structures.items import ScoredItem

PROTOCOL = "SecDupElim"


def sec_dup_elim(
    ctx: S1Context,
    items: list[ScoredItem],
    own_keypair: PaillierKeypair,
    ranks: list[int] | None = None,
    protocol: str = PROTOCOL,
    known: KnownPairs | None = None,
    counts: CtVector | list | None = None,
) -> list[ScoredItem]:
    """Return a duplicate-free (shorter) list of re-encrypted items;
    with ``counts`` (``DedupSort``), ordered by worst score, descending."""
    return dedup_round(
        ctx, items, own_keypair, ranks, protocol, known, eliminate=True, counts=counts
    )
