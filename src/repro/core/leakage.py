"""Declared leakage profiles and the audit used by the security tests.

Section 9 defines CQA security relative to explicit leakage functions:

* ``L_Setup = (|R|, M)`` — relation size and attribute count;
* ``L1_Query = (QP, D_q)`` — S1 learns the query pattern (whether a query
  repeats) and the halting depth;
* ``L2_Query = {EP_d}`` — S2 learns, per depth, the equality pattern of a
  *randomly permuted* batch of items.

The optimized variants add (Section 10):

* ``UP_d`` — the number of distinct objects in a deduplicated batch
  (``SecDupElim``; learned by both servers);
* group-membership ranks in ``SecUpdate``'s trailing dedup (same
  granularity as ``EP_d``).

Our fast building-block constructions add (ARCHITECTURE.md, "Protocol
substitutions and declared leakage"):

* blinded-comparison sign bits (uniform coins) and blinded magnitudes;
* sort keys blinded by one secret affine map per sort, of permuted
  lists.  ``SortAffine`` ships ``r*k + s`` exactly, so S2 usually reads
  ``r`` off the gcd of the key differences and each key up to
  ``s/r < 2``; ``DedupSort``'s keys add per-key noise ``e_i ∈ [0, r)``,
  which removes that common factor.  A full-variant junk item's key,
  ``r*(-sentinel) + s``, still hands S2 the map on either path (a
  known gap, ROADMAP);
* ``dedup_count`` — ``DedupSort`` decrypts, per new entry of the check
  window, how many earlier entries its absorb matched: the sum of that
  absorb's ``eq_bits``, which S2 already decrypted, so a function of
  ``EP_d`` (one event per decryption, no payload).  S2 sees no pairwise
  equality pattern of the window and no survivor's group size next to
  its sort key.

:func:`audit` classifies every event a run recorded against this
whitelist; anything unclassified fails the security tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.protocols.base import LeakageLog

#: Every observation kind any protocol may legitimately record, mapped to
#: the leakage-profile component that licenses it.
ALLOWED_KINDS: dict[str, str] = {
    "eq_bits": "L2: equality pattern EP_d (permuted)",
    "recover_batch": "blinded batch size only",
    "cmp_sign": "blinded comparison sign (uniform coin)",
    "masked_bit": "coin-masked protocol output bit",
    "dgk_blinded": "statistically blinded value",
    "dgk_any_zero": "coin-masked DGK intermediate bit",
    "dedup_matrix": "L2: equality pattern EP_d (permuted)",
    "dedup_groups": "L2: duplicate-group sizes (EP_d granularity)",
    "dedup_count": "L2: an entry's earlier copies (sum of its absorb's EP_d bits)",
    "unique_count": "UP_d: uniqueness pattern (optimized variants)",
    "sort_key_blinded": "affinely-scaled sort key of a permuted list",
    "sort_size": "batch size only",
    "gate_key_blinded": "affinely-scaled gate pair (network sort)",
    "gate_bit": "coin-randomized gate order bit (network sort)",
    "filter_flag": "join-match count (SecFilter; Section 12 leakage)",
    "query_pattern": "L1: query pattern QP",
    "halting_depth": "L1: halting depth D_q",
}


@dataclass
class LeakageReport:
    """Summary of a run's observations."""

    counts: dict[str, int] = field(default_factory=dict)
    unclassified: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether every observation is covered by the declared profile."""
        return not self.unclassified


def audit(log: LeakageLog) -> LeakageReport:
    """Classify every recorded observation against the declared profile."""
    report = LeakageReport()
    for event in log.events:
        if event.kind in ALLOWED_KINDS:
            report.counts[event.kind] = report.counts.get(event.kind, 0) + 1
        else:
            report.unclassified.append(f"{event.observer}:{event.protocol}:{event.kind}")
    return report


def equality_pattern_matrices(log: LeakageLog) -> list[list[int]]:
    """Extract the per-batch equality bit vectors S2 observed (``EP_d``)."""
    return [list(e.payload) for e in log.by_kind("eq_bits")]
