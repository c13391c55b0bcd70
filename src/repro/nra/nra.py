"""The No-Random-Access algorithm (Fagin, Lotem, Naor; Algorithm 1).

NRA performs only sorted accesses: at depth ``d`` it sees the ``d``-th
entry of every list, maintains for every encountered object a lower bound
``W^d(o)`` (sum of seen scores) and an upper bound ``B^d(o)`` (seen scores
plus the current bottom score of every unseen list), and halts when the
``k`` best lower bounds dominate every other candidate's upper bound and
the upper bound ``Σ bottoms`` of entirely-unseen objects.

This plaintext implementation is the semantic specification that
``SecQuery`` (Section 8) executes obliviously; the differential tests in
``tests/test_core_query.py`` check the secure engine against it depth by
depth.

Both halting rules (ARCHITECTURE.md, "Protocol substitutions and declared
leakage") are supported:

* ``halting="strict"`` — textbook NRA: check every candidate outside the
  current top-k plus the unseen bound (exact halting depth).
* ``halting="paper"``  — Algorithm 3's check: only the (k+1)-th candidate
  of ``T`` sorted by worst score (plus the unseen-object bound, without
  which the rule is unsound — see the same section).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import QueryError
from repro.nra.items import SortedLists


@dataclass
class NraResult:
    """Outcome of an NRA run."""

    topk: list[tuple[int, int]]
    """``(object_id, worst_score)`` pairs, best first (worst = exact score
    at halting time for reported objects in most cases)."""

    halting_depth: int
    """1-based depth at which the algorithm stopped."""

    depths_state: list[dict] = field(default_factory=list)
    """Optional per-depth snapshots (populated when ``trace=True``)."""


def nra_topk(
    lists: SortedLists,
    k: int,
    halting: str = "strict",
    trace: bool = False,
) -> NraResult:
    """Run NRA over ``lists`` and return the top-``k`` objects."""
    if k < 1:
        raise QueryError("k must be >= 1")
    if halting not in ("strict", "paper"):
        raise QueryError(f"unknown halting rule: {halting!r}")
    m = lists.n_lists
    n = lists.n_objects

    seen_scores: dict[int, dict[int, int]] = {}
    snapshots: list[dict] = []

    for d in range(n):
        for j, item in enumerate(lists.depth(d)):
            seen_scores.setdefault(item.object_id, {})[j] = item.score
        bottoms = lists.bottoms(d)

        worst: dict[int, int] = {}
        best: dict[int, int] = {}
        for o, per_list in seen_scores.items():
            w = sum(per_list.values())
            b = w + sum(bottoms[j] for j in range(m) if j not in per_list)
            worst[o] = w
            best[o] = b

        ranked = sorted(worst.items(), key=lambda kv: (-kv[1], kv[0]))
        if trace:
            snapshots.append(
                {"depth": d + 1, "worst": dict(worst), "best": dict(best)}
            )

        if len(ranked) >= k:
            mk = ranked[k - 1][1]
            topk_ids = {o for o, _ in ranked[:k]}
            unseen_bound = sum(bottoms)
            if halting == "strict":
                others_ok = all(
                    best[o] <= mk for o in worst if o not in topk_ids
                )
            else:
                if len(ranked) > k:
                    o_next = ranked[k][0]
                    others_ok = best[o_next] <= mk
                else:
                    others_ok = True
            seen_all = len(seen_scores) >= k
            if seen_all and others_ok and (unseen_bound <= mk or len(seen_scores) == n):
                return NraResult(
                    topk=ranked[:k],
                    halting_depth=d + 1,
                    depths_state=snapshots,
                )

    # Full scan: every score is exact now.
    ranked = sorted(worst.items(), key=lambda kv: (-kv[1], kv[0]))
    return NraResult(topk=ranked[:k], halting_depth=n, depths_state=snapshots)
