"""``SecUpdate`` — merge a depth's results into the candidate list
(Algorithm 9).

``T`` is the running encrypted candidate list with global worst/best
scores; ``Γ^d`` holds the current depth's items with their *per-depth*
worst scores (from ``SecWorst``) and fresh best scores (from ``SecBest``).
For every pair ``(Γ_i, T_j)`` the clouds run the equality test; with the
resulting ``E2(t_ij)`` S1 updates homomorphically:

* ``W_j += Σ_i t_ij · W_i``   — accumulate the matched depth contribution;
* ``B_j  = Σ_i t_ij · B_i + (1 − Σ_i t_ij) · B_j``  — refresh the upper
  bound when the object resurfaced (line 8);
* ``W'_i = (1 − Σ_j t_ij) · W_i`` and the same for ``B'_i`` — neutralize
  the Γ copy that was merged into an existing candidate (our reading of
  the line-10 typo; ARCHITECTURE.md, "Protocol substitutions and
  declared leakage", discusses the deviation).

All neutralized Γ items are appended anyway (S1 cannot branch on the
encrypted match bit) and the trailing ``SecDedup``/``SecDupElim`` pass
buries or removes them, with ranks biased so the accumulated ``T`` copy
survives (Algorithm 9, line 13).
"""

from __future__ import annotations

from repro.crypto.damgard_jurik import LayeredCiphertext
from repro.crypto.paillier import PaillierKeypair
from repro.net.messages import ZeroTestBatch
from repro.protocols.base import S1Context
from repro.protocols.recover_enc import select_recover_batch
from repro.protocols.sec_dedup import sec_dedup
from repro.protocols.sec_dup_elim import sec_dup_elim
from repro.structures.ehl import KnownPairs, minus_pairs
from repro.structures.items import ScoredItem

PROTOCOL = "SecUpdate"


def sec_update(
    ctx: S1Context,
    t_list: list[ScoredItem],
    gamma: list[ScoredItem],
    own_keypair: PaillierKeypair,
    eliminate: bool = False,
    protocol: str = PROTOCOL,
    known: KnownPairs | None = None,
) -> list[ScoredItem]:
    """Merge ``gamma`` into ``t_list`` and return the new candidate list.

    ``known`` is what the caller holds about the two lists' EHLs (a
    caller whose ``t_list`` / ``gamma`` came out of a deduplication marks
    each pairwise distinct); the Γ × T tests of this call are added to it
    and the closing deduplication recomputes none of those pairs.
    """
    if known is None:
        known = KnownPairs()
    if not t_list:
        merged = [g.clone_shallow() for g in gamma]
        return _final_dedup(
            ctx, merged, [1] * len(merged), own_keypair, eliminate, protocol, known
        )
    if not gamma:
        return list(t_list)

    order = ctx.rng.permutation(len(gamma))
    permuted_gamma = [gamma[i] for i in order]

    # One equality round for the full |Γ| x |T| grid.
    flat = minus_pairs(
        [(g_item.ehl, t_item.ehl) for g_item in permuted_gamma for t_item in t_list],
        ctx.rng,
    )
    bits_flat = ctx.call(ZeroTestBatch(protocol=protocol, cts=flat)).ciphertexts()

    n_t = len(t_list)
    bits: list[list[LayeredCiphertext]] = [
        bits_flat[i * n_t : (i + 1) * n_t] for i in range(len(permuted_gamma))
    ]
    t_ehls = [t_item.ehl for t_item in t_list]
    for i, g_item in enumerate(permuted_gamma):
        known.tested(g_item.ehl, t_ehls, flat[i * n_t : (i + 1) * n_t])

    zero_ct = ctx.zero()

    # --- update T entries -------------------------------------------------
    selections: list[tuple] = []
    plans: list[tuple[str, int]] = []
    for j, t_item in enumerate(t_list):
        column = [bits[i][j] for i in range(len(permuted_gamma))]
        # Worst increment: the matched Γ item's depth-worst, else 0.
        selections.append((column, [g.worst for g in permuted_gamma], zero_ct))
        plans.append(("w_inc", j))
        # Best refresh: matched -> Γ's best, else keep the old best.
        selections.append((column, [g.best for g in permuted_gamma], t_item.best))
        plans.append(("b_new", j))

    # --- neutralize merged Γ copies ---------------------------------------
    for i, g_item in enumerate(permuted_gamma):
        matched = None
        for j in range(n_t):
            bit = bits[i][j]
            matched = bit if matched is None else matched + bit
        # matched -> Enc(0), unmatched -> keep own worst/best.
        selections.append(([matched], [zero_ct], g_item.worst))
        plans.append(("g_w", i))
        selections.append(([matched], [zero_ct], g_item.best))
        plans.append(("g_b", i))

    recovered = select_recover_batch(ctx, selections, protocol)

    new_t: list[ScoredItem] = [t.clone_shallow() for t in t_list]
    new_gamma: list[ScoredItem] = [g.clone_shallow() for g in permuted_gamma]
    for (kind, idx), ct in zip(plans, recovered):
        if kind == "w_inc":
            new_t[idx].worst = new_t[idx].worst + ct
        elif kind == "b_new":
            new_t[idx].best = ct
        elif kind == "g_w":
            new_gamma[idx].worst = ct
        else:
            new_gamma[idx].best = ct

    merged = new_t + new_gamma
    ranks = [0] * len(new_t) + [1] * len(new_gamma)
    return _final_dedup(ctx, merged, ranks, own_keypair, eliminate, protocol, known)


def _final_dedup(
    ctx: S1Context,
    merged: list[ScoredItem],
    ranks: list[int],
    own_keypair: PaillierKeypair,
    eliminate: bool,
    protocol: str,
    known: KnownPairs,
) -> list[ScoredItem]:
    with ctx.channel.protocol(protocol):
        if eliminate:
            return sec_dup_elim(ctx, merged, own_keypair, ranks, known=known)
        return sec_dedup(ctx, merged, own_keypair, ranks, known=known)
