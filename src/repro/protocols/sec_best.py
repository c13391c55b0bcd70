"""``SecBest`` — encrypted best score at the current depth (Algorithm 6).

For an item ``E(I) = ⟨EHL(o), Enc(x)⟩`` drawn from list ``L_i`` at depth
``d``, the NRA upper bound is

.. math::

   B^d(o) = x + \\sum_{j \\ne i} \\begin{cases}
       x_j(o)       & \\text{if } o \\text{ appeared in } L_j
                      \\text{ at some depth } e \\le d \\\\
       \\underline{x}_j^d & \\text{otherwise (the list's bottom score)}
   \\end{cases}

S1 cannot branch on the (encrypted) appearance indicator, so for each
other list ``L_j`` it runs the equality test against every prefix item,
obtains ``E2(t_{j,e})`` from S2, and evaluates both branches
homomorphically:

* seen contribution   ``Σ_e E2(t_{j,e})^{Enc(x_j^e)}``
* bottom contribution ``(E2(1) · E2(Σ_e t_{j,e})^{-1})^{Enc(x_j^d)}``

(the inner sums have at most one non-zero Paillier summand because an
object occurs at most once per list, so ``RecoverEnc`` yields a valid
ciphertext).  Complexity is ``O(m·d)`` equality tests, matching the
paper's Section 10.3 analysis.
"""

from __future__ import annotations

from repro.crypto.paillier import Ciphertext
from repro.crypto.vector import CtVector
from repro.net.messages import ZeroTestBatch
from repro.protocols.base import S1Context
from repro.protocols.recover_enc import select_recover_flow
from repro.structures.items import EncryptedItem

PROTOCOL = "SecBest"


def sec_best_flow(
    ctx: S1Context,
    item: EncryptedItem,
    other_prefixes,
    protocol: str = PROTOCOL,
):
    """Flow form: one equality stage, one recover stage (coalescible).

    ``other_prefixes`` entries may be lists or zero-copy
    :class:`~repro.structures.items.ListPrefix` views.
    """
    best = item.score
    if not other_prefixes:
        return ctx.public_key.rerandomize(best, ctx.rng)

    # One equality batch covering all (list, depth) pairs, permuted
    # per-list so S2 cannot align replies with depths.
    batches: list[tuple[list[EncryptedItem], list[int]]] = []
    tests: list[CtVector] = []
    start = 0
    for prefix in other_prefixes:
        order = ctx.rng.permutation(len(prefix))
        permuted = [prefix[i] for i in order]
        tests.append(item.ehl.minus_many([entry.ehl for entry in permuted], ctx.rng))
        batches.append((permuted, list(range(start, start + len(permuted)))))
        start += len(permuted)

    bits = (yield ZeroTestBatch(protocol=protocol, cts=CtVector.concat(tests))).ciphertexts()

    zero = ctx.zero()
    selections = []
    for (permuted, indices), prefix in zip(batches, other_prefixes):
        bottom = prefix[-1].score
        seen_sum = None
        for entry, idx in zip(permuted, indices):
            bit = bits[idx]
            selections.append(([bit], [entry.score], zero))
            seen_sum = bit if seen_sum is None else seen_sum + bit
        # seen somewhere in the prefix -> Enc(0), else the bottom score.
        selections.append(([seen_sum], [zero], bottom))

    contributions = yield from select_recover_flow(ctx, selections, protocol)
    for contribution in contributions:
        best = best + contribution
    return ctx.public_key.rerandomize(best, ctx.rng)


def sec_best(
    ctx: S1Context,
    item: EncryptedItem,
    other_prefixes,
    protocol: str = PROTOCOL,
) -> Ciphertext:
    """Return ``Enc(B)`` for ``item``.

    ``other_prefixes[j]`` is the full prefix (depths ``1..d``) of the
    ``j``-th *other* sorted list; its last element is the bottom item
    whose score is the list's current bottom value.
    """
    return ctx.run_flows([sec_best_flow(ctx, item, other_prefixes, protocol)])[0]
