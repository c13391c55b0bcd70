"""``SecWorst`` — encrypted per-depth worst score (Algorithm 4).

S1 holds one encrypted item ``E(I) = ⟨EHL(o), Enc(x)⟩`` and the set ``H``
of the other lists' items at the *current depth*.  The protocol gives S1
``Enc(W)`` where ``W = x + Σ { x_j : o_j = o }`` — the sum of this
object's scores over every list where it appears at this depth.

Accumulated over depths by ``SecUpdate``, these per-depth partial sums
reproduce the NRA lower bound ``W^d(o)`` (the sum of all *seen* scores),
because each object occurs exactly once per sorted list.

Flow (one equality round + one ``RecoverEnc`` round, batched):

1. S1 permutes ``H``, computes ``Enc(b_j) = EHL(o) ⊖ EHL(o_j)`` and sends
   the batch to S2.
2. S2 decrypts each ``b_j`` and returns ``E2(t_j)`` with
   ``t_j = (b_j == 0)`` — the equality-pattern leakage ``EP_d``.
3. S1 selects scores homomorphically,
   ``E2(Enc(x'_j)) = E2(t_j)^{Enc(x_j)} · (E2(1) E2(t_j)^{-1})^{Enc(0)}``,
   strips the layer with ``RecoverEnc`` and sums:
   ``Enc(W) = Enc(x) · Π_j Enc(x'_j)``.
"""

from __future__ import annotations

from repro.crypto.paillier import Ciphertext
from repro.net.messages import ZeroTestBatch
from repro.protocols.base import S1Context
from repro.protocols.recover_enc import select_recover_flow
from repro.structures.ehl import KnownPairs
from repro.structures.items import EncryptedItem

PROTOCOL = "SecWorst"


def sec_worst_flow(
    ctx: S1Context,
    item: EncryptedItem,
    others: list[EncryptedItem],
    protocol: str = PROTOCOL,
    known: KnownPairs | None = None,
):
    """Flow form: equality stage, then recover stage (coalescible).

    The equality ciphertexts are recorded in ``known`` (when given)
    against the two EHLs they compare, so a later deduplication of the
    same structures fills those matrix entries without recomputing ``⊖``.
    """
    if not others:
        return ctx.public_key.rerandomize(item.score, ctx.rng)

    order = ctx.rng.permutation(len(others))
    permuted = [others[i] for i in order]

    other_ehls = [other.ehl for other in permuted]
    equality_cts = item.ehl.minus_many(other_ehls, ctx.rng)
    if known is not None:
        known.tested(item.ehl, other_ehls, equality_cts)
    bits = (yield ZeroTestBatch(protocol=protocol, cts=equality_cts)).ciphertexts()

    zero = ctx.zero()
    scores = yield from select_recover_flow(
        ctx,
        [([bit], [other.score], zero) for bit, other in zip(bits, permuted)],
        protocol,
    )

    worst = item.score
    for score in scores:
        worst = worst + score
    return ctx.public_key.rerandomize(worst, ctx.rng)


def sec_worst(
    ctx: S1Context,
    item: EncryptedItem,
    others: list[EncryptedItem],
    protocol: str = PROTOCOL,
) -> Ciphertext:
    """Return ``Enc(W)`` for ``item`` given the depth's other items."""
    return ctx.run_flows([sec_worst_flow(ctx, item, others, protocol)])[0]
