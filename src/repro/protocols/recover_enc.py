"""``RecoverEnc`` — strip one layer of Damgård–Jurik encryption
(Algorithm 5).

S1 holds ``E2(Enc(c))`` and wants ``Enc(c)`` without S2 learning ``c``:

1. S1 draws ``r`` uniform in ``Z_N`` and computes
   ``E2(Enc(c + r)) = E2(Enc(c))^{Enc(r)}`` using the layered
   homomorphism, then sends it to S2.
2. S2 decrypts the outer layer and returns ``Enc(c + r)``.
3. S1 removes the blind: ``Enc(c) = Enc(c + r) * Enc(r)^{-1}``.

S2 only ever sees a uniformly-blinded inner plaintext.  The batched
variant amortizes the communication round — every caller in this codebase
strips whole batches per depth, which is also how the paper counts
messages per depth (Section 11.2.5).

Every layered ciphertext the query path recovers is the output of a
homomorphic select, so the protocols call :func:`select_recover_flow`,
which folds step 1's exponentiation into the select's own;
:func:`recover_enc_flow` is the algorithm's standalone form, for a
layered ciphertext that already exists.
"""

from __future__ import annotations

from repro.crypto import backend
from repro.crypto.damgard_jurik import LayeredCiphertext, layered_select_batch
from repro.crypto.paillier import Ciphertext
from repro.crypto.vector import CtVector
from repro.net.messages import StripLayerBatch
from repro.protocols.base import S1Context

PROTOCOL = "RecoverEnc"


def _draw_blinds(ctx: S1Context, count: int) -> tuple[list[int], list[int]]:
    """``count`` blinds ``r`` uniform in ``Z_N`` and the values of their
    fresh encryptions ``Enc(r)``."""
    pk = ctx.public_key
    blinds = [ctx.rng.randint_below(pk.n) for _ in range(count)]
    return blinds, CtVector.encrypt(pk, blinds, ctx.rng).values()


def _strip_and_unblind(blinded: CtVector, blinds: list[int], protocol: str):
    """Steps 2–3: one ``StripLayerBatch`` round, then remove the blinds."""
    replies = yield StripLayerBatch(protocol=protocol, cts=blinded)
    return [reply - r for reply, r in zip(replies.ciphertexts(), blinds)]


def recover_enc_flow(
    ctx: S1Context, layered: list[LayeredCiphertext], protocol: str = PROTOCOL
):
    """Flow form: yields one ``StripLayerBatch``, returns the stripped cts.

    Written as a generator so the engines can coalesce many independent
    recoveries into one round (:meth:`S1Context.run_flows`).
    """
    if not layered:
        return []
    dj = ctx.dj
    blinds, enc_blinds = _draw_blinds(ctx, len(layered))
    # E2(Enc(c))^{Enc(r)} for the whole batch: one scalar-mul call.
    blinded = CtVector.of(
        dj, backend.powmod_pairs(dj.values_of(layered), enc_blinds, dj.n_s1)
    )
    return (yield from _strip_and_unblind(blinded, blinds, protocol))


def recover_enc_batch(
    ctx: S1Context, layered: list[LayeredCiphertext], protocol: str = PROTOCOL
) -> list[Ciphertext]:
    """Strip the outer layer of each ciphertext in one round."""
    return ctx.run_flows([recover_enc_flow(ctx, layered, protocol)])[0]


def select_recover_flow(
    ctx: S1Context, selections: list[tuple], protocol: str = PROTOCOL
):
    """Homomorphic selects handed straight to ``RecoverEnc``, as one flow.

    For each ``(bits, options, default)`` of ``selections`` (the input of
    :func:`~repro.crypto.damgard_jurik.layered_select_batch`) returns the
    Paillier ciphertext the select picks.  The blinds are drawn first and
    each ``Enc(r)`` rides the select as its scalar, so the ciphertext
    shipped to S2 is already ``E2(Enc(c + r))``: one ``N^3``
    exponentiation per selection bit, where selecting and then raising
    to ``Enc(r)`` costs two.
    """
    if not selections:
        return []
    blinds, enc_blinds = _draw_blinds(ctx, len(selections))
    blinded = layered_select_batch(ctx.dj, selections, ctx.rng, scalars=enc_blinds)
    return (yield from _strip_and_unblind(blinded, blinds, protocol))


def select_recover_batch(
    ctx: S1Context, selections: list[tuple], protocol: str = PROTOCOL
) -> list[Ciphertext]:
    """:func:`select_recover_flow` as one round of its own."""
    return ctx.run_flows([select_recover_flow(ctx, selections, protocol)])[0]
