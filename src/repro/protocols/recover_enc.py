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
"""

from __future__ import annotations

from repro.crypto import backend
from repro.crypto.damgard_jurik import LayeredCiphertext
from repro.crypto.paillier import Ciphertext
from repro.net.messages import StripLayerBatch
from repro.protocols.base import S1Context

PROTOCOL = "RecoverEnc"


def recover_enc_flow(
    ctx: S1Context, layered: list[LayeredCiphertext], protocol: str = PROTOCOL
):
    """Flow form: yields one ``StripLayerBatch``, returns the stripped cts.

    Written as a generator so the engines can coalesce many independent
    recoveries into one round (:meth:`S1Context.run_flows`).
    """
    if not layered:
        return []
    pk, dj = ctx.public_key, ctx.dj
    blinds = [ctx.rng.randint_below(pk.n) for _ in layered]
    # E2(Enc(c))^{Enc(r)} for the whole batch: one scalar-mul call.
    blinded = [
        LayeredCiphertext(value, dj)
        for value in backend.powmod_pairs(
            dj.values_of(layered),
            [enc_r.value for enc_r in pk.encrypt_batch(blinds, ctx.rng)],
            dj.n_s1,
        )
    ]
    replies = yield StripLayerBatch(protocol=protocol, cts=blinded)
    return [reply - r for reply, r in zip(replies, blinds)]


def recover_enc_batch(
    ctx: S1Context, layered: list[LayeredCiphertext], protocol: str = PROTOCOL
) -> list[Ciphertext]:
    """Strip the outer layer of each ciphertext in one round."""
    return ctx.run_flows([recover_enc_flow(ctx, layered, protocol)])[0]


def recover_enc(
    ctx: S1Context, layered: LayeredCiphertext, protocol: str = PROTOCOL
) -> Ciphertext:
    """Single-ciphertext convenience wrapper around the batch protocol."""
    return recover_enc_batch(ctx, [layered], protocol)[0]
