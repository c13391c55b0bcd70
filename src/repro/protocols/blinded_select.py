"""``BlindedSelect`` — turn a bit S2 decrypts into ``Enc(t·x)`` at N².

The paper's ``SecWorst`` / ``SecBest`` get ``Enc(t·x)`` from S2's
equality bit through a layered select ``E2(t)^{Enc(x)}`` and a
``RecoverEnc`` strip: an ``N^3`` exponentiation per bit and a second
round.  But S2 decrypts ``t`` anyway, so it can apply it itself — to a
value it cannot read:

1. S1 ships the per-slot test ciphertexts and, per group of slots, one
   statistically blinded ``V = Enc(x + r)``, ``r`` of ``|x| + 128``
   bits (the surplus :mod:`repro.protocols.blinding` uses).
2. S2 decrypts each slot's bit ``t`` and replies with two fresh
   ciphertexts, ``t ? V·ρ : ρ'`` and ``Enc(t)``.
3. S1 removes the blind: ``Enc(t·x) = reply · (Enc(t)^r)^{-1}``, with
   one :func:`~repro.crypto.backend.select_bounds` call for the whole
   reply (one batched inversion and one short-exponent ``N^2`` power per
   slot).  The eager engine never holds the unblinded ``Enc(t·x)``: it
   takes the bare reply from :func:`blinded_select_reply_flow` and
   unblinds it straight into its targets with one backend call —
   :func:`~repro.crypto.backend.select_absorb` (the absorb's running
   worsts, seen bits and new entry) or
   :func:`~repro.crypto.backend.select_bounds` (the best bounds, whose
   ``m`` powers per bound are one multi-exponentiation).

S2's view is the bits it already learns (the ``EP_d`` equality pattern,
or coin-masked bits) next to ``x + r`` values that are uniform given the
blind; S1's is fresh ciphertexts.  The exponent ``r`` is kept short on
purpose: ``Ciphertext * (-r)`` would reduce ``-r`` mod ``N`` into a
full-length exponent.
"""

from __future__ import annotations

from repro.crypto.paillier import Ciphertext
from repro.exceptions import ProtocolError
from repro.net.messages import BlindedSelect
from repro.protocols.base import S1Context
from repro.protocols.blinding import _SURPLUS_BITS


def blinded_select_reply_flow(
    ctx: S1Context,
    tests: list[Ciphertext],
    values: list[Ciphertext],
    groups: list[int],
    bit_mode: bool,
    protocol: str,
):
    """Flow form: yields one :class:`BlindedSelect`, returns the reply
    still blinded — ``(selected, bits, blinds)``: per slot ``i`` of
    ``tests`` the residues of ``Enc(t_i · (x_{groups[i]} + r))`` and
    ``Enc(t_i)``, and the slot's blind ``r``.

    ``tests`` are equality tests (``t = [b == 0]``) or, with
    ``bit_mode``, rerandomized coin-masked bits.  Every ``x`` is a score
    below the ``2^(score_bits + blind_bits)`` magnitude every comparison
    already assumes, which is the ``|x|`` the blinds cover.
    """
    pk = ctx.public_key
    width = ctx.encoder.score_bits + ctx.encoder.blind_bits + _SURPLUS_BITS
    blinds = [ctx.rng.randbits(width) for _ in values]
    blinded = pk.rerandomize_batch(
        [value + r for value, r in zip(values, blinds)], ctx.rng
    )
    selected, bits = yield BlindedSelect(
        protocol=protocol, cts=tests, values=blinded, groups=groups, bit_mode=bit_mode
    )
    if not len(selected) == len(bits) == len(tests):
        raise ProtocolError("blinded select reply does not match its slots")
    return (
        [s.value for s in selected],
        [b.value for b in bits],
        [blinds[g] for g in groups],
    )

