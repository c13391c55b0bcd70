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
3. S1 removes the blind: ``Enc(t·x) = reply · (Enc(t)^r)^{-1}`` (one
   batched inversion and one short-exponent ``N^2`` power per slot).
   The eager engine never holds the unblinded ``Enc(t·x)``: it takes the
   reply's buffers from :func:`blinded_select_reply_flow` and unblinds them
   straight into its targets with one backend program —
   :data:`~repro.core.engine.ABSORB` (the absorb's running worsts, seen
   bits and new entry) or :data:`~repro.core.engine.BOUNDS` (the best
   bounds, whose ``m`` powers per bound are one multi-exponentiation).

S2's view is the bits it already learns (the ``EP_d`` equality pattern,
or coin-masked bits) next to ``x + r`` values that are uniform given the
blind; S1's is fresh ciphertexts.  The exponent ``r`` is kept short on
purpose: ``Ciphertext * (-r)`` would reduce ``-r`` mod ``N`` into a
full-length exponent.
"""

from __future__ import annotations

from repro.crypto.paillier import Ciphertext
from repro.crypto.vector import CtVector, vector_of
from repro.exceptions import ProtocolError
from repro.net.messages import BlindedSelect
from repro.protocols.base import S1Context
from repro.protocols.blinding import _SURPLUS_BITS


def blinded_select_reply_flow(
    ctx: S1Context,
    tests: CtVector,
    values: list[Ciphertext],
    groups: list[int],
    bit_mode: bool,
    protocol: str,
):
    """Flow form: yields one :class:`BlindedSelect`, returns the reply
    still blinded — ``(selected, bits, blinds)``: per slot ``i`` of
    ``tests`` ``Enc(t_i · (x_{groups[i]} + r))`` and ``Enc(t_i)``, two
    vectors, and the slot's blind ``r``.

    ``tests`` are equality tests (``t = [b == 0]``) or, with
    ``bit_mode``, rerandomized coin-masked bits.  Every ``x`` is a score
    below the ``2^(score_bits + blind_bits)`` magnitude every comparison
    already assumes, which is the ``|x|`` the blinds cover.
    """
    pk = ctx.public_key
    n, n2 = pk.n, pk.n_squared
    width = ctx.encoder.score_bits + ctx.encoder.blind_bits + _SURPLUS_BITS
    blinds = [ctx.rng.randbits(width) for _ in values]
    blinded = CtVector.randomized(
        pk,
        [value.value * ((1 + r % n * n) % n2) % n2 for value, r in zip(values, blinds)],
        ctx.rng,
    )
    selected, bits = yield BlindedSelect(
        protocol=protocol, cts=tests, values=blinded, groups=groups, bit_mode=bit_mode
    )
    if not len(vector_of(selected, pk)) == len(vector_of(bits, pk)) == len(tests):
        raise ProtocolError("blinded select reply does not match its slots")
    return selected, bits, [blinds[g] for g in groups]

