"""``SecJoin`` — the oblivious equi-join core of ``⋈_sec`` (Algorithm 11).

For every cross pair ``(o_i ∈ R1, o_j ∈ R2)`` — visited in random order —
the clouds evaluate the join condition homomorphically and produce a
combined tuple whose score and attributes are zeroed out when the
condition fails::

    Enc(b_ij)  = EHL(x_i[t1]) ⊖ EHL(x_j[t2])        (S1)
    E2(t_ij)   = S2's zero test of b_ij
    Enc(s_ij)  = RecoverEnc( E2(t_ij)^{Enc(x_i[t3]) * Enc(x_j[t4])} )
               ~ Enc( t_ij * (x_i[t3] + x_j[t4]) )
    Enc(x'_l)  = RecoverEnc( E2(t_ij)^{Enc(x_l)} )  for each carried attr

Neither cloud learns which pairs joined: the equality bits S2 sees belong
to randomly ordered pairs, and S1 only ever handles ciphertexts.  The
follow-up :mod:`repro.protocols.sec_filter` removes the zeroed tuples and
:func:`repro.protocols.enc_sort.enc_sort` ranks the survivors.
"""

from __future__ import annotations

from repro.crypto.damgard_jurik import LayeredCiphertext
from repro.net.messages import ZeroTestBatch
from repro.protocols.base import S1Context
from repro.protocols.recover_enc import select_recover_batch
from repro.structures.ehl import minus_pairs
from repro.structures.items import JoinedTuple

PROTOCOL = "SecJoin"

#: Joined scores are stored with this additive offset so that a
#: *successful* join can never produce the literal zero that ``SecFilter``
#: uses as its drop marker (a legitimate pair could otherwise score 0).
#: Callers subtract it homomorphically after filtering.
SCORE_OFFSET = 1


def sec_join(
    ctx: S1Context,
    left: list[dict],
    right: list[dict],
    join_attrs: tuple[int, int],
    score_attrs: tuple[int, int],
    carry_attrs: tuple[list[int], list[int]] | None = None,
    protocol: str = PROTOCOL,
) -> list[JoinedTuple]:
    """Produce all combined tuples (zeroed when the join condition fails).

    ``left``/``right`` entries are dicts with keys ``"ehl"`` (list of
    per-attribute EHL structures), ``"scores"`` (list of per-attribute
    Paillier ciphertexts) and optionally ``"record"``.

    ``carry_attrs`` selects which attributes of each side ride along into
    the joined tuple (default: the two score attributes plus records).
    """
    t1, t2 = join_attrs
    t3, t4 = score_attrs
    carry_left, carry_right = carry_attrs if carry_attrs else ([t3], [t4])

    pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
    ctx.rng.shuffle(pairs)

    eq_cts = minus_pairs(
        [(left[i]["ehl"][t1], right[j]["ehl"][t2]) for i, j in pairs], ctx.rng
    )
    bits: list[LayeredCiphertext] = ctx.call(
        ZeroTestBatch(protocol=protocol, cts=eq_cts)
    ).ciphertexts()

    # Homomorphic combination: score and carried attributes, gated by t
    # (the select keeps the inner value a valid ciphertext — Enc(0) — when
    # the join condition failed).
    zero = ctx.zero()
    selections = []
    for (i, j), bit in zip(pairs, bits):
        gated = [left[i]["scores"][t3] + right[j]["scores"][t4] + SCORE_OFFSET]
        gated += [left[i]["scores"][a] for a in carry_left]
        gated += [right[j]["scores"][a] for a in carry_right]
        if "record" in left[i]:
            gated.append(left[i]["record"])
        if "record" in right[j]:
            gated.append(right[j]["record"])
        selections += [([bit], [ct], zero) for ct in gated]

    recovered = select_recover_batch(ctx, selections, protocol)

    per_tuple = 1 + len(carry_left) + len(carry_right)
    has_records = "record" in left[0] and "record" in right[0]
    if has_records:
        per_tuple += 2

    tuples: list[JoinedTuple] = []
    for idx in range(len(pairs)):
        base = idx * per_tuple
        tuples.append(
            JoinedTuple(
                score=recovered[base],
                attributes=recovered[base + 1 : base + per_tuple],
            )
        )
    return tuples
