"""``SecFilter`` — drop non-joining tuples obliviously (Algorithm 12).

After ``SecJoin``, S1 holds every cross-pair of the two relations; pairs
that failed the equi-join condition carry ``Enc(0)`` as their score and
all-zero joined attributes.  ``SecFilter`` removes them without revealing
to S1 *which* pairs joined:

1. S1 blinds each tuple's score *multiplicatively* (``Enc(s)^{r_i}``,
   which preserves exactly the zero/non-zero distinction) and the
   attribute vector additively, ships the blinded tuples together with
   ``pk_s``-encrypted unblinding material, all randomly permuted.
2. S2 decrypts each blinded score; zero means "did not join" and the
   tuple is dropped — S2 learns only the *join cardinality*, the declared
   Section 12 leakage.  Surviving tuples are re-blinded (multiplicative
   ``γ_i`` on the score, additive ``Γ_i`` on attributes) and the
   unblinding material is homomorphically extended under ``pk_s``.
3. S1 decrypts the combined unblinding values and recovers fresh
   encryptions of the surviving joined tuples (the algebra of
   Section 12.4: ``Enc(s_j) ~ Enc(r^{-1} γ^{-1} · s · r · γ)``).
"""

from __future__ import annotations

from repro.crypto.paillier import Ciphertext, PaillierKeypair
from repro.net.messages import FilterBatch
from repro.protocols.base import CryptoCloud, S1Context
from repro.structures.items import JoinedTuple

__all__ = ["JoinedTuple", "sec_filter", "s2_filter"]

PROTOCOL = "SecFilter"


def sec_filter(
    ctx: S1Context,
    tuples: list[JoinedTuple],
    own_keypair: PaillierKeypair,
    protocol: str = PROTOCOL,
) -> list[JoinedTuple]:
    """Return fresh encryptions of the tuples whose score is non-zero."""
    if not tuples:
        return []
    n = ctx.public_key.n
    own_pk = own_keypair.public_key

    blinded: list[JoinedTuple] = []
    keys_material: list[list[Ciphertext]] = []
    for t in tuples:
        r = ctx.rng.rand_unit(n)
        shifts = [ctx.rng.randint_below(n) for _ in t.attributes]
        blinded.append(
            JoinedTuple(
                score=ctx.public_key.rerandomize(t.score * r, ctx.rng),
                attributes=[
                    ctx.public_key.rerandomize(a + s, ctx.rng)
                    for a, s in zip(t.attributes, shifts)
                ],
            )
        )
        material = [own_pk.encrypt(pow(r, -1, n), ctx.rng)]
        material += [own_pk.encrypt(s, ctx.rng) for s in shifts]
        keys_material.append(material)

    order = ctx.rng.permutation(len(blinded))
    blinded = [blinded[i] for i in order]
    keys_material = [keys_material[i] for i in order]

    tuples_out, material_out = ctx.call(
        FilterBatch(
            protocol=protocol,
            tuples=blinded,
            material=keys_material,
            own_public=own_pk,
        )
    )

    result: list[JoinedTuple] = []
    for t, material in zip(tuples_out, material_out):
        r_combined = own_keypair.secret_key.decrypt(material[0]) % n
        shifts = [own_keypair.secret_key.decrypt(m) % n for m in material[1:]]
        result.append(
            JoinedTuple(
                score=t.score * r_combined,
                attributes=[a - s for a, s in zip(t.attributes, shifts)],
            )
        )
    return result


def s2_filter(
    s2: CryptoCloud,
    own_pk,
    blinded: list[JoinedTuple],
    keys_material: list[list[Ciphertext]],
    protocol: str,
):
    """S2's side: drop zero-score tuples, re-blind the rest."""
    n = s2.public_key.n
    survivors: list[JoinedTuple] = []
    material_out: list[list[Ciphertext]] = []
    flags = s2.decrypt_batch_for_protocol(
        [t.score for t in blinded], protocol, "filter_flag"
    )
    for t, material, flag in zip(blinded, keys_material, flags):
        if flag == 0:
            continue
        gamma = s2.rng.rand_unit(n)
        shifts = [s2.rng.randint_below(n) for _ in t.attributes]
        survivors.append(
            JoinedTuple(
                score=s2.public_key.rerandomize(t.score * gamma, s2.rng),
                attributes=[
                    s2.public_key.rerandomize(a + sh, s2.rng)
                    for a, sh in zip(t.attributes, shifts)
                ],
            )
        )
        # Extend the pk_s unblinding material homomorphically:
        # r^{-1} -> r^{-1} γ^{-1} (scalar mult), shift -> shift + sh (add).
        combined = [material[0] * pow(gamma, -1, n)]
        combined += [m + sh for m, sh in zip(material[1:], shifts)]
        material_out.append(combined)
    s2.leakage.record("S2", protocol, "filter_flag", len(survivors))

    order = s2.rng.permutation(len(survivors))
    return (
        [survivors[i] for i in order],
        [material_out[i] for i in order],
    )
