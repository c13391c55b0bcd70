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

from repro.crypto import backend
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.vector import CtVector, vector_of
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
    keys_material: list[CtVector] = []
    for t in tuples:
        r = ctx.rng.rand_unit(n)
        shifts = [ctx.rng.randint_below(n) for _ in range(len(t.attributes))]
        blinded.append(
            JoinedTuple(
                score=ctx.public_key.rerandomize(t.score * r, ctx.rng),
                attributes=[
                    ctx.public_key.rerandomize(a + s, ctx.rng)
                    for a, s in zip(t.attributes.ciphertexts(), shifts)
                ],
            )
        )
        keys_material.append(CtVector.encrypt(own_pk, [pow(r, -1, n), *shifts], ctx.rng))

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
    own_sk = own_keypair.secret_key
    for t, material in zip(tuples_out, material_out):
        r_combined, *shifts = (
            m % n for m in own_sk.raw_decrypt_batch(vector_of(material, own_pk).values())
        )
        result.append(
            JoinedTuple(
                score=t.score * r_combined,
                attributes=[a - s for a, s in zip(t.attributes.ciphertexts(), shifts)],
            )
        )
    return result


def s2_filter(
    s2: CryptoCloud,
    own_pk,
    blinded: list[JoinedTuple],
    keys_material: list[CtVector],
    protocol: str,
):
    """S2's side: drop zero-score tuples, re-blind the rest.  A joined
    tuple's score is one ciphertext object (``JoinedTuple.score``), so
    this is the one S2 path that builds them: one per survivor."""
    pk = s2.public_key
    n, n2 = pk.n, pk.n_squared
    own_n, own_n2 = own_pk.n, own_pk.n_squared
    survivors: list[JoinedTuple] = []
    material_out: list[CtVector] = []
    flags = s2.decrypt_batch_for_protocol(
        CtVector.of(pk, [t.score.value for t in blinded]), protocol, "filter_flag"
    )
    for t, material, flag in zip(blinded, keys_material, flags):
        if flag == 0:
            continue
        gamma = s2.rng.rand_unit(n)
        attributes = vector_of(t.attributes, pk).values()
        shifts = [s2.rng.randint_below(n) for _ in attributes]
        # Score · γ and attribute + shift, each rerandomized: one draw.
        fresh = CtVector.randomized(
            pk,
            [backend.powmod(t.score.value, gamma, n2)]
            + [a * (1 + sh * n) % n2 for a, sh in zip(attributes, shifts)],
            s2.rng,
        )
        survivors.append(
            JoinedTuple(score=fresh[0], attributes=fresh[1:])
        )
        # Extend the pk_s unblinding material homomorphically:
        # r^{-1} -> r^{-1} γ^{-1} (scalar mult), shift -> shift + sh (add).
        inverse, *held = vector_of(material, own_pk).values()
        material_out.append(CtVector.of(own_pk, [
            backend.powmod(inverse, pow(gamma, -1, n) % own_n, own_n2),
            *(m * (1 + sh % own_n * own_n) % own_n2 for m, sh in zip(held, shifts)),
        ]))
    s2.leakage.record("S2", protocol, "filter_flag", len(survivors))

    order = s2.rng.permutation(len(survivors))
    return (
        [survivors[i] for i in order],
        [material_out[i] for i in order],
    )
