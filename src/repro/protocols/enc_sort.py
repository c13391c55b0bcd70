"""``EncSort`` — sort encrypted items by an encrypted key with S2's help.

The paper imports this building block from Baldimtsi–Ohrimenko (FC 2014):
S1 holds encrypted key/value pairs (the key is an item's ``worst``
score), S2 holds the secret key, and S1 ends up with a *freshly
encrypted* list sorted by key.  Two constructions are
provided (ARCHITECTURE.md, "Protocol substitutions and declared
leakage"):

``method="affine"`` (default)
    One round, O(n) communication.  S1 order-preservingly blinds every
    sort key with a shared secret affine map ``k -> r*k + s`` (``r > 0``),
    blinds all other components with per-item seeds, randomly permutes the
    list, and ships it.  S2 decrypts the blinded keys, sorts, re-encrypts
    the keys freshly, adds its own seed-blinding to the payloads, and
    returns the sorted list.  S2's leakage: the multiset of affinely-scaled
    key values of a randomly permuted list — and, because one map serves
    the whole list, the map itself in most sorts: the gcd of the key
    differences is ``r`` unless the keys' own differences share a factor,
    which leaves each key readable up to ``s/r < 2``.

``method="network"``
    A Batcher odd-even merge sorting network; each compare-exchange gate
    sends a coin-pre-swapped, per-gate affine-blinded pair to S2, which
    returns the pair ordered and re-blinded.  Gates in the same network
    layer share a communication round.  S2's per-gate leakage is a single
    uniformly-distributed order bit.

Both return fresh encryptions, which is what ``SecQuery`` relies on
(Section 8.1), but not unlinkable ones: S2 forwards S1's companion
``Enc_pk'(seed)`` next to its own, so S1, decrypting its own seed, maps
every output back to the input slot it blinded with it and learns S2's
sort permutation (a known gap, ROADMAP).  The eager engine does not call
this module's rounds; its check depths sort inside ``DedupSort``
(:mod:`repro.protocols.sec_dedup`), whose keys :func:`one_way_keys`
blinds.
"""

from __future__ import annotations

import dataclasses

from repro.crypto import backend
from repro.crypto.paillier import Ciphertext, PaillierKeypair
from repro.crypto.vector import CtVector, vector_of
from repro.exceptions import ProtocolError
from repro.net.messages import SortAffine, SortGateBatch
from repro.protocols.base import CryptoCloud, S1Context
from repro.protocols.blinding import ItemBlinder, check_batch
from repro.structures.items import ItemBatch, ScoredItem

PROTOCOL = "EncSort"


def enc_sort(
    ctx: S1Context,
    items: list[ScoredItem],
    own_keypair: PaillierKeypair,
    descending: bool = True,
    method: str = "affine",
    protocol: str = PROTOCOL,
) -> list[ScoredItem]:
    """Sort ``items`` by their encrypted ``worst`` score.

    ``own_keypair`` is S1's private key pair ``(pk', sk')`` used only to
    transport blinding seeds (Algorithm 7 uses the same device).
    """
    if len(items) <= 1:
        return list(items)
    if method == "affine":
        return _sort_affine(ctx, items, own_keypair, descending, protocol)
    if method == "network":
        return _sort_network(ctx, items, own_keypair, descending, protocol)
    raise ProtocolError(f"unknown EncSort method: {method!r}")


# ----------------------------------------------------------------------
# Helpers shared by both constructions.
# ----------------------------------------------------------------------


def _affine_params(ctx: S1Context) -> tuple[int, int]:
    """An order-preserving blinding map ``k -> r*k + s`` that cannot wrap.

    Keys are signed values bounded by the sentinel magnitude
    ``2**(score_bits + blind_bits)``; with ``r`` of ``blind_bits`` bits and
    ``s`` of similar size the image stays inside the encoder's plaintext
    bound, so S2 reads it mod ``p`` as a centred residue.
    """
    kappa = ctx.encoder.blind_bits
    r = ctx.rng.randint(1 << (kappa - 1), (1 << kappa) - 1)
    s = ctx.rng.randint_below(1 << kappa)
    magnitude_bits = ctx.encoder.score_bits + ctx.encoder.blind_bits + 1 + kappa + 2
    if magnitude_bits >= ctx.encoder.plaintext_bits:
        raise ProtocolError("affine key blinding exceeds the plaintext bound")
    return r, s


def _blind_keys(
    ctx: S1Context, keys: list[int], maps: list[tuple[int, int]]
) -> CtVector:
    """``Enc(r*k + s)``, rerandomized, for every key value under its
    ``(r, s)`` map: one scalar-multiplication batch for the round, then
    ``+ s`` (a factor ``1 + s·N``) and the rerandomizer in one draw."""
    pk = ctx.public_key
    n, n2 = pk.n, pk.n_squared
    scaled = backend.powmod_pairs(keys, [r % n for r, _ in maps], n2)
    return CtVector.randomized(
        pk, [value * (1 + s % n * n) % n2 for value, (_, s) in zip(scaled, maps)], ctx.rng
    )


def one_way_keys(ctx: S1Context, keys: list[int]) -> CtVector:
    """``Enc(r*k + s + e_i)`` per key value, for a sort S1 never inverts.

    One map ``(r, s)`` for the round plus a fresh ``e_i ∈ [0, r)`` per
    key: strictly order-preserving on integer keys (``k < k'`` gives
    ``r*k + s + e_i < r*k' + s``), ties broken at random, and the key
    differences S2 sees no longer share the factor ``r``.
    """
    r, s = _affine_params(ctx)
    return _blind_keys(ctx, keys, [(r, s + ctx.rng.randint_below(r)) for _ in keys])


def s2_order(
    s2: CryptoCloud,
    keys: CtVector,
    payloads: list,
    descending: bool,
    protocol: str,
):
    """S2's sort step, shared by ``SortAffine`` and ``DedupSort``: decrypt
    the blinded keys and return ``(key value, payload)`` pairs in key
    order (stable, so ties keep the order they arrived in)."""
    values = s2.decrypt_signed_batch_for_protocol(keys, protocol, "sort_key_blinded")
    ordered = sorted(zip(values, payloads), key=lambda t: t[0], reverse=descending)
    s2.leakage.record("S2", protocol, "sort_size", len(ordered))
    return ordered


def _without_key(items: list[ScoredItem]) -> list[ScoredItem]:
    """The items as they travel: the ``worst`` key crosses as its own
    blinded ciphertext and is restored by :func:`_recover_keys`, so the
    item copy of it is left out rather than blinded and shipped twice."""
    return [dataclasses.replace(item, worst=None) for item in items]


def _recover_keys(
    ctx: S1Context, keys: CtVector, maps: list[tuple[int, int]]
) -> list[Ciphertext]:
    """Undo the affine transport, ``(k' - s) / r``, for every returned key."""
    pk = ctx.public_key
    n, n2 = pk.n, pk.n_squared
    return [
        Ciphertext(value, pk)
        for value in backend.powmod_pairs(
            [
                value * ((1 + -s % n * n) % n2) % n2
                for value, (_, s) in zip(vector_of(keys, pk).values(), maps)
            ],
            [pow(r, -1, n) for r, _ in maps],
            n2,
        )
    ]


# ----------------------------------------------------------------------
# Construction 1: affine blind-and-permute (1 round).
# ----------------------------------------------------------------------


def _sort_affine(
    ctx: S1Context,
    items: list[ScoredItem],
    own_keypair: PaillierKeypair,
    descending: bool,
    protocol: str,
) -> list[ScoredItem]:
    blinder = ItemBlinder(ctx.public_key)
    permuted = [items[i] for i in ctx.rng.permutation(len(items))]
    maps = [_affine_params(ctx)] * len(items)
    blinded_keys = _blind_keys(ctx, [item.worst.value for item in permuted], maps)
    blinded_items, companions = blinder.blind_fresh(
        ItemBatch.pack(ctx.public_key, _without_key(permuted)),
        own_keypair.public_key,
        ctx.rng,
    )

    keys_out, items_out, comps_out = ctx.call(
        SortAffine(
            protocol=protocol,
            keys=blinded_keys,
            items=blinded_items,
            companions=companions,
            own_public=own_keypair.public_key,
            descending=descending,
        )
    )

    result = blinder.unblind_companions(own_keypair, items_out, comps_out)
    for clean, recovered in zip(result, _recover_keys(ctx, keys_out, maps)):
        clean.worst = recovered
    return result


def s2_sort_affine(
    s2: CryptoCloud,
    own_public,
    blinded_keys: CtVector,
    blinded_items: ItemBatch,
    companions: CtVector,
    descending: bool,
    protocol: str,
):
    """S2's side of the affine construction."""
    pk = s2.public_key
    blinded_items = check_batch(blinded_items, pk)
    if not len(vector_of(blinded_keys, pk)) == len(blinded_items) == len(
        vector_of(companions, own_public)
    ):
        raise ProtocolError("malformed sort: keys, items and companions disagree")
    blinder = ItemBlinder(pk)
    decorated = s2_order(
        s2, blinded_keys, range(len(blinded_keys)), descending, protocol
    )
    keys_out = CtVector.encrypt(pk, [value % pk.n for value, _ in decorated], s2.rng)
    slots = [i for _, i in decorated]
    items_out, fresh = blinder.blind_fresh(blinded_items.select(slots), own_public, s2.rng)
    return keys_out, items_out, companion_pairs(companions.select(slots), fresh)


def companion_pairs(held: CtVector, fresh: CtVector) -> CtVector:
    """``(held[i], fresh[i])`` per item, flat: a reply's companions."""
    stride = held.stride
    a, b = held.buffer, fresh.buffer
    return CtVector(
        held.key,
        2 * len(held),
        b"".join([
            chunk
            for at in range(0, len(a), stride)
            for chunk in (a[at : at + stride], b[at : at + stride])
        ]),
    )


# ----------------------------------------------------------------------
# Construction 2: Batcher odd-even merge network.
# ----------------------------------------------------------------------


def batcher_network(n: int) -> list[list[tuple[int, int]]]:
    """Comparator layers of a Batcher odd-even merge sort for ``n`` inputs.

    Returns a list of layers; each layer is a list of ``(i, j)`` index
    pairs with ``i < j`` that can be compared in parallel (one
    communication round per layer).
    """
    gates: list[tuple[int, int]] = []

    def oddeven_merge(lo: int, m: int, step: int) -> None:
        double = step * 2
        if double < m:
            oddeven_merge(lo, m, double)
            oddeven_merge(lo + step, m, double)
            for i in range(lo + step, lo + m - step, double):
                gates.append((i, i + step))
        else:
            gates.append((lo, lo + step))

    def oddeven_sort(lo: int, m: int) -> None:
        if m > 1:
            half = m // 2
            oddeven_sort(lo, half)
            oddeven_sort(lo + half, half)
            oddeven_merge(lo, m, 1)

    padded = 1
    while padded < n:
        padded *= 2
    oddeven_sort(0, padded)

    # Drop gates touching padding slots, then greedily pack into layers of
    # disjoint indices (preserving gate order dependencies).
    layers: list[list[tuple[int, int]]] = []
    busy: list[set[int]] = []
    for (i, j) in gates:
        if j >= n:
            continue
        placed = False
        for depth in range(len(layers) - 1, -1, -1):
            if i in busy[depth] or j in busy[depth]:
                target = depth + 1
                if target == len(layers):
                    layers.append([])
                    busy.append(set())
                layers[target].append((i, j))
                busy[target].update((i, j))
                placed = True
                break
        if not placed:
            if not layers:
                layers.append([])
                busy.append(set())
            layers[0].append((i, j))
            busy[0].update((i, j))
    return layers


def _sort_network(
    ctx: S1Context,
    items: list[ScoredItem],
    own_keypair: PaillierKeypair,
    descending: bool,
    protocol: str,
) -> list[ScoredItem]:
    working = [item.clone_shallow() for item in items]
    blinder = ItemBlinder(ctx.public_key)

    for layer in batcher_network(len(working)):
        # The layer's gates in wire order: gate g carries slots 2g, 2g+1.
        slots: list[int] = []
        maps: list[tuple[int, int]] = []
        for (i, j) in layer:
            r_s = _affine_params(ctx)
            swap = bool(ctx.rng.randbits(1))
            slots += (j, i) if swap else (i, j)
            maps += [r_s, r_s]
        keys = _blind_keys(ctx, [working[idx].worst.value for idx in slots], maps)
        blinded, companions = blinder.blind_fresh(
            ItemBatch.pack(ctx.public_key, _without_key([working[idx] for idx in slots])),
            own_keypair.public_key,
            ctx.rng,
        )
        replies = ctx.call(
            SortGateBatch(
                protocol=protocol,
                gates=[
                    (keys[g : g + 2], blinded.select((g, g + 1)), companions[g : g + 2])
                    for g in range(0, len(slots), 2)
                ],
                own_public=own_keypair.public_key,
                descending=descending,
            )
        )
        cleaned = blinder.unblind_companions(
            own_keypair,
            ItemBatch.concat(
                [check_batch(items_out, ctx.public_key) for _, items_out, _ in replies]
            ),
            CtVector.concat([comps_out for _, _, comps_out in replies]),
        )
        recovered = _recover_keys(
            ctx, CtVector.concat([keys_out for keys_out, _, _ in replies]), maps
        )
        for clean, key_ct in zip(cleaned, recovered):
            clean.worst = key_ct
        for g, (i, j) in enumerate(layer):
            working[i], working[j] = cleaned[2 * g], cleaned[2 * g + 1]
    return working


def s2_gates(
    s2: CryptoCloud,
    own_public,
    gates: list,
    descending: bool,
    protocol: str,
) -> list:
    """S2's side of one *layer* of compare-exchange gates.

    All the layer's blinded pair keys are decrypted in a single batch
    (one backend setup) before the per-gate ordering/re-blinding logic
    runs.
    """
    pk = s2.public_key
    for pair_keys, pair_items, pair_comps in gates:
        if not len(vector_of(pair_keys, pk)) == len(check_batch(pair_items, pk)) == len(
            vector_of(pair_comps, own_public)
        ) == 2:
            raise ProtocolError("malformed sort gate: a gate holds two keys, items and companions")
    if not gates:
        return []
    blinder = ItemBlinder(pk)
    all_values = s2.decrypt_signed_batch_for_protocol(
        CtVector.concat([pair_keys for pair_keys, _, _ in gates]), protocol, "gate_key_blinded"
    )

    # Every gate's ordered pair, flat in reply order: input slot 2g + idx.
    values_out, slots = [], []
    for gate_index in range(len(gates)):
        values = all_values[2 * gate_index : 2 * gate_index + 2]
        order = [0, 1]
        if (values[0] < values[1]) == descending:
            order = [1, 0]
        s2.leakage.record("S2", protocol, "gate_bit", order[0])
        for idx in order:
            values_out.append(values[idx] % pk.n)
            slots.append(2 * gate_index + idx)

    keys_out = CtVector.encrypt(pk, values_out, s2.rng)
    items_in = ItemBatch.concat([pair_items for _, pair_items, _ in gates]).select(slots)
    items_out, fresh = blinder.blind_fresh(items_in, own_public, s2.rng)
    comps_in = CtVector.concat([pair_comps for _, _, pair_comps in gates]).select(slots)
    comps_out = companion_pairs(comps_in, fresh)
    return [
        (keys_out[g : g + 2], items_out.select((g, g + 1)), comps_out[2 * g : 2 * g + 4])
        for g in range(0, len(keys_out), 2)
    ]
