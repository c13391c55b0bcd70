"""Item blinding shared by ``EncSort``, ``SecDedup`` and ``SecDupElim``.

Algorithm 7 has S1 blind every component of an item with random values,
encrypt those values under S1's *own* key ``pk'`` into a companion
ciphertext ``H``, and let S2 add its own blinding on top, homomorphically
extending ``H``; S1 finally decrypts ``H`` and removes the combined blind
without learning which items S2 touched.

Shipping one ``pk'`` ciphertext *per blinded component* would be wasteful,
so we apply a standard optimization: each party draws one 96-bit seed per
item, expands it into all component blinds with an extendable-output
function, and ships only ``Enc_pk'(seed)``.  The combined blind on a
component is the sum of the per-party outputs, which S1 reconstructs after
decrypting both seeds.  (Uniformity of the blinds now rests on the XOF
being a PRF in its seed, the kind of assumption EHL already makes.)

That substitution gives up the paper's unlinkability: a seed cannot be
extended homomorphically, so S2 forwards S1's ``Enc_pk'(seed)`` untouched
next to its own, and S1, decrypting its own seed, maps every output item
back to the input slot it blinded with it (a known gap, ROADMAP; the
paper's additive companion needs per-component ``pk'`` work — see
ARCHITECTURE.md, "Protocol substitutions and declared leakage").

The blinder understands every field a :class:`ScoredItem` may carry:
EHL cells, the worst/best Paillier ciphertexts, payload ciphertexts
(``list_scores``) and the seen bits — Paillier ciphertexts on the eager
engine's items, blinded like every other Paillier component, or ``E2``
ciphertexts (blinded modulo ``N^2``) on items recorded before the
eager engine left the layered scheme, which S2 still serves.  An absent
field is skipped — neither blinded nor shipped — and comes back absent;
an item with no ``E2`` component costs no Damgård–Jurik work.

Everything works on a whole round's items at once: one XOF call per
seed, then one :func:`~repro.crypto.backend.blind_round` call cuts the
streams into the blinds and applies them and the rerandomizers over the
flat vector of every Paillier component of every item (one C call on
the kernel backend), and the companion seeds are encrypted (or
decrypted) as one batch.
"""

from __future__ import annotations

import hashlib

from repro.crypto import backend
from repro.crypto.damgard_jurik import DamgardJurik, LayeredCiphertext
from repro.crypto.paillier import Ciphertext, PaillierKeypair, PaillierPublicKey
from repro.crypto.rng import SecureRandom
from repro.exceptions import ProtocolError
from repro.structures.items import ScoredItem

# 96-bit seeds: blind-derivation security far above the statistical
# parameters used elsewhere.
SEED_BYTES = 12


def seed_key_bits(key_bits: int) -> int:
    """The modulus size of S1's seed key ``pk'`` beside a main key of
    ``key_bits``: ``max(key_bits, 2 * 8 * SEED_BYTES + 32)``.

    A seed must stay below the smaller prime of ``pk'`` (the companions
    decrypt with the mod-``p`` half of the CRT alone, see
    :meth:`ItemBlinder.decrypt_seeds`): the floor gives primes of
    ``8 * SEED_BYTES + 16`` bits.  ``pk'`` is never weaker than the main
    key.
    """
    return max(key_bits, 2 * 8 * SEED_BYTES + 32)


_XOF_DOMAIN = b"repro-item-blind:"
#: Bits drawn beyond a component's modulus before reducing into it, which
#: keeps the modular bias below ``2**-128``.
_SURPLUS_BITS = 128


def _layered_bits(item: ScoredItem) -> bool:
    """Whether ``item``'s seen bits are ``E2`` ciphertexts (``False`` for
    Paillier bits and for an item without any)."""
    kinds = {type(bit) for bit in item.seen_bits or ()}
    if len(kinds) > 1 or not kinds <= {Ciphertext, LayeredCiphertext}:
        raise ProtocolError("an item's seen bits must be ciphertexts of one kind")
    return kinds == {LayeredCiphertext}


def _components(item: ScoredItem) -> tuple[list[Ciphertext], list]:
    """``item``'s Paillier components in blinding order, and its ``E2``
    seen bits."""
    layered = _layered_bits(item)
    plain = list(item.ehl.cells)
    if item.worst is not None:
        plain.append(item.worst)
    if item.best is not None:
        plain.append(item.best)
    if item.list_scores is not None:
        plain.extend(item.list_scores)
    if item.seen_bits is not None and not layered:
        plain.extend(item.seen_bits)
    if item.record is not None:
        plain.append(item.record)
    return plain, item.seen_bits if layered else []


def _assemble(template: ScoredItem, cts, layered_bits, uid: int) -> ScoredItem:
    """An item of ``template``'s shape (inverse of :func:`_components`),
    taking exactly its share off the iterators ``cts`` (Paillier
    components) and ``layered_bits``."""
    bits = layered_bits if _layered_bits(template) else cts
    return ScoredItem(
        ehl=type(template.ehl)([next(cts) for _ in template.ehl.cells]),
        worst=next(cts) if template.worst is not None else None,
        best=next(cts) if template.best is not None else None,
        list_scores=(
            [next(cts) for _ in template.list_scores]
            if template.list_scores is not None
            else None
        ),
        seen_bits=(
            [next(bits) for _ in template.seen_bits]
            if template.seen_bits is not None
            else None
        ),
        record=next(cts) if template.record is not None else None,
        uid=uid,
    )


class ItemBlinder:
    """Blind/unblind :class:`ScoredItem` objects with seed-derived masks."""

    def __init__(self, public_key: PaillierPublicKey, dj: DamgardJurik):
        self.public_key = public_key
        self.dj = dj
        self._plain_bytes = (public_key.n.bit_length() + _SURPLUS_BITS + 7) // 8
        self._layered_bytes = (dj.n_s.bit_length() + _SURPLUS_BITS + 7) // 8

    # -- blind streams ---------------------------------------------------

    def _apply(
        self,
        items: list[ScoredItem],
        seed_lists: list[list[bytes]],
        sign: int,
        rng: SecureRandom | None,
    ) -> list[ScoredItem]:
        """Add (``sign=+1``) or remove (``-1``) every item's summed seed
        blinds; rerandomize every component when ``rng`` is given.

        One XOF expansion per seed covers the item's Paillier components
        first, then its ``E2`` ones.  The Paillier part of every stream
        goes to one :func:`~repro.crypto.backend.blind_round` call for the
        round; ``E2`` blinds are cut here.
        """
        pk, dj = self.public_key, self.dj
        n_s, n_s1, g_pow = dj.n_s, dj.n_s1, dj._g_pow
        plain_bytes, layered_bytes = self._plain_bytes, self._layered_bytes
        values, counts, seeds_per_item, streams, layered = [], [], [], [], []
        from_bytes = int.from_bytes
        for item, seeds in zip(items, seed_lists):
            cts, lcs = _components(item)
            split = len(cts) * plain_bytes
            total = split + len(lcs) * layered_bytes
            blinds = [0] * len(lcs)
            for seed in seeds:
                stream = hashlib.shake_256(_XOF_DOMAIN + seed).digest(total)
                streams.append(stream[:split] if lcs else stream)
                for k in range(len(lcs)):
                    start = split + k * layered_bytes
                    blinds[k] += from_bytes(stream[start : start + layered_bytes], "big")
            values.extend(ct.value for ct in cts)
            counts.append(len(cts))
            seeds_per_item.append(len(seeds))
            # Enc(x) -> Enc(x ± b): multiply by (1+N)^(±b).
            layered.extend(
                value * g_pow(sign * (b % n_s)) % n_s1
                for value, b in zip(dj.values_of(lcs), blinds)
            )
        pool, reads = None, b""
        if rng is not None:
            pool = pk.randomizer_pool()
            reads = rng.randbytes(pool.read_bytes * len(values))
        plain = backend.blind_round(
            values, counts, seeds_per_item, b"".join(streams), plain_bytes,
            pk.n, sign, pool, reads,
        )
        if rng is not None and layered:
            layered = [
                v * r % n_s1 for v, r in zip(layered, dj.randomizers(rng, len(layered)))
            ]
        # Each item takes its own components back off the flat vectors.
        fresh_cts = (Ciphertext(v, pk) for v in plain)
        fresh_bits = (LayeredCiphertext(v, dj) for v in layered)
        return [_assemble(item, fresh_cts, fresh_bits, item.uid) for item in items]

    def blind_many(
        self,
        items: list[ScoredItem],
        seed_lists: list[list[bytes]],
        rng: SecureRandom,
    ) -> list[ScoredItem]:
        """Additively blind every component of every item with the summed
        blinds of its seeds; rerandomize so nothing links."""
        return self._apply(items, seed_lists, +1, rng)

    def unblind_many(
        self, items: list[ScoredItem], seed_lists: list[list[bytes]]
    ) -> list[ScoredItem]:
        """Remove the blinds of every item's seeds (order-independent).

        The result is consumed by S1 itself, so the known constants are
        subtracted without a fresh rerandomization."""
        return self._apply(items, seed_lists, -1, None)

    # -- seed transport under S1's own key pk' ---------------------------

    def fresh_seeds(self, rng: SecureRandom, count: int) -> list[bytes]:
        """``count`` fresh per-item blinding seeds."""
        data = rng.randbytes(SEED_BYTES * count)
        return [data[i : i + SEED_BYTES] for i in range(0, len(data), SEED_BYTES)]

    def encrypt_seeds(
        self, own_public: PaillierPublicKey, seeds: list[bytes], rng: SecureRandom
    ) -> list[Ciphertext]:
        """``Enc_pk'(seed)`` per seed — the companion ``H`` ciphertexts."""
        return own_public.encrypt_batch(
            [int.from_bytes(seed, "big") for seed in seeds], rng
        )

    def decrypt_seeds(
        self, own_keypair: PaillierKeypair, h_list: list[Ciphertext]
    ) -> list[bytes]:
        """Recover the seed list from companion ciphertexts.

        A seed is ``8 * SEED_BYTES`` bits and ``pk'``'s primes are wider
        (checked here, where the blinder meets the key), so the mod-``p``
        half of the CRT decryption already is the whole plaintext.
        """
        sk = own_keypair.secret_key
        if min(sk.p, sk.q).bit_length() <= 8 * SEED_BYTES:
            raise ProtocolError("pk' primes are too narrow to carry a seed")
        seeds = []
        for value in sk.decrypt_batch_below_p(h_list):
            if value >= 1 << (8 * SEED_BYTES):
                raise ProtocolError("companion ciphertext held a non-seed value")
            seeds.append(value.to_bytes(SEED_BYTES, "big"))
        return seeds

    # -- whole rounds ----------------------------------------------------

    def blind_fresh(
        self, items: list[ScoredItem], own_public: PaillierPublicKey, rng: SecureRandom
    ) -> tuple[list[ScoredItem], list[Ciphertext]]:
        """Blind every item under a fresh seed of its own; returns the
        blinded items and their companions ``Enc_pk'(seed)``."""
        seeds = self.fresh_seeds(rng, len(items))
        blinded = self.blind_many(items, [[seed] for seed in seeds], rng)
        return blinded, self.encrypt_seeds(own_public, seeds, rng)

    def unblind_companions(
        self,
        own_keypair: PaillierKeypair,
        items: list[ScoredItem],
        companions: list[tuple],
    ) -> list[ScoredItem]:
        """S1's last step of a blinded round: decrypt every item's
        companion seeds (one batch for the round) and remove their blinds."""
        seeds = iter(
            self.decrypt_seeds(own_keypair, [h for comp in companions for h in comp])
        )
        return self.unblind_many(
            items, [[next(seeds) for _ in comp] for comp in companions]
        )


def junk_item(
    public_key: PaillierPublicKey,
    dj: DamgardJurik,
    template: ScoredItem,
    sentinel: int,
    rng: SecureRandom,
) -> ScoredItem:
    """A replacement item for a buried duplicate (Algorithm 7, lines 22-25).

    Random object identity and payload, and whichever of worst/best the
    template carries pinned to the huge-negative ``sentinel`` so it sorts
    after every legitimate candidate and never blocks the halting check.
    Every eager-mode list is marked seen — ``Enc(1)``, or ``E2(1)`` for a
    template with layered seen bits — so the best bound the eager engine
    later derives from the running worst (no bottom-score contribution
    for a seen list) lands on the sentinel too.
    """
    n = public_key.n
    layered = _layered_bits(template)
    seen = [1] * len(template.seen_bits or ())
    # One value vector in component order, encrypted as one batch.
    values = [rng.randint_below(n) for _ in template.ehl.cells]
    values += [sentinel % n for ct in (template.worst, template.best) if ct is not None]
    values += [rng.randint_below(n) for _ in template.list_scores or ()]
    if not layered:
        values += seen
    if template.record is not None:
        values.append(rng.randint_below(n))
    return _assemble(
        template,
        iter(public_key.encrypt_batch(values, rng)),
        iter(dj.encrypt_batch(seen, rng) if layered else ()),
        uid=-1,
    )
