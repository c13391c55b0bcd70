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
back to the input slot it blinded with it (the paper's additive
companion needs per-component ``pk'`` work; see ARCHITECTURE.md, "Known
gaps").

The blinder works on a round's :class:`~repro.structures.items.ItemBatch`:
each item's layout and one limb buffer of its components — EHL cells,
the worst/best ciphertexts, payload ciphertexts (``list_scores``) and
the seen bits — every one a Paillier ciphertext under the main key.  An
absent field is neither blinded nor shipped and comes back absent.

Everything works on a whole round's batch at once: one XOF digest per
seed, as long as its item's components need, then one program
(:data:`BLIND_ROUND`, one C call on the kernel
backend) cuts the streams into the blinds and applies them and the
rerandomizers to the batch's buffer as it is, and the companion seeds
are encrypted (or decrypted) as one batch.  S1 packs a
round's items once; S2 keeps, permutes and adds junk by whole item
slices; S1 builds its items again once, after the unblind.
"""

from __future__ import annotations

import hashlib

from repro.crypto import backend
from repro.crypto.paillier import PaillierKeypair, PaillierPublicKey
from repro.crypto.rng import SecureRandom
from repro.crypto.vector import CtVector, vector_of
from repro.exceptions import ProtocolError
from repro.structures.items import ItemBatch, ScoredItem

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


def _blind_round(rerandomize: bool) -> backend.Program:
    """A blinding round's arithmetic over the Paillier components
    ``c_i`` of a batch's buffer: ``c_i · (1 + b_i·N) · r_i mod N^2``,
    ``b_i`` the ``blinds`` of the round's XOF streams and ``r_i`` a pool
    draw when ``rerandomize``.  Inputs: ``N^2``, ``N``, the buffer, the
    ``(count, seeds)`` layout, the streams and ``[width, negate]``, then
    the pool and its reads."""
    program = backend.Program()
    n2, n = program.input(backend.MOD), program.input(backend.MOD)
    values, layout = program.input(backend.LIMBS), program.input(backend.INTS)
    streams, params = program.input(backend.BYTES), program.input(backend.INTS)
    out = program.op(
        "mul", n2, values, program.op("blinds", n2, layout, streams, n, params)
    )
    if rerandomize:
        pool, reads = program.input(backend.POOL), program.input(backend.BYTES)
        out = program.op("pool", n2, pool, reads, out)
    program.output(out, packed=True)
    return program


#: S1's blind and S2's re-blind (rerandomized), and S1's unblind.
BLIND_ROUND, UNBLIND_ROUND = _blind_round(True), _blind_round(False)


def check_batch(batch, public_key: PaillierPublicKey) -> ItemBatch:
    """``batch`` when it is an :class:`ItemBatch` under ``public_key``,
    and a :class:`ProtocolError` otherwise (a peer's round names its
    items as one batch under the main key)."""
    if type(batch) is not ItemBatch or batch.public_key.n != public_key.n:
        raise ProtocolError("a blinded round's items must be one batch under the main key")
    return batch


class ItemBlinder:
    """Blind/unblind a round's :class:`ItemBatch` with seed-derived masks."""

    def __init__(self, public_key: PaillierPublicKey):
        self.public_key = public_key
        self._blind_bytes = (public_key.n.bit_length() + _SURPLUS_BITS + 7) // 8

    # -- blind streams ---------------------------------------------------

    def _apply(
        self,
        batch: ItemBatch,
        seed_lists: list[list[bytes]],
        sign: int,
        rng: SecureRandom | None,
    ) -> ItemBatch:
        """Add (``sign=+1``) or remove (``-1``) every item's summed seed
        blinds; rerandomize every component when ``rng`` is given.

        A seed's stream is one XOF digest, ``_blind_bytes`` per component
        of its item; every stream of the round goes to one run of
        :data:`BLIND_ROUND` (or :data:`UNBLIND_ROUND`), on the batch's
        buffer.
        """
        batch = check_batch(batch, self.public_key)
        if len(seed_lists) != len(batch):
            raise ProtocolError("a blinded round needs one seed list per item")
        pk = self.public_key
        counts = batch.counts()
        width = self._blind_bytes
        streams = b"".join([
            hashlib.shake_256(_XOF_DOMAIN + seed).digest(count * width)
            for count, seeds in zip(counts, seed_lists)
            for seed in seeds
        ])
        registers = [
            pk.n_squared, pk.n, batch.buffer,
            [v for pair in zip(counts, map(len, seed_lists)) for v in pair],
            streams, [width, int(sign < 0)],
        ]
        if rng is not None:
            pool = pk.randomizer_pool()
            registers += [pool, rng.randbytes(pool.read_bytes * sum(counts))]
        (buffer,) = backend.run(BLIND_ROUND if rng is not None else UNBLIND_ROUND, registers)
        return batch.with_components(pk, buffer)

    def blind_batch(
        self, batch: ItemBatch, seed_lists: list[list[bytes]], rng: SecureRandom
    ) -> ItemBatch:
        """Additively blind every component of every item with the summed
        blinds of its seeds; rerandomize so nothing links."""
        return self._apply(batch, seed_lists, +1, rng)

    def unblind_batch(self, batch: ItemBatch, seed_lists: list[list[bytes]]) -> ItemBatch:
        """Remove the blinds of every item's seeds (order-independent).

        The result is consumed by S1 itself, so the known constants are
        subtracted without a fresh rerandomization."""
        return self._apply(batch, seed_lists, -1, None)

    # -- seed transport under S1's own key pk' ---------------------------

    def fresh_seeds(self, rng: SecureRandom, count: int) -> list[bytes]:
        """``count`` fresh per-item blinding seeds."""
        data = rng.randbytes(SEED_BYTES * count)
        return [data[i : i + SEED_BYTES] for i in range(0, len(data), SEED_BYTES)]

    def encrypt_seeds(
        self, own_public: PaillierPublicKey, seeds: list[bytes], rng: SecureRandom
    ) -> CtVector:
        """``Enc_pk'(seed)`` per seed — the companion ``H`` ciphertexts."""
        return CtVector.encrypt(own_public, [int.from_bytes(seed, "big") for seed in seeds], rng)

    def decrypt_seeds(self, own_keypair: PaillierKeypair, companions) -> list[bytes]:
        """Recover the seed list from companion ciphertexts (a vector, or
        a list of ciphertexts).

        A seed is ``8 * SEED_BYTES`` bits and ``pk'``'s primes are wider
        (checked here, where the blinder meets the key), so the mod-``p``
        half of the CRT decryption already is the whole plaintext.
        """
        sk = own_keypair.secret_key
        if min(sk.p, sk.q).bit_length() <= 8 * SEED_BYTES:
            raise ProtocolError("pk' primes are too narrow to carry a seed")
        seeds = []
        for value in sk.decrypt_batch_below_p(companions):
            if value >= 1 << (8 * SEED_BYTES):
                raise ProtocolError("companion ciphertext held a non-seed value")
            seeds.append(value.to_bytes(SEED_BYTES, "big"))
        return seeds

    # -- whole rounds ----------------------------------------------------

    def blind_fresh(
        self, batch: ItemBatch, own_public: PaillierPublicKey, rng: SecureRandom
    ) -> tuple[ItemBatch, CtVector]:
        """Blind every item under a fresh seed of its own; returns the
        blinded batch and its companions ``Enc_pk'(seed)``."""
        seeds = self.fresh_seeds(rng, len(batch))
        blinded = self.blind_batch(batch, [[seed] for seed in seeds], rng)
        return blinded, self.encrypt_seeds(own_public, seeds, rng)

    def unblind_companions(
        self, own_keypair: PaillierKeypair, batch: ItemBatch, companions: CtVector
    ) -> list[ScoredItem]:
        """S1's last step of a blinded round: decrypt every item's two
        companion seeds (``companions`` holds them flat, ``(H_a, H_b)``
        per item; one batch for the round), remove their blinds and build
        the round's items."""
        if len(vector_of(companions, own_keypair.public_key)) != 2 * len(batch):
            raise ProtocolError("a blinded round's reply carries two companions per item")
        seeds = self.decrypt_seeds(own_keypair, companions)
        return self.unblind_batch(batch, [seeds[i : i + 2] for i in range(0, len(seeds), 2)]).unpack()


def junk_batch(
    public_key: PaillierPublicKey,
    templates: ItemBatch,
    sentinel: int,
    rng: SecureRandom,
) -> ItemBatch:
    """One replacement per item of ``templates`` for a buried duplicate
    (Algorithm 7, lines 22-25), in order.

    Each keeps its template's shape: random object identity and payload,
    and whichever of worst/best the template carries pinned to the
    huge-negative ``sentinel`` so it sorts after every legitimate
    candidate and never blocks the halting check.  Every eager-mode list
    is marked seen (``Enc(1)``), so the best bound the eager engine later
    derives from the running worst (no bottom-score contribution for a
    seen list) lands on the sentinel too.  Each item's values are drawn,
    then encrypted as one batch, item after item.
    """
    n = public_key.n
    vectors = []
    for shape in templates.shapes:
        item = [rng.randint_below(n) for _ in range(shape.cells)]
        item += [sentinel % n] * (shape.worst + shape.best)
        item += [rng.randint_below(n) for _ in range(shape.scores or 0)]
        item += [1] * (shape.seen or 0)
        if shape.record:
            item.append(rng.randint_below(n))
        vectors.append(CtVector.encrypt(public_key, item, rng))
    return ItemBatch(
        list(templates.shapes),
        [-1] * len(templates),
        CtVector(public_key, sum(map(len, vectors)), b"".join([v.buffer for v in vectors])),
    )
