"""``EncCompare`` — S1 learns ``f := (a <= b)`` from ``Enc(a), Enc(b)``.

The paper imports this functionality from Bost et al. [11].  Two
constructions are provided (ARCHITECTURE.md, "Protocol substitutions and
declared leakage"):

``method="blinded"`` (default for benchmarks)
    One round.  S1 computes ``d = 2(b - a) + 1`` homomorphically (never
    zero, sign encodes the answer), flips a private coin ``sigma`` to
    randomize the sign, multiplies by a random positive scalar, and sends
    the result; S2 returns the sign of the decrypted value.  S2 learns a
    uniformly distributed sign bit plus the *magnitude* of the scaled
    difference — documented extra leakage traded for speed.

``method="dgk"`` (faithful to the cited construction)
    The Veugen/DGK-style bitwise protocol: S1 additively blinds
    ``z = 2^ell + b - a`` and the two parties privately compute the
    borrow bit of ``(c mod 2^ell) - (r mod 2^ell)`` via the DGK trick
    (randomized, permuted difference terms, one of which is zero iff the
    comparison holds).  S2 sees only uniformly blinded values, a coin-
    masked any-zero bit, and a coin-masked output bit.

Both constructions accept *signed* inputs in
``[-2**(ell-1), 2**(ell-1))`` — callers pass values offset-shifted into
non-negative range internally, so the huge negative sentinel that
``SecDedup`` assigns to buried duplicates compares correctly.
"""

from __future__ import annotations

from repro.crypto import backend
from repro.crypto.paillier import Ciphertext
from repro.crypto.vector import CtVector
from repro.net.messages import BlindedSign, DecryptMaskedBit, DgkAnyZero, DgkDecompose
from repro.protocols.base import S1Context
from repro.exceptions import KeyMismatchError, ProtocolError

PROTOCOL = "EncCompare"


def comparison_bits(ctx: S1Context) -> int:
    """Bit-width ``ell`` used for comparisons.

    Must cover legitimate aggregated scores *and* the duplicate-burial
    sentinel ``±2**(score_bits + blind_bits)``.
    """
    return ctx.encoder.score_bits + ctx.encoder.blind_bits + 2


def enc_compare_flows(
    ctx: S1Context,
    pairs: list[tuple[Ciphertext, Ciphertext]],
    method: str = "blinded",
    protocol: str = PROTOCOL,
) -> list:
    """One :func:`enc_compare` flow per ``(enc_a, enc_b)`` pair, for one
    coalesced stage of :meth:`S1Context.run_flows`.

    The blinded construction builds the stage's masked differences here,
    as whole-batch backend calls, reading the rng as the stage's flows
    would one after another; its flows only ship them.  DGK flows run
    their own arithmetic.
    """
    if method == "blinded":
        return [
            _blinded_sign_flow(message, sigma)
            for message, sigma in _blinded_signs(ctx, pairs, protocol)
        ]
    if method == "dgk":
        return [_compare_dgk_flow(ctx, a, b, protocol) for a, b in pairs]
    raise ProtocolError(f"unknown EncCompare method: {method!r}")


def enc_compare_flow(
    ctx: S1Context,
    enc_a: Ciphertext,
    enc_b: Ciphertext,
    method: str = "blinded",
    protocol: str = PROTOCOL,
):
    """Flow form of :func:`enc_compare` (coalescible across candidates)."""
    return enc_compare_flows(ctx, [(enc_a, enc_b)], method, protocol)[0]


def enc_compare(
    ctx: S1Context,
    enc_a: Ciphertext,
    enc_b: Ciphertext,
    method: str = "blinded",
    protocol: str = PROTOCOL,
) -> bool:
    """Return ``a <= b`` to S1 without revealing ``a`` or ``b``."""
    return ctx.run_flows([enc_compare_flow(ctx, enc_a, enc_b, method, protocol)])[0]


# ----------------------------------------------------------------------
# Construction 1: multiplicative blinding (1 round).
# ----------------------------------------------------------------------


def _blinded_signs(
    ctx: S1Context, pairs: list[tuple[Ciphertext, Ciphertext]], protocol: str
) -> list[tuple[BlindedSign, int]]:
    """Every pair's ``BlindedSign`` request and S1's coin ``sigma``.

    The request carries ``Enc((-1)^sigma · scale · (2(b - a) + 1))``,
    rerandomized, built as ``q^(2·scale) · (1 ± scale·N) · r`` with
    ``q = b/a`` (``a/b`` when ``sigma`` flips the sign, because
    ``-(2(b - a) + 1) = 2(a - b) - 1``): one ``invert_vec``, one
    ``powmod_pairs`` and one pool draw for the whole stage.  Per pair the
    rng is read ``sigma``, ``scale``, then the randomizer's pool read.
    """
    ell = comparison_bits(ctx)
    kappa = ctx.encoder.blind_bits
    pk, rng = ctx.public_key, ctx.rng
    n, n2 = pk.n, pk.n_squared
    if ell + 1 + kappa >= ctx.encoder.plaintext_bits:
        raise ProtocolError("blinded comparison range exceeds the plaintext bound")
    pool = pk.randomizer_pool()
    sigmas, scales, reads, numerators, denominators = [], [], [], [], []
    for enc_a, enc_b in pairs:
        if enc_a.public_key != enc_b.public_key:
            raise KeyMismatchError("cannot combine ciphertexts under different keys")
        sigma = rng.randbits(1)
        sigmas.append(sigma)
        scales.append(rng.randint(1, (1 << kappa) - 1))
        reads.append(rng.randbytes(pool.read_bytes))
        first, second = (enc_a, enc_b) if sigma else (enc_b, enc_a)
        numerators.append(first.value)
        denominators.append(second.value)
    inverses = backend.invert_vec(denominators, n2)
    quotients = [a * b % n2 for a, b in zip(numerators, inverses)]
    powers = backend.powmod_pairs(quotients, [2 * scale for scale in scales], n2)
    randomizers = backend.pool_products(pool, b"".join(reads))
    return [
        (
            BlindedSign(
                protocol=protocol,
                ct=CtVector.of(
                    pk, [power * (1 + (-scale if sigma else scale) % n * n) % n2 * r % n2]
                ),
            ),
            sigma,
        )
        for power, scale, sigma, r in zip(powers, scales, sigmas, randomizers)
    ]


def _blinded_sign_flow(message: BlindedSign, sigma: int):
    positive = yield message
    # S2 reported sign of (-1)^sigma * scale * (2(b-a)+1).
    return positive != bool(sigma)


# ----------------------------------------------------------------------
# Construction 2: DGK-style bitwise comparison (3 rounds).
# ----------------------------------------------------------------------


def _compare_dgk_flow(
    ctx: S1Context, enc_a: Ciphertext, enc_b: Ciphertext, protocol: str
):
    ell = comparison_bits(ctx)
    kappa = ctx.encoder.blind_bits
    if ell + kappa + 1 >= ctx.encoder.plaintext_bits:
        raise ProtocolError("DGK comparison range exceeds the plaintext bound")
    offset = 1 << (ell - 1)
    # Shift both operands into [0, 2^ell); then z = 2^ell + b - a is in
    # [1, 2^(ell+1)) and bit ell of z equals (a <= b).
    # z = 2^ell + (b + offset) - (a + offset) = 2^ell + b - a.
    enc_z = (enc_b - enc_a) + (1 << ell)
    # Additively blind so S2's decryption is statistically uniform.
    r = ctx.rng.randint_below(1 << (ell + kappa))
    enc_c = ctx.public_key.rerandomize(enc_z + r, ctx.rng)

    bits, high = yield DgkDecompose(protocol=protocol, ct=enc_c, ell=ell)
    bit_cts, (enc_high,) = bits.ciphertexts(), high.ciphertexts()

    # DGK core: decide borrow = ((c mod 2^ell) < (r mod 2^ell)) where S1
    # knows r-hat = r mod 2^ell and S2 supplied encrypted bits of
    # c-hat = c mod 2^ell.
    r_hat = r % (1 << ell)
    delta = ctx.rng.randbits(1)
    terms = _dgk_terms(ctx, bit_cts, r_hat, ell, delta)
    ctx.rng.shuffle(terms)
    any_zero = yield DgkAnyZero(protocol=protocol, cts=terms)
    if delta == 0:
        borrow = 1 if any_zero else 0          # any_zero <=> c-hat < r-hat
    else:
        borrow = 0 if any_zero else 1          # any_zero <=> r-hat <= c-hat

    # Bit ell of z equals high(c) - high(r) - borrow, a value in {0, 1}.
    r_high = r >> ell
    enc_f = enc_high - r_high - borrow
    # Reveal f to S1 via a coin-masked decryption by S2.
    gamma = ctx.rng.randbits(1)
    if gamma:
        enc_f = ctx.encrypt(1) - enc_f
    enc_f = ctx.public_key.rerandomize(enc_f, ctx.rng)
    masked_bit = yield DecryptMaskedBit(protocol=protocol, ct=enc_f)
    return bool(masked_bit ^ gamma)


def _dgk_terms(
    ctx: S1Context,
    bit_cts: list[Ciphertext],
    r_hat: int,
    ell: int,
    delta: int,
) -> list[Ciphertext]:
    """Build the randomized DGK difference terms.

    With ``delta = 0`` some term is zero iff ``c_hat < r_hat``;
    with ``delta = 1`` some term is zero iff ``r_hat <= c_hat`` (the extra
    all-bits-equal term covers equality).
    """
    n = ctx.public_key.n
    terms: list[Ciphertext] = []
    # xor_i = c_i XOR r_i, homomorphically: c_i + r_i - 2 r_i c_i.
    xors: list[Ciphertext] = []
    for i in range(ell):
        r_i = (r_hat >> i) & 1
        if r_i == 0:
            xors.append(bit_cts[i])
        else:
            xors.append(ctx.encrypt(1) - bit_cts[i])

    # suffix_sum[i] = sum_{j > i} xor_j
    suffix = ctx.zero()
    suffix_sums: list[Ciphertext] = [None] * ell
    for i in range(ell - 1, -1, -1):
        suffix_sums[i] = suffix
        suffix = suffix + xors[i]
    total_xor = suffix  # sum over all bit positions

    for i in range(ell):
        r_i = (r_hat >> i) & 1
        if delta == 0:
            # zero iff c_i = 0, r_i = 1 and all higher bits equal.
            core = bit_cts[i] - r_i + 1
        else:
            # zero iff r_i = 0, c_i = 1 and all higher bits equal.
            core = (-bit_cts[i]) + r_i + 1
        term = core + suffix_sums[i] * 3
        scale = ctx.rng.rand_nonzero(n)
        terms.append(ctx.public_key.rerandomize(term * scale, ctx.rng))

    if delta == 1:
        # Equality term: zero iff all bits equal (c_hat == r_hat).
        scale = ctx.rng.rand_nonzero(n)
        terms.append(ctx.public_key.rerandomize(total_xor * scale, ctx.rng))
    return terms
