"""Signed fixed-width encoding of scores in ``Z_N``.

The protocols manipulate non-negative integer scores bounded by
``2**score_bits`` plus the sentinel ``Z = N - 1`` that ``SecDedup`` assigns
to neutralized duplicates ("a large enough value Z = N − 1 ∈ Z_N",
Section 8.2.3).  Blinding adds random values that may wrap around ``N``;
this module centralizes the arithmetic-range bookkeeping so each protocol
can assert its inputs fit before homomorphic evaluation.

Negative intermediate values (e.g. the difference fed to ``EncCompare``)
use the standard two's-complement-style embedding: ``x < 0`` is stored as
``N + x``, and anything above ``N/2`` decodes as negative.

S2 decrypts every protocol value on one CRT half, mod the prime ``p``
(``|p| = key_bits/2``: key generation draws two such primes).  What it
reads is a zero test, a coin-masked bit or a blinded value below
``2**plaintext_bits(score_bits, blind_bits)`` in magnitude, so ``m mod p``
read as a centred residue decides every answer — provided the widths
meet the one bound of the construction, ``score_bits + 2·blind_bits + 4
< |p| − 1`` (:func:`check_plaintext_bound`).  :class:`SignedEncoder`
refuses widths that miss it, and so does ``SystemParams``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import EncodingRangeError


def plaintext_bits(score_bits: int, blind_bits: int) -> int:
    """Bit width bounding every plaintext S2 decrypts to read a value.

    The widest are the affine-blinded sort keys (a sentinel-magnitude key
    times a ``blind_bits`` scale, plus noise), the blinded comparison
    values (a ``score_bits + blind_bits + 3``-bit difference times a
    ``blind_bits`` scale) and the DGK decomposition's blinded value: each
    below ``2**(score_bits + 2·blind_bits + 3)`` in magnitude, one bit
    under this width.
    """
    return score_bits + 2 * blind_bits + 4


def check_plaintext_bound(prime_bits: int, score_bits: int, blind_bits: int) -> None:
    """Refuse, with :class:`EncodingRangeError`, widths whose plaintexts
    S2 could not read mod a ``prime_bits``-bit prime ``p``: the bound is
    ``score_bits + 2·blind_bits + 4 < |p| − 1``, which keeps every value
    S2 reads below ``p/4`` in magnitude."""
    needed = plaintext_bits(score_bits, blind_bits)
    if needed >= prime_bits - 1:
        raise EncodingRangeError(
            f"|p|={prime_bits} too small for score_bits={score_bits}, "
            f"blind_bits={blind_bits}: score_bits + 2*blind_bits + 4 = "
            f"{needed} must be below |p| - 1 = {prime_bits - 1}"
        )


@dataclass(frozen=True)
class SignedEncoder:
    """Range-checked signed encoding in ``Z_n``, and the home of the
    plaintext bound S2's mod-``p`` decryption relies on.

    ``SecTopK``, ``SecTopKJoin`` and ``make_parties`` all build one, so a
    deployment whose widths miss :func:`check_plaintext_bound` is refused
    before any key material is used.

    Parameters
    ----------
    modulus:
        The Paillier modulus ``N``, the product of two ``|N|/2``-bit
        primes.
    score_bits:
        Maximum bit-width ``ℓ`` of legitimate scores.  A weighted
        aggregate must stay below :attr:`sentinel`; ``SecTopK`` refuses a
        token whose weights could reach it.
    blind_bits:
        Statistical blinding parameter ``κ``: additive blinds are drawn
        from ``[0, 2**(score_bits + blind_bits))``.
    """

    modulus: int
    score_bits: int = 32
    blind_bits: int = 40

    def __post_init__(self):
        check_plaintext_bound(self.prime_bits, self.score_bits, self.blind_bits)

    @property
    def prime_bits(self) -> int:
        """``|p|``, the size of the prime S2 decrypts protocol values mod."""
        return self.modulus.bit_length() // 2

    @property
    def plaintext_bits(self) -> int:
        """Bound on the width of every value S2 reads (see
        :func:`plaintext_bits`); below ``|p| − 1``."""
        return plaintext_bits(self.score_bits, self.blind_bits)

    @property
    def max_score(self) -> int:
        """Largest legitimate (non-sentinel) score value."""
        return (1 << self.score_bits) - 1

    @property
    def sentinel(self) -> int:
        """The 'huge' worst-score value ``Z`` used to bury duplicates.

        The paper sets ``Z = N - 1``; decoded as a signed value that is
        ``-1``, which breaks signed comparisons, so we instead use the
        largest value that still behaves as a huge *positive* score for
        the comparison protocols: ``2**(score_bits + blind_bits)``.
        Anything with this worst score sorts after every legitimate item,
        which is all the construction needs.
        """
        return 1 << (self.score_bits + self.blind_bits)

    def encode(self, value: int) -> int:
        """Encode a signed integer into ``[0, N)``."""
        half = self.modulus // 2
        if not -half < value <= half:
            raise EncodingRangeError(f"value {value} outside (-N/2, N/2]")
        return value % self.modulus

    def decode(self, residue: int) -> int:
        """Decode an element of ``[0, N)`` to a signed integer."""
        residue %= self.modulus
        return residue - self.modulus if residue > self.modulus // 2 else residue

    def check_score(self, value: int) -> int:
        """Validate a plaintext score and return it unchanged."""
        if not 0 <= value <= self.max_score:
            raise EncodingRangeError(
                f"score {value} outside [0, 2**{self.score_bits})"
            )
        return value
