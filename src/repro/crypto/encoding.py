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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import EncodingRangeError


@dataclass(frozen=True)
class SignedEncoder:
    """Range-checked signed encoding in ``Z_n``.

    Parameters
    ----------
    modulus:
        The Paillier modulus ``N``.
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
        # Multiplicative-blind comparisons need ℓ + κ + 2 < |N|.
        if self.score_bits + self.blind_bits + 2 >= self.modulus.bit_length():
            raise EncodingRangeError(
                "modulus too small for score_bits + blind_bits "
                f"({self.score_bits}+{self.blind_bits} vs |N|="
                f"{self.modulus.bit_length()})"
            )

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
