"""System-wide parameters for the SecTopK scheme.

Collects every knob the construction has — key sizes, EHL shape, score
encoding widths, and the default choices for the pluggable building
blocks — with presets matching the paper's evaluation and a fast preset
for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.encoding import check_plaintext_bound, plaintext_bits
from repro.exceptions import EncodingRangeError, QueryError

#: The ``EncCompare`` and ``EncSort`` constructions a scheme default or a
#: per-query override may name.
COMPARE_METHODS = ("blinded", "dgk")
SORT_METHODS = ("affine", "network")


@dataclass(frozen=True)
class SystemParams:
    """Immutable scheme parameters.

    Attributes
    ----------
    key_bits:
        Paillier modulus size.  The paper's experiments use a 256-bit
        modulus ("128-bit security for the Paillier and DJ encryption").
        Key generation draws two ``key_bits/2``-bit primes, and S2
        decrypts every protocol value mod one of them, ``p``.
    score_bits:
        Maximum bit-width of a single attribute score.
    blind_bits:
        Statistical blinding parameter ``κ``.  With ``score_bits`` it
        must meet the encoder's plaintext bound ``score_bits +
        2·blind_bits + 4 < |p| − 1`` (see :attr:`plaintext_room`).
    ehl_variant:
        ``"plus"`` for EHL+ (default, what the paper's query experiments
        use) or ``"bits"`` for the original EHL.
    ehl_hashes:
        Number of PRFs ``s`` (paper: 5).
    ehl_table_size:
        Bit-table length ``H`` for the ``"bits"`` variant (paper: 23).
    compare_method / sort_method:
        Default constructions for ``EncCompare`` (``"blinded"``/``"dgk"``)
        and ``EncSort`` (``"affine"``/``"network"``).
    """

    key_bits: int = 256
    score_bits: int = 32
    blind_bits: int = 40
    ehl_variant: str = "plus"
    ehl_hashes: int = 5
    ehl_table_size: int = 23
    compare_method: str = "blinded"
    sort_method: str = "affine"

    def __post_init__(self):
        if self.ehl_variant not in ("plus", "bits"):
            raise QueryError(f"unknown EHL variant: {self.ehl_variant!r}")
        if self.compare_method not in COMPARE_METHODS:
            raise QueryError(f"unknown compare method: {self.compare_method!r}")
        if self.sort_method not in SORT_METHODS:
            raise QueryError(f"unknown sort method: {self.sort_method!r}")
        try:
            check_plaintext_bound(self.prime_bits, self.score_bits, self.blind_bits)
        except EncodingRangeError as exc:
            raise QueryError(f"key_bits={self.key_bits}: {exc}") from None

    @property
    def prime_bits(self) -> int:
        """``|p| = key_bits/2``, the size of the prime S2 decrypts mod."""
        return self.key_bits // 2

    @property
    def plaintext_room(self) -> int:
        """Bits to spare under the plaintext bound: ``(|p| − 1) −
        (score_bits + 2·blind_bits + 4)``, at least 1 for valid widths."""
        return self.prime_bits - 1 - plaintext_bits(self.score_bits, self.blind_bits)

    @property
    def zero_test_error_bits(self) -> int:
        """``-log2`` of the bound on a zero test's false positive.

        S2 tests a ⊖ result, a SecFilter flag or a DGK term for zero mod
        ``p``.  A true zero is zero mod ``p``; a uniform non-zero ``m`` of
        ``Z_N`` is a multiple of ``p`` with probability ``(q − 1)/(N − 1)
        < 1/p ≤ 2^−(|p|−1)``, so the bound is ``|p| − 1`` bits: 127 at
        :meth:`paper`, 63 at :meth:`tiny`.  Beside it sits the EHL+
        collision bound (``structures.bloom.ehl_plus_false_positive_bound``):
        tested mod ``p``, two objects' ``s`` hashes collide with
        probability ``n²/p^s`` rather than ``n²/N^s``.
        """
        return self.prime_bits - 1

    @classmethod
    def paper(cls) -> "SystemParams":
        """The configuration of the paper's experiments (Section 11)."""
        return cls(key_bits=256, score_bits=32, blind_bits=40, ehl_hashes=5)

    @classmethod
    def insecure_demo(cls) -> "SystemParams":
        """Small, fast parameters for tests and examples.

        192-bit modulus and narrower blinding: functionally identical,
        *not* a secure key size.
        """
        return cls(key_bits=192, score_bits=20, blind_bits=28, ehl_hashes=4)

    @classmethod
    def tiny(cls) -> "SystemParams":
        """Minimal parameters for fast unit tests (128-bit modulus).

        The widths meet the plaintext bound in the open, with 3 bits of
        room: ``16 + 2·20 + 4 = 60 < |p| − 1 = 63``.
        """
        return cls(
            key_bits=128,
            score_bits=16,
            blind_bits=20,
            ehl_hashes=3,
            ehl_table_size=16,
        )

    @classmethod
    def secure(cls) -> "SystemParams":
        """A conservatively-sized configuration for real deployments."""
        return cls(key_bits=2048, score_bits=48, blind_bits=60, ehl_hashes=5)
