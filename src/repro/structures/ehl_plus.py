"""The space- and computation-efficient EHL+ of Section 5.

Instead of encrypting ``H`` bits, EHL+ hashes the object into the *large*
group ``Z_N`` ``s`` times and encrypts only those ``s`` hash values::

    EHL+(o)[i] = Enc( HMAC(k_i, o) mod N ),   1 <= i <= s

The equality operator ``⊖`` homomorphically subtracts the hash values
component-wise with fresh random scalars, so its cost drops from ``O(H)``
to ``O(s)`` while the false-positive rate falls to the negligible
``n^2 / N^s`` (union bound; Section 5) — ``n^2 / p^s`` here, because S2
tests a ``⊖`` result for zero mod the prime ``p`` alone.

EHL+ additionally supports the block-wise blinding ``⊙`` of the notation
paragraph in Section 5 (``c ← Enc(x) ⊙ EHL(y)``), which ``SecDedup`` uses
to blind object identities with random vectors ``α ∈ Z_N^s``.
"""

from __future__ import annotations

from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.prf import Prf, derive_keys, encode_object_id
from repro.crypto.rng import SecureRandom
from repro.exceptions import KeyMismatchError
from repro.structures.ehl import EncryptedHashList


class EhlPlus(EncryptedHashList):
    """An EHL+ structure: ``s`` Paillier encryptions of ``Z_N`` hashes."""

    __slots__ = ()

    _NAME = "EHL+"

    def blind_add(self, alphas: list[int]) -> "EhlPlus":
        """The block-wise operation ``⊙``: add ``α_i`` to each component.

        ``SecDedup``/``Rand`` (Algorithm 8) blind the object identity by
        homomorphically adding a random vector; :meth:`blind_add` with the
        negated vector removes the blind again.
        """
        if len(alphas) != len(self.cells):
            raise KeyMismatchError("blinding vector arity mismatch")
        return EhlPlus([cell + a for cell, a in zip(self.cells, alphas)])


class EhlPlusFactory:
    """Builds :class:`EhlPlus` structures under a fixed key set.

    ``n_hashes`` is the paper's ``s`` (their experiments use ``s = 5``;
    ``s = 4`` or ``5`` already gives negligible FPR for millions of
    records when ``N`` is 256 bits).
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        master_key: bytes,
        n_hashes: int = 5,
        rng: SecureRandom | None = None,
    ):
        if n_hashes < 1:
            raise ValueError("need at least one hash function")
        self.public_key = public_key
        self.n_hashes = n_hashes
        self.prfs: list[Prf] = derive_keys(master_key, n_hashes, label="ehl+")
        self.rng = rng or SecureRandom()

    def hash_vector(self, object_id) -> list[int]:
        """The plaintext hash vector ``(HMAC(k_i, o) mod N)_i``."""
        message = encode_object_id(object_id)
        n = self.public_key.n
        return [prf.to_range(message, n) for prf in self.prfs]

    structure = EhlPlus
    vector = hash_vector

    def encode(self, object_id) -> EhlPlus:
        """Return ``EHL+(o)``."""
        return EhlPlus(self.public_key.encrypt_batch(self.hash_vector(object_id), self.rng))

    def structure_bytes(self) -> int:
        """Size of one EHL+ in bytes (for the Fig. 7/8 size series)."""
        return self.n_hashes * self.public_key.ciphertext_bytes
