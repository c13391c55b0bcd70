"""HMAC-SHA-256 based pseudo-random functions.

The paper instantiates the PRFs used by EHL/EHL+ with HMAC-SHA-256
(Section 11: "We used the HMAC-SHA-256 as the pseudo-random function for
the EHL and EHL+ encoding"); we do the same using the standard library.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.rng import SecureRandom

KEY_BYTES = 32


class Prf:
    """A keyed PRF ``F_k : bytes -> Z`` built from HMAC-SHA-256.

    Outputs longer than 256 bits are produced in counter mode so that
    :meth:`to_range` can map uniformly into the large Paillier group
    ``Z_N`` that EHL+ hashes into.
    """

    def __init__(self, key: bytes):
        if len(key) == 0:
            raise ValueError("PRF key must be non-empty")
        self.key = key
        self._keyed = None

    def __getstate__(self):
        # The keyed HMAC context is a per-process cache (and does not
        # pickle); it is rebuilt lazily from ``key``.
        state = self.__dict__.copy()
        state["_keyed"] = None
        return state

    def digest(self, message: bytes, out_bytes: int = 32) -> bytes:
        """Return ``out_bytes`` of PRF output for ``message``."""
        keyed = self._keyed
        if keyed is None:
            # Keyed once per PRF; every block starts from a copy, which
            # skips HMAC's two key-block compressions.
            keyed = self._keyed = hmac.new(self.key, digestmod=hashlib.sha256)
        blocks = []
        for counter in range(-(-out_bytes // keyed.digest_size)):
            block = keyed.copy()
            block.update(counter.to_bytes(4, "big") + message)
            blocks.append(block.digest())
        return b"".join(blocks)[:out_bytes]

    def to_int(self, message: bytes, bits: int = 256) -> int:
        """Return the PRF output as an integer in ``[0, 2**bits)``."""
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.digest(message, nbytes), "big")
        excess = nbytes * 8 - bits
        return value >> excess

    def to_range(self, message: bytes, modulus: int) -> int:
        """Return the PRF output reduced into ``[0, modulus)``.

        We draw 128 extra bits before reducing, which keeps the modular
        bias below ``2**-128`` — statistically indistinguishable from
        uniform for any modulus used here.
        """
        bits = modulus.bit_length() + 128
        return self.to_int(message, bits) % modulus

    def to_bit_position(self, message: bytes, table_size: int) -> int:
        """Hash to a position in a length-``table_size`` bit table (EHL)."""
        return self.to_range(message, table_size)


def derive_keys(master: bytes, count: int, label: str = "ehl") -> list[Prf]:
    """Derive ``count`` independent PRFs from a master key.

    Mirrors the paper's "generate ``s`` secure keys ``k_1 ... k_s``": each
    subkey is ``HMAC(master, label || i)``.
    """
    prfs = []
    for i in range(count):
        subkey = hmac.new(
            master, f"{label}:{i}".encode("utf-8"), hashlib.sha256
        ).digest()
        prfs.append(Prf(subkey))
    return prfs


def random_key(rng: SecureRandom | None = None) -> bytes:
    """Return a fresh ``KEY_BYTES``-byte PRF key."""
    rng = rng or SecureRandom()
    return rng.randbytes(KEY_BYTES)


def encode_object_id(object_id: int | str | bytes) -> bytes:
    """Canonical byte encoding of an object identifier for PRF input.

    Integers, strings and raw bytes are all accepted so that callers can
    use whatever primary-key representation their relation has; the
    encodings are prefix-tagged to remain injective across types.
    """
    if isinstance(object_id, bytes):
        return b"b:" + object_id
    if isinstance(object_id, str):
        return b"s:" + object_id.encode("utf-8")
    if isinstance(object_id, int):
        sign = b"-" if object_id < 0 else b"+"
        magnitude = abs(object_id)
        return b"i:" + sign + magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
    raise TypeError(f"unsupported object id type: {type(object_id).__name__}")
