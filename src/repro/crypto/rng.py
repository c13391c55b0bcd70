"""Randomness plumbing.

Every component that consumes randomness takes a :class:`SecureRandom`
instance so that

* production use draws from the operating system CSPRNG, while
* tests and benchmarks can inject a deterministic, seeded stream and get
  bit-for-bit reproducible runs.

The deterministic mode is implemented as SHA-256 in counter mode, which is
more than adequate for reproducibility purposes (it is *not* claimed to be
a certified DRBG).
"""

from __future__ import annotations

import hashlib
import secrets


class SecureRandom:
    """Uniform random integers, optionally deterministic.

    Parameters
    ----------
    seed:
        ``None`` (default) draws from :mod:`secrets`.  Any ``int`` or
        ``bytes`` value switches the instance to a deterministic SHA-256
        counter-mode stream seeded by that value.
    """

    #: Counter-mode blocks generated per refill.  Reading ahead does not
    #: change the stream (block ``i`` is a function of the key and ``i``
    #: alone); it only amortizes the refill over many small reads.
    _REFILL_BLOCKS = 32

    def __init__(self, seed: int | bytes | None = None):
        self._buf = b""
        self._pos = 0
        self._counter = 0
        if seed is None:
            self._key = None
        else:
            if isinstance(seed, int):
                sign = b"-" if seed < 0 else b"+"
                magnitude = abs(seed)
                seed = sign + magnitude.to_bytes(
                    (magnitude.bit_length() + 7) // 8 or 1, "big"
                )
            self._key = hashlib.sha256(b"repro-rng:" + seed).digest()

    @property
    def deterministic(self) -> bool:
        """Whether this instance replays a seeded stream."""
        return self._key is not None

    def _refill(self, need: int) -> None:
        """Drop the consumed prefix and buffer at least ``need`` bytes."""
        sha256, key = hashlib.sha256, self._key
        digest_size = 32
        missing = need - (len(self._buf) - self._pos)
        blocks = max(self._REFILL_BLOCKS, -(-missing // digest_size))
        start = self._counter
        self._counter = start + blocks
        self._buf = self._buf[self._pos :] + b"".join(
            sha256(key + counter.to_bytes(8, "big")).digest()
            for counter in range(start, start + blocks)
        )
        self._pos = 0

    def randbytes(self, n: int) -> bytes:
        """Return ``n`` uniform random bytes."""
        if self._key is None:
            return secrets.token_bytes(n)
        pos = self._pos
        end = pos + n
        if end > len(self._buf):
            self._refill(n)
            pos, end = 0, n
        self._pos = end
        return self._buf[pos:end]

    def randbits(self, k: int) -> int:
        """Return a uniform integer in ``[0, 2**k)``."""
        if k <= 0:
            return 0
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.randbytes(nbytes), "big")
        return value >> (nbytes * 8 - k)

    def randint_below(self, upper: int) -> int:
        """Return a uniform integer in ``[0, upper)`` (rejection sampling)."""
        if upper <= 0:
            raise ValueError("upper bound must be positive")
        k = upper.bit_length()
        while True:
            value = self.randbits(k)
            if value < upper:
                return value

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range ``[low, high]``."""
        if high < low:
            raise ValueError("empty range")
        return low + self.randint_below(high - low + 1)

    def rand_unit(self, modulus: int) -> int:
        """Return a uniform element of the multiplicative group ``Z_n^*``.

        For an RSA-style modulus the probability of hitting a non-unit is
        negligible, but we check anyway so small test moduli stay correct.
        """
        import math

        while True:
            candidate = self.randint(1, modulus - 1)
            if math.gcd(candidate, modulus) == 1:
                return candidate

    def rand_nonzero(self, modulus: int) -> int:
        """Return a uniform element of ``Z_n \\ {0}``."""
        return self.randint(1, modulus - 1)

    def rand_nonzero_batch(self, modulus: int, count: int) -> list[int]:
        """``count`` uniform elements of ``Z_n \\ {0}``: the stream a loop
        of :meth:`rand_nonzero` calls reads, byte for byte, rejections
        included.

        Each attempt is one ``randbits(k)`` read, ``k`` the bit length
        of ``n − 1``; a chunk holds exactly as many attempts as values are
        still missing, so no chunk reads past the attempt the loop would
        stop at.
        """
        upper = modulus - 1
        if upper < 1:
            raise ValueError("empty range")
        k = upper.bit_length()
        width = (k + 7) // 8
        shift = width * 8 - k
        from_bytes = int.from_bytes
        out: list[int] = []
        while len(out) < count:
            chunk = self.randbytes(width * (count - len(out)))
            for offset in range(0, len(chunk), width):
                value = from_bytes(chunk[offset : offset + width], "big") >> shift
                if value < upper:
                    out.append(value + 1)
        return out

    def shuffle(self, items: list) -> None:
        """Fisher–Yates shuffle of ``items`` in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        """Return a uniform random permutation of ``range(n)`` as a list."""
        perm = list(range(n))
        self.shuffle(perm)
        return perm

    def choice(self, items: list):
        """Return a uniform random element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint_below(len(items))]

    def spawn(self, label: str) -> "SecureRandom":
        """Derive an independent child stream (deterministic mode only).

        In non-deterministic mode the child simply draws from the OS CSPRNG
        as well, so ``spawn`` is always safe to call.
        """
        if self._key is None:
            return SecureRandom()
        return SecureRandom(self._key + label.encode("utf-8"))

    @property
    def stream_key(self) -> bytes:
        """The stream's own 32-byte key (``b""`` for OS entropy): the
        whole state of a stream nothing has read yet, which
        :meth:`from_stream_key` rebuilds."""
        if self._counter:
            raise ValueError("a stream that has been read is more than its key")
        return self._key or b""

    @classmethod
    def from_stream_key(cls, key: bytes) -> "SecureRandom":
        """The unread stream whose :attr:`stream_key` is ``key``."""
        rng = cls()
        rng._key = key or None
        return rng


def system_random() -> SecureRandom:
    """Return a fresh OS-backed :class:`SecureRandom`."""
    return SecureRandom()
