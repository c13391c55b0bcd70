"""The Paillier cryptosystem (Paillier, EUROCRYPT 1999).

This is the additively homomorphic encryption scheme the paper encrypts
every score with (Section 3.3).  We use the standard ``g = N + 1`` variant:

* ``Enc(m; r) = (1 + m*N) * r^N  mod N^2``
* ``Dec(c)    = L(c^λ mod N^2) * μ  mod N``   with ``L(u) = (u-1)/N``

Homomorphic properties used throughout the construction:

* addition:        ``Enc(x) * Enc(y) = Enc(x + y)``
* scalar multiply: ``Enc(x)^a        = Enc(a * x)``
* negation:        ``Enc(x)^(N-1)    = Enc(-x)``

Decryption uses the CRT split over ``p^2`` and ``q^2`` for a ~3x speedup,
which matters because the two-cloud protocols decrypt constantly.  All
modular arithmetic routes through :mod:`repro.crypto.backend`, so the
same code runs on the pure-Python big-int implementation or on the
compiled GMP kernel; every decryption is one
:func:`~repro.crypto.backend.paillier_decrypt` call per batch, on the
key's :class:`~repro.crypto.backend.PaillierCrt` constants, and the
batch methods (:meth:`PaillierPublicKey.encrypt_batch`,
:meth:`PaillierSecretKey.decrypt_batch`) amortize backend setup over
whole vectors — the shape every protocol round actually has.

Ciphertexts are wrapped in :class:`Ciphertext` objects carrying a reference
to their public key so that accidental cross-key operations raise
:class:`~repro.exceptions.KeyMismatchError` instead of silently producing
garbage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.crypto import backend
from repro.crypto.primes import lcm, random_prime_pair
from repro.crypto.rng import SecureRandom
from repro.exceptions import KeyMismatchError


def fresh_pool(
    n: int, exponent: int, modulus: int, size: int, picks: int
) -> backend.RandomizerPool:
    """A randomizer pool: ``r^exponent mod modulus`` for ``size`` random
    units ``r`` of ``Z_n``, to be combined ``picks`` at a time."""
    pool_rng = SecureRandom()  # pool values need not be replayable
    return backend.RandomizerPool(
        backend.powmod_vec(
            [pool_rng.rand_unit(n) for _ in range(size)], exponent, modulus
        ),
        modulus,
        picks,
    )


def key_pool(key, exponent: int, modulus: int) -> backend.RandomizerPool:
    """``key``'s randomizer pool, built on its first draw.  Lock-free on
    purpose: threads that reach the first draw together (a key decoded
    from the wire is one object for every session of the process) may
    each build one — every build is a valid pool and the key keeps the
    last; a lock held across the build would be one a forked worker can
    inherit locked."""
    pool = key._pool
    if pool is None:
        pool = key._pool = fresh_pool(
            key.n, exponent, modulus, key._POOL_SIZE, key._POOL_PICKS
        )
    return pool


def pool_randomizers(
    pool: backend.RandomizerPool, rng: SecureRandom, count: int
) -> list[int]:
    """``count`` randomizers, each the product of ``pool.picks`` elements
    of ``pool`` modulo ``pool.mod``.

    Every randomizer owns one ``randbits(picks * index_bits)`` read of the
    stream — its pool indices are that read's ``index_bits``-bit digits —
    and the whole batch is fetched with one ``randbytes`` call, so a batch
    consumes exactly the bytes ``count`` single draws would.
    """
    return backend.pool_products(pool, rng.randbytes(pool.read_bytes * count))


class PaillierPublicKey:
    """Paillier public key ``(N, g = N + 1)`` and encryption operations."""

    #: Randomizer-pool shape: ``_POOL_SIZE`` precomputed values ``r_i^N``
    #: are combined ``_POOL_PICKS`` at a time per encryption.  This is the
    #: classic Paillier randomizer-caching optimization: a product of
    #: random pool elements is itself a valid randomizer, and modular
    #: multiplications are orders of magnitude cheaper than a fresh
    #: ``r^N mod N^2`` exponentiation.
    _POOL_SIZE = 64
    _POOL_PICKS = 6

    def __init__(self, n: int):
        self.n = n
        self.n_squared = n * n
        self.bits = n.bit_length()
        self._pool: backend.RandomizerPool | None = None
        self._rng: SecureRandom | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, PaillierPublicKey) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("paillier-pk", self.n))

    def __repr__(self) -> str:
        return f"PaillierPublicKey(bits={self.bits})"

    # -- pickling --------------------------------------------------------

    def __getstate__(self):
        # The randomizer pool and the hoisted default rng are per-process
        # caches: exclude them so keys ship cheaply to worker processes
        # (each rebuilds lazily from its own entropy).  Default dict-state
        # unpickling restores everything else.
        state = self.__dict__.copy()
        state["_pool"] = None
        state["_rng"] = None
        return state

    # -- encryption ------------------------------------------------------

    def _fresh_rng(self) -> SecureRandom:
        """The key's hoisted default randomness source.

        Callers that need replayable streams pass their own ``rng``; the
        default paths share one OS-backed instance per key instead of
        allocating a fresh ``SecureRandom`` per call.
        """
        rng = self._rng
        if rng is None:
            rng = self._rng = SecureRandom()
        return rng

    def randomizer_pool(self) -> backend.RandomizerPool:
        """The key's pool of ``r^N mod N^2`` values, for batch operations
        that draw their randomizers inside one backend call (each draw is
        one ``pool.read_bytes``-byte read, as in :meth:`randomizers`)."""
        return key_pool(self, self.n, self.n_squared)

    def randomizers(self, rng: SecureRandom, count: int) -> list[int]:
        """``count`` fresh randomizers ``r^N mod N^2`` from the cached pool."""
        return pool_randomizers(self.randomizer_pool(), rng, count)

    def encrypt(self, m: int, rng: SecureRandom | None = None) -> "Ciphertext":
        """Encrypt ``m`` (reduced mod ``N``) into a :class:`Ciphertext`."""
        return self.encrypt_batch([m], rng)[0]

    def encrypt_signed(self, m: int, rng: SecureRandom | None = None) -> "Ciphertext":
        """Encrypt a signed integer (negatives become ``N - |m|``)."""
        return self.encrypt(m % self.n, rng)

    def encrypt_batch(
        self, values: list[int], rng: SecureRandom | None = None
    ) -> list["Ciphertext"]:
        """Encrypt a vector component-wise (same stream order as a loop
        of :meth:`encrypt` calls)."""
        rng = rng or self._fresh_rng()
        n, n2 = self.n, self.n_squared
        return [
            Ciphertext((1 + m % n * n) * r % n2, self)
            for m, r in zip(values, self.randomizers(rng, len(values)))
        ]

    def rerandomize(self, c: "Ciphertext", rng: SecureRandom | None = None) -> "Ciphertext":
        """Return a fresh encryption of the same plaintext."""
        return self.rerandomize_batch([c], rng)[0]

    def rerandomize_batch(
        self, cts: list["Ciphertext"], rng: SecureRandom | None = None
    ) -> list["Ciphertext"]:
        """Fresh encryptions of the same plaintexts (same stream order as
        a loop of :meth:`rerandomize` calls)."""
        rng = rng or self._fresh_rng()
        n2 = self.n_squared
        return [
            Ciphertext(c.value * r % n2, self)
            for c, r in zip(cts, self.randomizers(rng, len(cts)))
        ]

    @functools.cached_property
    def ciphertext_bytes(self) -> int:
        """Serialized size of one ciphertext (used for bandwidth accounting).

        Computed on first use and kept in the instance dict from then on
        (pickles carry it; a key pickled before it existed recomputes it).
        """
        return (self.n_squared.bit_length() + 7) // 8


class PaillierSecretKey:
    """Paillier secret key with CRT-accelerated decryption."""

    def __init__(self, p: int, q: int, public_key: PaillierPublicKey):
        if p * q != public_key.n:
            raise KeyMismatchError("secret primes do not match public modulus")
        self.p = p
        self.q = q
        self.public_key = public_key
        self.lam = lcm(p - 1, q - 1)
        # mu = (L(g^lam mod N^2))^-1 mod N; with g = N+1, g^lam = 1 + lam*N,
        # so L(g^lam) = lam and mu = lam^-1 mod N.
        self.mu = backend.invert(self.lam, public_key.n)
        self._caches()

    def _caches(self) -> None:
        #: The CRT decryption constants every decryption runs on.
        self.crt = backend.PaillierCrt(self.p, self.q)
        #: Damgård–Jurik decryption constants per expansion degree ``s``
        #: (filled lazily by ``DamgardJurik._crt_constants``).  Lives here
        #: — not on the DJ instance — because the constants derive from
        #: the secret primes and DJ objects are shared with S1.
        self.dj_crt_cache: dict[int, tuple] = {}

    def __getstate__(self):
        # The decryption constants are per-process caches: never shipped,
        # and dropped from any pickle that carries them (a spill written
        # by an older build holds other layouts).
        state = self.__dict__.copy()
        del state["crt"], state["dj_crt_cache"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._caches()

    def raw_decrypt(self, c: int) -> int:
        """Decrypt a bare integer ciphertext to an element of ``Z_N``."""
        return self.raw_decrypt_batch([c])[0]

    def raw_decrypt_batch(self, values: list[int]) -> list[int]:
        """Decrypt many bare ciphertexts in one backend call."""
        return backend.paillier_decrypt(self.crt, values)

    def decrypt(self, c: "Ciphertext") -> int:
        """Decrypt to the canonical representative in ``[0, N)``."""
        return self.decrypt_batch([c])[0]

    def _values_of(self, cts: list["Ciphertext"]) -> list[int]:
        for c in cts:
            if c.public_key != self.public_key:
                raise KeyMismatchError("ciphertext was produced under a different key")
        return [c.value for c in cts]

    def decrypt_batch(self, cts: list["Ciphertext"]) -> list[int]:
        """Batch variant of :meth:`decrypt` (one backend call per batch)."""
        return self.raw_decrypt_batch(self._values_of(cts))

    def decrypt_batch_below_p(self, cts: list["Ciphertext"]) -> list[int]:
        """``m mod p`` for every ciphertext: the ``q`` half of the CRT —
        half the exponentiations — is never computed.  That is the
        plaintext itself when the caller knows it is below the prime
        ``p`` (the ``pk'`` seeds), and all that S2's protocol reads need."""
        return backend.paillier_decrypt(self.crt, self._values_of(cts), below_p=True)

    def decrypt_signed(self, c: "Ciphertext") -> int:
        """Decrypt to a signed integer in ``(-N/2, N/2]``."""
        return to_signed(self.public_key.n, [self.decrypt(c)])[0]

    def decrypt_signed_batch(self, cts: list["Ciphertext"]) -> list[int]:
        """Batch variant of :meth:`decrypt_signed`."""
        return to_signed(self.public_key.n, self.decrypt_batch(cts))


@dataclass(frozen=True)
class PaillierKeypair:
    """A ``(public, secret)`` Paillier key pair."""

    public_key: PaillierPublicKey
    secret_key: PaillierSecretKey

    @classmethod
    def generate(cls, bits: int = 512, rng: SecureRandom | None = None) -> "PaillierKeypair":
        """Generate a key pair with an (approximately) ``bits``-bit modulus.

        ``bits`` is the size of ``N``; the paper's experiments use 256-bit
        ``N`` ("128-bit security for the Paillier and DJ encryption").
        """
        rng = rng or SecureRandom()
        p, q = random_prime_pair(bits // 2, rng)
        public = PaillierPublicKey(p * q)
        secret = PaillierSecretKey(p, q, public)
        return cls(public, secret)


class Ciphertext:
    """A Paillier ciphertext bound to its public key.

    Supports the homomorphic operator sugar used throughout the protocols:

    * ``a + b`` / ``a + int``   — homomorphic addition
    * ``a - b``                 — homomorphic subtraction
    * ``a * int``               — scalar multiplication
    * ``-a``                    — negation
    """

    __slots__ = ("value", "public_key")

    def __init__(self, value: int, public_key: PaillierPublicKey):
        self.value = value
        self.public_key = public_key

    def _check(self, other: "Ciphertext") -> None:
        if self.public_key != other.public_key:
            raise KeyMismatchError("cannot combine ciphertexts under different keys")

    def __add__(self, other):
        pk = self.public_key
        if isinstance(other, Ciphertext):
            self._check(other)
            return Ciphertext(self.value * other.value % pk.n_squared, pk)
        if isinstance(other, int):
            # Adding a plaintext constant: multiply by (1 + other*N).
            return Ciphertext(
                self.value * ((1 + (other % pk.n) * pk.n) % pk.n_squared) % pk.n_squared,
                pk,
            )
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        # Group inverse == encryption of -x; modular inversion is far
        # cheaper than the equivalent pow(value, N-1, N^2).
        pk = self.public_key
        return Ciphertext(backend.invert(self.value, pk.n_squared), pk)

    def __sub__(self, other):
        if isinstance(other, Ciphertext):
            self._check(other)
            return self + (-other)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        pk = self.public_key
        return Ciphertext(backend.powmod(self.value, scalar % pk.n, pk.n_squared), pk)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Ciphertext(0x{self.value:x})"

    def serialized_size(self) -> int:
        """Byte size on the wire (fixed-width encoding of ``Z_{N^2}``)."""
        return self.public_key.ciphertext_bytes

    def to_bytes(self) -> bytes:
        """Fixed-width big-endian serialization."""
        return self.value.to_bytes(self.public_key.ciphertext_bytes, "big")

    @classmethod
    def from_bytes(cls, data: bytes, public_key: PaillierPublicKey) -> "Ciphertext":
        """Inverse of :meth:`to_bytes`."""
        return cls(int.from_bytes(data, "big"), public_key)


def to_signed(n: int, values: list[int]) -> list[int]:
    """Map ``Z_N`` representatives to signed integers in ``(-N/2, N/2]``.

    The single signed-decode rule for every decrypt path (secret key,
    crypto cloud).
    """
    half = n // 2
    return [m - n if m > half else m for m in values]


def encrypt_vector(
    pk: PaillierPublicKey, values: list[int], rng: SecureRandom | None = None
) -> list[Ciphertext]:
    """Encrypt a list of integers component-wise."""
    return pk.encrypt_batch(values, rng)


def decrypt_vector(sk: PaillierSecretKey, cts: list[Ciphertext]) -> list[int]:
    """Decrypt a list of ciphertexts component-wise."""
    return sk.decrypt_batch(cts)
