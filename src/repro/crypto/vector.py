"""``CtVector`` — a list of ciphertexts under one key, packed.

Every ciphertext list that crosses the S1 <-> S2 link is one vector: its
key (a :class:`~repro.crypto.paillier.PaillierPublicKey`, or a
:class:`~repro.crypto.damgard_jurik.DamgardJurik` instance for ``E2``
values), its count and one buffer of ``words_for(modulus)`` little-endian
64-bit words per value — the limb format :func:`repro.crypto.backend.run`
reads as a ``limbs`` register and writes with ``Program.output(reg,
packed=True)``.  The in-memory layout is the wire layout
(:mod:`repro.net.wire` writes the buffer as it is), so a round's
ciphertexts go from S1's programs through the codec into S2's kernel
calls, and back, without a ciphertext object per value.
:class:`~repro.crypto.paillier.Ciphertext` stays the form of one value.
"""

from __future__ import annotations

from repro.crypto import backend
from repro.crypto.damgard_jurik import DamgardJurik, LayeredCiphertext
from repro.crypto.paillier import Ciphertext
from repro.exceptions import KeyMismatchError, ProtocolError

_KEY_OF = {Ciphertext: "public_key", LayeredCiphertext: "scheme"}


def modulus_of(key) -> int:
    """The ciphertext modulus of ``key``: ``N^2``, or ``N^{s+1}`` for a
    Damgård–Jurik instance."""
    return key.n_s1 if type(key) is DamgardJurik else key.n_squared


def _randomize_program() -> backend.Program:
    """``factor_i · r_i`` as a packed buffer, ``r_i`` the pool draw of
    read ``i``.  Inputs: the modulus, the pool, its reads, the factors."""
    p = backend.Program()
    mod, pool, reads = p.input(backend.MOD), p.input(backend.POOL), p.input(backend.BYTES)
    p.output(p.op("pool", mod, pool, reads, p.input(backend.LIMBS)), packed=True)
    return p


RANDOMIZE = _randomize_program()


class CtVector:
    """``count`` ciphertexts under :attr:`key`, packed in :attr:`buffer`
    at :attr:`stride` bytes each.  Never modified in place."""

    __slots__ = ("key", "count", "buffer")

    def __init__(self, key, count: int, buffer: bytes):
        self.key = key
        self.count = count
        self.buffer = buffer

    @classmethod
    def of(cls, key, values: list[int]) -> "CtVector":
        """``values`` (residues of ``key``'s modulus) packed under ``key``."""
        return cls(key, len(values), backend.pack_ints(values, backend.words_for(modulus_of(key))))

    @classmethod
    def pack(cls, cts: list) -> "CtVector":
        """Ciphertext objects of one kind under one key (at least one),
        packed; :class:`ProtocolError` for anything else."""
        attr = _KEY_OF.get(type(cts[0]) if cts else None)
        if attr is None:
            raise ProtocolError("a ciphertext vector packs ciphertexts")
        kind, key = type(cts[0]), getattr(cts[0], attr)
        if any(type(c) is not kind or getattr(c, attr) != key for c in cts):
            raise ProtocolError("a ciphertext vector holds one kind of ciphertext under one key")
        return cls.of(key, [c.value for c in cts])

    @classmethod
    def randomized(cls, key, factors, rng, count: int | None = None) -> "CtVector":
        """``factor · r`` per factor (a list, or a packed buffer of
        ``count``), ``r`` a fresh randomizer of ``key``'s pool: one run of
        :data:`RANDOMIZE`, reading ``rng`` as the key's ``randomizers``
        does."""
        pool = key.randomizer_pool()
        count = len(factors) if count is None else count
        reads = rng.randbytes(pool.read_bytes * count)
        return cls(key, count, backend.run(RANDOMIZE, [pool.mod, pool, reads, factors])[0])

    @classmethod
    def encrypt(cls, key, plaintexts: list[int], rng) -> "CtVector":
        """``Enc(m)`` per plaintext under ``key`` (``E2(m)`` under a
        scheme), packed: the one batch encryption of the package."""
        if type(key) is DamgardJurik:
            return cls.randomized(key, [key._g_pow(m) for m in plaintexts], rng)
        n = key.n
        return cls.randomized(key, [1 + m % n * n for m in plaintexts], rng)

    @classmethod
    def concat(cls, vectors: list["CtVector"]) -> "CtVector":
        """The values of ``vectors`` (at least one, under one key), in order."""
        if len(vectors) == 1:
            return vectors[0]
        return cls(vectors[0].key, sum(v.count for v in vectors), b"".join([v.buffer for v in vectors]))

    @property
    def stride(self) -> int:
        """Bytes one value takes."""
        return backend.words_for(modulus_of(self.key)) * backend.WORD_BYTES

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        """A slice is a vector; an index, that value as a ciphertext object."""
        if isinstance(index, slice):
            return self.select(range(self.count)[index])
        return self.select([range(self.count)[index]]).ciphertexts()[0]

    def __iter__(self):
        return iter(self.ciphertexts())

    def values(self) -> list[int]:
        """The values as ints."""
        return backend.unpack_ints(self.buffer, self.stride // backend.WORD_BYTES, self.count)

    def ciphertexts(self) -> list:
        """The values as ciphertext objects of the key's kind, for S1 code
        that works on single values."""
        wrap = LayeredCiphertext if type(self.key) is DamgardJurik else Ciphertext
        return [wrap(value, self.key) for value in self.values()]

    def select(self, indices) -> "CtVector":
        """The values at ``indices``, in that order."""
        stride, buffer = self.stride, self.buffer
        chunks = [buffer[i * stride : (i + 1) * stride] for i in indices]
        return CtVector(self.key, len(chunks), b"".join(chunks))

    def checked(self, key) -> "CtVector":
        """This vector when it is one under ``key`` (one key check per
        vector); :class:`KeyMismatchError` otherwise."""
        if self.key is not key and self.key != key:
            raise KeyMismatchError("ciphertext was produced under a different key")
        return self

    def serialized_size(self) -> int:
        """Byte size on the wire: ``count`` ciphertexts of the key."""
        return self.count * self.key.ciphertext_bytes

    def __repr__(self) -> str:
        return f"CtVector({type(self.key).__name__}, {self.count} values)"


def vector_of(value, key) -> CtVector:
    """``value`` when it is a vector under ``key`` — how S2 takes a
    message field; :class:`ProtocolError` when it is no vector."""
    if type(value) is not CtVector:
        raise ProtocolError(f"expected a ciphertext vector, got {type(value).__name__}")
    return value.checked(key)
