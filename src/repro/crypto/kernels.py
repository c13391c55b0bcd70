"""Python face of the GIL-free GMP batch kernel.

Two things live here:

* **The limb format.**  :func:`words_for`, :func:`pack_ints` and
  :func:`unpack_ints` define the one fixed-width integer wire format the
  native tier uses everywhere: arrays of 64-bit words, least-significant
  word first, little-endian bytes within each word — what the kernel's
  C side reads and writes (``mpz_import``/``mpz_export`` with
  ``order=-1, endian=-1``).

* **:class:`GmpKernel`** — the loaded extension wrapped in the backend
  operation signatures (``powmod`` / ``powmod_vec`` / ``powmod_pairs`` /
  ``powmod_products`` / ``pool_products`` / ``invert`` / ``invert_vec``).
  A batch call packs the whole batch, makes *one* C call, and unpacks;
  cffi releases the GIL for the entire C loop, so concurrent queries'
  kernel stretches overlap.  ``powmod_products``, ``pool_products`` and
  ``invert_vec`` run on the kernel's Montgomery core (odd moduli; an even
  one takes the same call's ``mpz`` path).  Results are bit-identical to
  the pure and gmpy2 backends (``tests/test_backend.py`` pins this).
  The C loops index raw buffers, so every buffer size is checked here,
  before the call.

Use :func:`load_kernel` / :func:`kernel_available`; both are no-raise —
a machine without cffi, a compiler or the GMP headers simply reports the
kernel absent and every caller falls back.
"""

from __future__ import annotations

from repro.crypto import _gmp_kernel

# ----------------------------------------------------------------------
# The limb format.
# ----------------------------------------------------------------------

#: Bytes per limb word (the kernel is specified in 64-bit words).
WORD_BYTES = 8


def words_for(value: int) -> int:
    """How many 64-bit words a non-negative integer needs (minimum 1)."""
    return max(1, (value.bit_length() + 63) // 64)


def pack_ints(values: list[int], words: int) -> bytearray:
    """Pack non-negative integers into fixed-width little-endian words:
    a new ``len(values) * words * 8``-byte buffer.  Every value must fit
    ``words`` words; ``int.to_bytes`` raises ``OverflowError`` otherwise
    (a value too wide fails loudly, it is never truncated).
    """
    stride = words * WORD_BYTES
    return bytearray(b"".join(value.to_bytes(stride, "little") for value in values))


def unpack_ints(buf, words: int, count: int) -> list[int]:
    """Inverse of :func:`pack_ints`: read ``count`` integers."""
    stride = words * WORD_BYTES
    # One contiguous copy, then slice plain bytes: bytes slices convert
    # faster than per-item memoryview slices.
    data = bytes(memoryview(buf)[: count * stride])
    from_bytes = int.from_bytes
    return [
        from_bytes(data[i * stride : (i + 1) * stride], "little") for i in range(count)
    ]


# ----------------------------------------------------------------------
# The kernel wrapper.
# ----------------------------------------------------------------------


class GmpKernel:
    """Batch modular arithmetic through the compiled GMP extension."""

    def __init__(self, ffi, lib):
        self._ffi = ffi
        self._lib = lib
        # The last modulus packed, as one (mod, words, packed) tuple so
        # concurrent threads read a consistent triple: a query works
        # under a handful of moduli and calls each in long runs.
        self._last_mod = (None, 0, b"")

    def _packed_mod(self, mod: int) -> tuple[int, bytes]:
        """``mod``'s word count and its limb-format packing."""
        cached, words, packed = self._last_mod
        if cached != mod:
            words = words_for(mod)
            packed = bytes(pack_ints([mod], words))
            self._last_mod = (mod, words, packed)
        return words, packed

    def _powm(self, entry, bases: list[int], exps: list[int], mod: int) -> list[int]:
        """Marshal one batch through ``entry`` — ``repro_powmod_vec``
        (``exps`` holds the one shared exponent) or ``repro_powmod_pairs``
        (one exponent per base, packed to the widest)."""
        mod_words, packed_mod = self._packed_mod(mod)
        exp_words = words_for(max(exps))
        # Reduce up front: callers pass canonical residues already, and
        # the fixed-width packing requires values < mod anyway.
        in_buf = pack_ints([b % mod for b in bases], mod_words)
        out_buf = bytearray(len(bases) * mod_words * WORD_BYTES)
        from_buffer = self._ffi.from_buffer
        rc = entry(
            from_buffer("uint64_t[]", in_buf),
            len(bases),
            mod_words,
            from_buffer("uint64_t[]", pack_ints(exps, exp_words)),
            exp_words,
            from_buffer("uint64_t[]", packed_mod),
            mod_words,
            from_buffer("uint64_t[]", out_buf),
        )
        if rc != 0:  # pragma: no cover - zero modulus rejected by callers
            raise ValueError("kernel batch exponentiation failed")
        return unpack_ints(out_buf, mod_words, len(bases))

    def powmod_vec(self, bases: list[int], exp: int, mod: int) -> list[int]:
        """``[b ** exp mod mod for b in bases]`` in one GIL-free C call."""
        if mod == 0:
            raise ValueError("pow() 3rd argument cannot be 0")
        if exp < 0:
            # The C kernel has no modular-inverse power path; this never
            # occurs on a hot path (inversions go through invert()).
            return [pow(b, exp, mod) for b in bases]
        if not bases:
            return []
        return self._powm(self._lib.repro_powmod_vec, bases, [exp], mod)

    def powmod_pairs(self, bases: list[int], exps: list[int], mod: int) -> list[int]:
        """``[b ** e mod mod for b, e in zip(bases, exps)]`` in one
        GIL-free C call."""
        if mod == 0:
            raise ValueError("pow() 3rd argument cannot be 0")
        if len(bases) != len(exps):
            raise ValueError("powmod_pairs needs one exponent per base")
        if not bases:
            return []
        if min(exps) < 0:
            return [pow(b, e, mod) for b, e in zip(bases, exps)]
        return self._powm(self._lib.repro_powmod_pairs, bases, exps, mod)

    def powmod(self, base: int, exp: int, mod: int) -> int:
        """Scalar sugar over :meth:`powmod_vec`."""
        return self.powmod_vec([base], exp, mod)[0]

    def powmod_products(
        self,
        accs: list[int],
        bases: list[int],
        exps: list[int],
        counts: list[int],
        mod: int,
    ) -> list[int]:
        """``accs[g] · Π b ** e mod mod`` per group ``g`` of ``counts[g]``
        consecutive ``(base, exponent)`` pairs, in one GIL-free C call (a
        multi-exponentiation per group, see ``repro_powmod_products``).
        Exponents must be non-negative."""
        if mod == 0:
            raise ValueError("pow() 3rd argument cannot be 0")
        if (
            len(accs) != len(counts)
            or len(bases) != len(exps)
            or sum(counts) != len(bases)
            or min(counts, default=0) < 0
        ):
            raise ValueError(
                "powmod_products needs one acc per count and counts that "
                "sum to one exponent per base"
            )
        if not accs:
            return []
        mod_words, packed_mod = self._packed_mod(mod)
        exp_words = words_for(max(exps, default=0))
        out_buf = bytearray(len(accs) * mod_words * WORD_BYTES)
        from_buffer = self._ffi.from_buffer
        rc = self._lib.repro_powmod_products(
            from_buffer("uint64_t[]", pack_ints([a % mod for a in accs], mod_words)),
            from_buffer("uint64_t[]", pack_ints(counts, 1)),
            len(accs),
            from_buffer("uint64_t[]", pack_ints([b % mod for b in bases], mod_words)),
            from_buffer("uint64_t[]", pack_ints(exps, exp_words)),
            len(bases),
            exp_words,
            from_buffer("uint64_t[]", packed_mod),
            mod_words,
            from_buffer("uint64_t[]", out_buf),
        )
        if rc != 0:  # pragma: no cover - shapes are checked above
            raise ValueError("kernel multi-exponentiation failed")
        return unpack_ints(out_buf, mod_words, len(accs))

    @staticmethod
    def pack_pool(values: list[int], mod: int) -> bytes:
        """``values`` in the limb format at ``mod``'s width — the
        ``packed_pool`` of :meth:`pool_products`, built once per pool.
        For an odd ``mod`` (every key's) each value is packed in
        Montgomery form, ``v · 2 ** (64 · words) mod mod``, which is what
        the kernel's pool loop multiplies."""
        words = words_for(mod)
        if mod & 1:
            shift = 64 * words
            values = [(v << shift) % mod for v in values]
        return bytes(pack_ints(values, words))

    def pool_products(
        self, packed_pool: bytes, index_bits: int, picks: int, reads: bytes, mod: int
    ) -> list[int]:
        """One product of ``picks`` pool elements per read of ``reads``,
        in one GIL-free C call (see ``repro_pool_products``).

        ``packed_pool`` is the pool's ``2 ** index_bits`` elements in the
        limb format at ``mod``'s width; ``reads`` holds one
        ``ceil(picks * index_bits / 8)``-byte read per product.  The C
        loop indexes both buffers raw, so their sizes are checked here.
        """
        mod_words, packed_mod = self._packed_mod(mod)
        read_bytes = (picks * index_bits + 7) // 8
        if picks < 1 or not 1 <= read_bytes <= WORD_BYTES:
            raise ValueError("a pool draw reads 1..64 index bits per product")
        if len(packed_pool) != (mod_words * WORD_BYTES) << index_bits:
            raise ValueError("packed pool does not hold 2**index_bits elements")
        count, ragged = divmod(len(reads), read_bytes)
        if ragged:
            raise ValueError("reads is not a whole number of draws")
        out_buf = bytearray(count * mod_words * WORD_BYTES)
        from_buffer = self._ffi.from_buffer
        rc = self._lib.repro_pool_products(
            from_buffer("uint64_t[]", packed_pool),
            index_bits,
            from_buffer("uint8_t[]", reads),
            count,
            picks,
            from_buffer("uint64_t[]", packed_mod),
            mod_words,
            from_buffer("uint64_t[]", out_buf),
        )
        if rc != 0:
            raise ValueError("kernel pool products failed")
        return unpack_ints(out_buf, mod_words, count)

    def invert(self, a: int, mod: int) -> int:
        """Modular inverse; raises ``ValueError`` when none exists
        (the same error contract as the pure and gmpy2 backends)."""
        if mod == 0:
            raise ValueError("modulus cannot be 0")
        mod_words, packed_mod = self._packed_mod(mod)
        out_buf = bytearray(mod_words * WORD_BYTES)
        ffi = self._ffi
        rc = self._lib.repro_invert(
            ffi.from_buffer("uint64_t[]", pack_ints([a % mod], mod_words)),
            mod_words,
            ffi.from_buffer("uint64_t[]", packed_mod),
            mod_words,
            ffi.from_buffer("uint64_t[]", out_buf),
        )
        if rc != 1:
            raise ValueError("base is not invertible for the given modulus")
        return unpack_ints(out_buf, mod_words, 1)[0]

    def invert_vec(self, values: list[int], mod: int) -> list[int]:
        """Every inverse of a batch in one C call (Montgomery's trick:
        one ``mpz_invert`` for the batch); raises ``ValueError`` when any
        element has none."""
        if mod == 0:
            raise ValueError("modulus cannot be 0")
        if not values:
            return []
        mod_words, packed_mod = self._packed_mod(mod)
        out_buf = bytearray(len(values) * mod_words * WORD_BYTES)
        from_buffer = self._ffi.from_buffer
        rc = self._lib.repro_invert_vec(
            from_buffer("uint64_t[]", pack_ints([v % mod for v in values], mod_words)),
            len(values),
            from_buffer("uint64_t[]", packed_mod),
            mod_words,
            from_buffer("uint64_t[]", out_buf),
        )
        if rc != 1:
            raise ValueError(
                "batch holds an element that is not invertible for the given modulus"
            )
        return unpack_ints(out_buf, mod_words, len(values))


_KERNEL: GmpKernel | None = None


def load_kernel() -> GmpKernel | None:
    """The process-wide :class:`GmpKernel`, or ``None`` when unavailable."""
    global _KERNEL
    if _KERNEL is None:
        loaded = _gmp_kernel.load()
        if loaded is None:
            return None
        _KERNEL = GmpKernel(*loaded)
    return _KERNEL


def kernel_available() -> bool:
    """Whether the compiled kernel can be used in this environment."""
    return load_kernel() is not None


def kernel_unavailable_reason() -> str | None:
    """Why the kernel failed to load (``None`` when it loaded)."""
    return _gmp_kernel.unavailable_reason()
