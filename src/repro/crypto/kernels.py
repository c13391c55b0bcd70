"""Python face of the GIL-free GMP batch kernel.

Two things live here:

* **The limb format.**  :func:`words_for`, :func:`pack_ints` and
  :func:`unpack_ints` define the one fixed-width integer wire format the
  native tier uses everywhere: arrays of 64-bit words, least-significant
  word first, little-endian bytes within each word — what the kernel's
  C side reads and writes (``mpz_import``/``mpz_export`` with
  ``order=-1, endian=-1``).

* **:class:`GmpKernel`** — the ``gmp-kernel`` compute backend itself:
  the loaded extension behind every backend operation (``powmod`` /
  ``powmod_vec`` / ``powmod_pairs`` / ``powmod_products`` /
  ``pool_products`` / ``invert`` / ``invert_vec`` / ``paillier_decrypt``
  / ``blind_round`` / ``ehl_minus``).  A batch call packs the whole
  batch, makes *one* C call, and unpacks; cffi releases the GIL for the
  entire C loop, so concurrent queries' kernel stretches overlap.
  ``powmod_products``, ``pool_products`` and ``invert_vec`` run on the
  kernel's Montgomery core (odd moduli; an even one takes the same call's
  ``mpz`` path).  Results are bit-identical to the pure backend
  (``tests/test_backend.py`` pins this).  The C loops index raw buffers,
  so every buffer size is checked here, before the call.

Use :func:`load_kernel`; it is no-raise — a machine without cffi, a
compiler or the GMP headers simply reports the kernel absent and every
caller falls back to the pure backend.
"""

from __future__ import annotations

from repro.crypto import _gmp_kernel, backend
from repro.exceptions import DecryptionError

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


class GmpKernel(backend.PurePythonBackend):
    """The ``gmp-kernel`` backend: batch modular arithmetic through the
    compiled GMP extension.

    It subclasses the pure backend only for ``gcd`` (:func:`math.gcd`,
    already C speed) and for ``powmod_products`` with a negative
    exponent, which no hot path has; every other operation is the
    kernel's own.
    """

    name = "gmp-kernel"

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
        """``base ** exp mod mod`` in one C call."""
        if mod == 0:
            raise ValueError("pow() 3rd argument cannot be 0")
        if exp < 0:
            return pow(base, exp, mod)
        return self._powm(self._lib.repro_powmod_vec, [base], [exp], mod)[0]

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
        A negative exponent takes the pure backend's loop."""
        if min(exps, default=0) < 0:
            return super().powmod_products(accs, bases, exps, counts, mod)
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
    def _packed_pool(pool) -> bytes:
        """A :class:`~repro.crypto.backend.RandomizerPool` in the limb
        format at its modulus's width, built on its first draw and kept
        on the pool (so on the key that owns it).  For an odd modulus
        (every key's) each value is packed in Montgomery form,
        ``v · 2 ** (64 · words) mod mod``, which is what the kernel's pool
        loop multiplies."""
        if pool.packed is None:
            mod = pool.mod
            words = words_for(mod)
            values = [(v << 64 * words) % mod for v in pool] if mod & 1 else pool
            pool.packed = bytes(pack_ints(values, words))
        return pool.packed

    def pool_products(self, pool, reads: bytes) -> list[int]:
        """One product of ``pool.picks`` pool elements per read of
        ``reads``, in one GIL-free C call (see ``repro_pool_products``).

        The C loop indexes the packed pool and the reads raw, so their
        sizes are checked here: ``pool.packed`` must hold
        ``2 ** pool.index_bits`` elements and ``reads`` a whole number of
        ``pool.read_bytes``-byte reads.
        """
        mod_words, packed_mod = self._packed_mod(pool.mod)
        index_bits, picks, read_bytes = pool.index_bits, pool.picks, pool.read_bytes
        if picks < 1 or not 1 <= read_bytes <= WORD_BYTES:
            raise ValueError("a pool draw reads 1..64 index bits per product")
        packed_pool = self._packed_pool(pool)
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

    def blind_round(
        self,
        values: list[int],
        counts: list[int],
        seeds: list[int],
        streams: bytes,
        width: int,
        n: int,
        sign: int,
        pool=None,
        reads: bytes = b"",
    ) -> list[int]:
        """:func:`~repro.crypto.backend.blind_round` in one GIL-free C
        call (see ``repro_blind_round``): the blinds are summed and
        reduced from the streams in C, and the pool draw rides the same
        call.  Every buffer size is checked here, before the call."""
        backend.check_blind_round(
            values, counts, seeds, streams, width, n, sign, pool, reads
        )
        if not values:
            return []
        ct_words, packed_mod = self._packed_mod(n * n)
        n_words = words_for(n)
        ffi = self._ffi
        from_buffer = ffi.from_buffer
        if pool is None:
            packed_pool, index_bits, picks, reads_ptr = ffi.NULL, 0, 0, ffi.NULL
        else:
            packed_pool = from_buffer("uint64_t[]", self._packed_pool(pool))
            index_bits, picks = pool.index_bits, pool.picks
            reads_ptr = from_buffer("uint8_t[]", reads)
        out_buf = bytearray(len(values) * ct_words * WORD_BYTES)
        rc = self._lib.repro_blind_round(
            from_buffer("uint64_t[]", pack_ints(values, ct_words)),
            len(values),
            ct_words,
            from_buffer(
                "uint64_t[]",
                pack_ints([v for pair in zip(counts, seeds) for v in pair], 1),
            ),
            len(counts),
            # never an empty buffer: seeds may all be zero
            from_buffer("uint8_t[]", streams or b"\0"),
            width,
            from_buffer("uint64_t[]", pack_ints([n], n_words)),
            n_words,
            sign,
            packed_pool,
            index_bits,
            reads_ptr,
            picks,
            from_buffer("uint64_t[]", packed_mod),
            from_buffer("uint64_t[]", out_buf),
        )
        if rc == 1:
            raise ValueError(backend.OUTSIDE_MOD)
        if rc != 0:
            raise ValueError("kernel blinding round failed")
        return unpack_ints(out_buf, ct_words, len(values))

    def ehl_minus(
        self,
        pool,
        reads: bytes,
        numerators: list[int],
        inverses: list[int],
        exps: list[int],
        counts: list[int],
    ) -> list[int]:
        """:func:`~repro.crypto.backend.ehl_minus` in one GIL-free C call
        (see ``repro_ehl_minus``): the pool draws, the cell quotients and
        every pair's multi-exponentiation.  Every buffer size is checked
        here, before the call."""
        backend.check_ehl_minus(pool, reads, numerators, inverses, exps, counts)
        if not counts:
            return []
        mod_words, packed_mod = self._packed_mod(pool.mod)
        exp_words = words_for(max(exps, default=0))
        out_buf = bytearray(len(counts) * mod_words * WORD_BYTES)
        from_buffer = self._ffi.from_buffer
        rc = self._lib.repro_ehl_minus(
            from_buffer("uint64_t[]", self._packed_pool(pool)),
            pool.index_bits,
            from_buffer("uint8_t[]", reads),
            pool.picks,
            from_buffer("uint64_t[]", pack_ints(counts, 1)),
            len(counts),
            from_buffer("uint64_t[]", pack_ints(numerators, mod_words)),
            from_buffer("uint64_t[]", pack_ints(inverses, mod_words)),
            from_buffer("uint64_t[]", pack_ints(exps, exp_words)),
            len(exps),
            exp_words,
            from_buffer("uint64_t[]", packed_mod),
            mod_words,
            from_buffer("uint64_t[]", out_buf),
        )
        if rc == 1:
            raise ValueError(backend.OUTSIDE_MOD)
        if rc != 0:
            raise ValueError("kernel ⊖ batch failed")
        return unpack_ints(out_buf, mod_words, len(counts))

    def invert(self, a: int, mod: int) -> int:
        """Modular inverse; raises ``ValueError`` when none exists
        (the same error contract as the pure backend)."""
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

    @staticmethod
    def _packed_crt(crt) -> bytes:
        """A :class:`~repro.crypto.backend.PaillierCrt`'s constants in the
        limb format, each at ``N^2``'s width, in the order
        ``repro_paillier_decrypt`` reads them — built on the key's first
        decryption and kept on ``crt``."""
        if crt.packed is None:
            constants = [
                crt.n_squared, crt.n, crt.p, crt.q, crt.p_squared, crt.q_squared,
                crt.hp, crt.hq, crt.p_inv_q,
            ]
            crt.packed = bytes(pack_ints(constants, words_for(crt.n_squared)))
        return crt.packed

    def paillier_decrypt(self, crt, values: list[int], below_p: bool = False) -> list[int]:
        """The Paillier plaintexts of ``values`` under ``crt``'s key in one
        GIL-free C call (see ``repro_paillier_decrypt``); ``below_p``
        returns the mod-``p`` half alone.  A refused batch raises
        :class:`DecryptionError` with the pure backend's texts and returns
        nothing.  A ragged ``crt.packed`` is refused before the call, one
        packed for a wider modulus by the call, before it writes any
        output."""
        if not values:
            return []
        packed_crt = self._packed_crt(crt)
        ct_words, ragged = divmod(len(packed_crt), _CRT_CONSTANTS * WORD_BYTES)
        if ragged or not ct_words:
            raise ValueError("packed CRT constants are not nine limb-format values")
        out_words = words_for(crt.n)
        try:
            in_buf = pack_ints(values, ct_words)
        except OverflowError:  # negative, or wider than N^2
            raise DecryptionError(_REFUSALS[1]) from None
        out_buf = bytearray(len(values) * out_words * WORD_BYTES)
        from_buffer = self._ffi.from_buffer
        rc = self._lib.repro_paillier_decrypt(
            from_buffer("uint64_t[]", in_buf),
            len(values),
            ct_words,
            from_buffer("uint64_t[]", packed_crt),
            1 if below_p else 0,
            from_buffer("uint64_t[]", out_buf),
            out_words,
        )
        if rc in _REFUSALS:
            raise DecryptionError(_REFUSALS[rc])
        if rc != 0:
            raise ValueError("packed CRT constants do not match the modulus")
        return unpack_ints(out_buf, out_words, len(values))


#: Constants ``GmpKernel._packed_crt`` packs per key.
_CRT_CONSTANTS = 9
#: ``repro_paillier_decrypt``'s refusal codes and their texts.
_REFUSALS = {1: backend.OUTSIDE_ZN2, 2: backend.NOT_A_UNIT}


def load_kernel() -> GmpKernel | None:
    """A new :class:`GmpKernel` over the process's one loaded extension,
    or ``None`` when unavailable.  Each caller gets its own instance:
    tests and tracers set instance attributes on the backend they hold."""
    loaded = _gmp_kernel.load()
    return None if loaded is None else GmpKernel(*loaded)


def kernel_unavailable_reason() -> str | None:
    """Why the kernel failed to load (``None`` when it loaded)."""
    return _gmp_kernel.unavailable_reason()
