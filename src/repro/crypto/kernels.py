"""Python face of the GIL-free GMP kernel.

:class:`GmpKernel` is the ``gmp-kernel`` compute backend itself: every
backend operation is a :class:`~repro.crypto.backend.Program` run by the
extension's one C entry point, ``repro_run``.  A run lays every register
out in one arena of 64-bit words — inputs packed in the limb format
(:func:`~repro.crypto.backend.pack_ints`), a randomizer pool in its
Montgomery-form copy, a key's CRT constants in theirs, the registers the
ops write zeroed — with a table of each register's offset, count and
width, makes *one* C call, and unpacks the outputs.  cffi releases the
GIL for the whole call, so concurrent queries' kernel stretches overlap.
Results are bit-identical to the pure backend (``tests/test_backend.py``
pins this).  The shapes are checked here first
(:meth:`~repro.crypto.backend.Program.shapes`, shared with the pure
backend), and the C side checks every register index and size again
before it reads or writes the arena.  The C ops run on one Montgomery
core, which needs an odd modulus: a program with an even ``mod`` input
(no key of the package has one) runs on the pure interpreter instead,
and the C side refuses an even modulus on its own.

Use :func:`load_kernel`; it is no-raise — a machine without cffi, a
compiler or the GMP headers simply reports the kernel absent and every
caller falls back to the pure backend.
"""

from __future__ import annotations

from array import array

from repro.crypto import _gmp_kernel, backend
from repro.crypto.backend import (
    BYTES, CRT, INTS, LIMBS, MOD, POOL, WORD_BYTES, pack_ints, unpack_ints, words_for,
)
from repro.exceptions import DecryptionError

#: ``repro_run``'s refusal codes and what each raises.
_REFUSALS = dict(enumerate(backend.REFUSALS.values(), 1))


class GmpKernel(backend.Backend):
    """The ``gmp-kernel`` backend: every program one extension call."""

    name = "gmp-kernel"

    def __init__(self, ffi, lib):
        self._ffi = ffi
        self._lib = lib

    @staticmethod
    def _packed_pool(pool) -> bytes:
        """A :class:`~repro.crypto.backend.RandomizerPool`'s limb-format
        copy, kept on the pool (so on its key) as ``packed``: in Montgomery
        form, ``v · 2 ** (64 · words) mod mod``."""
        mod = pool.mod
        words = words_for(mod)
        pool.packed = pack_ints([(v << 64 * words) % mod for v in pool], words)
        return pool.packed

    @staticmethod
    def _packed_crt(crt) -> bytes:
        """A :class:`~repro.crypto.backend.PaillierCrt`'s constants in the
        limb format, each at ``N^2``'s width, in the order the kernel's
        ``decrypt`` reads them — built on the key's first decryption and
        kept on ``crt``."""
        if crt.packed is None:
            constants = [
                crt.n_squared, crt.n, crt.p, crt.q, crt.p_squared, crt.q_squared,
                crt.hp, crt.hq, crt.p_inv_q,
            ]
            crt.packed = pack_ints(constants, words_for(crt.n_squared))
        words, ragged = divmod(len(crt.packed), 9 * WORD_BYTES)
        if ragged or not words:
            raise ValueError("packed CRT constants are not nine limb-format values")
        if words != words_for(crt.n_squared):
            raise ValueError("packed CRT constants do not match the modulus")
        return crt.packed

    def run(self, program, registers: list) -> list:
        """``program`` over ``registers`` in one GIL-free ``repro_run``
        call; refusals raise what the pure backend raises.  The arena
        holds the inputs, in declaration order, then the registers the
        ops write, zeroed.  Under an even modulus the pure interpreter
        runs the program."""
        counts, widths = program.shapes(registers)
        for at in program.moduli:
            if not registers[at] & 1:
                return backend.PurePythonBackend().run(program, registers)
        table = array("Q", [0]) * (4 * len(counts))
        chunks = []
        offset = 0
        kinds = program.kinds
        for reg, value in zip(program.inputs, registers):
            kind, width = kinds[reg], widths[reg]
            at = 4 * reg
            if kind is LIMBS:
                if isinstance(value, (bytes, bytearray)):
                    chunk = value
                else:
                    try:
                        chunk = pack_ints(value, width)
                    except OverflowError:  # negative, or wider than the modulus
                        if reg in program.decrypted:
                            raise DecryptionError(backend.OUTSIDE_ZN2) from None
                        raise ValueError(backend.OUTSIDE_MOD) from None
            elif kind is BYTES:
                chunk = value + bytes(-len(value) % WORD_BYTES)
            elif kind is MOD:
                chunk = value.to_bytes(width * WORD_BYTES, "little")
            elif kind is POOL:
                chunk = value.packed or self._packed_pool(value)
                if len(chunk) != width * WORD_BYTES << value.index_bits:
                    raise ValueError("packed pool does not hold 2**index_bits elements")
                table[at + 3] = value.picks
            elif kind is CRT:
                chunk = self._packed_crt(value)
            elif kind is INTS:  # the C side reads them as native words
                chunk = array("Q", value).tobytes()
            else:
                chunk = pack_ints(value, width)
            table[at] = offset
            table[at + 1] = counts[reg]
            table[at + 2] = width
            chunks.append(chunk)
            offset += len(chunk) >> 3
        start = offset
        for _, _, reg, _ in program.ops:
            at = 4 * reg
            table[at] = offset
            table[at + 1] = count = counts[reg]
            table[at + 2] = width = widths[reg]
            offset += count * width
        chunks.append(bytes((offset - start + 1) * WORD_BYTES))  # never an empty arena
        arena = bytearray().join(chunks)
        from_buffer = self._ffi.from_buffer
        rc = self._lib.repro_run(
            from_buffer("uint64_t[]", program.encoded),
            len(program.ops),
            from_buffer("uint64_t[]", table),
            len(counts),
            from_buffer("uint64_t[]", arena),
            len(arena) // WORD_BYTES,
        )
        if rc:
            error, text = _REFUSALS.get(rc, (ValueError, "kernel program refused its registers"))
            raise error(text)
        out = []
        for reg, packed in program.outputs:
            start = table[4 * reg] * WORD_BYTES
            if packed:
                out.append(arena[start : start + counts[reg] * widths[reg] * WORD_BYTES])
            else:
                out.append(unpack_ints(arena, widths[reg], counts[reg], start))
        return out


def load_kernel() -> GmpKernel | None:
    """A new :class:`GmpKernel` over the process's one loaded extension,
    or ``None`` when unavailable.  Each caller gets its own instance:
    tests and tracers set instance attributes on the backend they hold."""
    loaded = _gmp_kernel.load()
    return None if loaded is None else GmpKernel(*loaded)


def kernel_unavailable_reason() -> str | None:
    """Why the kernel failed to load (``None`` when it loaded)."""
    return _gmp_kernel.unavailable_reason()
