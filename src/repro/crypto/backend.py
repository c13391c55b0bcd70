"""Pluggable modular-arithmetic backend — the crypto compute layer.

Every hot modular exponentiation, inversion and Paillier decryption of
the crypto stack funnels through this module, so one switch moves the
whole system between two backends:

* ``pure`` — CPython big ints, the always-available reference
  (:class:`PurePythonBackend`), and
* ``gmp-kernel`` — the compiled cffi kernel
  (:class:`repro.crypto.kernels.GmpKernel`): GMP speed, every
  :func:`run` one C call with the GIL released across it, so concurrent
  queries' kernel stretches overlap.  It registers only where the
  extension builds (cffi, a C compiler, the GMP headers).

One backend serves the process: ``set_backend(...)``, else the
``REPRO_BACKEND`` environment variable (``pure``, ``gmp-kernel`` or
``auto``), else ``auto`` (the kernel when it builds).  The two are
bit-compatible — ciphertexts, transcripts and seeded expectations never
depend on which served them (``tests/test_backend.py`` pins this).

**Programs.**  A backend runs one thing: a :class:`Program`, a
straight-line list of :data:`OPS` over registers — limb vectors
(residues, exponents, a randomizer pool, a key's CRT constants), byte
strings and small ints — each op under its own modulus register.  A
protocol round builds its program once, at import, in its own module
(``ItemBlinder``'s blinding, the EHL ⊖, the eager engine's absorb and
best bounds) and runs it as one :func:`run` call.
:meth:`Program.shapes` is the one shape checker: both backends call it
first, so registers that do not fit a program are refused with the same
``ValueError`` everywhere, before any arithmetic; an input residue
outside ``[0, mod)`` (:data:`OUTSIDE_MOD`) or an element without an
inverse (:data:`NOT_INVERTIBLE`) is refused with the same texts too.
The pure backend interprets the same program objects, as the one
reference.  The batch entry points — :func:`powmod_vec`,
:func:`powmod_pairs`, :func:`powmod_products`, :func:`invert_vec`,
:func:`pool_products` (with factors: every batch encryption and
rerandomization) and :func:`paillier_decrypt` — are one-op programs.

The limb format — fixed-width arrays of 64-bit words, least-significant
word first, little-endian bytes within each word (:func:`words_for`,
:func:`pack_ints`, :func:`unpack_ints`) — is what the kernel reads and
writes, and what an item batch
(:class:`~repro.structures.items.ItemBatch`) holds its components in.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from itertools import repeat

from repro.exceptions import DecryptionError

#: The refusal texts of :func:`paillier_decrypt`, identical on every
#: backend.
OUTSIDE_ZN2 = "ciphertext outside Z_{N^2}"
NOT_A_UNIT = "ciphertext is not a unit mod N^2"
#: The ``ValueError`` text of a program whose input residue lies outside
#: ``[0, mod)``.
OUTSIDE_MOD = "value outside [0, mod)"
#: The ``ValueError`` text of an ``inv`` op over an element that has no
#: inverse.
NOT_INVERTIBLE = "batch holds an element that is not invertible for the given modulus"


#: Bytes per limb word (the kernel is specified in 64-bit words).
WORD_BYTES = 8


def words_for(value: int) -> int:
    """How many 64-bit words a non-negative integer needs (minimum 1)."""
    return max(1, (value.bit_length() + 63) // 64)


def pack_ints(values: list[int], words: int) -> bytes:
    """Pack non-negative integers into fixed-width little-endian words:
    a ``len(values) * words * 8``-byte buffer (read-only: the C side
    writes only into its own output buffers).  Every value must fit
    ``words`` words; ``int.to_bytes`` raises ``OverflowError`` otherwise
    (a value too wide fails loudly, it is never truncated).
    """
    return b"".join(map(int.to_bytes, values, repeat(words * WORD_BYTES), repeat("little")))


def unpack_ints(buf, words: int, count: int, start: int = 0) -> list[int]:
    """Inverse of :func:`pack_ints`: read ``count`` integers, from byte
    ``start`` of ``buf`` on."""
    stride = words * WORD_BYTES
    end = count * stride
    # One contiguous copy, then slice plain bytes: bytes slices convert
    # faster than per-item memoryview slices.
    data = bytes(memoryview(buf)[start : start + end])
    from_bytes = int.from_bytes
    return [from_bytes(data[at : at + stride], "little") for at in range(0, end, stride)]


# ----------------------------------------------------------------------
# Programs.
# ----------------------------------------------------------------------

#: Register kinds.  ``mod``: one modulus (an ``int``); an op's width in
#: words is its modulus register's.  ``limbs``: residues under the
#: modulus of every op that reads them (a list, or a buffer already
#: packed at that width); every op writes one.  ``exps``: non-negative
#: exponents, packed at the widest one's width.  ``ints``: small
#: non-negative ints (counts, indices, op parameters).  ``bytes``: raw
#: bytes (pool reads, XOF streams, masks).  ``pool``: a
#: :class:`RandomizerPool`.  ``crt``: a :class:`PaillierCrt`.
MOD, LIMBS, EXPS, INTS, BYTES, POOL, CRT = "mod", "limbs", "exps", "ints", "bytes", "pool", "crt"
_KINDS = {kind: kind for kind in (MOD, LIMBS, EXPS, INTS, BYTES, POOL, CRT)}

# The count each op writes, from its operands' counts and values;
# ValueError when they do not fit it.


def _mul_count(values, counts, mod, a, b, c, d):
    la, lb = counts[a], counts[b]
    if la == lb or lb == 1:
        return la
    if la == 1:
        return lb
    raise ValueError("mul needs operands of one length, or one of length 1")


def _inv_count(values, counts, mod, a, b, c, d):
    return counts[a]


def _pow_count(values, counts, mod, a, b, c, d):
    if counts[b] != counts[a] and counts[b] != 1:
        raise ValueError("pow needs one exponent per base, or one for all")
    return counts[a]


def _groups_count(groups, accs, items, exps=None):
    if accs != len(groups) or sum(groups) != items or exps not in (None, items):
        raise ValueError(
            "a grouped op needs one acc per group, groups that sum to its "
            "bases and one exponent per base"
        )
    return accs


def _powprod_count(values, counts, mod, a, b, c, d):
    return _groups_count(values[d], counts[a], counts[b], counts[c])


def _prod_count(values, counts, mod, a, b, c, d):
    return _groups_count(values[c], counts[a], counts[b])


def _pool_count(values, counts, mod, a, b, c, d):
    pool = values[a]
    if pool.mod != values[mod]:
        raise ValueError("pool draws from a pool under its own modulus")
    draws, ragged = divmod(counts[b], pool.read_bytes)
    if ragged:
        raise ValueError("reads is not a whole number of draws")
    if c is not None and counts[c] != draws:
        raise ValueError("pool needs one factor per draw")
    return draws


def _pick_count(values, counts, mod, a, b, c, d):
    n = counts[a]
    if values[a].translate(None, b"\0\1"):
        raise ValueError("pick needs a mask of bits")
    if counts[b] not in (n, 1) or counts[c] not in (n, 1):
        raise ValueError("pick needs operands of the mask's length, or of length 1")
    return n


def _gather_count(values, counts, mod, a, b, c, d):
    if values[b] and max(values[b]) >= counts[a]:
        raise ValueError("gather needs indices into its source")
    return len(values[b])


def _cat_count(values, counts, mod, a, b, c, d):
    return counts[a] + counts[b] + (0 if c is None else counts[c])


def _decrypt_count(values, counts, mod, a, b, c, d):
    if values[b] != [0] and values[b] != [1]:
        raise ValueError("decrypt takes one flag, below_p")
    return counts[a]


def _blinds_count(values, counts, mod, a, b, c, d):
    layout, params, n = values[a], values[d], values[c]
    if len(params) != 2 or params[0] < 1 or params[1] > 1 or len(layout) % 2 or (
        n * n != values[mod]
    ):
        raise ValueError(
            "blinds needs a (count, seeds) layout, a read width, a sign flag "
            "and N under N^2"
        )
    items, seeds = layout[0::2], layout[1::2]
    if counts[b] != params[0] * sum(map(int.__mul__, items, seeds)):
        raise ValueError("blinds needs one stream of reads per seed")
    return sum(items)


#: Every op: the kind of its modulus register, its operands' kinds (the
#: last ``optional`` of them may be left out), which operands are
#: residues, range-checked when a program's input, and the rule giving
#: the count it writes from its operands (``ValueError`` when they do
#: not fit it).  An op's code in the kernel is its place here; the
#: kernel's C tables are emitted from this one (``_gmp_kernel/build.py``).
#: ``mul a b``: ``a[i]·b[i]``, a length-1 operand broadcast.  ``inv
#: a``: every inverse, from one inversion.  ``pow a e``: ``a[i]^e[i]``,
#: or one exponent for all.  ``powprod acc a e counts``: ``acc[g]·Π
#: a^e`` over group ``g``'s ``counts[g]`` pairs.  ``prod acc a
#: counts``: ``acc[g]·Π a``.  ``pool pool reads [factors]``: one draw of
#: ``pool.picks`` elements per ``pool.read_bytes`` of ``reads`` (its
#: ``index_bits``-wide digits, least significant first past the surplus
#: low bits, index the pool), times its factor.  ``pick mask a b``:
#: ``a[i]`` where ``mask[i]`` is 1, else ``b[i]``.  ``gather a idx``:
#: ``a[idx[i]]``.  ``cat a b [c]``.  ``decrypt a [below_p]`` (modulus: a
#: ``crt``): the Paillier plaintexts, or their mod-``p`` halves.
#: ``blinds layout streams n [width, negate]`` (modulus ``N^2``):
#: item ``g`` of ``layout = [count_0, seeds_0, ...]`` owns ``count_g``
#: components and ``seeds_g`` streams of ``count_g`` big-endian
#: ``width``-byte reads; component ``i`` writes ``1 + b_i·N``, ``b_i``
#: its reads' sum mod ``N`` (negated for ``negate = 1``).
OPS = {
    "mul": (MOD, (LIMBS, LIMBS), 0, (0, 1), _mul_count),
    "inv": (MOD, (LIMBS,), 0, (0,), _inv_count),
    "pow": (MOD, (LIMBS, EXPS), 0, (0,), _pow_count),
    "powprod": (MOD, (LIMBS, LIMBS, EXPS, INTS), 0, (0, 1), _powprod_count),
    "prod": (MOD, (LIMBS, LIMBS, INTS), 0, (0, 1), _prod_count),
    "pool": (MOD, (POOL, BYTES, LIMBS), 1, (2,), _pool_count),
    "pick": (MOD, (BYTES, LIMBS, LIMBS), 0, (1, 2), _pick_count),
    "gather": (MOD, (LIMBS, INTS), 0, (0,), _gather_count),
    "cat": (MOD, (LIMBS, LIMBS, LIMBS), 1, (0, 1, 2), _cat_count),
    "decrypt": (CRT, (LIMBS, INTS), 0, (), _decrypt_count),
    "blinds": (MOD, (INTS, BYTES, MOD, INTS), 0, (), _blinds_count),
}
_CODES = {name: code for code, name in enumerate(OPS)}

#: What a program's refusals raise, on every backend; the kernel's
#: status code for each is its place here plus one.
REFUSALS = {
    "OUTSIDE_MOD": (ValueError, OUTSIDE_MOD),
    "NOT_INVERTIBLE": (ValueError, NOT_INVERTIBLE),
    "OUTSIDE_ZN2": (DecryptionError, OUTSIDE_ZN2),
    "NOT_A_UNIT": (DecryptionError, NOT_A_UNIT),
}

#: An absent operand in the kernel's op encoding.
NONE = (1 << 64) - 1


class Program:
    """A straight-line list of :data:`OPS` over numbered registers:
    :meth:`input` declares an input (:func:`run` takes their values in
    declaration order), :meth:`op` appends an op and returns the new
    ``limbs`` register it writes, :meth:`output` names what :func:`run`
    returns.  Op names and operand kinds are checked as the program is
    built (no register is written twice or read before it is written);
    sizes, per run, by :meth:`shapes`."""

    def __init__(self):
        self.kinds: list[str] = []
        self.inputs: list[int] = []
        self.ops: list[tuple] = []
        self.outputs: list[tuple[int, bool]] = []
        #: ``(register, modulus register)`` per input residue, at the
        #: first op that reads it as one: what both backends range-check.
        self.checks: list[tuple[int, int]] = []
        #: Input registers a ``decrypt`` reads (a value too wide to pack
        #: there is a ciphertext outside ``Z_{N^2}``).
        self.decrypted: set[int] = set()
        #: Where each ``mod`` input sits among the inputs (the kernel
        #: runs only odd moduli).
        self.moduli: list[int] = []
        #: The ops in the kernel's encoding: seven words each.
        self.encoded = b""
        # Per op: its count rule, modulus, destination and operands, the
        # input residues it is the first to read (they take its width)
        # and the residues whose width another modulus set (checked).
        self._steps: list[tuple] = []
        self._width_of: dict[int, int] = {}

    def input(self, kind: str) -> int:
        """Declare the next input register, of ``kind``."""
        kind = _KINDS[kind]
        if kind is MOD:
            self.moduli.append(len(self.inputs))
        self.kinds.append(kind)
        self.inputs.append(len(self.kinds) - 1)
        return self.inputs[-1]

    def op(self, name: str, mod: int, *operands: int) -> int:
        """Append op ``name`` under modulus register ``mod``; returns the
        ``limbs`` register it writes."""
        mod_kind, kinds, optional, residues, rule = OPS[name]
        if not len(kinds) - optional <= len(operands) <= len(kinds):
            raise ValueError(f"{name} takes {len(kinds)} operands")
        for reg, kind in zip((mod, *operands), (mod_kind, *kinds)):
            if not 0 <= reg < len(self.kinds) or self.kinds[reg] != kind:
                raise ValueError(f"{name} reads a {kind} register where it has none")
        operands += (None,) * (4 - len(operands))
        checked = {reg for reg, _ in self.checks}
        for slot in residues:
            reg = operands[slot]
            if reg in self.inputs and reg not in checked:
                self.checks.append((reg, mod))
                checked.add(reg)
        if name == "decrypt":
            self.decrypted.add(operands[0])
        self.kinds.append(LIMBS)
        dst = len(self.kinds) - 1
        self.ops.append((name, mod, dst, operands))
        self.encoded += struct.pack(
            "<7Q", _CODES[name], mod, dst, *(NONE if reg is None else reg for reg in operands)
        )
        assign, compare = [], []
        for reg, kind in zip(operands, kinds):
            if kind is LIMBS and reg is not None:
                if reg not in self._width_of:
                    self._width_of[reg] = mod
                    assign.append(reg)
                elif self._width_of[reg] != mod:
                    compare.append(reg)
        self._width_of[dst] = mod
        self._steps.append((rule, mod, dst, *operands, tuple(assign), tuple(compare)))
        return dst

    def output(self, reg: int, packed: bool = False) -> None:
        """Have :func:`run` return register ``reg`` — as a limb buffer at
        its width when ``packed``, else as a list."""
        if reg in self.inputs or not 0 <= reg < len(self.kinds):
            raise ValueError("an output is a register an op writes")
        self.outputs.append((reg, packed))

    def shapes(self, registers: list) -> tuple[list[int], list[int]]:
        """Every register's element count and width in words (0 for a
        ``bytes`` register, counted in bytes) — or ``ValueError`` for
        registers that do not fit the program, the same text on every
        backend, since both call this before any arithmetic."""
        if len(registers) != len(self.inputs):
            raise ValueError("a program takes one value per input register")
        n = len(self.kinds)
        values: list = [None] * n
        counts = [0] * n
        widths = [0] * n
        kinds = self.kinds  # the module's constants: identity tells them apart
        for reg, value in zip(self.inputs, registers):
            values[reg] = value
            kind = kinds[reg]
            if kind is LIMBS:
                # a packed buffer's count is known once its width is
                counts[reg] = -1 if isinstance(value, (bytes, bytearray)) else len(value)
            elif kind is BYTES:
                counts[reg] = len(value)
            elif kind is MOD:
                if value < 1:
                    raise ValueError("a modulus is at least 1")
                counts[reg] = 1
                widths[reg] = (value.bit_length() + 63) // 64 or 1
            elif kind is POOL:
                if value.picks < 1 or not 1 <= value.read_bytes <= WORD_BYTES:
                    raise ValueError("a pool draw reads 1..64 index bits per product")
                if len(value) != 1 << value.index_bits:
                    raise ValueError("a pool holds 2**index_bits elements")
                counts[reg] = len(value)
                widths[reg] = (value.mod.bit_length() + 63) // 64 or 1
            elif kind is CRT:
                counts[reg] = 9
                widths[reg] = (value.n_squared.bit_length() + 63) // 64 or 1
            else:
                if value and min(value) < 0:
                    raise ValueError(f"an {kind} register holds a negative value")
                counts[reg] = len(value)
                if kind is EXPS:
                    widths[reg] = (max(value, default=0).bit_length() + 63) // 64 or 1
                else:
                    widths[reg] = 1
        for rule, mod, dst, a, b, c, d, assign, compare in self._steps:
            width = widths[mod]
            for reg in assign:
                widths[reg] = width
                if counts[reg] < 0:
                    counts[reg], ragged = divmod(len(values[reg]), width * WORD_BYTES)
                    if ragged:
                        raise ValueError("a packed register is not a whole number of values")
            for reg in compare:
                if widths[reg] != width:
                    raise ValueError("an op reads a register of another width")
            counts[dst] = rule(values, counts, mod, a, b, c, d)
            widths[dst] = width
        return counts, widths


def one_op(name: str, mod_kind: str, *kinds: str) -> Program:
    """A program of one op ``name`` over inputs of ``kinds`` (its
    modulus register first), returning what the op writes."""
    program = Program()
    mod = program.input(mod_kind)
    program.output(program.op(name, mod, *(program.input(kind) for kind in kinds)))
    return program


_POW = one_op("pow", MOD, LIMBS, EXPS)
_POWPROD = one_op("powprod", MOD, LIMBS, LIMBS, EXPS, INTS)
_INV = one_op("inv", MOD, LIMBS)
_POOL = one_op("pool", MOD, POOL, BYTES)
_POOL_FACTORS = one_op("pool", MOD, POOL, BYTES, LIMBS)
_DECRYPT = one_op("decrypt", CRT, LIMBS, INTS)


class Backend:
    """The batch operations of every backend, each a one-op
    :class:`Program` given to the ``run`` a backend supplies."""

    name = "abstract"

    gcd = staticmethod(math.gcd)

    def _powers(self, bases: list[int], exps: list[int], mod: int) -> list[int]:
        if mod == 0:
            raise ValueError("pow() 3rd argument cannot be 0")
        if min(exps, default=0) < 0:  # an inverse's power: no hot path has one
            exps = exps * len(bases) if len(exps) == 1 else exps
            return [pow(b, e, mod) for b, e in zip(bases, exps)]
        return self.run(_POW, [mod, [b % mod for b in bases], exps])[0]

    def powmod(self, base: int, exp: int, mod: int) -> int:
        return self._powers([base], [exp], mod)[0]

    def powmod_vec(self, bases: list[int], exp: int, mod: int) -> list[int]:
        return self._powers(bases, [exp], mod)

    def powmod_pairs(self, bases: list[int], exps: list[int], mod: int) -> list[int]:
        if len(bases) != len(exps):
            raise ValueError("powmod_pairs needs one exponent per base")
        return self._powers(bases, exps, mod)

    def powmod_products(
        self, accs: list[int], bases: list[int], exps: list[int], counts: list[int], mod: int
    ) -> list[int]:
        if mod == 0:
            raise ValueError("pow() 3rd argument cannot be 0")
        accs = [a % mod for a in accs]
        if min(exps, default=0) >= 0:
            return self.run(_POWPROD, [mod, accs, [b % mod for b in bases], exps, counts])[0]
        # An inverse's power, as in _powers.
        _POWPROD.shapes([mod, accs, bases, [abs(e) for e in exps], counts])
        return PurePythonBackend._prod(mod, accs, self._powers(bases, exps, mod), counts, None)

    def invert(self, a: int, mod: int) -> int:
        if mod == 0:
            raise ValueError("modulus cannot be 0")
        try:
            return self.run(_INV, [mod, [a % mod]])[0][0]
        except ValueError:
            raise ValueError("base is not invertible for the given modulus") from None

    def invert_vec(self, values: list[int], mod: int) -> list[int]:
        if mod == 0:
            raise ValueError("modulus cannot be 0")
        return self.run(_INV, [mod, [v % mod for v in values]])[0]

    def pool_products(
        self, pool: RandomizerPool, reads: bytes, factors: list[int] | None = None
    ) -> list[int]:
        if factors is None:
            return self.run(_POOL, [pool.mod, pool, reads])[0]
        return self.run(_POOL_FACTORS, [pool.mod, pool, reads, factors])[0]

    def paillier_decrypt(
        self, crt: PaillierCrt, values: list[int], below_p: bool = False
    ) -> list[int]:
        return self.run(_DECRYPT, [crt, values, [int(below_p)]])[0]


class PurePythonBackend(Backend):
    """CPython built-ins; the always-available reference backend.

    :meth:`run` interprets a program op by op on Python integers — the
    results the kernel's C loops must return, bit for bit.
    """

    name = "pure"

    @staticmethod
    def powmod(base: int, exp: int, mod: int) -> int:
        return pow(base, exp, mod)

    @staticmethod
    def powmod_vec(bases: list[int], exp: int, mod: int) -> list[int]:
        return [pow(b, exp, mod) for b in bases]

    @staticmethod
    def invert(a: int, mod: int) -> int:
        return pow(a, -1, mod)

    def run(self, program: Program, registers: list) -> list:
        """Run ``program`` over ``registers`` (its inputs' values):
        :meth:`Program.shapes`, then every input residue range-checked
        (:data:`OUTSIDE_MOD`), then the ops in order."""
        counts, widths = program.shapes(registers)
        regs: list = [None] * len(counts)
        for reg, value in zip(program.inputs, registers):
            if isinstance(value, (bytes, bytearray)) and program.kinds[reg] == LIMBS:
                value = unpack_ints(value, widths[reg], counts[reg])
            regs[reg] = value
        for reg, mod in program.checks:
            if not all(0 <= v < regs[mod] for v in regs[reg]):
                raise ValueError(OUTSIDE_MOD)
        for name, mod, dst, operands in program.ops:
            regs[dst] = getattr(self, "_" + name)(
                regs[mod], *(None if reg is None else regs[reg] for reg in operands)
            )
        return [
            pack_ints(regs[reg], widths[reg]) if packed else regs[reg]
            for reg, packed in program.outputs
        ]

    # -- the ops -----------------------------------------------------------

    @staticmethod
    def _mul(mod, a, b, _c, _d):
        if len(a) == 1 and len(b) != 1:
            a, b = b, a
        if len(b) == 1 and len(a) != 1:
            return [x * b[0] % mod for x in a]
        return [x * y % mod for x, y in zip(a, b)]

    def _inv(self, mod, values, _b, _c, _d):
        """Montgomery's trick: one ``invert`` of the batch's product, then
        ``3(n-1)`` multiplications peel the factors off again."""
        if not values:
            return []
        prefix = [values[0]]
        for v in values[1:]:
            prefix.append(prefix[-1] * v % mod)
        try:
            inv = self.invert(prefix[-1], mod)
        except ValueError:
            raise ValueError(NOT_INVERTIBLE) from None
        out = [0] * len(values)
        for i in range(len(values) - 1, 0, -1):
            out[i] = inv * prefix[i - 1] % mod
            inv = inv * values[i] % mod
        out[0] = inv
        return out

    @staticmethod
    def _pow(mod, bases, exps, _c, _d):
        if len(exps) != len(bases):
            return [pow(b, exps[0], mod) for b in bases]
        return [pow(b, e, mod) for b, e in zip(bases, exps)]

    @staticmethod
    def _powprod(mod, accs, bases, exps, counts):
        powers = iter([pow(b, e, mod) for b, e in zip(bases, exps)])
        return PurePythonBackend._prod(mod, accs, powers, counts, None)

    @staticmethod
    def _prod(mod, accs, values, counts, _d):
        values = iter(values)
        out = []
        for acc, count in zip(accs, counts):
            for _ in range(count):
                acc = acc * next(values) % mod
            out.append(acc)
        return out

    @staticmethod
    def _pool(mod, pool, reads, factors, _d):
        index_bits, read_bytes, picks = pool.index_bits, pool.read_bytes, pool.picks
        shift = read_bytes * 8 - picks * index_bits
        mask = len(pool) - 1
        from_bytes = int.from_bytes
        out = []
        for offset in range(0, len(reads), read_bytes):
            digits = from_bytes(reads[offset : offset + read_bytes], "big") >> shift
            value = pool[digits & mask]
            for _ in range(picks - 1):
                digits >>= index_bits
                value = value * pool[digits & mask] % mod
            out.append(value)
        if factors is not None:
            out = [f * r % mod for f, r in zip(factors, out)]
        return out

    @staticmethod
    def _pick(_mod, mask, a, b, _d):
        a = a * len(mask) if len(a) == 1 else a
        b = b * len(mask) if len(b) == 1 else b
        return [x if bit else y for bit, x, y in zip(mask, a, b)]

    @staticmethod
    def _gather(_mod, values, indices, _c, _d):
        return [values[i] for i in indices]

    @staticmethod
    def _cat(_mod, a, b, c, _d):
        return a + b + (c or [])

    def _decrypt(self, crt, values, params, _c, _d):
        """``m_p = L_p(c^(p-1) mod p^2) · h_p mod p`` and the same mod
        ``q``, recombined by the CRT (``m_p`` alone for ``below_p``);
        refused outside ``(0, N^2)``, then when ``p`` or ``q`` divides a
        value."""
        n2, p, q = crt.n_squared, crt.p, crt.q
        if not all(0 < c < n2 for c in values):
            raise DecryptionError(OUTSIDE_ZN2)
        if any(c % p == 0 or c % q == 0 for c in values):
            raise DecryptionError(NOT_A_UNIT)
        p2, hp = crt.p_squared, crt.hp
        mps = [
            (u - 1) // p * hp % p
            for u in self.powmod_vec([c % p2 for c in values], p - 1, p2)
        ]
        if params[0]:
            return mps
        q2, hq, p_inv_q = crt.q_squared, crt.hq, crt.p_inv_q
        mqs = self.powmod_vec([c % q2 for c in values], q - 1, q2)
        return [
            mp + p * (((u - 1) // q * hq - mp) * p_inv_q % q)
            for mp, u in zip(mps, mqs)
        ]

    @staticmethod
    def _blinds(mod, layout, streams, n, params):
        width, negate = params
        from_bytes = int.from_bytes
        out = []
        offset = 0
        for count, seeds in zip(layout[0::2], layout[1::2]):
            blinds = [0] * count
            for _ in range(seeds):
                for j in range(count):
                    blinds[j] += from_bytes(streams[offset : offset + width], "big")
                    offset += width
            out += [(1 + (-b if negate else b) % n * n) % mod for b in blinds]
        return out


def kernel_available() -> bool:
    """Whether the compiled ``gmp-kernel`` backend can be constructed
    here (the extension imports, or builds on first use)."""
    from repro.crypto import _gmp_kernel

    return _gmp_kernel.available()


def _resolve(name: str):
    """A fresh backend instance for ``name`` (callers set instance
    attributes on what they get, so instances are never shared)."""
    if name == "pure" or (name == "auto" and not kernel_available()):
        return PurePythonBackend()
    if name in ("gmp-kernel", "auto"):
        from repro.crypto import kernels

        kernel = kernels.load_kernel()
        if kernel is None:
            raise RuntimeError(
                f"gmp kernel unavailable ({kernels.kernel_unavailable_reason()})"
            )
        return kernel
    raise ValueError(f"unknown compute backend: {name!r}")


def _initial_backend():
    """Resolve ``REPRO_BACKEND`` at import, falling back to pure.

    A typo'd or unsatisfiable env var must not make ``import repro``
    itself raise (code that would fix the selection via
    :func:`set_backend` could then never run); the misconfiguration is
    surfaced as a warning instead — a retired backend name included.
    CI's kernel leg asserts the resolved backend name, so a silent
    fallback cannot pass there.
    """
    name = os.environ.get("REPRO_BACKEND", "auto")
    try:
        return _resolve(name)
    except (ValueError, RuntimeError) as exc:
        warnings.warn(
            f"REPRO_BACKEND={name!r} unavailable ({exc}); using pure backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return PurePythonBackend()


_ACTIVE = _initial_backend()


def get_backend():
    """The process's active backend instance."""
    return _ACTIVE


def set_backend(backend) -> object:
    """Install the process-wide backend (by name or instance); returns
    the previous one.

    Worker processes call this on startup so a programmatic selection in
    the parent survives ``spawn``-style pools; tests use the return value
    to restore the previous backend.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _resolve(backend) if isinstance(backend, str) else backend
    return previous


# ----------------------------------------------------------------------
# Module-level entry points (hot-path sugar over get_backend()).
# ----------------------------------------------------------------------


def run(program: Program, registers: list) -> list:
    """Run ``program`` over its inputs' values through the active
    backend (one C call on the kernel); returns its outputs.  Raises
    ``ValueError`` for registers that do not fit the program, an input
    residue outside ``[0, mod)`` or an ``inv`` of an element without an
    inverse, :class:`DecryptionError` for a refused ``decrypt``."""
    return _ACTIVE.run(program, registers)


def powmod(base: int, exp: int, mod: int) -> int:
    """``base**exp mod mod`` through the active backend."""
    return _ACTIVE.powmod(base, exp, mod)


def invert(a: int, mod: int) -> int:
    """Modular inverse through the active backend (raises if none)."""
    return _ACTIVE.invert(a, mod)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor through the active backend."""
    return _ACTIVE.gcd(a, b)


def powmod_vec(bases: list[int], exp: int, mod: int) -> list[int]:
    """Exponentiate many bases by one shared exponent — the shape of
    batched CRT decryption and batched randomizer generation."""
    return _ACTIVE.powmod_vec(bases, exp, mod)


def powmod_pairs(bases: list[int], exps: list[int], mod: int) -> list[int]:
    """Exponentiate each base by its own exponent — the shape of the ⊖
    matrix's random scalars and of the layered scalar multiplications."""
    return _ACTIVE.powmod_pairs(bases, exps, mod)


def powmod_products(
    accs: list[int], bases: list[int], exps: list[int], counts: list[int], mod: int
) -> list[int]:
    """``accs[g] · Π b ** e mod mod`` for each group ``g`` of ``counts[g]``
    consecutive ``(base, exponent)`` pairs (a layered select's shape)."""
    return _ACTIVE.powmod_products(accs, bases, exps, counts, mod)


def invert_vec(values: list[int], mod: int) -> list[int]:
    """Every modular inverse of a batch for the price of one (raises
    ``ValueError`` if any element has none)."""
    return _ACTIVE.invert_vec(values, mod)


class RandomizerPool(list):
    """The register of a ``pool`` op: a power-of-two many residues mod
    :attr:`mod`, drawn :attr:`picks` at a time, with the bits one index
    takes (:attr:`index_bits`) and the bytes one draw reads
    (:attr:`read_bytes`) worked out once; :attr:`packed` is the kernel's
    limb-format copy, filled on its first draw."""

    def __init__(self, values: list[int], mod: int, picks: int):
        super().__init__(values)
        self.mod = mod
        self.picks = picks
        self.index_bits = len(self).bit_length() - 1
        self.read_bytes = (picks * self.index_bits + 7) // 8
        self.packed: bytes | None = None


def pool_products(
    pool: RandomizerPool, reads: bytes, factors: list[int] | None = None
) -> list[int]:
    """One product of ``pool.picks`` pool elements per read of ``reads``,
    times its entry of ``factors`` when given: every randomizer draw, and
    with factors every batch encryption and rerandomization.  Raises
    ``ValueError`` for ragged reads or factors, or a factor outside
    ``[0, pool.mod)``."""
    return _ACTIVE.pool_products(pool, reads, factors)


class PaillierCrt:
    """The register of a ``decrypt`` op: one Paillier key's decryption
    constants, worked out once per key.  ``h_p = L_p((1 + N)^(p-1) mod
    p^2)^(-1) mod p`` (and ``h_q``) undo the generator in each CRT half,
    ``p_inv_q`` recombines them; :attr:`packed` is the kernel's copy."""

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.n = n = p * q
        self.n_squared = n * n
        self.p_squared = p2 = p * p
        self.q_squared = q2 = q * q
        self.hp = invert((powmod(1 + n, p - 1, p2) - 1) // p, p)
        self.hq = invert((powmod(1 + n, q - 1, q2) - 1) // q, q)
        self.p_inv_q = invert(p, q)
        self.packed: bytes | None = None


def paillier_decrypt(
    crt: PaillierCrt, values: list[int], below_p: bool = False
) -> list[int]:
    """Decrypt a batch of bare Paillier ciphertexts under ``crt``'s key
    (``below_p``: the mod-``p`` half alone, for plaintexts below ``p``) —
    every Paillier decryption of the package, one call per batch.
    Raises :class:`DecryptionError` for the whole batch on a value
    outside ``(0, N^2)`` or not a unit."""
    return _ACTIVE.paillier_decrypt(crt, values, below_p)
