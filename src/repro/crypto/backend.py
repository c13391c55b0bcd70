"""Pluggable modular-arithmetic backend — the crypto compute layer.

Every hot modular *exponentiation and inversion* in the crypto stack
(Paillier encryption and CRT decryption, Damgård–Jurik layer stripping,
Miller–Rabin rounds, the blinding and comparison protocols' scalar
exponentiations — the operations that dominate query latency) funnels
through this module, so a single switch moves the whole system between:

* ``pure``       — the built-in CPython big-int implementation, the
  always-available reference (:class:`PurePythonBackend`), and
* ``gmp-kernel`` — the compiled cffi batch kernel
  (:class:`repro.crypto.kernels.GmpKernel`): GMP speed, *every* batch
  primitive below as one C call (:func:`powmod_products`,
  :func:`pool_products` and :func:`invert_vec` on the kernel's Montgomery
  core, a whole :func:`paillier_decrypt` batch on ``mpz_powm``, and the
  five fused round operations :func:`blind_round`, :func:`ehl_minus`,
  :func:`masked_unseen`, :func:`select_bounds` and :func:`select_absorb`),
  *and* the GIL released across every batch call, so concurrent queries'
  kernel stretches overlap.  Available when the extension builds here
  (cffi + C compiler + GMP headers); absent, it simply never registers.

One backend serves the whole process.  Selection order:

1. ``set_backend(...)`` — explicit programmatic choice (tests, benches,
   worker processes on startup);
2. the ``REPRO_BACKEND`` environment variable (``pure``, ``gmp-kernel``
   or ``auto``);
3. ``auto`` — ``gmp-kernel`` when it builds, else ``pure``.

Both backends are *bit-compatible*: for every operation the returned
integers are identical, so ciphertexts, transcripts and seeded-test
expectations never depend on which backend served them
(``tests/test_backend.py`` pins this).

Besides the scalar ops the module exposes batch entry points.
:func:`paillier_decrypt` is every Paillier decryption — a batch of
bare ciphertexts under one key's :class:`PaillierCrt` constants, both
CRT halves or (``below_p``) the mod-``p`` half alone; the key methods
(``sk.decrypt_batch`` and friends) are its callers.  :func:`powmod_vec`
(one exponent, many bases) gives the kernel one conversion of the
shared modulus/exponent per *batch* instead of per item.
:func:`powmod_pairs` (one exponent *per* base), :func:`powmod_products`
(``acc · Π b^e`` per group of bases), :func:`invert_vec` (Montgomery's
trick) and :func:`pool_products` (the randomizer-pool draw) carry the
query path's per-ciphertext work — the ⊖ matrix, the layered selects,
``RecoverEnc``, every fresh encryption's randomizer — as one call per
round.  Given factors, :func:`pool_products` multiplies each draw into
its factor inside the call, so batch encryption and rerandomization
(``pk.encrypt_batch``, ``pk.rerandomize_batch``) are one call each.
Five operations fuse a whole round of the query path into one call:
:func:`blind_round` (``c · (1 ± b·N) · r`` over every Paillier component
of an ``ItemBlinder`` round, read from and written to the round's limb
buffer, the blinds ``b`` summed and reduced from the items' SHAKE-256
streams, ``r`` the pool draw), :func:`ehl_minus` (a batch of EHL ⊖: each
pair's ``Enc(0)`` pool draw, its cell quotients and its
multi-exponentiation), :func:`masked_unseen` (the coin-masked unseen
bits a best-bound select ships), :func:`select_bounds` (a
``BlindedSelect`` reply unblinded into running bounds, one
multi-exponentiation per bound) and :func:`select_absorb` (a reply
applied as the eager absorb: the candidates' credits and seen bits, and
the tested item's new entry).  All five refuse a ragged layout or an
input outside ``[0, mod)`` with ``ValueError`` before any arithmetic,
identically on every backend.

The limb format — fixed-width arrays of 64-bit words, least-significant
word first, little-endian bytes within each word (:func:`words_for`,
:func:`pack_ints`, :func:`unpack_ints`) — is what the kernel's C side
reads and writes, and what an item batch
(:class:`~repro.structures.items.ItemBatch`) holds its components in.
"""

from __future__ import annotations

import math
import os
import warnings
from itertools import repeat

from repro.exceptions import DecryptionError

#: The refusal texts of :func:`paillier_decrypt`, identical on every
#: backend.
OUTSIDE_ZN2 = "ciphertext outside Z_{N^2}"
NOT_A_UNIT = "ciphertext is not a unit mod N^2"
#: The ``ValueError`` text of the fused round operations for an input
#: residue outside ``[0, mod)``.
OUTSIDE_MOD = "value outside [0, mod)"
#: The ``ValueError`` text of :func:`invert_vec`, :func:`select_bounds`
#: and :func:`select_absorb` when an element has no inverse.
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


def unpack_ints(buf, words: int, count: int) -> list[int]:
    """Inverse of :func:`pack_ints`: read ``count`` integers."""
    stride = words * WORD_BYTES
    end = count * stride
    # One contiguous copy, then slice plain bytes: bytes slices convert
    # faster than per-item memoryview slices.
    data = bytes(memoryview(buf)[:end])
    from_bytes = int.from_bytes
    return [from_bytes(data[at : at + stride], "little") for at in range(0, end, stride)]


def check_pool_products(
    pool: "RandomizerPool", reads: bytes, factors: list[int] | None
) -> None:
    """Refuse, with ``ValueError``, a :func:`pool_products` call whose
    reads are not a whole number of draws or whose factors are not one
    per draw — on every backend, before any arithmetic.  (Each backend
    refuses a factor outside ``[0, pool.mod)`` itself.)"""
    if pool.read_bytes < 1:
        raise ValueError("a pool draw reads at least one index bit")
    if len(reads) % pool.read_bytes:
        raise ValueError("reads is not a whole number of draws")
    if factors is not None and len(factors) * pool.read_bytes != len(reads):
        raise ValueError("pool_products needs one factor per draw")


def check_blind_round(
    values: bytes,
    counts: list[int],
    seeds: list[int],
    streams: bytes,
    width: int,
    n: int,
    sign: int,
    pool: "RandomizerPool | None",
    reads: bytes,
) -> int:
    """Refuse, with ``ValueError``, a :func:`blind_round` call whose
    layout, limb buffer, streams or reads are ragged — on every backend,
    before any arithmetic; returns the round's component count.  (Each
    backend refuses a value outside ``[0, N^2)`` itself, before writing
    anything.)"""
    if n < 1 or width < 1 or sign not in (1, -1):
        raise ValueError("blind_round needs N >= 1, a read width and a sign of ±1")
    total = sum(counts)
    if (
        len(counts) != len(seeds)
        or min(counts, default=0) < 0
        or min(seeds, default=0) < 0
        or len(values) != total * words_for(n * n) * WORD_BYTES
        or len(streams) != width * sum(c * k for c, k in zip(counts, seeds))
    ):
        raise ValueError(
            "blind_round needs a component and a seed count per item, counts "
            "that sum to the values in the limb buffer and one stream of "
            "reads per seed"
        )
    if pool is None:
        if reads:
            raise ValueError("blind_round reads need a randomizer pool")
    elif pool.mod != n * n or len(reads) != pool.read_bytes * total:
        raise ValueError("blind_round needs a pool under N^2 and one read per value")
    return total


def check_ehl_minus(
    pool: "RandomizerPool",
    reads: bytes,
    numerators: list[int],
    inverses: list[int],
    exps: list[int],
    counts: list[int],
) -> None:
    """Refuse, with ``ValueError``, an :func:`ehl_minus` call whose reads
    or cells are ragged, whose exponents are negative, or whose
    numerators or inverses are not residues mod ``pool.mod`` — on every
    backend, before any arithmetic."""
    if (
        len(reads) != pool.read_bytes * len(counts)
        or min(counts, default=0) < 0
        or not len(numerators) == len(inverses) == len(exps) == sum(counts)
    ):
        raise ValueError(
            "ehl_minus needs one read per group and one numerator, inverse "
            "and exponent per cell"
        )
    if min(exps, default=0) < 0:
        raise ValueError("ehl_minus needs non-negative exponents")
    mod = pool.mod
    if not (
        all(0 <= v < mod for v in numerators) and all(0 <= v < mod for v in inverses)
    ):
        raise ValueError(OUTSIDE_MOD)


def check_masked_unseen(
    n: int, seen: list[int], coins: list[int], pool: "RandomizerPool", reads: bytes
) -> None:
    """Refuse, with ``ValueError``, a :func:`masked_unseen` call whose
    coins or reads do not match its slots — on every backend, before any
    arithmetic.  (Each backend refuses a seen bit outside ``[0, N^2)``
    itself.)"""
    if (
        n < 2
        or pool is None
        or pool.mod != n * n
        or len(coins) != len(seen)
        or not set(coins) <= {0, 1}
        or len(reads) != pool.read_bytes * len(seen)
    ):
        raise ValueError(
            "masked_unseen needs N >= 2, a pool under N^2, and a coin and a "
            "read per slot"
        )


def _check_reply(name: str, n: int, selected: list[int], bits: list[int],
                 exps: list[int]) -> None:
    """The checks a ``BlindedSelect`` reply's slots share."""
    if n < 2 or not len(bits) == len(exps) == len(selected):
        raise ValueError(f"{name} needs N >= 2 and one bit and exponent per slot")
    if min(exps, default=0) < 0:
        raise ValueError(f"{name} needs non-negative exponents")


def check_select_bounds(
    n: int,
    selected: list[int],
    bits: list[int],
    exps: list[int],
    accs: list[int],
    counts: list[int],
    flips: list[int],
    values: list[int],
) -> None:
    """Refuse, with ``ValueError``, a :func:`select_bounds` call whose
    layout is ragged, whose exponents or counts are negative or whose
    residues are not residues mod ``N^2`` — on every backend, before any
    arithmetic."""
    _check_reply("select_bounds", n, selected, bits, exps)
    if (
        len(counts) != len(accs)
        or min(counts, default=0) < 0
        or sum(counts) != len(selected)
        or len(flips) != len(selected)
        or not set(flips) <= {0, 1}
        or len(values) != sum(flips)
    ):
        raise ValueError(
            "select_bounds needs a count per target, counts that sum to the "
            "slots, a flip per slot and a value per flipped slot"
        )
    n2 = n * n
    if not all(0 <= v < n2 for column in (selected, bits, accs, values) for v in column):
        raise ValueError(OUTSIDE_MOD)


def check_select_absorb(
    n: int,
    selected: list[int],
    bits: list[int],
    exps: list[int],
    worsts: list[int],
    seen: list[int],
    score: int,
    pool: "RandomizerPool",
    reads: bytes,
    slot: int,
) -> None:
    """Refuse, with ``ValueError``, a :func:`select_absorb` call whose
    layout or read buffer is ragged, whose exponents are negative or
    whose residues are not residues mod ``N^2`` — on every backend,
    before any arithmetic."""
    _check_reply("select_absorb", n, selected, bits, exps)
    n2 = n * n
    if (
        pool is None
        or pool.mod != n2
        or not len(worsts) == len(seen) == len(selected)
        or len(reads) % pool.read_bytes
        or not 0 <= slot < len(reads) // pool.read_bytes
    ):
        raise ValueError(
            "select_absorb needs a pool under N^2, a worst and a seen bit per "
            "slot and a read per new seen bit"
        )
    if not 0 <= score < n2 or not all(
        0 <= v < n2 for column in (selected, bits, worsts, seen) for v in column
    ):
        raise ValueError(OUTSIDE_MOD)


class PurePythonBackend:
    """CPython built-ins; the always-available reference backend.

    The batch ops are Python loops over the scalar ones —
    ``powmod_products`` on ``powmod_pairs``, ``invert_vec`` on
    ``invert``, ``paillier_decrypt`` on ``powmod_vec``, ``ehl_minus`` on
    ``pool_products`` and ``powmod_products``, ``masked_unseen`` on
    ``invert_vec`` and ``pool_products``, ``select_bounds`` on
    ``invert_vec`` and ``powmod_products``, ``select_absorb`` on
    ``powmod_pairs``, ``invert_vec`` and ``pool_products`` — so they pin
    what the kernel's C loops must return.
    """

    name = "pure"

    @staticmethod
    def powmod(base: int, exp: int, mod: int) -> int:
        return pow(base, exp, mod)

    @staticmethod
    def powmod_vec(bases: list[int], exp: int, mod: int) -> list[int]:
        return [pow(b, exp, mod) for b in bases]

    @staticmethod
    def powmod_pairs(bases: list[int], exps: list[int], mod: int) -> list[int]:
        if len(bases) != len(exps):
            raise ValueError("powmod_pairs needs one exponent per base")
        return [pow(b, e, mod) for b, e in zip(bases, exps)]

    @staticmethod
    def invert(a: int, mod: int) -> int:
        return pow(a, -1, mod)

    @staticmethod
    def gcd(a: int, b: int) -> int:
        return math.gcd(a, b)

    def paillier_decrypt(
        self, crt: "PaillierCrt", values: list[int], below_p: bool = False
    ) -> list[int]:
        """The Paillier plaintexts of bare ciphertexts under ``crt``'s key:
        ``m_p = L_p(c^(p-1) mod p^2) · h_p mod p``, the same mod ``q``,
        recombined by the CRT.  ``below_p`` returns ``m_p`` alone — the
        plaintext itself when the caller knows it is below ``p``.

        The whole batch is refused, with :class:`DecryptionError`, when
        any value lies outside ``(0, N^2)`` or, failing that, when any
        value shares a factor with ``N = pq`` — when ``p`` or ``q``
        divides it.
        """
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
        if below_p:
            return mps
        q2, hq, p_inv_q = crt.q_squared, crt.hq, crt.p_inv_q
        mqs = self.powmod_vec([c % q2 for c in values], q - 1, q2)
        return [
            mp + p * (((u - 1) // q * hq - mp) * p_inv_q % q)
            for mp, u in zip(mps, mqs)
        ]

    def powmod_products(
        self,
        accs: list[int],
        bases: list[int],
        exps: list[int],
        counts: list[int],
        mod: int,
    ) -> list[int]:
        """``accs[g] · Π b ** e mod mod`` per group ``g``: the group's
        ``counts[g]`` consecutive ``(base, exponent)`` pairs of ``bases``
        / ``exps``."""
        if mod == 0:
            raise ValueError("pow() 3rd argument cannot be 0")
        if (
            len(accs) != len(counts)
            or sum(counts) != len(bases)
            or min(counts, default=0) < 0
        ):
            raise ValueError(
                "powmod_products needs one acc per count and counts that "
                "sum to one exponent per base"
            )
        powers = iter(self.powmod_pairs(bases, exps, mod))
        out = []
        for acc, count in zip(accs, counts):
            acc %= mod
            for _ in range(count):
                acc = acc * next(powers) % mod
            out.append(acc)
        return out

    @staticmethod
    def pool_products(
        pool: "RandomizerPool", reads: bytes, factors: list[int] | None = None
    ) -> list[int]:
        """One product of ``pool.picks`` elements of ``pool`` mod
        ``pool.mod`` per read of ``reads``, times the read's factor when
        ``factors`` (one residue mod ``pool.mod`` per read) is given.

        ``reads`` is a whole number of big-endian ``pool.read_bytes``-byte
        reads; a read's ``pool.index_bits``-wide digits, least
        significant first once its surplus low bits are dropped, index
        the pool.
        """
        check_pool_products(pool, reads, factors)
        index_bits, read_bytes, mod = pool.index_bits, pool.read_bytes, pool.mod
        if factors is not None and not all(0 <= f < mod for f in factors):
            raise ValueError(OUTSIDE_MOD)
        shift = read_bytes * 8 - pool.picks * index_bits
        mask = len(pool) - 1
        from_bytes = int.from_bytes
        out = []
        for offset in range(0, len(reads), read_bytes):
            digits = from_bytes(reads[offset : offset + read_bytes], "big") >> shift
            value = pool[digits & mask]
            for _ in range(pool.picks - 1):
                digits >>= index_bits
                value = value * pool[digits & mask] % mod
            out.append(value)
        if factors is not None:
            out = [f * r % mod for f, r in zip(factors, out)]
        return out

    def blind_round(
        self,
        values: bytes,
        counts: list[int],
        seeds: list[int],
        streams: bytes,
        width: int,
        n: int,
        sign: int,
        pool: "RandomizerPool | None" = None,
        reads: bytes = b"",
    ) -> bytes:
        """``c_i · (1 + sign · b_i · N) · r_i mod N^2`` over a round's
        Paillier components ``c_i``, read from and returned as a limb
        buffer at ``words_for(N^2)`` words per value.

        Item ``g`` owns ``counts[g]`` consecutive values and ``seeds[g]``
        consecutive streams of ``streams``, each ``counts[g]`` big-endian
        ``width``-byte reads; ``b_i`` is the sum of component ``i``'s
        read in every stream of its item, reduced mod ``N``.  ``r_i`` is
        the pool draw of read ``i`` of ``reads`` (``pool`` under
        ``N^2``), or 1 without a pool.
        """
        total = check_blind_round(
            values, counts, seeds, streams, width, n, sign, pool, reads
        )
        n2 = n * n
        words = words_for(n2)
        cts = unpack_ints(values, words, total)
        if not all(v < n2 for v in cts):
            raise ValueError(OUTSIDE_MOD)
        from_bytes = int.from_bytes
        out = []
        start = offset = 0
        for count, k in zip(counts, seeds):
            blinds = [0] * count
            for _ in range(k):
                for j in range(count):
                    blinds[j] += from_bytes(streams[offset : offset + width], "big")
                    offset += width
            out.extend(
                value * (1 + sign * (b % n) % n * n) % n2
                for value, b in zip(cts[start : start + count], blinds)
            )
            start += count
        if pool is not None:
            out = self.pool_products(pool, reads, out)
        return pack_ints(out, words)

    def ehl_minus(
        self,
        pool: "RandomizerPool",
        reads: bytes,
        numerators: list[int],
        inverses: list[int],
        exps: list[int],
        counts: list[int],
    ) -> list[int]:
        """``r_g · Π (num · inv) ** e mod pool.mod`` per group ``g`` of
        ``counts[g]`` consecutive cells: the ⊖ of one EHL pair, whose
        ``Enc(0)`` randomizer ``r_g`` is the pool draw of read ``g`` of
        ``reads``."""
        check_ehl_minus(pool, reads, numerators, inverses, exps, counts)
        mod = pool.mod
        bases = [a * b % mod for a, b in zip(numerators, inverses)]
        return self.powmod_products(
            self.pool_products(pool, reads), bases, exps, counts, mod
        )

    def masked_unseen(
        self,
        n: int,
        seen: list[int],
        coins: list[int],
        pool: "RandomizerPool",
        reads: bytes,
    ) -> list[int]:
        """``Enc(u ⊕ c) · r mod N^2`` per slot, ``u = 1 − s`` for the seen
        bit ``seen[i] = Enc(s)`` and the slot's coin ``c``: the seen bit
        itself for ``c = 1``, ``(1 + N) · seen[i]^(−1)`` for ``c = 0``,
        each times the pool draw ``r`` of its read of ``reads`` — one
        batch inversion and one pool draw per slot."""
        check_masked_unseen(n, seen, coins, pool, reads)
        n2 = n * n
        if not all(0 <= v < n2 for v in seen):
            raise ValueError(OUTSIDE_MOD)
        inverses = iter(self.invert_vec([s for s, c in zip(seen, coins) if not c], n2))
        return self.pool_products(
            pool,
            reads,
            [s if c else next(inverses) * (1 + n) % n2 for s, c in zip(seen, coins)],
        )

    def select_bounds(
        self,
        n: int,
        selected: list[int],
        bits: list[int],
        exps: list[int],
        accs: list[int],
        counts: list[int],
        flips: list[int],
        values: list[int],
    ) -> list[int]:
        """A ``BlindedSelect`` reply multiplied into running bounds mod
        ``N^2``.

        Slot ``j`` of the reply is ``sel_j``, ``bits_j = Enc(t_j)`` and
        its blind ``e_j``; its term is ``sel_j · bits_j^(−e_j)``
        (``Enc(t·x)``) or, flipped, ``v · sel_j^(−1) · bits_j^(e_j)``
        (``Enc(x − t·x)``), ``v = Enc(x)`` the next of ``values`` (one
        per flipped slot).  Target ``g`` owns ``counts[g]`` consecutive
        slots; returns ``accs[g] · Π term`` per target — one batch
        inversion and one multi-exponentiation per target.
        """
        check_select_bounds(n, selected, bits, exps, accs, counts, flips, values)
        n2 = n * n
        inverses = self.invert_vec(
            [s if f else b for s, b, f in zip(selected, bits, flips)], n2
        )
        flipped = iter(values)
        folded, bases, start = [], [], 0
        for acc, count in zip(accs, counts):
            for j in range(start, start + count):
                if flips[j]:
                    acc = acc * next(flipped) % n2 * inverses[j] % n2
                    bases.append(bits[j])
                else:
                    acc = acc * selected[j] % n2
                    bases.append(inverses[j])
            folded.append(acc)
            start += count
        return self.powmod_products(folded, bases, exps, counts, n2)

    def select_absorb(
        self,
        n: int,
        selected: list[int],
        bits: list[int],
        exps: list[int],
        worsts: list[int],
        seen: list[int],
        score: int,
        pool: "RandomizerPool",
        reads: bytes,
        slot: int,
    ) -> list[int]:
        """An eager absorb's ``BlindedSelect`` reply applied mod ``N^2``.

        Slot ``j`` (its own target) has the term ``sel_j ·
        bits_j^(−e_j)`` of :meth:`select_bounds`.  Returns ``worsts[j] ·
        term_j`` per slot, then ``seen[j] · bits_j`` per slot, then the
        tested item's new entry: ``score · Π term_j^(−1)``, its match
        count ``M = Π bits_j``, and one seen bit per read of ``reads`` —
        the read's pool draw, times ``(1 + N) · M^(−1)`` at ``slot``.
        One power per slot and one batch inversion of the powers,
        ``Π sel_j`` and ``M``.
        """
        check_select_absorb(n, selected, bits, exps, worsts, seen, score, pool, reads, slot)
        n2 = n * n
        powers = self.powmod_pairs(bits, exps, n2)
        product, matched, power = 1, 1, 1
        for s, b, p in zip(selected, bits, powers):
            product = product * s % n2
            matched = matched * b % n2
            power = power * p % n2
        inverses = self.invert_vec(powers + [product, matched], n2)
        out = [w * s % n2 * i % n2 for w, s, i in zip(worsts, selected, inverses)]
        out += [v * b % n2 for v, b in zip(seen, bits)]
        out += [score * power % n2 * inverses[-2] % n2, matched]
        draws = self.pool_products(pool, reads)
        draws[slot] = draws[slot] * (1 + n) % n2 * inverses[-1] % n2
        return out + draws

    def invert_vec(self, values: list[int], mod: int) -> list[int]:
        """Every inverse of a batch from ONE modular inversion.

        Montgomery's trick: invert the product of the batch, then peel
        the factors off again — one ``invert`` plus ``3(n-1)``
        multiplications mod ``mod``.  Raises ``ValueError`` (and returns
        nothing) when any element has no inverse.
        """
        if not values:
            return []
        values = [v % mod for v in values]
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
# Module-level scalar entry points (hot-path sugar over get_backend()).
# ----------------------------------------------------------------------


def powmod(base: int, exp: int, mod: int) -> int:
    """``base**exp mod mod`` through the active backend."""
    return _ACTIVE.powmod(base, exp, mod)


def invert(a: int, mod: int) -> int:
    """Modular inverse through the active backend (raises if none)."""
    return _ACTIVE.invert(a, mod)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor through the active backend."""
    return _ACTIVE.gcd(a, b)


# ----------------------------------------------------------------------
# Batch entry points.
# ----------------------------------------------------------------------


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
    consecutive ``(base, exponent)`` pairs — the shape of the ⊖ operator
    (the ``Enc(0)`` randomizer times one power per EHL cell) and of a
    layered select (``E2(c_default)`` times one power per selector bit)."""
    return _ACTIVE.powmod_products(accs, bases, exps, counts, mod)


def invert_vec(values: list[int], mod: int) -> list[int]:
    """Every modular inverse of a batch for the price of one (raises
    ``ValueError`` if any element has none)."""
    return _ACTIVE.invert_vec(values, mod)


class RandomizerPool(list):
    """The pool argument of :func:`pool_products`: a list of a
    power-of-two many residues mod :attr:`mod`, drawn :attr:`picks` at a
    time.

    What a draw derives from that shape is worked out here, once per
    pool: the bits one index takes (:attr:`index_bits`) and the bytes of
    randomness one product reads (:attr:`read_bytes`).  :attr:`packed` is
    the kernel backend's limb-format copy, filled on its first draw.
    """

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
    times the read's entry of ``factors`` when given — the shape of every
    randomizer draw (see :func:`repro.crypto.paillier.pool_randomizers`),
    and with factors of every batch encryption and rerandomization.
    Raises ``ValueError`` for ragged reads or factors, or a factor
    outside ``[0, pool.mod)``."""
    return _ACTIVE.pool_products(pool, reads, factors)


def blind_round(
    values: bytes,
    counts: list[int],
    seeds: list[int],
    streams: bytes,
    width: int,
    n: int,
    sign: int,
    pool: RandomizerPool | None = None,
    reads: bytes = b"",
) -> bytes:
    """``c · (1 ± b·N) · r mod N^2`` over every Paillier component of an
    item-blinding round (``ItemBlinder``), read from and written to the
    round's limb buffer (``words_for(N^2)`` words per value): item ``g``'s
    ``counts[g]`` components take the sums of their ``width``-byte reads
    in its ``seeds[g]`` SHAKE-256 streams, reduced mod ``N``, and each
    takes the pool draw of its read of ``reads`` when ``pool`` is given.
    Raises ``ValueError`` for a ragged layout or buffer, or a value
    outside ``[0, N^2)``."""
    return _ACTIVE.blind_round(
        values, counts, seeds, streams, width, n, sign, pool, reads
    )


def masked_unseen(
    n: int, seen: list[int], coins: list[int], pool: RandomizerPool, reads: bytes
) -> list[int]:
    """The tests of a best-bound select: per slot ``Enc(u ⊕ c)``,
    rerandomized by the pool draw of its read of ``reads``, ``u = 1 − s``
    for the seen bit ``Enc(s)`` and ``c`` the slot's coin (see
    :meth:`PurePythonBackend.masked_unseen`).  Raises ``ValueError`` for a
    ragged layout, a coin that is not a bit, a residue outside
    ``[0, N^2)`` or a coin-0 seen bit without an inverse."""
    return _ACTIVE.masked_unseen(n, seen, coins, pool, reads)


def ehl_minus(
    pool: RandomizerPool,
    reads: bytes,
    numerators: list[int],
    inverses: list[int],
    exps: list[int],
    counts: list[int],
) -> list[int]:
    """The EHL ⊖ of a batch of pairs: per group ``g`` of ``counts[g]``
    cells, the pool draw of read ``g`` (the pair's ``Enc(0)``) times
    ``Π (num · inv) ** e mod pool.mod`` over its cells.  Raises
    ``ValueError`` for ragged reads or cells, a negative exponent, or a
    numerator or inverse outside ``[0, pool.mod)``."""
    return _ACTIVE.ehl_minus(pool, reads, numerators, inverses, exps, counts)


def select_bounds(
    n: int,
    selected: list[int],
    bits: list[int],
    exps: list[int],
    accs: list[int],
    counts: list[int],
    flips: list[int],
    values: list[int],
) -> list[int]:
    """A ``BlindedSelect`` reply unblinded into running bounds mod
    ``N^2``: per slot ``Enc(t·x) = sel · Enc(t)^(−r)``, or flipped
    ``Enc(x − t·x)``, multiplied into its target — the eager engine's
    best bounds (one multi-exponentiation per bound), or one slot per
    target over ``acc = 1`` for the bare ``Enc(t·x)`` (see
    :meth:`PurePythonBackend.select_bounds`).  Raises ``ValueError`` for
    a ragged layout, a negative exponent, a residue outside ``[0, N^2)``
    or an element without an inverse."""
    return _ACTIVE.select_bounds(n, selected, bits, exps, accs, counts, flips, values)


def select_absorb(
    n: int,
    selected: list[int],
    bits: list[int],
    exps: list[int],
    worsts: list[int],
    seen: list[int],
    score: int,
    pool: RandomizerPool,
    reads: bytes,
    slot: int,
) -> list[int]:
    """An eager absorb's ``BlindedSelect`` reply applied mod ``N^2``: each
    tested candidate's worst and seen bit credited, then the tested
    item's new entry — worst, match count and seen bits, their pool
    draws read from ``reads`` (see :meth:`PurePythonBackend.select_absorb`).
    Raises ``ValueError`` for a ragged layout or read buffer, a negative
    exponent, a residue outside ``[0, N^2)`` or an element without an
    inverse."""
    return _ACTIVE.select_absorb(
        n, selected, bits, exps, worsts, seen, score, pool, reads, slot
    )


class PaillierCrt:
    """The ``crt`` argument of :func:`paillier_decrypt`: one Paillier
    key's decryption constants, worked out once per key.

    ``h_p = L_p((1 + N)^(p-1) mod p^2)^(-1) mod p`` (and ``h_q``) undo
    the generator's contribution to each CRT half, and ``p_inv_q``
    recombines the halves.  :attr:`packed` is the kernel backend's
    limb-format copy, filled on its first decryption.
    """

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
