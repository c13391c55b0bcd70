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
  two fused round operations :func:`blind_round` and :func:`ehl_minus`),
  *and* the GIL released across every batch call, so concurrent queries'
  kernel stretches overlap.  Available when the extension builds here
  (cffi + C compiler + GMP headers); absent, it simply never registers.

Selection order:

1. a thread-local :func:`use_backend` override (scopes a choice to one
   thread without touching the rest of the process);
2. ``set_backend(...)`` — explicit programmatic choice (tests, benches);
3. the ``REPRO_BACKEND`` environment variable (``pure``, ``gmp-kernel``
   or ``auto``);
4. ``auto`` — ``gmp-kernel`` when it builds, else ``pure``.

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
round.  Batch encryption is the key method built on them
(``pk.encrypt_batch``).  Two operations fuse a whole round of the query
path into one call: :func:`blind_round` (``c · (1 ± b·N) · r`` over
every Paillier component of an ``ItemBlinder`` round, the blinds ``b``
summed and reduced from the items' SHAKE-256 streams, ``r`` the pool
draw) and :func:`ehl_minus` (a batch of EHL ⊖: each pair's ``Enc(0)``
pool draw, its cell quotients and its multi-exponentiation).  Both
refuse a ragged layout or an input outside ``[0, mod)`` with
``ValueError`` before any arithmetic, identically on every backend.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import warnings

from repro.exceptions import DecryptionError

#: The refusal texts of :func:`paillier_decrypt`, identical on every
#: backend.
OUTSIDE_ZN2 = "ciphertext outside Z_{N^2}"
NOT_A_UNIT = "ciphertext is not a unit mod N^2"
#: The ``ValueError`` text of :func:`blind_round` and :func:`ehl_minus`
#: for an input residue outside ``[0, mod)``.
OUTSIDE_MOD = "value outside [0, mod)"


def check_blind_round(
    values: list[int],
    counts: list[int],
    seeds: list[int],
    streams: bytes,
    width: int,
    n: int,
    sign: int,
    pool: "RandomizerPool | None",
    reads: bytes,
) -> None:
    """Refuse, with ``ValueError``, a :func:`blind_round` call whose
    layout, streams or reads are ragged, or whose values are not residues
    mod ``N^2`` — on every backend, before any arithmetic."""
    if n < 1 or width < 1 or sign not in (1, -1):
        raise ValueError("blind_round needs N >= 1, a read width and a sign of ±1")
    if (
        len(counts) != len(seeds)
        or min(counts, default=0) < 0
        or min(seeds, default=0) < 0
        or sum(counts) != len(values)
        or len(streams) != width * sum(c * k for c, k in zip(counts, seeds))
    ):
        raise ValueError(
            "blind_round needs a component and a seed count per item, counts "
            "that sum to the values and one stream of reads per seed"
        )
    n2 = n * n
    if pool is None:
        if reads:
            raise ValueError("blind_round reads need a randomizer pool")
    elif pool.mod != n2 or len(reads) != pool.read_bytes * len(values):
        raise ValueError("blind_round needs a pool under N^2 and one read per value")
    if not all(0 <= v < n2 for v in values):
        raise ValueError(OUTSIDE_MOD)


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


class PurePythonBackend:
    """CPython built-ins; the always-available reference backend.

    The batch ops are Python loops over the scalar ones —
    ``powmod_products`` on ``powmod_pairs``, ``invert_vec`` on
    ``invert``, ``paillier_decrypt`` on ``powmod_vec``, ``ehl_minus`` on
    ``pool_products`` and ``powmod_products`` — so they pin what the
    kernel's C loops must return.
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
    def pool_products(pool: "RandomizerPool", reads: bytes) -> list[int]:
        """One product of ``pool.picks`` elements of ``pool`` mod
        ``pool.mod`` per read of ``reads``.

        ``reads`` is a whole number of big-endian ``pool.read_bytes``-byte
        reads; a read's ``pool.index_bits``-wide digits, least
        significant first once its surplus low bits are dropped, index
        the pool.
        """
        index_bits, read_bytes, mod = pool.index_bits, pool.read_bytes, pool.mod
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
        return out

    def blind_round(
        self,
        values: list[int],
        counts: list[int],
        seeds: list[int],
        streams: bytes,
        width: int,
        n: int,
        sign: int,
        pool: "RandomizerPool | None" = None,
        reads: bytes = b"",
    ) -> list[int]:
        """``values[i] · (1 + sign · b_i · N) · r_i mod N^2`` over a
        round's Paillier components.

        Item ``g`` owns ``counts[g]`` consecutive values and ``seeds[g]``
        consecutive streams of ``streams``, each ``counts[g]`` big-endian
        ``width``-byte reads; ``b_i`` is the sum of component ``i``'s
        read in every stream of its item, reduced mod ``N``.  ``r_i`` is
        the pool draw of read ``i`` of ``reads`` (``pool`` under
        ``N^2``), or 1 without a pool.
        """
        check_blind_round(values, counts, seeds, streams, width, n, sign, pool, reads)
        n2 = n * n
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
                for value, b in zip(values[start : start + count], blinds)
            )
            start += count
        if pool is not None:
            out = [v * r % n2 for v, r in zip(out, self.pool_products(pool, reads))]
        return out

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
            raise ValueError(
                "batch holds an element that is not invertible for the given modulus"
            ) from None
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


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`set_backend` in this environment."""
    return ("pure", "gmp-kernel") if kernel_available() else ("pure",)


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

# Per-thread override installed by use_backend().  Checked before the
# process-wide selection so one thread can run on the GIL-free kernel
# (a compute-pool chunk) while the rest of the process stays put.
_TLS = threading.local()


def _current():
    override = getattr(_TLS, "backend", None)
    return _ACTIVE if override is None else override


def get_backend():
    """The active backend instance (honouring any thread-local override)."""
    return _current()


def set_backend(backend) -> object:
    """Install the process-wide backend (by name or instance); returns
    the previous one.

    Worker processes call this on startup so a programmatic selection in
    the parent survives ``spawn``-style pools; tests use the return value
    to restore the previous backend.  Does not touch thread-local
    overrides (:func:`use_backend`).
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _resolve(backend) if isinstance(backend, str) else backend
    return previous


@contextlib.contextmanager
def use_backend(backend):
    """Run the current thread on ``backend`` for the duration of a block.

    The override is strictly thread-local: other threads — and code in
    this thread outside the block — keep using the process-wide
    selection.  This is how the compute pool's thread mode pins its
    chunk computations to the GIL-free kernel without a process-wide
    ``set_backend`` racing concurrent queries.  Nestable; restores the
    previous override on exit.
    """
    resolved = _resolve(backend) if isinstance(backend, str) else backend
    previous = getattr(_TLS, "backend", None)
    _TLS.backend = resolved
    try:
        yield resolved
    finally:
        _TLS.backend = previous


# ----------------------------------------------------------------------
# Module-level scalar entry points (hot-path sugar over get_backend()).
# ----------------------------------------------------------------------


def powmod(base: int, exp: int, mod: int) -> int:
    """``base**exp mod mod`` through the active backend."""
    return _current().powmod(base, exp, mod)


def invert(a: int, mod: int) -> int:
    """Modular inverse through the active backend (raises if none)."""
    return _current().invert(a, mod)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor through the active backend."""
    return _current().gcd(a, b)


# ----------------------------------------------------------------------
# Batch entry points.
# ----------------------------------------------------------------------


def powmod_vec(bases: list[int], exp: int, mod: int) -> list[int]:
    """Exponentiate many bases by one shared exponent — the shape of
    batched CRT decryption and batched randomizer generation."""
    return _current().powmod_vec(bases, exp, mod)


def powmod_pairs(bases: list[int], exps: list[int], mod: int) -> list[int]:
    """Exponentiate each base by its own exponent — the shape of the ⊖
    matrix's random scalars and of the layered scalar multiplications."""
    return _current().powmod_pairs(bases, exps, mod)


def powmod_products(
    accs: list[int], bases: list[int], exps: list[int], counts: list[int], mod: int
) -> list[int]:
    """``accs[g] · Π b ** e mod mod`` for each group ``g`` of ``counts[g]``
    consecutive ``(base, exponent)`` pairs — the shape of the ⊖ operator
    (the ``Enc(0)`` randomizer times one power per EHL cell) and of a
    layered select (``E2(c_default)`` times one power per selector bit)."""
    return _current().powmod_products(accs, bases, exps, counts, mod)


def invert_vec(values: list[int], mod: int) -> list[int]:
    """Every modular inverse of a batch for the price of one (raises
    ``ValueError`` if any element has none)."""
    return _current().invert_vec(values, mod)


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


def pool_products(pool: RandomizerPool, reads: bytes) -> list[int]:
    """One product of ``pool.picks`` pool elements per read of ``reads`` —
    the shape of every randomizer draw (see
    :func:`repro.crypto.paillier.pool_randomizers`)."""
    return _current().pool_products(pool, reads)


def blind_round(
    values: list[int],
    counts: list[int],
    seeds: list[int],
    streams: bytes,
    width: int,
    n: int,
    sign: int,
    pool: RandomizerPool | None = None,
    reads: bytes = b"",
) -> list[int]:
    """``c · (1 ± b·N) · r mod N^2`` over every Paillier component of an
    item-blinding round (``ItemBlinder``): item ``g``'s ``counts[g]``
    components take the sums of their ``width``-byte reads in its
    ``seeds[g]`` SHAKE-256 streams, reduced mod ``N``, and each takes the
    pool draw of its read of ``reads`` when ``pool`` is given.  Raises
    ``ValueError`` for a ragged layout or a value outside ``[0, N^2)``."""
    return _current().blind_round(
        values, counts, seeds, streams, width, n, sign, pool, reads
    )


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
    return _current().ehl_minus(pool, reads, numerators, inverses, exps, counts)


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
    return _current().paillier_decrypt(crt, values, below_p)
