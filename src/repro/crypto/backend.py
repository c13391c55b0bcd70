"""Pluggable modular-arithmetic backend — the crypto compute layer.

Every hot modular *exponentiation and inversion* in the crypto stack
(Paillier encryption and CRT decryption, Damgård–Jurik layer stripping,
Miller–Rabin rounds, the blinding and comparison protocols' scalar
exponentiations — the operations that dominate query latency) funnels
through this module, so a single switch moves the whole system between:

* ``pure``       — the built-in CPython big-int implementation (always
  available; the default when nothing faster is installed),
* ``gmpy2``      — GMP-backed ``powmod``/``invert``, typically 3–10x
  faster on the modular exponentiations that dominate query latency
  (the paper's Section 11 measures exactly these operations), and
* ``gmp-kernel`` — the compiled cffi batch kernel
  (:mod:`repro.crypto.kernels`): GMP speed, the query path's batch
  primitives (:func:`pool_products`, :func:`powmod_pairs`) as one C
  call each, *and* the GIL released across every batch call, so
  concurrent queries' kernel stretches overlap.  Available when the
  extension builds here (cffi + C compiler + GMP headers); absent, it
  simply never registers.

Selection order:

1. a thread-local :func:`use_backend` override (scopes a choice to one
   thread without touching the rest of the process);
2. ``set_backend(...)`` — explicit programmatic choice (tests, benches);
3. the ``REPRO_BACKEND`` environment variable (``pure``, ``gmpy2``,
   ``gmp-kernel`` or ``auto``);
4. ``auto`` — ``gmp-kernel`` when it builds, else ``gmpy2`` when
   importable, else ``pure``.  (The kernel first: it is the backend the
   repo's benchmark measures, and the only one on which the randomizer
   draw and the per-pair exponentiations are C — ``gmpy2`` runs
   ``pool_products`` as the shared Python loop.)

All backends are *bit-compatible*: for every operation the returned
integers are identical, so ciphertexts, transcripts and seeded-test
expectations never depend on which backend served them
(``tests/test_backend.py`` pins this).

Besides the scalar ops the module exposes batch entry points.
:func:`powmod_vec` (one exponent, many bases: the shape of batched CRT
decryption) is the primitive the key-level batch methods build on — it
replaced the per-item ``pow`` loops previously inlined in
``encrypt_vector``/``decrypt_vector`` and the S2 decrypt handlers, and
gives an accelerated backend one conversion of the shared
modulus/exponent per *batch* instead of per item.  :func:`powmod_pairs`
(one exponent *per* base), :func:`invert_vec` (Montgomery's trick) and
:func:`pool_products` (the randomizer-pool draw) carry the query path's
per-ciphertext work — the ⊖ matrix, the layered selects, ``RecoverEnc``,
every fresh encryption's randomizer — as one call per round.
:func:`encrypt_batch` and :func:`decrypt_batch` are the module-level
faces of the key-method equivalents (``pk.encrypt_batch`` /
``sk.decrypt_batch``) for callers that want the whole compute API
importable from one place; the stack itself calls the key methods
directly.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import warnings

try:  # pragma: no cover - exercised only where gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover
    _gmpy2 = None


class _SharedBatchOps:
    """The batch ops every backend runs as one Python loop unless it
    overrides them: ``invert_vec`` on top of the backend's scalar
    ``invert``, and the reference ``pool_products``."""

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


class PurePythonBackend(_SharedBatchOps):
    """CPython built-ins; the always-available reference backend."""

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


class Gmpy2Backend(_SharedBatchOps):
    """GMP-accelerated ops via :mod:`gmpy2` (optional dependency).

    Results are converted back to built-in ``int`` at the boundary so
    callers (and the wire codec, and pickling) never see ``mpz``.
    """

    name = "gmpy2"

    def __init__(self):
        if _gmpy2 is None:
            raise RuntimeError("gmpy2 is not installed")
        self._mpz = _gmpy2.mpz
        self._powmod = _gmpy2.powmod
        self._invert = _gmpy2.invert
        self._gcd = _gmpy2.gcd

    def powmod(self, base: int, exp: int, mod: int) -> int:
        return int(self._powmod(base, exp, mod))

    def powmod_vec(self, bases: list[int], exp: int, mod: int) -> list[int]:
        # Convert the shared exponent/modulus once for the whole batch.
        mpz, powmod = self._mpz, self._powmod
        e, m = mpz(exp), mpz(mod)
        return [int(powmod(b, e, m)) for b in bases]

    def powmod_pairs(self, bases: list[int], exps: list[int], mod: int) -> list[int]:
        if len(bases) != len(exps):
            raise ValueError("powmod_pairs needs one exponent per base")
        powmod = self._powmod
        m = self._mpz(mod)
        return [int(powmod(b, e, m)) for b, e in zip(bases, exps)]

    def invert(self, a: int, mod: int) -> int:
        # gmpy2.invert returns 0 for non-invertible inputs (instead of
        # raising, as pow(a, -1, m) does); normalize to the pure error.
        if self._gcd(a, mod) != 1:
            raise ValueError("base is not invertible for the given modulus")
        return int(self._invert(a, mod))

    def gcd(self, a: int, b: int) -> int:
        return int(self._gcd(a, b))


class GmpKernelBackend(_SharedBatchOps):
    """The compiled GIL-free GMP batch kernel as a backend.

    Same GMP arithmetic as gmpy2 (bit-identical results); the
    difference is *where the GIL goes*: :meth:`powmod_vec`,
    :meth:`powmod_pairs` and :meth:`pool_products` make one C call for
    the whole batch and cffi releases the GIL for its entire duration,
    so concurrent threads running batches genuinely overlap.
    ``gcd`` stays on :func:`math.gcd` — already C-speed, and never a
    batch bottleneck.
    """

    name = "gmp-kernel"

    def __init__(self):
        from repro.crypto import kernels

        kernel = kernels.load_kernel()
        if kernel is None:
            raise RuntimeError(
                f"gmp kernel unavailable ({kernels.kernel_unavailable_reason()})"
            )
        self._kernel = kernel

    def powmod(self, base: int, exp: int, mod: int) -> int:
        return self._kernel.powmod(base, exp, mod)

    def powmod_vec(self, bases: list[int], exp: int, mod: int) -> list[int]:
        return self._kernel.powmod_vec(bases, exp, mod)

    def powmod_pairs(self, bases: list[int], exps: list[int], mod: int) -> list[int]:
        return self._kernel.powmod_pairs(bases, exps, mod)

    def pool_products(self, pool: "RandomizerPool", reads: bytes) -> list[int]:
        if pool.packed is None:
            pool.packed = self._kernel.pack_pool(pool, pool.mod)
        return self._kernel.pool_products(
            pool.packed, pool.index_bits, pool.picks, reads, pool.mod
        )

    def invert(self, a: int, mod: int) -> int:
        return self._kernel.invert(a, mod)

    @staticmethod
    def gcd(a: int, b: int) -> int:
        return math.gcd(a, b)


def gmpy2_available() -> bool:
    """Whether the gmpy2 backend can be constructed here."""
    return _gmpy2 is not None


def kernel_available() -> bool:
    """Whether the compiled ``gmp-kernel`` backend can be constructed
    here (the extension imports, or builds on first use)."""
    from repro.crypto import kernels

    return kernels.kernel_available()


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`set_backend` in this environment."""
    names = ["pure"]
    if gmpy2_available():
        names.append("gmpy2")
    if kernel_available():
        names.append("gmp-kernel")
    return tuple(names)


def _resolve(name: str):
    if name == "pure":
        return PurePythonBackend()
    if name == "gmpy2":
        return Gmpy2Backend()
    if name == "gmp-kernel":
        return GmpKernelBackend()
    if name == "auto":
        if kernel_available():
            return GmpKernelBackend()
        if gmpy2_available():
            return Gmpy2Backend()
        return PurePythonBackend()
    raise ValueError(f"unknown compute backend: {name!r}")


def _initial_backend():
    """Resolve ``REPRO_BACKEND`` at import, falling back to pure.

    A typo'd or unsatisfiable env var must not make ``import repro``
    itself raise (code that would fix the selection via
    :func:`set_backend` could then never run); the misconfiguration is
    surfaced as a warning instead.  CI's accelerated leg asserts the
    resolved backend name, so a silent fallback cannot pass there.
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
    :func:`repro.crypto.paillier.pool_randomizers`, the one caller)."""
    return _current().pool_products(pool, reads)


def encrypt_batch(pk, values: list[int], rng=None) -> list:
    """Paillier-encrypt ``values`` component-wise in one batch.

    Delegates to :meth:`PaillierPublicKey.encrypt_batch`, which draws all
    randomizers from the key's cached pool and runs the modular
    arithmetic through the active backend.
    """
    return pk.encrypt_batch(values, rng)


def decrypt_batch(sk, cts: list) -> list[int]:
    """Paillier-decrypt ``cts`` component-wise in one batch.

    Delegates to :meth:`PaillierSecretKey.decrypt_batch`: two
    :func:`powmod_vec` calls (one per CRT prime) replace the per-item
    ``pow`` pairs of the naive loop.
    """
    return sk.decrypt_batch(cts)
