"""Backend parity and batch entry-point tests for the compute layer.

Every public op of :mod:`repro.crypto.backend` must be bit-identical
under the pure-Python and compiled gmp-kernel backends (the kernel
halves skip where the extension is absent), and the
batch entry points must match their per-item equivalents exactly —
including randomness stream order, so seeded transcripts are invariant
to batching.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.core import engine
from repro.core.params import SystemParams
from repro.core.scheme import SecTopK
from repro.crypto import backend, kernels, paillier
from repro.crypto.damgard_jurik import DamgardJurik
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.rng import SecureRandom
from repro.exceptions import DecryptionError
from repro.protocols import blinding
from repro.protocols.base import make_parties
from repro.protocols.blinding import ItemBlinder, seed_key_bits
from repro.protocols.enc_compare import enc_compare_flows
from repro.structures import ehl
from repro.structures.ehl import Ehl, minus_pairs
from repro.structures.items import ItemBatch, ScoredItem

needs_kernel = pytest.mark.skipif(
    not backend.kernel_available(), reason="gmp kernel unavailable"
)


@pytest.fixture(scope="module")
def keypair():
    return PaillierKeypair.generate(128, SecureRandom(11))


@pytest.fixture(scope="module")
def dj(keypair):
    return DamgardJurik(keypair.public_key, s=2)


#: pk''s modulus at the smallest preset (``tiny``: the 224-bit floor).
SEED_KEY_BITS = seed_key_bits(SystemParams.tiny().key_bits)


def _spy_on_lib(kernel, calls: list) -> None:
    """Append the name of every C entry point ``kernel`` calls to
    ``calls``."""
    lib = kernel._lib

    class Spy:
        def __getattr__(self, attr):
            calls.append(attr)
            return getattr(lib, attr)

    kernel._lib = Spy()


@contextlib.contextmanager
def _on_backend(name: str):
    """Run the process on backend ``name`` for a block, restoring the
    previous selection afterwards."""
    previous = backend.set_backend(name)
    try:
        yield backend.get_backend()
    finally:
        backend.set_backend(previous)


@functools.lru_cache(maxsize=None)
def _decrypt_batch(key_bits: int):
    """A key's CRT constants, 17 plaintexts (edges and random) and their
    ciphertexts, built with the built-in ``pow`` alone."""
    rng = SecureRandom(key_bits)
    sk = PaillierKeypair.generate(key_bits, rng).secret_key
    crt = backend.PaillierCrt(sk.p, sk.q)
    n, n2 = crt.n, crt.n_squared
    plain = [0, 1, n - 1, crt.p - 1, crt.p, crt.q + 3] + [
        rng.randint_below(n) for _ in range(11)
    ]
    cts = [(1 + m * n) * pow(rng.rand_unit(n), n, n2) % n2 for m in plain]
    return crt, plain, cts


class TestSelection:
    def test_pure_always_available(self):
        assert type(backend._resolve("pure")) is backend.PurePythonBackend

    def test_set_backend_round_trip(self):
        previous = backend.set_backend("pure")
        try:
            assert backend.get_backend().name == "pure"
        finally:
            backend.set_backend(previous)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            backend.set_backend("quantum")

    def test_auto_resolution_matches_availability(self):
        previous = backend.set_backend("auto")
        try:
            expected = "gmp-kernel" if backend.kernel_available() else "pure"
            assert backend.get_backend().name == expected
        finally:
            backend.set_backend(previous)

    def test_retired_env_value_falls_back_to_pure(self):
        """``REPRO_BACKEND`` naming the retired third backend does not
        make ``import repro`` raise: one ``RuntimeWarning`` names the
        value and the process runs on the pure backend."""
        retired = "gmpy2"
        code = (
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    import repro\n"
            "    from repro.crypto import backend\n"
            "print(backend.get_backend().name)\n"
            "for w in caught:\n"
            "    print(w.category.__name__, w.message)\n"
        )
        src = str(pathlib.Path(backend.__file__).parents[2])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, REPRO_BACKEND=retired)
        env["PYTHONPATH"] = src + os.pathsep + path if path else src
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        name, *warned = done.stdout.splitlines()
        assert name == "pure"
        assert len(warned) == 1
        assert warned[0].startswith(f"RuntimeWarning REPRO_BACKEND={retired!r}")


class TestPureOps:
    def test_powmod_matches_builtin(self):
        b = backend.PurePythonBackend()
        assert b.powmod(12345, 678, 997) == pow(12345, 678, 997)

    def test_powmod_vec_matches_loop(self):
        b = backend.PurePythonBackend()
        bases = [3, 5, 7, 11**20]
        assert b.powmod_vec(bases, 65537, 10**9 + 7) == [
            pow(x, 65537, 10**9 + 7) for x in bases
        ]

    def test_invert(self):
        b = backend.PurePythonBackend()
        assert b.invert(3, 11) * 3 % 11 == 1
        with pytest.raises(ValueError):
            b.invert(6, 9)

    def test_gcd(self):
        b = backend.PurePythonBackend()
        assert b.gcd(48, 36) == 12


@needs_kernel
class TestKernelParity:
    """The compiled gmp-kernel backend is bit-identical to pure."""

    CASES = [
        (2, 10, 1_000),
        (0, 5, 77),
        (1, 0, 77),
        (123456789, 987654321, 2**127 - 1),
    ]

    def test_powmod(self):
        pure, fast = backend.PurePythonBackend(), kernels.load_kernel()
        rng = SecureRandom(3)
        cases = list(self.CASES) + [
            (rng.randbits(256), rng.randbits(256), rng.randbits(256) | 1)
            for _ in range(20)
        ]
        for base, exp, mod in cases:
            assert pure.powmod(base, exp, mod) == fast.powmod(base, exp, mod)

    def test_powmod_vec(self):
        pure, fast = backend.PurePythonBackend(), kernels.load_kernel()
        rng = SecureRandom(4)
        bases = [rng.randbits(256) for _ in range(16)]
        exp, mod = rng.randbits(256), rng.randbits(256) | 1
        assert pure.powmod_vec(bases, exp, mod) == fast.powmod_vec(bases, exp, mod)

    def test_powmod_vec_mixed_widths(self):
        """Exponent and base words differ from modulus words (the
        Paillier-encrypt shape: half-width exponent, double-width mod)."""
        pure, fast = backend.PurePythonBackend(), kernels.load_kernel()
        rng = SecureRandom(12)
        mod = rng.randbits(512) | (1 << 511) | 1
        bases = [rng.randbits(700) for _ in range(8)] + [0, 1, mod - 1, mod, mod + 1]
        for exp in (0, 1, 65537, rng.randbits(256)):
            assert pure.powmod_vec(bases, exp, mod) == fast.powmod_vec(bases, exp, mod)

    def test_powmod_vec_edges(self):
        fast = kernels.load_kernel()
        assert fast.powmod_vec([], 3, 7) == []
        with pytest.raises(ValueError):
            fast.powmod_vec([2], 3, 0)
        # Negative exponents take the pure fallback path.
        assert fast.powmod_vec([3], -1, 11) == [pow(3, -1, 11)]

    def test_invert(self):
        pure, fast = backend.PurePythonBackend(), kernels.load_kernel()
        rng = SecureRandom(5)
        mod = (2**89 - 1) * (2**107 - 1)
        for _ in range(20):
            a = rng.randint(1, mod - 1)
            if pure.gcd(a, mod) != 1:
                continue
            assert pure.invert(a, mod) == fast.invert(a, mod)
        with pytest.raises(ValueError):
            fast.invert(2**89 - 1, mod)

    def test_resolve_gives_a_fresh_kernel_over_one_extension(self):
        """Each resolve is its own :class:`GmpKernel` (callers set
        instance attributes on it) over the process's one loaded
        extension."""
        first, second = backend._resolve("gmp-kernel"), backend._resolve("gmp-kernel")
        assert type(first) is kernels.GmpKernel and first.name == "gmp-kernel"
        assert first is not second
        assert (first._ffi, first._lib) == (second._ffi, second._lib)

    def test_scalar_powmod_is_one_kernel_call(self):
        """A scalar power, a shared-exponent batch and a scalar inverse
        are one C call each, of the kernel's one entry point — and never
        go through another backend method (a tracer wrapping ``powmod``
        / ``powmod_vec`` / ``invert`` counts each once)."""
        methods = {"powmod", "powmod_vec", "powmod_pairs", "invert", "invert_vec"}
        for op, args, result, entry in (
            ("powmod", (3, 5, 7), 5, "repro_run"),
            ("powmod_vec", ([3, 4], 5, 7), [5, 2], "repro_run"),
            ("invert", (3, 7), 5, "repro_run"),
        ):
            fast, calls = kernels.load_kernel(), []
            for other in methods - {op}:
                setattr(fast, other, lambda *a, other=other: calls.append(other))
            _spy_on_lib(fast, calls)
            assert getattr(fast, op)(*args) == result
            assert calls == [entry], op

    def test_whole_query_invariant_under_backend(self):
        """A seeded scheme reveals identical winners on both backends."""
        revealed = []
        for name in ("pure", "gmp-kernel"):
            previous = backend.set_backend(name)
            try:
                rng = SecureRandom(77)
                rows = [[rng.randint_below(40) for _ in range(3)] for _ in range(8)]
                scheme = SecTopK(SystemParams.tiny(), seed=13)
                relation = scheme.encrypt(rows)
                result = scheme.query(relation, scheme.token([0, 1], k=2))
                revealed.append(sorted(scheme.reveal(result)))
            finally:
                backend.set_backend(previous)
        assert revealed[0] == revealed[1]


@pytest.mark.parametrize(
    "name",
    [
        "pure",
        pytest.param("gmp-kernel", marks=needs_kernel),
    ],
)
class TestBatchPrimitiveParity:
    """``powmod_pairs`` / ``powmod_products`` / ``invert_vec`` /
    ``pool_products`` / ``paillier_decrypt`` agree with per-element
    built-ins on every backend that exists here (the CI legs pin one
    each)."""

    def test_scalar_entries_match_pure(self, name):
        """``powmod`` / ``powmod_vec`` / ``invert`` — on the kernel, the
        shared-exponent and batch-of-one forms of ``powmod_pairs`` and
        ``invert_vec`` — agree with the pure reference at exponent 0, on
        a single base, on bases at and above the modulus, and refuse a
        non-invertible element with the same ``ValueError``."""
        fast, pure = backend._resolve(name), backend.PurePythonBackend()
        rng = SecureRandom(30)
        composite = (2**89 - 1) * (2**107 - 1)
        for mod in (composite, rng.randbits(256) | (1 << 255) | 1, rng.randbits(256) & ~1, 7):
            bases = [0, 1, 2, mod - 1, mod, mod + 1, 3 * mod + 5, rng.randbits(300)]
            for exp in (0, 1, 65537, rng.randbits(256)):
                assert fast.powmod_vec(bases, exp, mod) == pure.powmod_vec(bases, exp, mod)
                assert fast.powmod_vec(bases[-1:], exp, mod) == pure.powmod_vec(
                    bases[-1:], exp, mod
                )
                for base in bases:
                    assert fast.powmod(base, exp, mod) == pure.powmod(base, exp, mod)
            for a in (1, mod - 1, mod + 1, 3 * mod + 5):
                if pure.gcd(a, mod) == 1:
                    assert fast.invert(a, mod) == pure.invert(a, mod)
            for bad in [0, mod, 2 * mod] + [f for f in (2**89 - 1, 2) if mod % f == 0]:
                with pytest.raises(ValueError) as expected:
                    pure.invert(bad, mod)
                with pytest.raises(ValueError) as refused:
                    fast.invert(bad, mod)
                assert str(refused.value) == str(expected.value)

    def test_powmod_pairs_mixed_widths(self, name):
        fast = backend._resolve(name)
        rng = SecureRandom(31)
        mod = rng.randbits(512) | (1 << 511) | 1
        bases = [rng.randbits(700) for _ in range(8)] + [0, 1, mod - 1, mod, mod + 1]
        exps = [0, 1, 2, 65537, rng.randbits(64), rng.randbits(256), rng.randbits(600)]
        exps += [rng.randbits(8 * (i + 1)) for i in range(len(bases) - len(exps))]
        assert fast.powmod_pairs(bases, exps, mod) == [
            pow(b, e, mod) for b, e in zip(bases, exps)
        ]

    def test_powmod_pairs_edges(self, name):
        fast = backend._resolve(name)
        assert fast.powmod_pairs([], [], 7) == []
        assert fast.powmod_pairs([5], [0], 7) == [1]
        assert fast.powmod_pairs([5], [1], 7) == [5]
        with pytest.raises(ValueError):
            fast.powmod_pairs([2, 3], [1], 7)
        with pytest.raises(ValueError):
            fast.powmod_pairs([2], [3], 0)

    @pytest.mark.parametrize(
        "mod_bits, odd", [(512, True), (768, True), (512, False)],
        ids=["odd512", "odd768", "even512"],
    )
    def test_powmod_products_match_reference(self, name, mod_bits, odd):
        """Ragged groups — every edge base against every edge exponent
        as width-1 groups, then widths 5, 23 (the EHL bit-list's), 0 and
        5 — with accs at and above the modulus.  An even modulus runs on
        the pure interpreter."""
        fast = backend._resolve(name)
        rng = SecureRandom(mod_bits + odd)
        mod = rng.randbits(mod_bits) | (1 << (mod_bits - 1))
        mod = mod | 1 if odd else mod & ~1
        edge_bases = [0, 1, mod - 1, mod, mod + 1]
        edge_exps = [0, 1, 65537, rng.randbits(600)]
        counts = [1] * 20 + [5, 23, 0, 5]
        bases = [b for b in edge_bases for _ in edge_exps]
        exps = edge_exps * len(edge_bases)
        wide = sum(counts) - len(bases)
        bases += [rng.randbits(mod_bits + 64) for _ in range(wide)]
        exps += [rng.randbits(8 * (1 + rng.randint_below(75))) for _ in range(wide)]
        bases[-3:], exps[-3:] = [mod - 1, 0, mod + 1], [65537, 1, 0]
        accs = [mod, mod + 1, 0, 2 * mod - 1] + [
            rng.randbits(mod_bits + 64) for _ in counts[4:]
        ]
        expected, pairs = [], iter(zip(bases, exps))
        for acc, count in zip(accs, counts):
            for base, exp in (next(pairs) for _ in range(count)):
                acc = acc * pow(base, exp, mod) % mod
            expected.append(acc % mod)
        assert fast.powmod_products(accs, bases, exps, counts, mod) == expected

    def test_powmod_products_edges(self, name):
        fast = backend._resolve(name)
        assert fast.powmod_products([], [], [], [], 7) == []
        assert fast.powmod_products([9], [], [], [0], 7) == [2]
        assert fast.powmod_products([3], [5], [0], [1], 8) == [3]
        assert fast.powmod_products([5], [3], [0], [1], 1) == [0]
        assert fast.powmod_products([2], [3], [-1], [1], 7) == [2 * pow(3, -1, 7) % 7]
        for accs, bases, exps, counts in (
            ([1], [2, 3], [1, 1], [1]),  # counts short of the bases
            ([1], [2], [1], [2]),  # counts overrun the bases
            ([1, 1], [2], [1], [1]),  # an acc without a count
            ([1], [2], [1, 1], [1]),  # exps disagree with bases
            ([1, 1], [2], [1], [2, -1]),  # a negative count
        ):
            with pytest.raises(ValueError):
                fast.powmod_products(accs, bases, exps, counts, 7)
        with pytest.raises(ValueError):
            fast.powmod_products([1], [2], [3], [1], 0)
        with pytest.raises(ValueError):
            fast.powmod_products([], [], [], [], 0)

    def test_invert_vec_matches_scalar(self, name):
        fast = backend._resolve(name)
        rng = SecureRandom(32)
        mod = (2**89 - 1) * (2**107 - 1)
        values = [rng.rand_unit(mod) for _ in range(17)] + [1, mod - 1, mod + 2]
        assert fast.invert_vec(values, mod) == [pow(v, -1, mod) for v in values]
        assert fast.invert_vec(values[:1], mod) == [pow(values[0], -1, mod)]
        assert fast.invert_vec([], mod) == []

    def test_invert_vec_rejects_whole_batch(self, name):
        """One non-invertible element fails the call: no partial result,
        whatever position it sits at."""
        fast = backend._resolve(name)
        mod = (2**89 - 1) * (2**107 - 1)
        for bad in (2**89 - 1, 0, mod):
            for position in (0, 1, 2):
                values = [3, 5]
                values.insert(position, bad)
                with pytest.raises(ValueError):
                    fast.invert_vec(values, mod)

    def test_invert_vec_is_one_inversion(self, name):
        """One scalar ``invert`` of the batch's product; on the kernel,
        one C call and no scalar ``invert`` at all."""
        fast = backend._resolve(name)
        calls = []
        scalar = fast.invert
        fast.invert = lambda a, m: calls.append(a) or scalar(a, m)
        expected = [3 * 5 * 7 * 11 % 1009]
        if name == "gmp-kernel":
            _spy_on_lib(fast, calls)
            expected = ["repro_run"]
        fast.invert_vec([3, 5, 7, 11], 1009)
        assert calls == expected


    @pytest.mark.parametrize(
        "pool_size, picks", [(64, 6), (2, 1), (16, 3), (256, 8), (64, 1)]
    )
    @pytest.mark.parametrize("scheme", ["paillier", "dj"])
    def test_pool_products_match_reference(
        self, name, keypair, dj, scheme, pool_size, picks
    ):
        """The randomizer-pool draw on both pools the stack keeps (``N^2``
        and ``N^3``): digits of each big-endian read index the pool, and
        a batch is exactly its single draws (counts 0 / 1 / many)."""
        fast = backend._resolve(name)
        mod = keypair.public_key.n_squared if scheme == "paillier" else dj.n_s1
        rng = SecureRandom(33)
        pool = backend.RandomizerPool(
            [rng.rand_unit(mod) for _ in range(pool_size)], mod, picks
        )
        index_bits = pool_size.bit_length() - 1
        read_bytes = (picks * index_bits + 7) // 8
        assert (pool.index_bits, pool.read_bytes) == (index_bits, read_bytes)
        reads = rng.randbytes(read_bytes * 41)
        expected = []
        for i in range(41):
            read = int.from_bytes(reads[i * read_bytes : (i + 1) * read_bytes], "big")
            read >>= read_bytes * 8 - picks * index_bits
            product = 1
            for digit in range(picks):
                product = product * pool[(read >> index_bits * digit) & (pool_size - 1)] % mod
            expected.append(product)
        assert fast.pool_products(pool, reads) == expected
        assert fast.pool_products(pool, b"") == []
        singles = [
            fast.pool_products(pool, reads[i : i + read_bytes])
            for i in range(0, len(reads), read_bytes)
        ]
        assert [one for (one,) in singles] == expected

    @pytest.mark.parametrize("scheme", ["paillier", "dj"])
    def test_randomizers_read_the_stream_like_singles(self, name, keypair, dj, scheme):
        """Whichever backend multiplies, a batch of randomizers consumes
        one 36-bit read each and leaves the stream where singles would."""
        key = keypair.public_key if scheme == "paillier" else dj
        batch_rng, single_rng, reference = (SecureRandom(34) for _ in range(3))
        with _on_backend(name):
            batch = key.randomizers(batch_rng, 9)
            singles = [key.randomizers(single_rng, 1)[0] for _ in range(9)]
            assert key.randomizers(batch_rng, 0) == []
        with _on_backend("pure"):
            assert batch == singles == key.randomizers(SecureRandom(34), 9)
        reference.randbytes(5 * 9)
        tail = reference.randbytes(16)
        assert batch_rng.randbytes(16) == single_rng.randbytes(16) == tail

    @pytest.mark.parametrize("below_p", [False, True], ids=["full", "below_p"])
    @pytest.mark.parametrize("key_bits", [128, 256, SEED_KEY_BITS])
    def test_paillier_decrypt_matches_reference(self, name, below_p, key_bits):
        """Batches of 0, 1 and many, at the main key sizes and at the
        seed key's: the plaintext mod ``N`` (mod ``p`` in ``below_p``
        mode), bit-identical to the pure backend."""
        crt, plain, cts = _decrypt_batch(key_bits)
        fast = backend._resolve(name)
        modulus = crt.p if below_p else crt.n
        expected = [m % modulus for m in plain]
        assert fast.paillier_decrypt(crt, cts, below_p) == expected
        assert fast.paillier_decrypt(crt, cts[:1], below_p) == expected[:1]
        assert fast.paillier_decrypt(crt, [], below_p) == []
        pure = backend._resolve("pure")
        assert pure.paillier_decrypt(crt, cts, below_p) == expected

    @pytest.mark.parametrize("below_p", [False, True], ids=["full", "below_p"])
    def test_paillier_decrypt_refuses_whole_batch(self, name, below_p):
        """One bad value refuses the batch with the same text on every
        backend, wherever it sits; a value outside ``(0, N^2)`` outranks a
        non-unit anywhere in the batch."""
        crt, _, cts = _decrypt_batch(128)
        fast = backend._resolve(name)
        wide = 1 << (crt.n_squared.bit_length() + 64)
        outside = (0, crt.n_squared, crt.n_squared + 1, -1, wide)
        cases = [(bad, backend.OUTSIDE_ZN2) for bad in outside]
        cases.append((crt.p, backend.NOT_A_UNIT))
        for bad, text in cases:
            for position in (0, 1, 2):
                values = cts[:2]
                values.insert(position, bad)
                with pytest.raises(DecryptionError) as excinfo:
                    fast.paillier_decrypt(crt, values, below_p)
                assert str(excinfo.value) == text
        with pytest.raises(DecryptionError, match=r"outside"):
            fast.paillier_decrypt(crt, [crt.q, cts[0], crt.n_squared], below_p)

    @pytest.mark.parametrize("below_p", [False, True], ids=["full", "below_p"])
    def test_paillier_decrypt_refuses_multiples_of_p_and_q(self, name, below_p):
        """The unit check is divisibility by ``p`` or ``q``: ``c = k·p`` and
        ``c = k·q`` anywhere in ``(0, N^2)`` — ``N`` and the primes'
        squares among them — refuse the whole batch with the ``gcd``
        check's ``NOT_A_UNIT`` text, in either mode, and return nothing."""
        crt, _, cts = _decrypt_batch(128)
        fast = backend._resolve(name)
        rng = SecureRandom(13)
        for prime, other in ((crt.p, crt.q), (crt.q, crt.p)):
            top = crt.n_squared // prime - 1
            multiples = [1, 2, other, prime, top] + [
                rng.randint(2, top) for _ in range(4)
            ]
            for k in multiples:
                for position in (0, 2):
                    values = cts[:2]
                    values.insert(position, k * prime)
                    with pytest.raises(DecryptionError) as excinfo:
                        fast.paillier_decrypt(crt, values, below_p)
                    assert str(excinfo.value) == backend.NOT_A_UNIT

    @pytest.mark.parametrize("key_bits", [128, 256])
    def test_paillier_decrypt_below_p_is_full_mod_p(self, name, key_bits):
        """Seeded: for uniform units ``c`` of ``Z_{N^2}`` — every one a
        Paillier ciphertext — the ``p`` half is the full decryption
        reduced mod ``p``."""
        crt, _, _ = _decrypt_batch(key_bits)
        rng = SecureRandom(key_bits + 1)
        cts = [rng.rand_unit(crt.n_squared) for _ in range(24)]
        fast = backend._resolve(name)
        full = fast.paillier_decrypt(crt, cts)
        assert fast.paillier_decrypt(crt, cts, below_p=True) == [m % crt.p for m in full]
        assert full == backend._resolve("pure").paillier_decrypt(crt, cts)

    def test_paillier_decrypt_is_one_kernel_call(self, name):
        """On the kernel a batch is one C call, in either mode, and no
        ``powmod_vec``; elsewhere one ``powmod_vec`` per CRT half."""
        crt, plain, cts = _decrypt_batch(128)
        fast = backend._resolve(name)
        calls = []
        vec = fast.powmod_vec
        fast.powmod_vec = lambda b, e, m: calls.append(m) or vec(b, e, m)
        expected = [crt.p_squared, crt.q_squared, crt.p_squared]
        if name == "gmp-kernel":
            _spy_on_lib(fast, calls)
            expected = ["repro_run"] * 2
        assert fast.paillier_decrypt(crt, cts) == [m % crt.n for m in plain]
        fast.paillier_decrypt(crt, cts, below_p=True)
        assert calls == expected

    @pytest.mark.parametrize("with_pool", [True, False], ids=["pool", "no_pool"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["blind", "unblind"])
    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_blind_round_matches_reference(self, name, odd, sign, with_pool):
        """The blinding round's program over ragged items (3, 0, 1 and 6
        components under 1, 2, 0 and 3 seeds) with edge values, read
        from and written to one limb buffer: each component times
        ``1 ± b·N`` for its summed, reduced reads, times its pool draw.
        An even ``N`` runs on the pure interpreter."""
        fast = backend._resolve(name)
        rng = SecureRandom(35 + odd)
        n = rng.randbits(192) | (1 << 191)
        n = n | 1 if odd else n & ~1
        n2 = n * n
        words = backend.words_for(n2)
        width = (n.bit_length() + 128 + 7) // 8
        counts, seeds = [3, 0, 1, 6], [1, 2, 0, 3]
        values = [0, 1, n2 - 1] + [rng.randint_below(n2) for _ in range(7)]
        streams = rng.randbytes(width * sum(c * k for c, k in zip(counts, seeds)))
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        reads = rng.randbytes(pool.read_bytes * len(values)) if with_pool else b""
        expected, start, offset = [], 0, 0
        for count, k in zip(counts, seeds):
            blinds = [0] * count
            for _ in range(k):
                for j in range(count):
                    blinds[j] += int.from_bytes(streams[offset : offset + width], "big")
                    offset += width
            for value, b in zip(values[start : start + count], blinds):
                expected.append(value * (1 + sign * b % n * n) % n2)
            start += count
        registers = [
            n2, n, backend.pack_ints(values, words), [3, 1, 0, 2, 1, 0, 6, 3], streams,
            [width, int(sign < 0)],
        ]
        program = blinding.UNBLIND_ROUND
        if with_pool:
            draws = backend._resolve("pure").pool_products(pool, reads)
            expected = [v * r % n2 for v, r in zip(expected, draws)]
            program, registers = blinding.BLIND_ROUND, registers + [pool, reads]
        (out,) = fast.run(program, registers)
        assert bytes(out) == backend.pack_ints(expected, words)

    def test_blind_round_refusals(self, name):
        """An empty round is empty; a ragged layout, limb buffer, stream
        or read buffer, a bad read width or sign flag, an ``N`` whose
        square is not the modulus, a pool under another key, or a value
        outside ``[0, N^2)`` anywhere in the round refuses the whole
        program with ``ValueError``."""
        fast = backend._resolve(name)
        rng = SecureRandom(37)
        n = rng.randbits(128) | (1 << 127) | 1
        n2, width = n * n, 20
        words = backend.words_for(n2)
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        other = backend.RandomizerPool(list(pool), n2 + 2, 6)
        good = {
            "values": backend.pack_ints([5, 6, 7], words), "layout": [2, 1, 1, 2],
            "streams": rng.randbytes(width * 4), "params": [width, 0], "n": n,
            "pool": pool, "reads": rng.randbytes(pool.read_bytes * 3),
        }

        def blind(**changes):
            args = dict(good, **changes)
            registers = [n2, args["n"], args["values"], args["layout"], args["streams"],
                         args["params"], args["pool"], args["reads"]]
            return bytes(fast.run(blinding.BLIND_ROUND, registers)[0])

        assert blind(values=b"", layout=[], streams=b"", reads=b"") == b""
        assert blind(values=b"", layout=[0, 2], streams=b"", reads=b"") == b""
        assert len(blind()) == len(good["values"])
        assert fast.run(blinding.UNBLIND_ROUND, [n2, n, b"", [], b"", [width, 1]]) == [b""]
        for changes in (
            {"layout": [2, 1, 2, 2]},  # counts overrun the values
            {"layout": [2, 1, 1]},  # a count without its seeds
            {"layout": [3, 0, 0, -1]},  # negative
            {"values": good["values"][:-1]},  # not whole values
            {"streams": good["streams"][:-1]},
            {"reads": good["reads"][:-1]},
            {"params": [width, 2]},  # not a sign flag
            {"params": [0, 0]},  # no read width
            {"n": n + 2},  # N^2 is not the modulus
            {"pool": other},  # a pool under another key
        ):
            with pytest.raises(ValueError):
                blind(**changes)
        for oversized in (n2, n2 + 1, (1 << 64 * words) - 1):
            for position in range(3):
                column = [5, 6]
                column.insert(position, oversized)
                with pytest.raises(ValueError) as excinfo:
                    blind(values=backend.pack_ints(column, words))
                assert str(excinfo.value) == backend.OUTSIDE_MOD

    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_pool_products_with_factors_match_reference(self, name, odd):
        """A draw times its factor, for encryption and rerandomization in
        one call: the reference draws times the factors, on an odd
        modulus and on an even one, which runs on the pure interpreter; a
        factor outside ``[0, mod)`` or a factor count off by one is
        refused."""
        fast = backend._resolve(name)
        rng = SecureRandom(38 + odd)
        n = rng.randbits(160) | (1 << 159)
        n = n | 1 if odd else n & ~1
        n2 = n * n
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        factors = [0, 1, n2 - 1] + [rng.randint_below(n2) for _ in range(6)]
        reads = rng.randbytes(pool.read_bytes * len(factors))
        draws = backend._resolve("pure").pool_products(pool, reads)
        expected = [f * r % n2 for f, r in zip(factors, draws)]
        assert fast.pool_products(pool, reads, factors) == expected
        assert fast.pool_products(pool, b"", []) == []
        for bad in (factors[:-1], factors + [1]):
            with pytest.raises(ValueError, match="one factor per draw"):
                fast.pool_products(pool, reads, bad)
        for oversized in (n2, -1, 1 << 64 * backend.words_for(n2)):
            with pytest.raises(ValueError) as excinfo:
                fast.pool_products(pool, reads, factors[:4] + [oversized] + factors[5:])
            assert str(excinfo.value) == backend.OUTSIDE_MOD

    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_masked_unseen_matches_reference(self, name, odd):
        """A best-bound select's tests (the engine's ``MASKED_UNSEEN``):
        ``Enc(seen)`` for coin 1, ``Enc(1 − seen)`` for coin 0 (the
        inverse times ``1 + N``), each rerandomized by its pool draw —
        the formulas the request was written in before it was one call."""
        fast = backend._resolve(name)
        rng = SecureRandom(40 + odd)
        n = rng.randbits(160) | (1 << 159)
        n = n | 1 if odd else n & ~1
        n2 = n * n
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        seen = [1, n2 - 1] + [rng.rand_unit(n2) for _ in range(7)]
        coins = [1, 0, 0, 1, 1, 0, 1, 0, 0]
        reads = rng.randbytes(pool.read_bytes * len(seen))
        draws = backend._resolve("pure").pool_products(pool, reads)
        expected = [
            (s if c else pow(s, -1, n2) * (1 + n) % n2) * r % n2
            for s, c, r in zip(seen, coins, draws)
        ]
        run = functools.partial(fast.run, engine.MASKED_UNSEEN)
        assert run([n2, seen, bytes(coins), [1 + n], pool, reads]) == [expected]
        assert run([n2, [], b"", [1 + n], pool, b""]) == [[]]

    def test_masked_unseen_refusals(self, name):
        """Ragged coins or reads, a coin that is not a bit, a pool under
        another modulus, a seen bit outside ``[0, N^2)`` or one without an
        inverse refuse the whole program with ``ValueError``."""
        fast = backend._resolve(name)
        rng = SecureRandom(42)
        n = rng.randbits(128) | (1 << 127) | 1
        n2 = n * n
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        other = backend.RandomizerPool(list(pool), n2 + 2, 6)
        seen, coins = [rng.rand_unit(n2) for _ in range(3)], bytes([0, 1, 0])
        reads = rng.randbytes(pool.read_bytes * 3)
        run = functools.partial(fast.run, engine.MASKED_UNSEEN)
        for bad in (
            [n2, seen, coins[:-1], [1 + n], pool, reads],
            [n2, seen, bytes([0, 2, 0]), [1 + n], pool, reads],
            [n2, seen, coins, [1 + n], pool, reads[:-1]],
            [n2, seen, coins, [1 + n], other, reads],
        ):
            with pytest.raises(ValueError):
                run(bad)
        for oversized in (n2, -1, 1 << 64 * backend.words_for(n2)):
            with pytest.raises(ValueError) as excinfo:
                run([n2, [seen[0], oversized, seen[2]], bytes([1, 1, 1]), [1 + n], pool, reads])
            assert str(excinfo.value) == backend.OUTSIDE_MOD
        with pytest.raises(ValueError) as excinfo:
            run([n2, [seen[0], n, seen[2]], bytes([1, 0, 1]), [1 + n], pool, reads])
        assert str(excinfo.value) == backend.NOT_INVERTIBLE

    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_ehl_minus_matches_reference(self, name, odd):
        """The ⊖ program (``ehl.MINUS``) over ragged pairs (1, 5, 0, 23
        and 3 cells), edge numerators, inverses and exponents, the cells
        gathered through reversed indices: each group's pool draw times
        one power per cell quotient, the right cells inverted inside the
        program.  An even modulus runs on the pure interpreter."""
        fast = backend._resolve(name)
        rng = SecureRandom(38 + odd)
        mod = rng.randbits(512) | (1 << 511)
        mod = mod | 1 if odd else mod & ~1
        counts = [1, 5, 0, 23, 3]
        cells = sum(counts)
        nums = [0, 1, mod - 1] + [rng.randint_below(mod) for _ in range(cells - 3)]
        invs = [mod - 1, 1] + [rng.rand_unit(mod) for _ in range(cells - 2)]
        exps = [0, 1, 65537] + [rng.randbits(8 * (1 + rng.randint_below(40)))
                                for _ in range(cells - 3)]
        pool = backend.RandomizerPool([rng.rand_unit(mod) for _ in range(64)], mod, 6)
        reads = rng.randbytes(pool.read_bytes * len(counts))
        expected, cell = [], 0
        for acc, count in zip(backend._resolve("pure").pool_products(pool, reads), counts):
            for _ in range(count):
                acc = acc * pow(nums[cell] * invs[cell] % mod, exps[cell], mod) % mod
                cell += 1
            expected.append(acc)
        backwards = list(range(cells - 1, -1, -1))
        theirs = [pow(v, -1, mod) for v in invs]
        assert fast.run(ehl.MINUS, [
            mod, pool, reads, nums[::-1], backwards, theirs, list(range(cells)), exps, counts,
        ]) == [expected]

    def test_ehl_minus_refusals(self, name):
        """An empty batch is empty; ragged reads or cells, an index past
        its cells, a negative exponent, a left or right cell outside
        ``[0, mod)`` or a right cell without an inverse refuses the whole
        program with ``ValueError``."""
        fast = backend._resolve(name)
        rng = SecureRandom(40)
        mod = rng.randbits(256) | (1 << 255) | 1
        pool = backend.RandomizerPool([rng.rand_unit(mod) for _ in range(64)], mod, 6)
        run = functools.partial(fast.run, ehl.MINUS)
        assert run([mod, pool, b"", [], [], [], [], [], []]) == [[]]
        reads = rng.randbytes(pool.read_bytes * 2)
        nums, theirs, exps = [2, 3, 4], [1, 2, mod - 1], [1, 2, 3]
        counts, cells = [2, 1], [0, 1, 2]
        assert len(run([mod, pool, reads, nums, cells, theirs, cells, exps, counts])[0]) == 2
        for bad in (
            (reads[:-1], nums, cells, theirs, cells, exps, counts),  # reads
            (reads, nums, cells, theirs, cells, exps, [2, 2]),  # counts overrun the cells
            (reads, nums, cells, theirs, cells, exps, [3]),  # a group without a read
            (reads, nums[:2], cells, theirs, cells, exps, counts),  # numerators
            (reads, nums, cells, theirs[:2], cells, exps, counts),  # right cells
            (reads, nums, cells, theirs, cells[:2], exps, counts),  # right indices
            (reads, nums, cells, theirs, cells, exps[:2], counts),  # exponents
            (reads, nums, cells, theirs, cells, exps, [4, -1]),  # a negative count
            (reads, nums, cells, theirs, cells, [1, -2, 3], counts),  # a negative exponent
        ):
            with pytest.raises(ValueError):
                run([mod, pool, *bad])
        with pytest.raises(ValueError) as excinfo:
            run([mod, pool, reads, nums, cells, [1, 0, 2], cells, exps, counts])
        assert str(excinfo.value) == backend.NOT_INVERTIBLE
        for oversized in (mod, mod + 1, -1, 1 << (mod.bit_length() + 64)):
            for position in range(3):
                column = [2, 3, 4]
                column[position] = oversized
                for args in ((column, cells, theirs), (nums, cells, column)):
                    with pytest.raises(ValueError) as excinfo:
                        run([mod, pool, reads, *args, cells, exps, counts])
                    assert str(excinfo.value) == backend.OUTSIDE_MOD

    @staticmethod
    def _reply(rng, n2, slots):
        """A reply's slots: ``sel``, ``bits`` (units mod ``n2``) and the
        blinds, edge exponents 0 and 1 first."""
        sel = [rng.rand_unit(n2) for _ in range(slots)]
        bits = [rng.rand_unit(n2) for _ in range(slots)]
        return sel, bits, [0, 1] + [rng.randbits(200) for _ in range(slots - 2)]

    @staticmethod
    def _term(n2, sel, bits, exps, j, flip, value=None):
        """Slot ``j``'s term from built-ins: ``sel · (bits^e)^-1``, flipped
        ``value · sel^-1 · bits^e``."""
        power = pow(bits[j], exps[j], n2)
        if flip:
            return value * pow(sel[j], -1, n2) * power % n2
        return sel[j] * pow(power, -1, n2) % n2

    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_select_bounds_matches_reference(self, name, odd):
        """The best-bound program (the engine's ``BOUNDS``) over ragged
        targets (2, 0, 1, 3 and 4 slots) with no, every and some slots
        flipped, edge accs and exponents, against per-slot built-ins; one
        slot per target over ``acc = 1`` is the bare ``Enc(t·x)``.  An
        even ``N`` runs on the pure interpreter."""
        fast = backend._resolve(name)
        rng = SecureRandom(43 + odd)
        n = rng.randbits(256) | (1 << 255)
        n = n | 1 if odd else n & ~1
        n2, slots = n * n, 10
        sel, bits, exps = self._reply(rng, n2, slots)
        values = [rng.rand_unit(n2) for _ in range(slots)]
        counts = [2, 0, 1, 3, 4]
        accs = [0, 1, n2 - 1] + [rng.randint_below(n2) for _ in range(2)]
        run = functools.partial(fast.run, engine.BOUNDS)
        for flips in ([0] * slots, [1] * slots, [j % 3 // 2 for j in range(slots)]):
            expected, start = [], 0
            for acc, count in zip(accs, counts):
                for j in range(start, start + count):
                    acc = acc * self._term(n2, sel, bits, exps, j, flips[j], values[j]) % n2
                expected.append(acc)
                start += count
            got = run([n2, sel, bits, exps, accs, counts, bytes(flips), values,
                       list(range(slots))])
            assert got == [expected], flips
        ones = [1] * slots
        assert run([n2, sel, bits, exps, ones, ones, bytes(slots), [1], [0] * slots]) == [
            [self._term(n2, sel, bits, exps, j, 0) for j in range(slots)]
        ]

    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_select_absorb_matches_reference(self, name, odd):
        """The absorb program (the engine's ``ABSORB``) with its new seen
        bit at every position, edge exponents, and with no slot, against
        per-slot built-ins: the credits, the seen bits, the new entry's
        worst and match count and its seen bits over the pool draws.  An
        even ``N`` runs on the pure interpreter."""
        fast = backend._resolve(name)
        rng = SecureRandom(46 + odd)
        n = rng.randbits(256) | (1 << 255)
        n = n | 1 if odd else n & ~1
        n2, slots = n * n, 10
        sel, bits, exps = self._reply(rng, n2, slots)
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        reads = rng.randbytes(pool.read_bytes * 3)
        draws = backend._resolve("pure").pool_products(pool, reads)
        worsts = [0, n2 - 1] + [rng.randint_below(n2) for _ in range(slots - 2)]
        seen = [rng.rand_unit(n2) for _ in range(slots)]
        score = rng.randint_below(n2)
        terms = [self._term(n2, sel, bits, exps, j, 0) for j in range(slots)]
        entry, matched = score, 1
        for j in range(slots):
            entry = entry * pow(terms[j], -1, n2) % n2
            matched = matched * bits[j] % n2
        lift = (1 + n) * pow(matched, -1, n2) % n2
        run = functools.partial(fast.run, engine.ABSORB)
        for slot in range(3):
            fresh = list(draws)
            fresh[slot] = fresh[slot] * lift % n2
            got = run([n2, sel, bits, exps, worsts, seen, [score], [1], [1 + n], [slots],
                       [slots + 1], pool, reads, bytes(j == slot for j in range(3))])
            assert got == [
                [w * t % n2 for w, t in zip(worsts, terms)] + [entry, lift],
                [v * b % n2 for v, b in zip(seen, bits)],
                [matched],
                fresh,
            ], slot
        # No slot: the tested item's entry alone, its seen bits the
        # one-hot encryption encrypt_batch makes of the same reads.
        credited, seen_bits, counted, fresh = run(
            [n2, [], [], [], [], [], [score], [1], [1 + n], [0], [1], pool, reads,
             bytes([0, 1, 0])]
        )
        assert (credited[0], seen_bits, counted) == (score, [], [1])
        assert fresh == [(1 + (j == 1) * n) * r % n2 for j, r in enumerate(draws)]

    @staticmethod
    def _refused(fast, pure, program, registers) -> str:
        """``program`` refuses ``registers`` on ``fast`` with the pure
        backend's ``ValueError`` text; returns the text."""
        with pytest.raises(ValueError) as got:
            fast.run(program, registers)
        with pytest.raises(ValueError) as want:
            pure.run(program, registers)
        assert str(got.value) == str(want.value)
        return str(got.value)

    def test_select_bounds_refusals(self, name):
        """An empty batch is empty; a ragged layout, a negative exponent
        or count, an index past the bottoms, a residue outside ``[0,
        N^2)`` in any column or an element without an inverse refuses
        the whole program with the pure backend's ``ValueError`` text."""
        fast, pure = backend._resolve(name), backend.PurePythonBackend()
        rng = SecureRandom(45)
        n = rng.randbits(128) | (1 << 127) | 1
        n2 = n * n
        sel, bits, exps = self._reply(rng, n2, 3)
        good = {"sel": sel, "bits": bits, "exps": exps, "accs": [5, 6], "counts": [2, 1],
                "flips": bytes([0, 1, 1]), "bottoms": [7, 8], "slots": [0, 0, 1]}
        fields = list(good)

        def registers(**changes):
            return [n2] + list(dict(good, **changes).values())

        run = functools.partial(fast.run, engine.BOUNDS)
        empty = dict.fromkeys(fields, [])
        assert run(registers(**dict(empty, flips=b"", bottoms=[1]))) == [[]]
        assert run(registers(**dict(empty, flips=b"", bottoms=[1], accs=[5], counts=[0]))) == [
            [5]
        ]
        assert len(run(registers())[0]) == 2

        def refused(**changes) -> str:
            return self._refused(fast, pure, engine.BOUNDS, registers(**changes))

        for changes in (
            {"bits": bits[:2]},
            {"exps": exps[:2]},
            {"exps": [1, -2, 3]},  # negative
            {"counts": [2, 2]},  # counts overrun
            {"counts": [3]},  # a target without a count
            {"counts": [4, -1]},  # negative count
            {"flips": bytes([0, 1])},
            {"flips": bytes([0, 2, 0])},  # not a flip
            {"slots": [0, 0, 2]},  # past the bottoms
            {"slots": [0, 1]},
        ):
            refused(**changes)
        for oversized in (n2, n2 + 1, -1, 1 << (n2.bit_length() + 64)):
            for position in range(3):
                column = [2, 3, 4]
                column[position] = oversized
                for changes in (
                    {"sel": column}, {"bits": column},
                    {"accs": column, "counts": [1, 1, 1]}, {"bottoms": column},
                ):
                    assert refused(**changes) == backend.OUTSIDE_MOD
        for flip, zeroed in ((1, "sel"), (0, "bits")):
            column = {"sel": list(sel), "bits": list(bits)}
            column[zeroed][1] = 0
            assert refused(
                **column, flips=bytes([0, flip, 0])
            ) == backend.NOT_INVERTIBLE

    def test_select_absorb_refusals(self, name):
        """A ragged layout or read buffer, a one-hot mask of another
        length, a pool under another key, a negative exponent, a residue
        outside ``[0, N^2)`` in any column or an element without an
        inverse refuses the whole program with the pure backend's
        ``ValueError`` text."""
        fast, pure = backend._resolve(name), backend.PurePythonBackend()
        rng = SecureRandom(48)
        n = rng.randbits(128) | (1 << 127) | 1
        n2 = n * n
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        other = backend.RandomizerPool(list(pool), n2 + 2, 6)
        reads = rng.randbytes(pool.read_bytes * 2)
        sel, bits, exps = self._reply(rng, n2, 3)
        good = {
            "sel": sel, "bits": bits, "exps": exps, "worsts": [5, 6, 7],
            "seen": [rng.rand_unit(n2) for _ in range(3)], "score": [8], "one": [1],
            "lift": [1 + n], "whole": [3], "last": [4], "pool": pool, "reads": reads,
            "onehot": bytes([0, 1]),
        }

        def registers(**changes):
            return [n2] + list(dict(good, **changes).values())

        assert [len(out) for out in fast.run(engine.ABSORB, registers())] == [5, 3, 1, 2]

        def refused(**changes) -> str:
            return self._refused(fast, pure, engine.ABSORB, registers(**changes))

        for changes in (
            {"bits": bits[:2]},
            {"exps": exps[:2]},
            {"exps": [1, -2, 3]},
            {"worsts": [5, 6]},
            {"seen": good["seen"][:2]},
            {"reads": reads[:-1]},
            {"reads": b""},
            {"onehot": bytes([0, 1, 0])},
            {"whole": [2]},
            {"last": [5]},
            {"pool": other},
        ):
            refused(**changes)
        for oversized in (n2, n2 + 1, -1, 1 << (n2.bit_length() + 64)):
            assert refused(score=[oversized]) == backend.OUTSIDE_MOD
            for position in range(3):
                column = [2, 3, 4]
                column[position] = oversized
                for field in ("sel", "bits", "worsts", "seen"):
                    assert refused(**{field: column}) == backend.OUTSIDE_MOD
        assert refused(bits=[bits[0], n, bits[2]]) == backend.NOT_INVERTIBLE
        assert refused(sel=[sel[0], 0, sel[2]]) == backend.NOT_INVERTIBLE

    def test_fused_rounds_are_one_kernel_call(self, name):
        """On the kernel each round's program — a blinding round, a ⊖
        batch, a best-bound request and reply and an absorb — is one C
        call, its pool draws included; the pure backend interprets the
        same programs."""
        fast = backend._resolve(name)
        if name != "gmp-kernel":
            assert type(fast).run is backend.PurePythonBackend.run
            return
        calls = []
        _spy_on_lib(fast, calls)
        rng = SecureRandom(41)
        n = rng.randbits(128) | (1 << 127) | 1
        n2 = n * n
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        sel, bits = [rng.rand_unit(n2) for _ in range(2)], [rng.rand_unit(n2) for _ in range(2)]
        reads2 = rng.randbytes(pool.read_bytes * 2)
        fast.run(blinding.BLIND_ROUND, [
            n2, n, backend.pack_ints([3, 4], backend.words_for(n2)), [2, 2],
            rng.randbytes(80), [20, 0], pool, reads2,
        ])
        fast.run(ehl.MINUS, [
            n2, pool, rng.randbytes(pool.read_bytes), [3, 4], [0, 1], [1, 2], [0, 1],
            [7, 8], [2],
        ])
        fast.run(engine.MASKED_UNSEEN, [n2, sel, bytes([0, 1]), [1 + n], pool, reads2])
        fast.run(engine.BOUNDS, [n2, sel, bits, [7, 8], [9], [2], bytes([0, 1]), [10], [0, 0]])
        fast.run(engine.ABSORB, [
            n2, sel, bits, [7, 8], [9, 10], [12, 13], [11], [1], [1 + n], [2], [3], pool,
            reads2, bytes([1, 0]),
        ])
        assert calls == ["repro_run"] * 5

    def test_request_side_draws_are_one_kernel_call(self, name):
        """A batch encryption, a batch rerandomization and a best-bound
        select's tests are one C call each on the kernel, the pool draws
        multiplied into their values inside it."""
        rng = SecureRandom(43)
        pk = PaillierKeypair.generate(128, SecureRandom(44)).public_key
        n, n2 = pk.n, pk.n_squared
        pool = pk.randomizer_pool()
        with _on_backend(name) as fast:
            if name != "gmp-kernel":
                assert type(fast).run is backend.PurePythonBackend.run
                return
            calls = []
            _spy_on_lib(fast, calls)
            cts = pk.encrypt_batch([3, 4, 5], rng)
            pk.rerandomize_batch(cts, rng)
            backend.run(engine.MASKED_UNSEEN, [
                n2, [ct.value for ct in cts], bytes([0, 1, 0]), [1 + n], pool,
                rng.randbytes(pool.read_bytes * 3),
            ])
        assert calls == ["repro_run"] * 3

    def test_each_select_reply_is_one_call(self, name, monkeypatch):
        """Every ``BlindedSelect`` reply of an eager query is applied by the
        very next backend call — a run of ``ABSORB`` for an absorb, of
        ``BOUNDS`` for the best bounds — and that run is one
        ``repro_run`` C call on the kernel: nothing else between reply and
        result."""
        calls = []
        real_flow = engine.blinded_select_reply_flow
        real_run = backend.run

        def flow(*args, bit_mode, **kwargs):
            reply = yield from real_flow(*args, bit_mode=bit_mode, **kwargs)
            calls.append(("reply", bit_mode))
            return reply

        def run(program, registers):
            calls.append(("enter", program))
            out = real_run(program, registers)
            calls.append("exit")
            return out

        monkeypatch.setattr(engine, "blinded_select_reply_flow", flow)
        monkeypatch.setattr(backend, "run", run)
        with _on_backend(name) as active:
            if name == "gmp-kernel":
                _spy_on_lib(active, calls)
            scheme, relation, token = _seeded_tiny_query()
            scheme.query(relation, token)
        replies = [
            i for i, call in enumerate(calls) if isinstance(call, tuple) and call[0] == "reply"
        ]
        assert {calls[i][1] for i in replies} == {False, True}
        for i in replies:
            program = engine.BOUNDS if calls[i][1] else engine.ABSORB
            made = ["repro_run"] if name == "gmp-kernel" else []
            assert calls[i + 1 : i + 3 + len(made)] == [("enter", program), *made, "exit"]


def _seeded_tiny_query():
    """The seeded tiny eager query the one-call tests count on: 14 rows
    of 4 attributes, ``k = 3`` over three of them."""
    rng = SecureRandom(12)
    rows = [[rng.randint_below(40) for _ in range(4)] for _ in range(14)]
    scheme = SecTopK(SystemParams.tiny(), seed=12)
    return scheme, scheme.encrypt(rows), scheme.token([0, 2, 3], k=3)


def _op_cases(rng, mod):
    """Per op, one-op programs' inputs under ``mod``: ``(op, operand
    kinds, registers)``, edge residues and broadcasts included."""
    M, L, E, I, B, P = (backend.MOD, backend.LIMBS, backend.EXPS, backend.INTS,
                        backend.BYTES, backend.POOL)
    units = [rng.rand_unit(mod) for _ in range(6)]
    edges = [0, 1, mod - 1] + units[:3]
    exps = [0, 1, 65537] + [rng.randbits(300) for _ in range(3)]
    pool = backend.RandomizerPool([rng.rand_unit(mod) for _ in range(64)], mod, 6)
    reads = rng.randbytes(pool.read_bytes * 6)
    mask = bytes([1, 0, 0, 1, 1, 0])
    return [
        ("mul", (L, L), [mod, edges, units]),
        ("mul", (L, L), [mod, [mod - 1], edges]),
        ("mul", (L, L), [mod, edges, [mod - 1]]),
        ("inv", (L,), [mod, units]),
        ("inv", (L,), [mod, []]),
        ("pow", (L, E), [mod, edges, exps]),
        ("pow", (L, E), [mod, edges, [rng.randbits(200)]]),
        ("powprod", (L, L, E, I), [mod, units[:4], edges + units, exps * 2, [1, 0, 6, 5]]),
        ("prod", (L, L, I), [mod, units[:3], edges, [2, 0, 4]]),
        ("pool", (P, B), [mod, pool, reads]),
        ("pool", (P, B, L), [mod, pool, reads, edges]),
        ("pick", (B, L, L), [mod, mask, edges, units]),
        ("pick", (B, L, L), [mod, mask, [mod - 1], units]),
        ("gather", (L, I), [mod, edges, [5, 0, 0, 3]]),
        ("cat", (L, L), [mod, edges, []]),
        ("cat", (L, L, L), [mod, units, edges, [1]]),
    ]


@pytest.mark.parametrize(
    "name",
    [
        "pure",
        pytest.param("gmp-kernel", marks=needs_kernel),
    ],
)
class TestProgramOps:
    """Each op of a :class:`~repro.crypto.backend.Program` as a program
    of one op: the kernel's result is the pure interpreter's, on odd and
    even moduli, and each op refuses registers that do not fit it with
    the pure interpreter's text."""

    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_each_op_matches_the_pure_interpreter(self, name, odd):
        fast, pure = backend._resolve(name), backend.PurePythonBackend()
        rng = SecureRandom(60 + odd)
        mod = rng.randbits(512) | (1 << 511)
        mod = mod | 1 if odd else mod & ~1
        for op, kinds, registers in _op_cases(rng, mod):
            program = backend.one_op(op, backend.MOD, *kinds)
            assert fast.run(program, registers) == pure.run(program, registers), op
        # The reference against built-ins.
        cases = _op_cases(SecureRandom(60 + odd), mod)
        (_, kinds, (_, a, b)), (_, pow_kinds, (_, bases, exps)) = cases[0], cases[5]
        assert pure.run(backend.one_op("mul", backend.MOD, *kinds), [mod, a, b]) == [
            [x * y % mod for x, y in zip(a, b)]
        ]
        assert pure.run(backend.one_op("pow", backend.MOD, *pow_kinds), [mod, bases, exps]) == [
            [pow(x, e, mod) for x, e in zip(bases, exps)]
        ]

    def test_an_even_modulus_runs_on_the_pure_interpreter(self, name):
        """A program with an even modulus among its inputs makes no C
        call: the kernel hands it to the pure interpreter, whose result it
        returns.  With every modulus odd, it is one C call again."""
        fast, pure = backend._resolve(name), backend.PurePythonBackend()
        calls = []
        if name == "gmp-kernel":
            _spy_on_lib(fast, calls)
        rng = SecureRandom(65)
        even = (rng.randbits(512) | (1 << 511)) & ~1
        for op, kinds, registers in _op_cases(rng, even):
            program = backend.one_op(op, backend.MOD, *kinds)
            assert fast.run(program, registers) == pure.run(program, registers), op
        program = backend.Program()
        m1, m2, a = (program.input(kind) for kind in (backend.MOD, backend.MOD, backend.LIMBS))
        program.output(program.op("mul", m1, program.op("inv", m1, a), a))
        program.output(program.op("mul", m2, a, a))
        units = [1, even - 1]  # units under even, even + 1 and even + 3
        for registers in ([even + 1, even, units], [even, even + 1, units]):
            assert fast.run(program, registers) == pure.run(program, registers)
        assert calls == []
        fast.run(program, [even + 1, even + 3, units])
        assert calls == (["repro_run"] if name == "gmp-kernel" else [])

    def test_decrypt_and_blinds_match_the_pure_interpreter(self, name):
        fast, pure = backend._resolve(name), backend.PurePythonBackend()
        crt, plain, cts = _decrypt_batch(128)
        program = backend.one_op("decrypt", backend.CRT, backend.LIMBS, backend.INTS)
        for below_p in (0, 1):
            got = fast.run(program, [crt, cts, [below_p]])
            assert got == pure.run(program, [crt, cts, [below_p]])
            assert got == [[m % (crt.p if below_p else crt.n) for m in plain]]
        rng = SecureRandom(62)
        n = rng.randbits(128) | (1 << 127) | 1
        program = backend.Program()
        n2_reg, n_reg = program.input(backend.MOD), program.input(backend.MOD)
        layout, streams = program.input(backend.INTS), program.input(backend.BYTES)
        params = program.input(backend.INTS)
        program.output(program.op("blinds", n2_reg, layout, streams, n_reg, params))
        for negate in (0, 1):
            registers = [n * n, n, [2, 3, 0, 1, 1, 0], rng.randbytes(6 * 30), [30, negate]]
            got = fast.run(program, registers)
            assert got == pure.run(program, registers)
            sums = [
                sum(int.from_bytes(registers[3][30 * (2 * s + j) : 30 * (2 * s + j + 1)], "big")
                    for s in range(3))
                for j in range(2)
            ]
            assert got[0][:2] == [(1 + (-b if negate else b) % n * n) for b in sums]
            assert got[0][2] == 1

    def test_each_op_refuses_what_does_not_fit(self, name):
        fast, pure = backend._resolve(name), backend.PurePythonBackend()
        rng = SecureRandom(63)
        mod = rng.randbits(256) | (1 << 255) | 1
        M, L, E, I, B, P = (backend.MOD, backend.LIMBS, backend.EXPS, backend.INTS,
                            backend.BYTES, backend.POOL)
        pool = backend.RandomizerPool([rng.rand_unit(mod) for _ in range(64)], mod, 6)
        units = [rng.rand_unit(mod) for _ in range(3)]
        cases = [
            ("mul", (L, L), [mod, units, units[:2]], None),
            ("mul", (L, L), [mod, units, [mod]], backend.OUTSIDE_MOD),
            ("inv", (L,), [mod, units + [0]], backend.NOT_INVERTIBLE),
            ("inv", (L,), [mod, units + [-1]], backend.OUTSIDE_MOD),
            ("pow", (L, E), [mod, units, [1, 2]], None),
            ("pow", (L, E), [mod, units, [1, -2, 3]], None),
            ("powprod", (L, L, E, I), [mod, units[:1], units, [1, 2, 3], [2]], None),
            ("powprod", (L, L, E, I), [mod, units[:2], units, [1, 2, 3], [2, 1, 0]], None),
            ("powprod", (L, L, E, I), [mod, units[:1], units, [1, 2], [3]], None),
            ("prod", (L, L, I), [mod, units[:2], units, [4, -1]], None),
            ("pool", (P, B), [mod, pool, bytes(pool.read_bytes + 1)], None),
            ("pool", (P, B, L), [mod, pool, bytes(pool.read_bytes), units], None),
            ("pool", (P, B, L), [mod, pool, bytes(pool.read_bytes), [mod]], backend.OUTSIDE_MOD),
            ("pool", (P, B), [mod, backend.RandomizerPool(pool, mod + 2, 6), b""], None),
            ("pool", (P, B), [mod, backend.RandomizerPool(pool[:63], mod, 6), b""], None),
            ("pool", (P, B), [mod, backend.RandomizerPool(pool, mod, 11), b""], None),
            ("pick", (B, L, L), [mod, bytes([0, 1]), units, units], None),
            ("pick", (B, L, L), [mod, bytes([0, 1, 2]), units, units], None),
            ("gather", (L, I), [mod, units, [0, 3]], None),
            ("cat", (L, L), [mod, units, [mod + 1]], backend.OUTSIDE_MOD),
        ]
        for op, kinds, registers, text in cases:
            program = backend.one_op(op, M, *kinds)
            with pytest.raises(ValueError) as got:
                fast.run(program, registers)
            with pytest.raises(ValueError) as want:
                pure.run(program, registers)
            assert str(got.value) == str(want.value), op
            if text is not None:
                assert str(got.value) == text, op
        crt, _, cts = _decrypt_batch(128)
        program = backend.one_op("decrypt", backend.CRT, L, I)
        for registers, error in (
            ([crt, cts, [2]], ValueError),
            ([crt, cts[:2] + [crt.n_squared], [0]], DecryptionError),
            ([crt, cts[:2] + [crt.p], [1]], DecryptionError),
        ):
            with pytest.raises(error) as got:
                fast.run(program, registers)
            with pytest.raises(error) as want:
                pure.run(program, registers)
            assert str(got.value) == str(want.value)

    def test_a_ragged_program_is_refused_identically(self, name):
        """Registers that do not fit a program — one value too few, a
        register read under two widths, a packed buffer that is not
        whole values — are refused before any arithmetic, with the same
        text on both backends; so is a program built wrong."""
        fast, pure = backend._resolve(name), backend.PurePythonBackend()
        rng = SecureRandom(64)
        small, big = (1 << 61) - 1, rng.randbits(300) | 1
        program = backend.Program()
        m1, m2, a = (program.input(kind) for kind in (backend.MOD, backend.MOD, backend.LIMBS))
        program.output(program.op("mul", m1, program.op("inv", m1, a), a))
        program.output(program.op("mul", m2, a, a))
        ok = [small, small, [3, 5]]
        assert fast.run(program, ok) == pure.run(program, ok)
        for registers in (
            [small, small],
            [small, big, [3, 5]],
            [small, small, bytes(12)],
            [0, small, [3, 5]],
        ):
            with pytest.raises(ValueError) as got:
                fast.run(program, registers)
            with pytest.raises(ValueError) as want:
                pure.run(program, registers)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="reads a ints register"):
            program.op("gather", m1, a, a)
        with pytest.raises(ValueError, match="an output is a register an op writes"):
            program.output(a)
        with pytest.raises(ValueError, match="takes 2 operands"):
            program.op("mul", m1, a)


@needs_kernel
class TestKernelRun:
    def test_seeded_query_makes_the_parent_count_of_c_calls(self):
        """The seeded tiny eager query makes 339 C calls, every one a
        ``repro_run``: the 365 it made before its rounds became programs,
        less one per ⊖ batch, whose inversion is inside ``ehl.MINUS``."""
        scheme, relation, token = _seeded_tiny_query()
        with _on_backend("gmp-kernel") as kernel:
            calls = []
            _spy_on_lib(kernel, calls)
            scheme.query(relation, token)
        assert calls == ["repro_run"] * 339

    def test_c_checks_every_register_again(self):
        """``repro_run`` refuses, before reading or writing, a register
        outside the arena, an op over registers that do not fit it, a
        gather index past its source and an even modulus — whatever the
        Python side passed."""
        kernel = kernels.load_kernel()
        ffi, lib = kernel._ffi, kernel._lib
        program = backend.Program()
        mod, a, idx = (program.input(kind) for kind in (backend.MOD, backend.LIMBS, backend.INTS))
        program.output(program.op("gather", mod, a, idx))

        def run(table, indices=(1, 0), mod=7):
            # the modulus, a = [3, 5], idx, then room for the output
            arena = bytearray(backend.pack_ints([mod, 3, 5, *indices] + [0] * 11, 1))
            rc = lib.repro_run(
                ffi.from_buffer("uint64_t[]", program.encoded), 1,
                ffi.from_buffer("uint64_t[]", backend.pack_ints(table, 1)), 4,
                ffi.from_buffer("uint64_t[]", arena), 16,
            )
            return rc, backend.unpack_ints(arena, 1, 2, 5 * 8)

        # offset, count, width and aux per register: mod, a, idx, out
        good = [0, 1, 1, 0, 1, 2, 1, 0, 3, 2, 1, 0, 5, 2, 1, 0]
        assert run(good) == (0, [5, 3])
        for at, value in ((12, 15), (13, 9), (9, 3), (10, 2), (2, 2), (1, 2)):
            table = list(good)
            table[at] = value
            assert run(table) == (-1, [0, 0]), (at, value)
        assert run(good, (1, 2)) == (-1, [0, 0])
        assert run(good, mod=8) == (-1, [0, 0])
        with pytest.raises(ValueError, match="gather needs indices"):
            kernel.run(program, [7, [3], [1]])

@needs_kernel
class TestKernelCache:
    def test_stale_build_is_rebuilt_not_imported(self, tmp_path, monkeypatch):
        """A cache dir holding a build of other sources (an older
        checkout's, say) gets a build of its own next to it."""
        from repro.crypto import _gmp_kernel
        from repro.crypto._gmp_kernel import build

        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))

        def fresh_load():
            monkeypatch.setattr(_gmp_kernel, "_LOADED", None)
            monkeypatch.setattr(_gmp_kernel, "_REASON", None)
            return _gmp_kernel.load()

        with monkeypatch.context() as other:
            # A kernel of other sources: one more entry point.
            other.setattr(build, "CDEF", build.CDEF + "int repro_other(void);\n")
            other.setattr(build, "SOURCE", build.SOURCE + "int repro_other(void) { return 7; }\n")
            _, other_lib = fresh_load()
            assert other_lib.repro_other() == 7
        _, lib = fresh_load()
        assert not hasattr(lib, "repro_other")
        assert hasattr(lib, "repro_run")
        assert len([p for p in tmp_path.iterdir() if p.is_dir()]) == 2

    def test_pool_products_rejects_malformed_input(self):
        """The C loop indexes raw buffers, so a ragged ``pool.packed``, a
        ragged read buffer or a shape the loop cannot index is refused
        before the call."""
        kernel = kernels.load_kernel()
        mod = (2**89 - 1) * (2**107 - 1)
        pool = backend.RandomizerPool(list(range(2, 66)), mod, 6)
        assert kernel.pool_products(pool, bytes(10)) == [2**6] * 2
        with pytest.raises(ValueError, match="whole number of draws"):
            kernel.pool_products(pool, bytes(7))
        ragged = backend.RandomizerPool(pool, mod, 6)
        ragged.packed = pool.packed[:-32]
        with pytest.raises(ValueError, match="2\\*\\*index_bits elements"):
            kernel.pool_products(ragged, bytes(5))
        with pytest.raises(ValueError, match="index bits"):
            kernel.pool_products(backend.RandomizerPool(pool, mod, 11), bytes(9))
        with pytest.raises(ValueError, match="index bits"):
            kernel.pool_products(backend.RandomizerPool(pool, mod, 0), b"")
        # A pool that is not a power of two many values fails its first draw.
        short = backend.RandomizerPool(list(range(2, 65)), mod, 6)
        with pytest.raises(ValueError, match="2\\*\\*index_bits elements"):
            kernel.pool_products(short, bytes(5))

    def test_paillier_decrypt_rejects_malformed_constants(self):
        """The C loop reads the packed constants and writes the output
        buffer raw: a ragged ``crt.packed``, or one packed for a modulus
        wider than the output words, is refused before any output is
        written."""
        kernel = kernels.load_kernel()
        wide, _, wide_cts = _decrypt_batch(256)
        narrow, plain, cts = _decrypt_batch(128)
        expected = [m % narrow.n for m in plain]
        assert kernel.paillier_decrypt(narrow, cts) == expected
        packed = narrow.packed
        kernel.paillier_decrypt(wide, wide_cts[:1])
        try:
            for bad in (packed[:-8], b""):
                narrow.packed = bad
                with pytest.raises(ValueError, match="nine limb-format values"):
                    kernel.paillier_decrypt(narrow, cts)
            narrow.packed = wide.packed
            with pytest.raises(ValueError, match="do not match the modulus"):
                kernel.paillier_decrypt(narrow, cts)
        finally:
            narrow.packed = packed
        assert kernel.paillier_decrypt(narrow, cts) == expected


class TestBatchEntryPoints:
    def test_rerandomize_batch_matches_rerandomize_stream(self, keypair):
        pk, sk = keypair.public_key, keypair.secret_key
        cts = pk.encrypt_batch([4, 0, pk.n - 1], SecureRandom(5))
        batch = pk.rerandomize_batch(cts, SecureRandom(6))
        rng = SecureRandom(6)
        assert [c.value for c in batch] == [pk.rerandomize(c, rng).value for c in cts]
        assert sk.decrypt_batch(batch) == [4, 0, pk.n - 1]
        assert all(a.value != b.value for a, b in zip(batch, cts))

    def test_dj_encrypt_batch_matches_encrypt_stream(self, keypair, dj):
        values = [0, 1, dj.n_s - 1]
        batch = dj.encrypt_batch(values, SecureRandom(7))
        rng = SecureRandom(7)
        assert [c.value for c in batch] == [dj.encrypt(v, rng).value for v in values]
        assert dj.decrypt_batch(batch, keypair) == values

    def test_encrypt_batch_matches_encrypt_stream(self, keypair):
        """Batching must not change the randomness stream."""
        pk = keypair.public_key
        values = [0, 1, 17, pk.n - 1]
        batch = pk.encrypt_batch(values, SecureRandom(42))
        rng = SecureRandom(42)
        singles = [pk.encrypt(v, rng) for v in values]
        assert [c.value for c in batch] == [c.value for c in singles]

    def test_decrypt_batch_matches_singles(self, keypair):
        pk, sk = keypair.public_key, keypair.secret_key
        cts = pk.encrypt_batch([5, 0, 999, pk.n - 3], SecureRandom(8))
        assert sk.decrypt_batch(cts) == [sk.decrypt(c) for c in cts]

    def test_module_level_entry_points(self, keypair):
        # Batch encryption and decryption are the key methods; the backend
        # module holds only the arithmetic they run on.
        pk, sk = keypair.public_key, keypair.secret_key
        values = [3, 1, 4, 1, 5]
        cts = pk.encrypt_batch(values, SecureRandom(9))
        assert sk.decrypt_batch(cts) == values
        assert not hasattr(backend, "encrypt_batch")
        assert not hasattr(backend, "decrypt_batch")

    def test_dj_batch_matches_singles(self, keypair, dj):
        rng = SecureRandom(21)
        lcs = [dj.encrypt(v, rng) for v in (0, 1, 12345)]
        assert dj.decrypt_batch(lcs, keypair) == [
            dj.decrypt(lc, keypair) for lc in lcs
        ]
        pk = keypair.public_key
        inner = [dj.encrypt_ciphertext(pk.encrypt(v, rng), rng) for v in (7, 8)]
        stripped = dj.decrypt_inner_batch(inner, keypair)
        assert [c.value for c in stripped] == dj.decrypt_batch(inner, keypair)
        assert keypair.secret_key.decrypt_batch(stripped) == [7, 8]


class TestPickling:
    def test_public_key_pool_excluded(self, keypair):
        pk = keypair.public_key
        pk.encrypt(1)  # force pool + hoisted rng to exist
        assert pk._pool is not None and pk._rng is not None
        clone = pickle.loads(pickle.dumps(pk))
        assert clone._pool is None and clone._rng is None
        assert clone == pk
        # The clone still encrypts (pool rebuilt lazily) and round-trips.
        assert keypair.secret_key.decrypt(clone.encrypt(41)) == 41

    def test_dj_pool_excluded(self, keypair, dj):
        dj.encrypt(1)
        clone = pickle.loads(pickle.dumps(dj))
        assert clone._pool is None and clone._rng is None
        assert dj.decrypt(clone.encrypt(9), keypair) == 9

    def test_scheme_round_trips(self):
        scheme = SecTopK(SystemParams.tiny(), seed=2)
        relation = scheme.encrypt([[1, 2], [3, 4], [5, 6]])
        clone = pickle.loads(pickle.dumps(scheme))
        result = clone.query(relation, clone.token([0, 1], k=1))
        assert len(clone.reveal(result)) == 1


def _parent_blind(blinder, items, seed_lists, sign, rng):
    """The per-component blinding loop ``ItemBlinder._apply`` ran before
    it became one ``blind_round`` call: every component value of every
    item, in the blinder's order."""
    pk = blinder.public_key
    n, n2 = pk.n, pk.n_squared
    width = (n.bit_length() + 128 + 7) // 8
    out = []
    for item, seeds in zip(items, seed_lists):
        cts = list(item.ehl.cells) + [
            ct for ct in (item.worst, item.best) if ct is not None
        ] + list(item.list_scores or ()) + list(item.seen_bits or ()) + (
            [item.record] if item.record is not None else []
        )
        blinds = [0] * len(cts)
        for seed in seeds:
            stream = hashlib.shake_256(b"repro-item-blind:" + seed).digest(len(cts) * width)
            for k in range(len(cts)):
                blinds[k] += int.from_bytes(stream[k * width : (k + 1) * width], "big")
        out += [ct.value * (1 + sign * (b % n) % n * n) % n2 for ct, b in zip(cts, blinds)]
    if rng is not None:
        out = [v * r % n2 for v, r in zip(out, pk.randomizers(rng, len(out)))]
    return out


def _parent_minus(pairs, rng):
    """The ⊖ batch before ``ehl_minus``: per pair one ``randomizers``
    draw for ``Enc(0)``, then one scalar per cell."""
    pk = pairs[0][0].public_key
    n, n2 = pk.n, pk.n_squared
    out = []
    for mine, theirs in pairs:
        acc = pk.randomizers(rng, 1)[0]
        for cell, other in zip(mine.cells, theirs.cells):
            quotient = cell.value * pow(other.value, -1, n2) % n2
            acc = acc * pow(quotient, rng.rand_nonzero(n), n2) % n2
        out.append(acc)
    return out


def _parent_compare(ctx, enc_a, enc_b):
    """The blinded ``EncCompare`` request before the stage was batched,
    in ciphertext operator sugar: ``(masked value, sigma)``."""
    diff = (enc_b - enc_a) * 2 + 1
    sigma = ctx.rng.randbits(1)
    if sigma:
        diff = -diff
    scale = ctx.rng.randint(1, (1 << ctx.encoder.blind_bits) - 1)
    return ctx.public_key.rerandomize(diff * scale, ctx.rng).value, sigma


def _seeded_pool(n, exponent, modulus, size, picks):
    """``paillier.fresh_pool`` from a stream seeded by the modulus, so a
    seeded run's ciphertexts are a function of its seed alone."""
    rng = SecureRandom(b"pool:" + modulus.to_bytes((modulus.bit_length() + 7) // 8, "big"))
    values = [pow(rng.rand_unit(n), exponent, modulus) for _ in range(size)]
    return backend.RandomizerPool(values, modulus, picks)


def _components_of(items):
    """Every component value of ``items``, in the blinder's order."""
    out = []
    for item in items:
        out += [c.value for c in item.ehl.cells]
        out += [c.value for c in (item.worst, item.best) if c is not None]
        out += [c.value for c in item.list_scores or ()]
        out += [c.value for c in item.seen_bits or ()]
        out += [item.record.value] if item.record is not None else []
    return out


@pytest.mark.parametrize(
    "name",
    [
        "pure",
        pytest.param("gmp-kernel", marks=needs_kernel),
    ],
)
class TestFusedRoundsPinTheirFormulas:
    """Under one seed, the fused blinding round, the ⊖ batch and the
    batched blinded comparisons give the ciphertexts of the formulas
    they replaced (kept above as the reference) and leave the rng where
    those left it."""

    @staticmethod
    def _items(keypair, rng):
        pk = keypair.public_key
        enc = lambda count: pk.encrypt_batch(  # noqa: E731
            [rng.randint_below(pk.n) for _ in range(count)], rng
        )
        return [
            ScoredItem(ehl=Ehl(enc(5)), worst=enc(1)[0], seen_bits=enc(3),
                       record=enc(1)[0], uid=1),
            ScoredItem(ehl=Ehl(enc(5)), worst=enc(1)[0], best=enc(1)[0],
                       list_scores=enc(2), uid=2),
            ScoredItem(ehl=Ehl(enc(5)), worst=enc(1)[0],
                       seen_bits=pk.encrypt_batch([1, 0], rng), uid=3),
        ]

    def test_blind_round(self, name, keypair):
        blinder = ItemBlinder(keypair.public_key)
        items = self._items(keypair, SecureRandom(50))
        seed_lists = [[b"a" * 12], [b"b" * 12, b"c" * 12], [b"d" * 12, b"e" * 12]]
        fused_rng, parent_rng = SecureRandom(51), SecureRandom(51)
        with _on_backend(name):
            blinded = blinder.blind_batch(
                ItemBatch.pack(keypair.public_key, items), seed_lists, fused_rng
            )
            unblinded = blinder.unblind_batch(blinded, seed_lists)
        blinded, unblinded = blinded.unpack(), unblinded.unpack()
        assert _components_of(blinded) == _parent_blind(
            blinder, items, seed_lists, 1, parent_rng
        )
        assert fused_rng.randbytes(16) == parent_rng.randbytes(16)
        assert _components_of(unblinded) == _parent_blind(
            blinder, blinded, seed_lists, -1, None
        )

    def test_minus(self, name, keypair):
        rng = SecureRandom(52)
        pk = keypair.public_key
        ehls = [Ehl(pk.encrypt_batch([rng.randint_below(2) for _ in range(5)], rng))
                for _ in range(4)]
        pairs = [(ehls[0], ehls[1]), (ehls[2], ehls[1]), (ehls[3], ehls[0]),
                 (ehls[1], ehls[1])]
        fused_rng, parent_rng = SecureRandom(53), SecureRandom(53)
        with _on_backend(name):
            fused = minus_pairs(pairs, fused_rng)
        assert [c.value for c in fused] == _parent_minus(pairs, parent_rng)
        assert fused_rng.randbytes(16) == parent_rng.randbytes(16)

    def test_select_replies(self, name, monkeypatch):
        """A seeded eager query (randomizer pools seeded too) ends with
        the integers the per-slot unblinding gave before ``select_bounds``
        and ``select_absorb``:
        every result item's worst and seen bits and every best bound the
        halting rule compared, recorded on the parent as one digest."""
        monkeypatch.setattr(paillier, "fresh_pool", _seeded_pool)
        bests = []
        real = engine.EagerEngine._best_flow

        def best_flow(self, candidates, depth):
            out = yield from real(self, candidates, depth)
            bests.append([best.value for best in out])
            return out

        monkeypatch.setattr(engine.EagerEngine, "_best_flow", best_flow)
        rng = SecureRandom(12)
        rows = [[rng.randint_below(40) for _ in range(4)] for _ in range(14)]
        with _on_backend(name):
            scheme = SecTopK(SystemParams.tiny(), seed=12)
            result = scheme.query(scheme.encrypt(rows), scheme.token([0, 2, 3], k=3))
        items = [(i.worst.value, [b.value for b in i.seen_bits]) for i in result.items]
        assert result.halting_depth == 9 and [len(b) for b in bests] == [1, 4, 6, 7, 8, 9, 9, 9]
        assert hashlib.sha256(repr((items, bests)).encode()).hexdigest() == (
            "93ae061a696f6b710ce9e5ea04c66bec91efd3eee988c9dd2fe3eabc909b551d"
        )

    def test_compare(self, name, keypair):
        rng = SecureRandom(54)
        pk = keypair.public_key
        cts = pk.encrypt_batch([3, 9, 0, pk.n - 4, 9, 1], rng)
        pairs = [(cts[0], cts[1]), (cts[1], cts[0]), (cts[2], cts[3]),
                 (cts[4], cts[1]), (cts[5], cts[5])]
        fused_ctx = make_parties(keypair, rng=SecureRandom(55))
        parent_ctx = make_parties(keypair, rng=SecureRandom(55))
        with _on_backend(name):
            flows = enc_compare_flows(fused_ctx, pairs)
            requests = [flow.send(None) for flow in flows]
        expected = [_parent_compare(parent_ctx, a, b) for a, b in pairs]
        assert [r.ct.values()[0] for r in requests] == [value for value, _ in expected]
        for flow, (_, sigma) in zip(flows, expected):
            with pytest.raises(StopIteration) as stop:
                flow.send(True)
            assert stop.value.value == (not sigma)
        assert fused_ctx.rng.randbytes(16) == parent_ctx.rng.randbytes(16)
