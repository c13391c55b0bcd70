"""Backend parity and batch entry-point tests for the compute layer.

Every public op of :mod:`repro.crypto.backend` must be bit-identical
under the pure-Python and compiled gmp-kernel backends (the kernel
halves skip where the extension is absent), and the
batch entry points must match their per-item equivalents exactly —
including randomness stream order, so seeded transcripts are invariant
to batching.
"""

from __future__ import annotations

import functools
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.core.params import SystemParams
from repro.core.scheme import SecTopK
from repro.crypto import backend, kernels
from repro.crypto.damgard_jurik import DamgardJurik, LayeredCiphertext
from repro.crypto.paillier import (
    Ciphertext,
    PaillierKeypair,
    decrypt_vector,
    encrypt_vector,
)
from repro.crypto.rng import SecureRandom
from repro.exceptions import DecryptionError
from repro.protocols.base import make_parties
from repro.protocols.blinding import ItemBlinder, seed_key_bits
from repro.protocols.enc_compare import enc_compare_flows
from repro.structures.ehl import Ehl, minus_pairs
from repro.structures.items import ScoredItem

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
        assert "pure" in backend.available_backends()

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

    def test_use_backend_is_thread_local(self):
        import threading

        previous = backend.set_backend("pure")
        seen = {}
        try:
            with backend.use_backend("pure") as override:
                assert backend.get_backend() is override

                def probe():
                    seen["other"] = backend.get_backend().name

                t = threading.Thread(target=probe)
                t.start()
                t.join()
            # The override is gone outside the block; the other thread
            # never saw it (it read the process-wide selection).
            assert backend.get_backend().name == "pure"
            assert seen["other"] == "pure"
        finally:
            backend.set_backend(previous)

    def test_use_backend_nests_and_restores(self):
        previous = backend.set_backend("pure")
        try:
            inner = backend.PurePythonBackend()
            outer = backend.PurePythonBackend()
            with backend.use_backend(outer):
                assert backend.get_backend() is outer
                with backend.use_backend(inner):
                    assert backend.get_backend() is inner
                assert backend.get_backend() is outer
            assert backend.get_backend().name == "pure"
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
        """A scalar power is one C call and never goes through
        ``powmod_vec`` (a tracer wrapping both counts it once)."""
        fast = kernels.load_kernel()
        calls = []
        fast.powmod_vec = lambda *args: calls.append("powmod_vec")
        _spy_on_lib(fast, calls)
        assert fast.powmod(3, 5, 7) == 5
        assert calls == ["repro_powmod_vec"]

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
        5 — with accs at and above the modulus.  An even modulus takes
        the kernel's mpz path."""
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
            expected = ["repro_invert_vec"]
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
        with backend.use_backend(name):
            batch = key.randomizers(batch_rng, 9)
            singles = [key.randomizers(single_rng, 1)[0] for _ in range(9)]
            assert key.randomizers(batch_rng, 0) == []
        with backend.use_backend("pure"):
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
            expected = ["repro_paillier_decrypt"] * 2
        assert fast.paillier_decrypt(crt, cts) == [m % crt.n for m in plain]
        fast.paillier_decrypt(crt, cts, below_p=True)
        assert calls == expected

    @pytest.mark.parametrize("with_pool", [True, False], ids=["pool", "no_pool"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["blind", "unblind"])
    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_blind_round_matches_reference(self, name, odd, sign, with_pool):
        """Ragged items (3, 0, 1 and 6 components under 1, 2, 0 and 3
        seeds) with edge values: each component times ``1 ± b·N`` for
        its summed, reduced reads, times its pool draw.  An even ``N``
        takes the kernel's plain-pool path."""
        fast = backend._resolve(name)
        rng = SecureRandom(35 + odd)
        n = rng.randbits(192) | (1 << 191)
        n = n | 1 if odd else n & ~1
        n2 = n * n
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
        if with_pool:
            draws = backend._resolve("pure").pool_products(pool, reads)
            expected = [v * r % n2 for v, r in zip(expected, draws)]
        args = (values, counts, seeds, streams, width, n, sign)
        assert fast.blind_round(*args, pool if with_pool else None, reads) == expected

    def test_blind_round_refusals(self, name):
        """An empty round is empty; a ragged layout, stream or read
        buffer, or a value outside ``[0, N^2)`` anywhere in the round,
        refuses the whole call with ``ValueError``."""
        fast = backend._resolve(name)
        rng = SecureRandom(37)
        n = rng.randbits(128) | (1 << 127) | 1
        n2, width = n * n, 20
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        assert fast.blind_round([], [], [], b"", width, n, 1) == []
        assert fast.blind_round([], [0], [2], b"", width, n, -1, pool, b"") == []
        values, counts, seeds = [5, 6, 7], [2, 1], [1, 2]
        streams = rng.randbytes(width * 4)
        reads = rng.randbytes(pool.read_bytes * 3)
        good = (values, counts, seeds, streams, width, n, 1, pool, reads)
        assert len(fast.blind_round(*good)) == 3
        for bad in (
            (values, [2, 2], seeds, streams, width, n, 1, pool, reads),  # counts
            (values, counts, [1], streams, width, n, 1, pool, reads),  # seed list
            (values, [3, 0], [1, -1], streams, width, n, 1, pool, reads),  # negative
            (values, counts, seeds, streams[:-1], width, n, 1, pool, reads),  # stream
            (values, counts, seeds, streams, width, n, 1, pool, reads[:-1]),  # reads
            (values, counts, seeds, streams, width, n, 1, None, reads),  # no pool
            (values, counts, seeds, streams, width, n, 0, pool, reads),  # sign
            (values, counts, seeds, streams, width, n + 2, 1, pool, reads),  # pool key
        ):
            with pytest.raises(ValueError):
                fast.blind_round(*bad)
        for oversized in (n2, n2 + 1, -1, 1 << (n2.bit_length() + 64)):
            for position in range(3):
                values = [5, 6]
                values.insert(position, oversized)
                with pytest.raises(ValueError) as excinfo:
                    fast.blind_round(values, counts, seeds, streams, width, n, 1, pool, reads)
                assert str(excinfo.value) == backend.OUTSIDE_MOD

    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_ehl_minus_matches_reference(self, name, odd):
        """Ragged pairs (1, 5, 0, 23 and 3 cells), edge numerators,
        inverses and exponents: each group's pool draw times one power
        per cell quotient.  An even modulus takes the kernel's mpz
        path."""
        fast = backend._resolve(name)
        rng = SecureRandom(38 + odd)
        mod = rng.randbits(512) | (1 << 511)
        mod = mod | 1 if odd else mod & ~1
        counts = [1, 5, 0, 23, 3]
        cells = sum(counts)
        nums = [0, 1, mod - 1] + [rng.randint_below(mod) for _ in range(cells - 3)]
        invs = [mod - 1, 1, 0] + [rng.randint_below(mod) for _ in range(cells - 3)]
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
        assert fast.ehl_minus(pool, reads, nums, invs, exps, counts) == expected

    def test_ehl_minus_refusals(self, name):
        """An empty batch is empty; ragged reads or cells, a negative
        exponent, or a numerator or inverse outside ``[0, mod)`` refuses
        the whole call with ``ValueError``."""
        fast = backend._resolve(name)
        rng = SecureRandom(40)
        mod = rng.randbits(256) | (1 << 255) | 1
        pool = backend.RandomizerPool([rng.rand_unit(mod) for _ in range(64)], mod, 6)
        assert fast.ehl_minus(pool, b"", [], [], [], []) == []
        reads = rng.randbytes(pool.read_bytes * 2)
        nums, invs, exps, counts = [2, 3, 4], [5, 6, 7], [1, 2, 3], [2, 1]
        assert len(fast.ehl_minus(pool, reads, nums, invs, exps, counts)) == 2
        for bad in (
            (reads[:-1], nums, invs, exps, counts),  # reads
            (reads, nums, invs, exps, [2, 2]),  # counts overrun the cells
            (reads, nums, invs, exps, [3]),  # a group without a read
            (reads, nums[:2], invs, exps, counts),  # numerators
            (reads, nums, invs[:2], exps, counts),  # inverses
            (reads, nums, invs, exps[:2], counts),  # exponents
            (reads, nums, invs, exps, [4, -1]),  # a negative count
            (reads, nums, invs, [1, -2, 3], counts),  # a negative exponent
        ):
            with pytest.raises(ValueError):
                fast.ehl_minus(pool, *bad)
        for oversized in (mod, mod + 1, -1, 1 << (mod.bit_length() + 64)):
            for position in range(3):
                for side in ("nums", "invs"):
                    column = [2, 3, 4]
                    column[position] = oversized
                    args = (column, invs) if side == "nums" else (nums, column)
                    with pytest.raises(ValueError) as excinfo:
                        fast.ehl_minus(pool, reads, *args, exps, counts)
                    assert str(excinfo.value) == backend.OUTSIDE_MOD

    def test_fused_rounds_are_one_kernel_call(self, name):
        """On the kernel a blinding round and a ⊖ batch are one C call
        each, their pool draws included; elsewhere they are the
        reference loops over the backend's own ops."""
        fast = backend._resolve(name)
        if name != "gmp-kernel":
            assert type(fast).blind_round is backend.PurePythonBackend.blind_round
            assert type(fast).ehl_minus is backend.PurePythonBackend.ehl_minus
            return
        calls = []
        _spy_on_lib(fast, calls)
        rng = SecureRandom(41)
        n = rng.randbits(128) | (1 << 127) | 1
        n2 = n * n
        pool = backend.RandomizerPool([rng.rand_unit(n2) for _ in range(64)], n2, 6)
        fast.blind_round(
            [3, 4], [2], [2], rng.randbytes(80), 20, n, 1, pool,
            rng.randbytes(pool.read_bytes * 2),
        )
        fast.ehl_minus(pool, rng.randbytes(pool.read_bytes), [3, 4], [5, 6], [7, 8], [2])
        assert calls == ["repro_blind_round", "repro_ehl_minus"]


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

        with monkeypatch.context() as older:
            # The kernel as it was before powmod_products and invert_vec
            # existed.
            cdef = build.CDEF
            older.setattr(
                build, "CDEF", cdef[: cdef.index("int repro_powmod_products")]
            )
            _, old_lib = fresh_load()
            assert not hasattr(old_lib, "repro_powmod_products")
            assert not hasattr(old_lib, "repro_invert_vec")
        _, lib = fresh_load()
        assert hasattr(lib, "repro_powmod_products")
        assert hasattr(lib, "repro_invert_vec")
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
        assert sk.decrypt_signed_batch(cts) == [sk.decrypt_signed(c) for c in cts]

    def test_module_level_entry_points(self, keypair):
        # Batch encryption and decryption are the key methods; the backend
        # module holds only the arithmetic they run on.
        pk, sk = keypair.public_key, keypair.secret_key
        values = [3, 1, 4, 1, 5]
        cts = pk.encrypt_batch(values, SecureRandom(9))
        assert sk.decrypt_batch(cts) == values
        assert not hasattr(backend, "encrypt_batch")
        assert not hasattr(backend, "decrypt_batch")

    def test_vector_helpers_round_trip(self, keypair):
        pk, sk = keypair.public_key, keypair.secret_key
        values = [10, 20, 30]
        assert decrypt_vector(sk, encrypt_vector(pk, values, SecureRandom(1))) == values

    def test_dj_batch_matches_singles(self, keypair, dj):
        rng = SecureRandom(21)
        lcs = [dj.encrypt(v, rng) for v in (0, 1, 12345)]
        assert dj.decrypt_batch(lcs, keypair) == [
            dj.decrypt(lc, keypair) for lc in lcs
        ]
        inner = [dj.encrypt_ciphertext(keypair.public_key.encrypt(7, rng), rng)]
        assert dj.decrypt_inner_batch(inner, keypair)[0].value == dj.decrypt_inner(
            inner[0], keypair
        ).value


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
    its Paillier half became one ``blind_round`` call: every component
    value of every item (Paillier ones first, then ``E2`` seen bits)."""
    import hashlib

    pk, dj = blinder.public_key, blinder.dj
    n, n2, n_s, n_s1 = pk.n, pk.n_squared, dj.n_s, dj.n_s1
    plain_bytes = (n.bit_length() + 128 + 7) // 8
    layered_bytes = (n_s.bit_length() + 128 + 7) // 8
    plain, layered = [], []
    for item, seeds in zip(items, seed_lists):
        lcs = [b for b in item.seen_bits or () if isinstance(b, LayeredCiphertext)]
        cts = list(item.ehl.cells) + [
            ct for ct in (item.worst, item.best) if ct is not None
        ] + list(item.list_scores or ()) + [
            b for b in item.seen_bits or () if isinstance(b, Ciphertext)
        ] + ([item.record] if item.record is not None else [])
        split = len(cts) * plain_bytes
        plain_blinds, layered_blinds = [0] * len(cts), [0] * len(lcs)
        for seed in seeds:
            stream = hashlib.shake_256(b"repro-item-blind:" + seed).digest(
                split + len(lcs) * layered_bytes
            )
            for k in range(len(cts)):
                plain_blinds[k] += int.from_bytes(
                    stream[k * plain_bytes : (k + 1) * plain_bytes], "big"
                )
            for k in range(len(lcs)):
                start = split + k * layered_bytes
                layered_blinds[k] += int.from_bytes(
                    stream[start : start + layered_bytes], "big"
                )
        plain += [
            ct.value * (1 + sign * (b % n) % n * n) % n2
            for ct, b in zip(cts, plain_blinds)
        ]
        layered += [
            lc.value * dj._g_pow(sign * (b % n_s)) % n_s1
            for lc, b in zip(lcs, layered_blinds)
        ]
    if rng is not None:
        plain = [v * r % n2 for v, r in zip(plain, pk.randomizers(rng, len(plain)))]
        if layered:
            layered = [
                v * r % n_s1 for v, r in zip(layered, dj.randomizers(rng, len(layered)))
            ]
    return plain + layered


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


def _components_of(items):
    """Every component value of ``items``, Paillier ones first (in the
    blinder's order), then ``E2`` seen bits."""
    plain, layered = [], []
    for item in items:
        plain += [c.value for c in item.ehl.cells]
        plain += [c.value for c in (item.worst, item.best) if c is not None]
        plain += [c.value for c in item.list_scores or ()]
        for bit in item.seen_bits or ():
            (layered if isinstance(bit, LayeredCiphertext) else plain).append(bit.value)
        plain += [item.record.value] if item.record is not None else []
    return plain + layered


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
    def _items(keypair, dj, rng):
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
                       seen_bits=dj.encrypt_batch([1, 0], rng), uid=3),
        ]

    def test_blind_round(self, name, keypair, dj):
        blinder = ItemBlinder(keypair.public_key, dj)
        items = self._items(keypair, dj, SecureRandom(50))
        seed_lists = [[b"a" * 12], [b"b" * 12, b"c" * 12], [b"d" * 12, b"e" * 12]]
        fused_rng, parent_rng = SecureRandom(51), SecureRandom(51)
        with backend.use_backend(name):
            blinded = blinder.blind_many(items, seed_lists, fused_rng)
            unblinded = blinder.unblind_many(blinded, seed_lists)
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
        with backend.use_backend(name):
            fused = minus_pairs(pairs, fused_rng)
        assert [c.value for c in fused] == _parent_minus(pairs, parent_rng)
        assert fused_rng.randbytes(16) == parent_rng.randbytes(16)

    def test_compare(self, name, keypair):
        rng = SecureRandom(54)
        pk = keypair.public_key
        cts = pk.encrypt_batch([3, 9, 0, pk.n - 4, 9, 1], rng)
        pairs = [(cts[0], cts[1]), (cts[1], cts[0]), (cts[2], cts[3]),
                 (cts[4], cts[1]), (cts[5], cts[5])]
        fused_ctx = make_parties(keypair, rng=SecureRandom(55))
        parent_ctx = make_parties(keypair, rng=SecureRandom(55))
        with backend.use_backend(name):
            flows = enc_compare_flows(fused_ctx, pairs)
            requests = [flow.send(None) for flow in flows]
        expected = [_parent_compare(parent_ctx, a, b) for a, b in pairs]
        assert [r.ct.value for r in requests] == [value for value, _ in expected]
        for flow, (_, sigma) in zip(flows, expected):
            with pytest.raises(StopIteration) as stop:
                flow.send(True)
            assert stop.value.value == (not sigma)
        assert fused_ctx.rng.randbytes(16) == parent_ctx.rng.randbytes(16)
