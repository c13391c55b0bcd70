"""Backend parity and batch entry-point tests for the compute layer.

Every public op of :mod:`repro.crypto.backend` must be bit-identical
under the pure-Python, gmpy2 and compiled gmp-kernel backends (the
accelerated halves skip where the package/extension is absent), and the
batch entry points must match their per-item equivalents exactly —
including randomness stream order, so seeded transcripts are invariant
to batching.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.params import SystemParams
from repro.core.scheme import SecTopK
from repro.crypto import backend, kernels
from repro.crypto.damgard_jurik import DamgardJurik
from repro.crypto.paillier import (
    PaillierKeypair,
    decrypt_vector,
    encrypt_vector,
)
from repro.crypto.rng import SecureRandom

needs_gmpy2 = pytest.mark.skipif(
    not backend.gmpy2_available(), reason="gmpy2 not installed"
)
needs_kernel = pytest.mark.skipif(
    not backend.kernel_available(), reason="gmp kernel unavailable"
)


@pytest.fixture(scope="module")
def keypair():
    return PaillierKeypair.generate(128, SecureRandom(11))


@pytest.fixture(scope="module")
def dj(keypair):
    return DamgardJurik(keypair.public_key, s=2)


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
            if backend.kernel_available():
                expected = "gmp-kernel"
            elif backend.gmpy2_available():
                expected = "gmpy2"
            else:
                expected = "pure"
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


@needs_gmpy2
class TestGmpy2Parity:
    """Bit-identical results for every public backend op."""

    CASES = [
        (2, 10, 1_000),
        (0, 5, 77),
        (1, 0, 77),
        (123456789, 987654321, 2**127 - 1),
    ]

    def test_powmod(self):
        pure, fast = backend.PurePythonBackend(), backend.Gmpy2Backend()
        rng = SecureRandom(3)
        cases = list(self.CASES) + [
            (rng.randbits(256), rng.randbits(256), rng.randbits(256) | 1)
            for _ in range(20)
        ]
        for base, exp, mod in cases:
            assert pure.powmod(base, exp, mod) == fast.powmod(base, exp, mod)

    def test_powmod_vec(self):
        pure, fast = backend.PurePythonBackend(), backend.Gmpy2Backend()
        rng = SecureRandom(4)
        bases = [rng.randbits(256) for _ in range(16)]
        exp, mod = rng.randbits(256), rng.randbits(256) | 1
        assert pure.powmod_vec(bases, exp, mod) == fast.powmod_vec(bases, exp, mod)

    def test_invert(self):
        pure, fast = backend.PurePythonBackend(), backend.Gmpy2Backend()
        rng = SecureRandom(5)
        mod = (2**89 - 1) * (2**107 - 1)  # composite, mostly coprime draws
        for _ in range(20):
            a = rng.randint(1, mod - 1)
            if pure.gcd(a, mod) != 1:
                continue
            assert pure.invert(a, mod) == fast.invert(a, mod)
        with pytest.raises(ValueError):
            fast.invert(2**89 - 1, mod)

    def test_gcd(self):
        pure, fast = backend.PurePythonBackend(), backend.Gmpy2Backend()
        rng = SecureRandom(6)
        for _ in range(20):
            a, b = rng.randbits(300), rng.randbits(300)
            assert pure.gcd(a, b) == fast.gcd(a, b)

    def test_whole_query_invariant_under_backend(self):
        """A seeded scheme reveals identical winners on both backends."""
        revealed = []
        for name in ("pure", "gmpy2"):
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
        pure, fast = backend.PurePythonBackend(), backend.GmpKernelBackend()
        rng = SecureRandom(3)
        cases = list(self.CASES) + [
            (rng.randbits(256), rng.randbits(256), rng.randbits(256) | 1)
            for _ in range(20)
        ]
        for base, exp, mod in cases:
            assert pure.powmod(base, exp, mod) == fast.powmod(base, exp, mod)

    def test_powmod_vec(self):
        pure, fast = backend.PurePythonBackend(), backend.GmpKernelBackend()
        rng = SecureRandom(4)
        bases = [rng.randbits(256) for _ in range(16)]
        exp, mod = rng.randbits(256), rng.randbits(256) | 1
        assert pure.powmod_vec(bases, exp, mod) == fast.powmod_vec(bases, exp, mod)

    def test_powmod_vec_mixed_widths(self):
        """Exponent and base words differ from modulus words (the
        Paillier-encrypt shape: half-width exponent, double-width mod)."""
        pure, fast = backend.PurePythonBackend(), backend.GmpKernelBackend()
        rng = SecureRandom(12)
        mod = rng.randbits(512) | (1 << 511) | 1
        bases = [rng.randbits(700) for _ in range(8)] + [0, 1, mod - 1, mod, mod + 1]
        for exp in (0, 1, 65537, rng.randbits(256)):
            assert pure.powmod_vec(bases, exp, mod) == fast.powmod_vec(bases, exp, mod)

    def test_powmod_vec_edges(self):
        fast = backend.GmpKernelBackend()
        assert fast.powmod_vec([], 3, 7) == []
        with pytest.raises(ValueError):
            fast.powmod_vec([2], 3, 0)
        # Negative exponents take the pure fallback path.
        assert fast.powmod_vec([3], -1, 11) == [pow(3, -1, 11)]

    def test_invert(self):
        pure, fast = backend.PurePythonBackend(), backend.GmpKernelBackend()
        rng = SecureRandom(5)
        mod = (2**89 - 1) * (2**107 - 1)
        for _ in range(20):
            a = rng.randint(1, mod - 1)
            if pure.gcd(a, mod) != 1:
                continue
            assert pure.invert(a, mod) == fast.invert(a, mod)
        with pytest.raises(ValueError):
            fast.invert(2**89 - 1, mod)

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
        pytest.param("gmpy2", marks=needs_gmpy2),
        pytest.param("gmp-kernel", marks=needs_kernel),
    ],
)
class TestBatchPrimitiveParity:
    """``powmod_pairs`` / ``powmod_products`` / ``invert_vec`` /
    ``pool_products`` agree with per-element built-ins on every backend
    that exists here (the CI legs pin one each)."""

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
            lib = fast._kernel._lib

            class Spy:
                def __getattr__(self, attr):
                    calls.append(attr)
                    return getattr(lib, attr)

            fast._kernel = kernels.GmpKernel(fast._kernel._ffi, Spy())
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
        """The C loop indexes raw buffers, so a buffer of the wrong size
        or a shape the loop cannot index is refused before the call."""
        from repro.crypto import kernels

        kernel = kernels.load_kernel()
        mod = (2**89 - 1) * (2**107 - 1)
        packed = kernel.pack_pool(list(range(2, 66)), mod)
        assert kernel.pool_products(packed, 6, 6, bytes(10), mod) == [2**6] * 2
        with pytest.raises(ValueError, match="whole number of draws"):
            kernel.pool_products(packed, 6, 6, bytes(7), mod)
        with pytest.raises(ValueError, match="2\\*\\*index_bits elements"):
            kernel.pool_products(packed[:-32], 6, 6, bytes(5), mod)
        with pytest.raises(ValueError, match="index bits"):
            kernel.pool_products(packed, 6, 11, bytes(9), mod)
        with pytest.raises(ValueError, match="index bits"):
            kernel.pool_products(packed, 6, 0, b"", mod)
        # A pool that is not a power of two many values fails its first draw.
        short = backend.RandomizerPool(list(range(2, 65)), mod, 6)
        with pytest.raises(ValueError, match="2\\*\\*index_bits elements"):
            backend._resolve("gmp-kernel").pool_products(short, bytes(5))


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
