"""ComputePool unit tests: chunk geometry, the thread / inline compute
paths, validation, the closed-pool contract, and the kernel limb format.

The pool is wired to nothing in ``repro.server``; it exists for
``perfbench``'s ``crypto.pool_*`` probe (see ``repro.crypto.parallel``).
"""

from __future__ import annotations

import pytest

from repro.crypto import backend, kernels
from repro.crypto.parallel import ComputePool, _chunk_count, _chunks
from repro.crypto.rng import SecureRandom

needs_kernel = pytest.mark.skipif(
    not backend.kernel_available(), reason="gmp kernel unavailable"
)


@pytest.fixture(scope="module")
def payload(keypair):
    """Ciphertext values plus their expected plaintexts."""
    rng = SecureRandom(31)
    dec_vals = [keypair.public_key.encrypt(v, rng).value for v in range(24)]
    return dec_vals, keypair.secret_key.raw_decrypt_batch(dec_vals)


class TestChunking:
    def test_chunks_are_balanced(self):
        for n, parts in [(25, 3), (40, 3), (7, 7), (100, 4), (5, 1)]:
            chunks = _chunks(list(range(n)), parts)
            sizes = [len(c) for c in chunks]
            assert len(chunks) == parts
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1
            # Contiguous and order-preserving.
            assert [x for c in chunks for x in c] == list(range(n))

    def test_no_chunk_below_min_batch(self):
        # The historical regression: 25 items over 3 workers with
        # min_batch=8 must not emit a 7-item runt tail.
        for n in range(1, 200):
            for workers in (1, 2, 3, 4, 8):
                for min_batch in (1, 4, 8):
                    parts = _chunk_count(n, workers, min_batch)
                    sizes = [len(c) for c in _chunks(list(range(n)), parts)]
                    assert parts <= workers
                    if parts > 1:
                        assert min(sizes) >= min_batch

    def test_chunk_count_zero_min_batch(self):
        assert _chunk_count(10, 4, 0) == 4  # guarded against division by 0


@needs_kernel
class TestComputePaths:
    """Pooled decryption equals ``raw_decrypt_batch`` on both paths."""

    def test_thread_mode(self, keypair, payload):
        dec_vals, ref_dec = payload
        with ComputePool(keypair, workers=3, min_batch=4, mode="thread") as pool:
            assert pool.decrypt_values(dec_vals) == ref_dec

    def test_inline_below_min_batch(self, keypair, payload, monkeypatch):
        dec_vals, ref_dec = payload
        with ComputePool(keypair, workers=4, min_batch=64) as pool:
            # 24 values < 2 * min_batch: computed inline, no fan-out.
            monkeypatch.setattr(
                pool._executor, "map", lambda *a: pytest.fail("fanned out")
            )
            assert pool.decrypt_values(dec_vals) == ref_dec


    def test_decrypts_on_its_own_kernel_under_pure(self, keypair, payload):
        """With the process on the pure backend, every chunk still runs on
        the pool's own kernel — one ``repro_run`` call each —
        bit-identical to the pure decryption."""
        dec_vals, ref_dec = payload
        previous = backend.set_backend("pure")
        try:
            with ComputePool(keypair, workers=3, min_batch=4) as pool:
                calls, lib = [], pool._kernel._lib

                class Spy:
                    def __getattr__(self, attr):
                        calls.append(attr)
                        return getattr(lib, attr)

                pool._kernel._lib = Spy()
                pooled = pool.decrypt_values(dec_vals)
            assert pooled == keypair.secret_key.raw_decrypt_batch(dec_vals) == ref_dec
            assert calls == ["repro_run"] * 3
        finally:
            backend.set_backend(previous)


class TestValidation:
    def test_unknown_mode_rejected(self, keypair):
        for mode in ("fiber", "process", "auto"):
            with pytest.raises(ValueError, match="mode"):
                ComputePool(keypair, mode=mode)

    def test_thread_mode_requires_kernel(self, keypair, monkeypatch):
        monkeypatch.setattr(kernels, "load_kernel", lambda: None)
        with pytest.raises(ValueError, match="gmp-kernel"):
            ComputePool(keypair, mode="thread")


@needs_kernel
class TestLifecycle:
    def test_closed_pool_rejects_batches(self, keypair, payload):
        pool = ComputePool(keypair, workers=2, min_batch=4)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.decrypt_values(payload[0])
        pool.close()  # idempotent


class TestLimbFormat:
    """The fixed-width word format the kernel speaks."""

    def test_round_trip(self):
        values = [0, 1, 2**63, 2**64 - 1, 2**64, 2**191, 2**192 - 1]
        words = kernels.words_for(max(values))
        buf = kernels.pack_ints(values, words)
        assert kernels.unpack_ints(buf, words, len(values)) == values

    def test_width_limit_enforced(self):
        # A value too wide for its slot must fail loudly, not truncate.
        with pytest.raises(OverflowError):
            kernels.pack_ints([2**64], 1)
        assert kernels.unpack_ints(kernels.pack_ints([2**64 - 1], 1), 1, 1) == [
            2**64 - 1
        ]

    def test_words_for(self):
        assert kernels.words_for(0) == 1
        assert kernels.words_for(2**64 - 1) == 1
        assert kernels.words_for(2**64) == 2


def test_pool_start_method_is_fork_when_available():
    import multiprocessing

    from repro.server.query_workers import pool_start_method

    if "fork" in multiprocessing.get_all_start_methods():
        assert pool_start_method() == "fork"
    else:
        assert pool_start_method() in multiprocessing.get_all_start_methods()
