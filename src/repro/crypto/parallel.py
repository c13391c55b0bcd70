"""A thread pool kept for one benchmark probe.

:class:`ComputePool` chunks a Paillier decrypt batch across threads on
the GIL-free ``gmp-kernel`` backend.  Nothing in ``repro.server`` uses
it: a query's rounds carry a handful of ciphertexts each, and one
kernel call is cheaper than a fan-out at that size.  It exists for
``perfbench``'s ``crypto.pool_decrypt_us_per_ct`` /
``crypto.pool_speedup_ratio`` probe and goes when a benchmark change
drops those two metrics.  (The worker *process* pool behind
``TopKServer.execute_many(mode="process")`` lives with the server, in
:mod:`repro.server.query_workers`.)
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from repro.crypto import kernels


def _chunks(values: list, n: int) -> list[list]:
    """Split into exactly ``n`` contiguous chunks whose sizes differ by
    at most one (the first ``len % n`` chunks take the extra item), so
    with ``n <= len // min_batch`` no chunk drops below ``min_batch``."""
    base, extra = divmod(len(values), n)
    out, lo = [], 0
    for i in range(n):
        hi = lo + base + (1 if i < extra else 0)
        out.append(values[lo:hi])
        lo = hi
    return out


def _chunk_count(n_values: int, workers: int, min_batch: int) -> int:
    """How many chunks to cut: never so many that a chunk drops below
    ``min_batch`` items (tiny chunks cost more to hand over than to run)."""
    return max(1, min(workers, n_values // max(min_batch, 1)))


class ComputePool:
    """Chunked Paillier decryption on kernel threads — kept for
    ``perfbench``'s ``crypto.pool_*`` probe only (see the module docstring).

    Parameters
    ----------
    keypair:
        The Paillier key pair whose secret key decrypts.
    dj:
        Unused; the probe passes it positionally.
    workers:
        Pool size; defaults to the machine's core count.
    min_batch:
        Batches smaller than twice this are decrypted inline.
    mode:
        Only ``"thread"``; requires the compiled ``gmp-kernel``.
    """

    def __init__(self, keypair, dj=None, workers: int | None = None,
                 min_batch: int = 8, mode: str = "thread"):
        if mode != "thread":
            raise ValueError(f"unknown compute-pool mode: {mode!r}")
        # Every chunk runs on the pool's own kernel, whatever the
        # process-wide backend is.
        self._kernel = kernels.load_kernel()
        if self._kernel is None:
            raise ValueError(
                "the compute pool requires the compiled gmp-kernel backend "
                f"(unavailable here: {kernels.kernel_unavailable_reason()})"
            )
        self.workers = workers or os.cpu_count() or 1
        self.min_batch = min_batch
        self._secret_key = keypair.secret_key
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="compute-pool"
        )
        self._closed = False

    def _chunk(self, values: list[int]) -> list[int]:
        return self._kernel.paillier_decrypt(self._secret_key.crt, values)

    def decrypt_values(self, values: list[int]) -> list[int]:
        """Paillier decryption of bare ciphertext values, fanned out."""
        if self._closed:
            raise RuntimeError("compute pool is closed")
        n_chunks = _chunk_count(len(values), self.workers, self.min_batch)
        if n_chunks < 2:
            return self._chunk(values)
        chunks = self._executor.map(self._chunk, _chunks(values, n_chunks))
        return [plain for chunk in chunks for plain in chunk]

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ComputePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
