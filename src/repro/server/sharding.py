"""Sharded S1 scan: one relation's sorted lists as contiguous depth slices.

``QueryConfig(shards=N)`` splits an
:class:`~repro.core.relation.EncryptedRelation`'s query lists into
``N`` *contiguous depth slices* — shard ``s`` holds rows
``[lo_s, hi_s)`` of **every** queried list — behind a
:class:`ShardedQueryLists` façade the engines consume exactly like
plain lists::

    ShardPlan ──partition──▶ ShardWorker 0  (depths [0, n/N))
                             ShardWorker 1  (depths [n/N, 2n/N))
                             ...
                ──per-window depth batches──▶ fan-in merge ──▶ engine

Per check window (``QueryConfig.check_every()`` depths), every shard
whose slice overlaps the window assembles its depth batch, inline on
the query's thread, and the batches are merged depth-ordered by
:func:`fan_in_batches` *before* the window's rounds
are built.  The merged items are value-identical to the unsharded lists
(scalar weighting draws no randomness) and reach the engine in scan
order, so every message, byte and leakage event of the S2-visible
transcript is bit-identical to the single-worker run — locked down
property-style by ``tests/test_sharding.py``.

**Why this is all that is left.**  Sharding by depth slices never paid:
NRA halts early (depth ≤ 7 on the benchmark's first 16 ``fresh_inproc``
tokens), so shard 0 serves every window and the other shards only ever
contribute the up-front scalar weighting; and S1 keeps the whole
relation anyway (mutations and worker processes read it), so slices on
other threads or hosts save no memory.  The shard thread pool, the
remote shard daemons and the slice cache measured no faster than the
plain scan and were deleted (CHANGES.md has the measurements).  This
inline path stays only because the benchmark's
``server.shard2_overhead_ratio`` probe submits
``QueryConfig(shards=2)``; once a ``benchmark`` PR drops that probe the
rest of this module can follow.
"""

from __future__ import annotations

import bisect
import time
from collections.abc import Sequence

from repro.core.results import ShardStats
from repro.core.token import Token
from repro.exceptions import QueryError, ShardFanInError
from repro.structures.items import EncryptedItem, weight_entries


def fan_in_batches(
    per_shard_batches: list,
    lo: int | None = None,
    hi: int | None = None,
    shard_ids: list | None = None,
) -> list:
    """Fan-in stage of the sharded scan: merge per-shard depth batches.

    Each shard worker contributes a batch of ``(depth, payload)`` pairs
    for the depths of one check window that fall inside its slice; this
    stage merges them into a single depth-ordered batch — the stream the
    engine consumes — *before* the window's rounds are built, so the
    messages that reach the round loop are exactly the ones an
    unsharded scan would send.

    Validates that the shards' contributions tile the window: a
    duplicated or missing depth means the shard plan and the workers
    disagree, and silently proceeding would desynchronize the transcript
    from the unsharded run.  Pass the window bounds ``[lo, hi)`` to
    catch depths missing at the window *edges* too — without them only
    interior gaps are detectable.  Pass ``shard_ids`` (one id per batch,
    in batch order) and the raised :class:`ShardFanInError` names the
    shard whose contribution broke the tiling.
    """
    if shard_ids is None:
        shard_ids = [None] * len(per_shard_batches)
    owner = {}
    merged = []
    for batch, shard_id in zip(per_shard_batches, shard_ids):
        for pair in batch:
            depth = pair[0]
            if depth in owner:
                raise ShardFanInError(
                    "shard fan-in: overlapping depth batches at depth "
                    f"{depth}",
                    shard_id=shard_id,
                    window=(lo, hi) if lo is not None and hi is not None else None,
                )
            owner[depth] = shard_id
            merged.append(pair)
    merged.sort(key=lambda pair: pair[0])
    depths = [depth for depth, _ in merged]
    if lo is not None and hi is not None:
        if depths != list(range(lo, hi)):
            missing = sorted(set(range(lo, hi)) - set(depths))
            stray = sorted(set(depths) - set(range(lo, hi)))
            detail = f"shard fan-in: batches do not tile the window [{lo}, {hi})"
            culprit = None
            if stray:
                detail += f"; stray depths {stray}"
                culprit = owner.get(stray[0])
            if missing:
                detail += f"; missing depths {missing}"
            raise ShardFanInError(detail, shard_id=culprit, window=(lo, hi))
    elif depths and depths != list(range(depths[0], depths[0] + len(depths))):
        gap_after = next(
            d for d, nxt in zip(depths, depths[1:]) if nxt != d + 1
        )
        raise ShardFanInError(
            f"shard fan-in: depth batches leave a gap after depth {gap_after}",
            shard_id=owner.get(gap_after),
        )
    return merged


class ShardPlan:
    """Contiguous, balanced partition of ``n_rows`` depths into shards.

    The first ``n_rows % n_shards`` shards take one extra depth, so
    slice sizes differ by at most one and concatenating the slices in
    shard order reproduces ``range(n_rows)`` exactly.
    """

    __slots__ = ("n_rows", "n_shards", "bounds", "_starts")

    def __init__(self, n_rows: int, n_shards: int):
        if n_rows < 1:
            raise QueryError("cannot shard an empty scan")
        if not 1 <= n_shards <= n_rows:
            raise QueryError(
                f"n_shards={n_shards} out of range for n_rows={n_rows}"
            )
        self.n_rows = n_rows
        self.n_shards = n_shards
        base, extra = divmod(n_rows, n_shards)
        bounds = []
        lo = 0
        for shard in range(n_shards):
            hi = lo + base + (1 if shard < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        self.bounds = tuple(bounds)
        self._starts = [b[0] for b in self.bounds]

    @classmethod
    def for_scan(cls, n_rows: int, requested: int) -> "ShardPlan":
        """A plan for ``requested`` shards, clamped to the scan length
        (a 3-row relation cannot occupy more than 3 workers)."""
        return cls(n_rows, max(1, min(requested, n_rows)))

    def owner(self, depth: int) -> int:
        """The shard whose slice holds ``depth``."""
        if not 0 <= depth < self.n_rows:
            raise QueryError(f"depth {depth} outside the scan")
        return bisect.bisect_right(self._starts, depth) - 1

    def overlapping(self, lo: int, hi: int) -> list[int]:
        """Shards whose slices intersect the depth window ``[lo, hi)``."""
        if lo >= hi:
            return []
        return list(range(self.owner(lo), self.owner(hi - 1) + 1))


class ShardWorker:
    """One shard's storage and scan state for a single query.

    Holds row slice ``[lo, hi)`` of every query list with the token's
    weights applied to *its own rows only* (the per-item modexp work),
    and assembles per-window depth batches for the fan-in stage.

    Scalar multiplication of a Paillier ciphertext is deterministic
    (``c^w mod N²``, no randomness) and the construction is shared with
    the unsharded path (:func:`weight_entries`), so the weighted items
    equal the ones that path builds.
    """

    __slots__ = (
        "shard_id",
        "lo",
        "hi",
        "_slices",
        "records_scanned",
        "depth_reached",
        "elapsed",
    )

    def __init__(
        self,
        shard_id: int,
        lo: int,
        hi: int,
        slices: list[list[EncryptedItem]],
        weights: tuple[int, ...],
    ):
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        self.records_scanned = 0
        self.depth_reached = 0
        started = time.perf_counter()
        self._slices = [
            weight_entries(entries, weight)
            for entries, weight in zip(slices, weights)
        ]
        self.elapsed = time.perf_counter() - started

    def depth_batch(self, lo: int, hi: int) -> list[tuple[int, list[EncryptedItem]]]:
        """This shard's ``(depth, items-per-list)`` pairs for the window
        ``[lo, hi)`` — empty when the window misses the slice."""
        started = time.perf_counter()
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        batch = [
            (depth, [entries[depth - self.lo] for entries in self._slices])
            for depth in range(lo, hi)
        ]
        if batch:
            self.records_scanned += len(batch) * len(self._slices)
            self.depth_reached = max(self.depth_reached, hi)
        self.elapsed += time.perf_counter() - started
        return batch

    def stats(self) -> ShardStats:
        """This shard's slice of the query's cost profile."""
        return ShardStats(
            shard_id=self.shard_id,
            depth_lo=self.lo,
            depth_hi=self.hi,
            records_scanned=self.records_scanned,
            depth_reached=self.depth_reached,
            elapsed_seconds=self.elapsed,
        )


class ShardedColumn(Sequence):
    """One query list's view over the shard workers.

    Drop-in for a plain sorted list inside the engines: supports
    ``len``, integer indexing and iteration (what the engines and
    :class:`~repro.structures.items.ListPrefix` use).  Indexing routes
    through the coordinator's window cache; a miss fetches the whole
    check window from the owning shards first.
    """

    __slots__ = ("_coordinator", "_slot")

    def __init__(self, coordinator: "ShardedQueryLists", slot: int):
        self._coordinator = coordinator
        self._slot = slot

    def __len__(self) -> int:
        return self._coordinator.n_rows

    def __getitem__(self, depth: int) -> EncryptedItem:
        if not isinstance(depth, int):
            raise TypeError("sharded lists support integer indices only")
        if depth < 0:
            depth += len(self)
        if not 0 <= depth < len(self):
            raise IndexError("depth outside the scan")
        return self._coordinator.item(self._slot, depth)

    def __iter__(self):
        for depth in range(len(self)):
            yield self[depth]


class ShardedQueryLists(Sequence):
    """The engines' view of a sharded relation: a sequence of columns.

    Construction partitions the query lists by a :class:`ShardPlan` and
    weights every shard's rows.  During the scan,
    :meth:`prefetch` (called by the engines at each depth boundary)
    assembles one check window: every overlapping shard builds its depth
    batch and :func:`fan_in_batches` merges them
    depth-ordered into the cache the columns read from.  Serving cached
    items draws no randomness and sends no message, which is why the
    construction is transcript-invisible.
    """

    def __init__(self, relation, token: Token, n_shards: int, window: int = 1):
        self.n_rows = relation.n_objects
        self.n_lists = len(token.permuted_lists)
        self.window = max(1, window)
        self.plan = ShardPlan.for_scan(self.n_rows, n_shards)
        self._cache: dict[int, list[EncryptedItem]] = {}
        lists = [relation.list_for(name) for name in token.permuted_lists]
        weights = token.effective_weights()
        self._workers = [
            ShardWorker(shard, lo, hi, [entries[lo:hi] for entries in lists], weights)
            for shard, (lo, hi) in enumerate(self.plan.bounds)
        ]
        self._columns = [ShardedColumn(self, j) for j in range(self.n_lists)]

    # -- sequence-of-columns façade --------------------------------------

    def __len__(self) -> int:
        return self.n_lists

    def __getitem__(self, slot: int) -> ShardedColumn:
        return self._columns[slot]

    def __iter__(self):
        return iter(self._columns)

    # -- the sharded scan -------------------------------------------------

    def prefetch(self, depth: int) -> None:
        """Make the check window containing ``depth`` servable.

        No-op when the window is already cached; otherwise every shard
        overlapping the window assembles its depth batch and the fan-in
        stage merges them into scan order.
        """
        if depth in self._cache:
            return
        lo = depth - depth % self.window
        hi = min(lo + self.window, self.n_rows)
        workers = [self._workers[s] for s in self.plan.overlapping(lo, hi)]
        merged = fan_in_batches(
            [worker.depth_batch(lo, hi) for worker in workers],
            lo, hi, shard_ids=[w.shard_id for w in workers],
        )
        for fetched, items in merged:
            self._cache[fetched] = items

    def item(self, slot: int, depth: int) -> EncryptedItem:
        """One list entry, fetching its window on a cache miss (iteration
        does not announce depth boundaries)."""
        self.prefetch(depth)
        return self._cache[depth][slot]

    def shard_stats(self) -> list[ShardStats]:
        """Per-shard cost profile, in depth order."""
        return [worker.stats() for worker in self._workers]
