"""Query configuration and result containers."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.exceptions import QueryError
from repro.net.channel import ChannelStats
from repro.structures.items import ScoredItem


@dataclass(frozen=True)
class QueryConfig:
    """Knobs for one ``SecQuery`` execution.

    Attributes
    ----------
    variant:
        ``"full"`` — Qry_F: ``SecDedup`` (burial) every check point,
        maximum privacy;
        ``"elim"`` — Qry_E: ``SecDupElim`` every check point (leaks the
        uniqueness pattern ``UP_d``, 5–7x faster per the paper);
        ``"batch"`` — Qry_Ba: like ``elim`` but deduplication, sorting and
        halting checks run only every ``batch_p`` depths (Section 10.2).
    batch_p:
        The batching parameter ``p`` (only used by ``"batch"``).
    engine:
        ``"eager"`` — stateful engine: a running encrypted worst score and
        per-list seen state per candidate, and at every check point the
        exact best score of each candidate the halting rule compares —
        all of ``t[k:]`` under ``"strict"``.  Matches textbook NRA and the
        paper's Fig. 3 walkthrough; halts at the plaintext NRA depth.
        ``"literal"`` — Algorithm 3 to the letter: per-depth ``SecWorst``/
        ``SecBest``/``SecUpdate``; best scores of candidates not seen at
        the current depth go stale (conservative upper bounds, later
        halting).  See ARCHITECTURE.md, "Protocol substitutions and
        declared leakage".
    halting:
        ``"strict"`` — check every candidate outside the top-k plus the
        unseen-objects bound (exact NRA halting);
        ``"paper"`` — only the (k+1)-th candidate plus the unseen bound.
    compare_method / sort_method:
        Override the scheme defaults per query.
    max_depth:
        Optional scan cap, ``>= 1`` (benchmarks use it to bound run
        time; results are then best-effort as in a budgeted NRA run).
    shards:
        How many depth slices S1 scans the query lists as.  ``None``,
        ``0`` and ``1`` are the plain scan.  ``N >= 2`` splits every
        query list into ``N`` contiguous depth slices merged by the
        fan-in stage — transcript-invisible: a sharded run is
        bit-identical (results, rounds, bytes, leakage) to the
        unsharded one and no faster (see :mod:`repro.server.sharding`
        for why it is still here).  Clamped to the relation size for
        tiny relations.
    cache:
        Whether the server may serve this query from its leakage-aware
        result cache (see :mod:`repro.server.query_cache`).  A hit is
        legal exactly because the query-pattern repeat is already L1
        leakage; ``cache=False`` forces a fresh two-cloud run and keeps
        the result out of the cache.
    """

    variant: str = "elim"
    batch_p: int = 150
    engine: str = "eager"
    halting: str = "strict"
    compare_method: str | None = None
    sort_method: str | None = None
    max_depth: int | None = None
    shards: int | None = None
    cache: bool = True

    def __post_init__(self):
        if self.variant not in ("full", "elim", "batch"):
            raise QueryError(f"unknown query variant: {self.variant!r}")
        if self.engine not in ("eager", "literal"):
            raise QueryError(f"unknown engine: {self.engine!r}")
        if self.halting not in ("strict", "paper"):
            raise QueryError(f"unknown halting rule: {self.halting!r}")
        if self.variant == "batch" and self.batch_p < 1:
            raise QueryError("batch_p must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise QueryError("max_depth must be >= 1")
        if self.shards is not None and self.shards < 0:
            raise QueryError("shards must be >= 0")

    def check_every(self) -> int:
        """How many depths between check points (dedup + sort + halt)."""
        return self.batch_p if self.variant == "batch" else 1

    def effective_shards(self) -> int:
        """Depth-slice count this config asks for (0/1 = unsharded)."""
        return self.shards or 0

    def cache_key(self) -> tuple:
        """The config part of the result-cache key.

        Covers every knob that can change the result or its wire
        transcript.  Deliberately excludes the operational knobs:
        ``cache`` itself, and ``shards`` — transcript-invisible, and a
        hit carries no per-shard stats whatever it was stored under.
        """
        return (
            self.variant,
            self.batch_p,
            self.engine,
            self.halting,
            self.compare_method,
            self.sort_method,
            self.max_depth,
        )


@dataclass(frozen=True)
class ShardStats:
    """One shard worker's slice of a sharded query's cost profile."""

    shard_id: int
    """Shard index, 0-based, in depth order."""

    depth_lo: int
    """First (0-based) global depth this shard's slice holds."""

    depth_hi: int
    """One past the last global depth of the slice."""

    records_scanned: int
    """Encrypted items this shard served to the engine (window
    granularity: a fetched depth counts all its list entries)."""

    depth_reached: int
    """Deepest (1-based) global depth the shard served; 0 when the query
    halted before the scan reached this shard's slice."""

    elapsed_seconds: float
    """Wall-clock seconds this shard's worker spent preparing and
    serving its slice (weighting + window assembly)."""


@dataclass(frozen=True)
class QueryStats:
    """The uniform cost profile of one query, across every execution
    mode and transport.

    Clients read this block instead of reaching into transports,
    channels or leakage logs: the same fields are populated whether the
    query ran in-process, on a thread, against a TCP daemon, or inside
    an ``execute_many`` worker process.
    """

    engine: str
    variant: str
    halting_depth: int
    depths_scanned: int
    rounds: int
    bytes_s1_to_s2: int
    bytes_s2_to_s1: int
    elapsed_seconds: float
    leakage: tuple = ()
    """``(observer, protocol, kind, repr(payload))`` tuples, in event
    order — the query's full declared-leakage profile."""

    shards: tuple = ()
    """Per-shard :class:`ShardStats`, in depth order — empty for
    unsharded runs."""

    cache_hit: bool = False
    """Whether the result was served from the server's leakage-aware
    result cache (zero S2 rounds) instead of a fresh two-cloud run."""

    trace: tuple = field(default=(), compare=False)
    """The job's frozen trace timeline — :class:`~repro.obs.trace.Span`
    tuples (queued, run, per-round laps, pool/S2 sub-spans) when the
    query ran through the server's job scheduler; empty for bare
    ``scheme.query`` calls.  Wall-clock observation, so excluded from
    equality (two transcript-identical runs never share timings)."""

    @property
    def total_bytes(self) -> int:
        """Bytes in both directions."""
        return self.bytes_s1_to_s2 + self.bytes_s2_to_s1

    @property
    def time_per_depth(self) -> float:
        """Average seconds per scanned depth."""
        if not self.depths_scanned:
            return 0.0
        return self.elapsed_seconds / self.depths_scanned


@dataclass
class QueryResult:
    """Outcome of one secure top-k query."""

    items: list[ScoredItem]
    """The k winning candidates, best first, still encrypted."""

    halting_depth: int
    """1-based depth at which the oblivious NRA halted."""

    channel_stats: ChannelStats
    """Inter-cloud traffic of this query."""

    depth_seconds: list[float] = field(default_factory=list)
    """Wall-clock seconds spent per scanned depth (bench series)."""

    config: QueryConfig | None = None

    leakage_events: list | None = None
    """This query's slice of the session leakage log (S1 and S2 events
    at their protocol positions), attached by the scheme on every path —
    including queries whose sessions live in worker processes."""

    shard_stats: list | None = None
    """Per-shard :class:`ShardStats` of a sharded run (depth order);
    ``None`` for single-worker scans."""

    cache_hit: bool = False
    """True when the server served this result from its query cache."""

    trace: tuple | None = None
    """Frozen :class:`~repro.obs.trace.Span` timeline attached by the
    job scheduler (``None`` until a job's ``_finish_result`` sets it)."""

    @property
    def time_per_depth(self) -> float:
        """Average seconds per depth — the paper's main query metric."""
        if not self.depth_seconds:
            return 0.0
        return sum(self.depth_seconds) / len(self.depth_seconds)

    @functools.cached_property
    def stats(self) -> QueryStats:
        """The uniform :class:`QueryStats` cost block for this query.

        Computed once on first access (the leakage tuple reprs every
        event payload) from fields that are final by the time a result
        reaches the caller.
        """
        config = self.config or QueryConfig()
        return QueryStats(
            engine=config.engine,
            variant=config.variant,
            halting_depth=self.halting_depth,
            depths_scanned=len(self.depth_seconds),
            rounds=self.channel_stats.rounds,
            bytes_s1_to_s2=self.channel_stats.bytes_s1_to_s2,
            bytes_s2_to_s1=self.channel_stats.bytes_s2_to_s1,
            elapsed_seconds=sum(self.depth_seconds),
            leakage=tuple(
                (e.observer, e.protocol, e.kind, repr(e.payload))
                for e in (self.leakage_events or ())
            ),
            shards=tuple(self.shard_stats or ()),
            cache_hit=self.cache_hit,
            trace=tuple(self.trace or ()),
        )
