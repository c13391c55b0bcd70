"""Multi-query server front-end for one encrypted relation.

A :class:`TopKServer` owns one :class:`~repro.core.relation.EncryptedRelation`
plus the S2 connection recipe.  Since the client-API redesign it is a
*job scheduler*: :meth:`TopKServer.submit` places a
:class:`~repro.server.jobs.QueryJob` on a bounded queue serviced by a
small pool of scheduler workers, each job resolving asynchronously with
per-job deadline and cooperative cancellation at round boundaries.
:meth:`TopKServer.execute` and :meth:`TopKServer.execute_many` are thin
compatibility wrappers over the same queue, so within this release
every execution mode — one-shot, submitted, thread-windowed batch,
worker-process batch — produces bit-identical transcripts for the same
request position (request salts are a pure function of the request id;
one-shot ``execute`` previously drew a session-counter salt, so its
randomness stream — not its results — differs from pre-scheduler
releases).

Long-lived interactive callers can still open an isolated
:class:`QuerySession`; sessions bypass the job queue (they hold their
own transport) but share the relation, key material and the
deliberately cross-query query-pattern history.

One axis of parallelism: ``execute_many(..., mode="process")`` fans
whole jobs across a persistent worker-process pool, so independent
queries use multiple cores despite the GIL (thread mode only overlaps
link latency and the kernel's GIL-free stretches).  A request's
randomness streams are salted by its *request id*, not by which worker
serves it, so a process-mode batch is replay-identical to the same
batch run sequentially.  It stays because it measures: 16 fresh tokens
at paper parameters on 2 vCPUs ran 16.2 qps at process ``concurrency=2``
against 8.9 sequential (×1.82) and 12.1 at thread ``concurrency=2``
(×1.34).  Splitting a *single* query's rounds across cores does not pay
— a round carries a handful of ciphertexts and is one GIL-free kernel
call already — so nothing here does.

``rtt_ms`` adds a simulated per-round link latency (the two clouds live
at different providers in the paper's deployment model), which is what
makes concurrency wins measurable on few-core machines.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import pickle
import queue
import threading
from concurrent.futures import CancelledError, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from repro.core.relation import EncryptedRelation
from repro.core.results import QueryConfig, QueryResult
from repro.core.scheme import SecTopK
from repro.core.token import Token
from repro.crypto import backend
from repro.crypto.parallel import make_pool_executor, pool_start_method
from repro.events import TopKChanged
from repro.exceptions import (
    JobCancelled,
    JobTimeout,
    MutationError,
    QueryError,
    StaleRelationError,
    TransportError,
)
from repro.net.channel import ChannelStats
from repro.net.socket_transport import client_for, is_socket_address, shard_client_for
from repro.obs.exporter import HealthState, MetricsExporter
from repro.obs.metrics import REGISTRY
from repro.protocols.base import LeakageEvent, LeakageLog, S1Context, owned_context
from repro.server.frame_service import atomic_write
from repro.server.jobs import JobStatus, QueryJob, WatchJob, WatchSummary
from repro.server.mutations import MutableRelation, MutationResult, mutation_delta
from repro.server.query_cache import QueryCache
from repro.server.sharding import invalidate_slices

_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_scheduler_queue_depth",
    "Jobs waiting in the bounded scheduler queue (admitted, not started).",
)
_JOBS_ACTIVE = REGISTRY.gauge(
    "repro_scheduler_jobs_active",
    "Jobs admitted and not yet finished (queued + running).",
)
_MUTATIONS = REGISTRY.counter(
    "repro_mutations_total",
    "Encrypted-relation mutations applied, by operation.",
    labelnames=("op",),
)
_WATCHES_ACTIVE = REGISTRY.gauge(
    "repro_watches_active",
    "Continuous top-k watch jobs currently live.",
)
_WATCH_EVALUATIONS = REGISTRY.counter(
    "repro_watch_evaluations_total",
    "Top-k re-evaluations run by watch jobs.",
)
_WATCH_CHANGES = REGISTRY.counter(
    "repro_watch_changes_total",
    "TopKChanged events emitted by watch jobs.",
)

# The relation store: (scheme, relation) pairs keyed by relation id, with
# the blob each spawn-started worker needs pickled at most once.  In the
# parent it is refcounted by the servers that exported into it; in a
# worker it is either *inherited whole* (fork — entries travel with the
# address space, no pickling, no transfer) or filled from the
# initializer's one-time payload (spawn).  Either way repeated batches,
# grown/rebuilt pools, and sibling servers over the same relation all
# reuse the cached entry instead of re-shipping megabytes of ciphertexts.
_RELATION_STORE: dict[str, tuple[SecTopK, EncryptedRelation]] = {}
_RELATION_REFS: dict[str, int] = {}
_RELATION_BLOBS: dict[str, bytes] = {}
_STORE_LOCK = threading.Lock()

# Worker-process query state, installed by the pool initializer.
_QUERY_WORKER: dict = {}


def _export_relation(scheme: SecTopK, relation: EncryptedRelation) -> str:
    """Pin (scheme, relation) in the parent-side store; returns its key."""
    key = relation.relation_id()
    with _STORE_LOCK:
        if key in _RELATION_STORE:
            # A second server over the same relation (possibly holding a
            # pickled copy of the same objects — interchangeable: the id
            # pins identical ciphertexts and key material) shares the
            # existing export.
            _RELATION_REFS[key] += 1
        else:
            _RELATION_STORE[key] = (scheme, relation)
            _RELATION_REFS[key] = 1
    return key


def _release_relation(key: str) -> None:
    with _STORE_LOCK:
        refs = _RELATION_REFS.get(key)
        if refs is None:
            return
        if refs <= 1:
            del _RELATION_REFS[key]
            _RELATION_STORE.pop(key, None)
            _RELATION_BLOBS.pop(key, None)
        else:
            _RELATION_REFS[key] = refs - 1


def _relation_blob(key: str) -> bytes:
    """The pickled (scheme, relation) payload, serialized at most once."""
    with _STORE_LOCK:
        blob = _RELATION_BLOBS.get(key)
        if blob is None:
            blob = pickle.dumps(
                _RELATION_STORE[key], protocol=pickle.HIGHEST_PROTOCOL
            )
            _RELATION_BLOBS[key] = blob
    return blob


def _init_query_worker(relation_key, payload, transport, rtt_ms, backend_name) -> None:
    backend.set_backend(backend_name)
    entry = _RELATION_STORE.get(relation_key)
    if entry is None:
        # Spawn-started worker: install the shipped blob; later pool
        # rebuilds over the same relation find it cached here.
        entry = pickle.loads(payload)
        _RELATION_STORE[relation_key] = entry
    _QUERY_WORKER["scheme"], _QUERY_WORKER["relation"] = entry
    _QUERY_WORKER["transport"] = transport
    _QUERY_WORKER["rtt_ms"] = rtt_ms


def _window_stream(rows, oids) -> str:
    """Randomness-stream label for one sliding-window encryption.

    A pure function of the window's plaintext content, so re-encrypting
    an unchanged window replays the same stream (identical ciphertexts,
    a declared property of windowed watches) while any content change
    lands on an independent stream — never sharing Paillier randomness
    across different plaintexts, and never touching the base relation's
    ``"enc"`` upload stream.
    """
    digest = hashlib.sha256(repr((rows, oids)).encode("utf-8"))
    return f"window-{digest.hexdigest()[:16]}"


def _run_salted_query(
    scheme,
    relation,
    transport: str,
    rtt_ms: float,
    salt: str,
    token: Token,
    config: QueryConfig | None,
    on_event=None,
    control=None,
    session_label: str | None = None,
    shard_executor=None,
    shard_placement: tuple[str, ...] | None = None,
) -> QueryResult:
    """One salted query with leakage attached — the single body behind
    both the in-process path and the worker path, so the two can never
    drift apart (process-mode replay identity depends on them matching).

    ``on_event`` / ``control`` are the job hooks (progress streaming,
    cooperative cancellation); they are observations only, so a hooked
    run is transcript-identical to a bare one.  When the query fails, a
    dead transport's secondary close error is suppressed so the original
    failure surfaces undisturbed.
    """
    ctx = scheme._make_context(
        transport=transport, salt=salt, rtt_ms=rtt_ms, relation=relation,
        on_event=on_event, control=control, session_label=session_label,
    )
    with owned_context(ctx):
        # scheme._query attaches the per-query leakage slice itself; on
        # this fresh context that slice is the whole session log.
        return scheme.query(
            relation, token, config, ctx=ctx, shard_executor=shard_executor,
            shard_placement=shard_placement,
        )


def _run_query(
    salt: str,
    token: Token,
    config: QueryConfig | None,
    prior_patterns: frozenset,
) -> QueryResult:
    scheme = _QUERY_WORKER["scheme"]
    # The parent ships exactly the query-pattern history a sequential run
    # would see at this request (server history + earlier batch-mates), so
    # the L1 repeat bit is deterministic no matter which worker serves it.
    scheme.reset_query_history(prior_patterns)
    return _run_salted_query(
        scheme,
        _QUERY_WORKER["relation"],
        _QUERY_WORKER["transport"],
        _QUERY_WORKER["rtt_ms"],
        salt,
        token,
        config,
    )


class QuerySession:
    """One client's query context on a :class:`TopKServer`."""

    def __init__(self, server: "TopKServer", ctx: S1Context, session_id: int):
        self._server = server
        self._ctx = ctx
        self.session_id = session_id
        self.closed = False
        #: Relation version this session pinned at open.  A session's
        #: context captured the relation object (and, for remote
        #: transports, its daemon registration), so queries after a
        #: mutation would silently run against the predecessor — they
        #: raise :class:`~repro.exceptions.StaleRelationError` instead.
        self.version = server.relation.version

    # -- querying --------------------------------------------------------

    def query(self, token: Token, config: QueryConfig | None = None) -> QueryResult:
        """Run one secure top-k query inside this session."""
        if self.closed:
            raise RuntimeError("session is closed")
        current = self._server.relation.version
        if current != self.version:
            raise StaleRelationError(self.version, current)
        config = self._server._effective_config(config)
        return self._server.scheme.query(
            self._server.relation,
            token,
            config,
            ctx=self._ctx,
            shard_executor=self._server._shard_executor(config),
            shard_placement=self._server.shard_placement,
        )

    # -- per-session observability ---------------------------------------

    @property
    def leakage(self) -> LeakageLog:
        """This session's leakage log (no cross-session events)."""
        return self._ctx.leakage

    @property
    def channel_stats(self) -> ChannelStats:
        """Cumulative traffic of this session's channel."""
        return self._ctx.channel.snapshot()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the session's transport.

        Idempotent, and safe when the daemon connection already died: a
        dead link's secondary :class:`~repro.exceptions.PeerDisconnected`
        is swallowed here so it can never mask the error that killed the
        connection in the first place.  The session is forgotten by the
        server either way.
        """
        if self.closed:
            return
        self.closed = True
        try:
            with contextlib.suppress(TransportError):
                self._ctx.close()
        finally:
            self._server._forget(self)

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TopKServer:
    """Serves top-k queries over one encrypted relation.

    Parameters
    ----------
    transport:
        Per-job transport backend (``"inprocess"`` or ``"threaded"``)
        or the address of a standalone S2 daemon (``"tcp://host:port"``
        / ``"unix:///path"``).  Remote sessions multiplex over one
        shared connection per process; the first one registers the
        relation's key material with the daemon and every later one —
        including process-mode worker jobs — opens by relation id alone.
    rtt_ms:
        Simulated link round-trip latency added to every exchange.
    max_pending:
        Bound of the job queue.  A full queue applies backpressure:
        :meth:`submit` blocks until a scheduler worker frees a slot.
    scheduler_workers:
        Cap on concurrently running scheduler threads.  Workers spawn
        on demand up to this cap and retire when the queue drains;
        ``execute_many`` raises the effective cap to its requested
        concurrency for the duration of a batch.
    shards:
        Default S1 shard-worker count for every query this server runs
        (``QueryConfig(shards=...)`` overrides per query; ``0`` keeps
        the single-worker scan).  With ``shards >= 2`` each query's
        sorted lists are split into contiguous depth slices served by
        shard workers whose slice preparation and window assembly the
        scheduler places on its shard-worker pool; the fan-in merge
        keeps the S2-visible transcript bit-identical to unsharded
        execution (see :mod:`repro.server.sharding`).

        **Placement form**: a sequence of shard-daemon addresses
        (``shards=["tcp://h1:p", "tcp://h2:p"]``) makes the shard
        workers *remote* — the plan's slices are uploaded once to
        :mod:`repro.server.shard_service` daemons (shard ``s`` on
        address ``s % len(addresses)``) and every check window's depth
        batches return over multiplexed shard sessions, converging in
        the same fan-in stage.  The shard count defaults to the number
        of addresses (``QueryConfig(shards=N)`` still overrides the
        count; the placement sticks).  Transcript-identical to local
        threads; mutations delta-sync the remote slices
        (:func:`repro.server.mutations.mutation_delta`).  Note
        ``execute_many(mode="process")`` workers run their shards
        locally — transcript-identical by the same invariant.
    cache:
        Leakage-aware result cache (default on): a repeat of a query the
        server already answered — same relation, token fingerprint and
        config — is served as a deep copy of the stored result with
        **zero** S2 round-trips.  Legal because the repeat itself is
        already L1 leakage (``query_pattern``); see
        :mod:`repro.server.query_cache` for the full argument.
        ``QueryConfig(cache=False)`` opts a single query out both ways
        (never served from, never stored into); ``cache=False`` here
        disables the cache entirely.  Sessions always run fresh — a
        session owns a live protocol context whose per-session
        accounting a cache hit would falsify.
    cache_capacity:
        LRU bound of the result cache (entries).
    warm_start:
        Make every query warm-start by default (as if
        ``QueryConfig(warm_start=True)``): the engine's first halting
        check is anchored at the earliest halting depth this relation's
        history has shown (itself L1 leakage), skipping rounds that
        history says cannot halt.  Never changes the returned top-k set.
    metrics_port:
        When set, serve the process-wide metrics registry as Prometheus
        text at ``http://127.0.0.1:PORT/metrics`` (``0`` picks a free
        port — read it back from :attr:`metrics_port`), plus a
        ``/healthz`` endpoint that flips to draining on :meth:`drain` /
        :meth:`close`.  ``None`` (default) starts no exporter;
        instrumentation is recorded either way.
    """

    _IDLE_TTL = 0.5  # seconds a scheduler worker waits before retiring

    def __init__(
        self,
        scheme: SecTopK,
        relation: EncryptedRelation | MutableRelation,
        transport: str = "inprocess",
        rtt_ms: float = 0.0,
        max_pending: int = 128,
        scheduler_workers: int = 8,
        shards: int | list[str] | tuple[str, ...] = 0,
        cache: bool = True,
        cache_capacity: int = 256,
        warm_start: bool = False,
        metrics_port: int | None = None,
        state_dir: str | None = None,
    ):
        self.scheme = scheme
        # A MutableRelation makes this server writable: insert/update/
        # delete and windowed watches route through the wrapped handle,
        # and `self.relation` always aliases its current successor.
        if isinstance(relation, MutableRelation):
            self._mutable: MutableRelation | None = relation
            relation = relation.relation
        else:
            self._mutable = None
        self.relation = relation
        self.transport = transport
        self.rtt_ms = rtt_ms
        # Validate the cheap parameters before acquiring any resource
        # (relation-store pin) — a half-constructed server has no
        # reachable close().
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if scheduler_workers < 1:
            raise ValueError("scheduler_workers must be >= 1")
        if isinstance(shards, (list, tuple)):
            # Placement form: remote shard-worker daemons.  The shard
            # count defaults to one shard per daemon (QueryConfig can
            # still raise it; the round-robin placement spreads extras).
            if not shards:
                raise ValueError("shard placement must name at least one address")
            for address in shards:
                if not is_socket_address(address):
                    raise ValueError(
                        f"shard placement entries must be socket addresses "
                        f"(tcp:// or unix://), got {address!r}"
                    )
            self.shard_placement: tuple[str, ...] | None = tuple(shards)
            # A single-daemon placement still shards (the scan only goes
            # remote through the sharded path, which needs >= 2 slices).
            shards = max(2, len(self.shard_placement))
        else:
            if shards < 0:
                raise ValueError("shards must be >= 0")
            self.shard_placement = None
        if cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        self.shards = shards
        self.warm_start = warm_start
        # Cross-query reuse layer (see ARCHITECTURE.md, reuse layer).
        self._cache = QueryCache(cache_capacity) if cache else None
        # Shard-worker thread pool, created on the first sharded job and
        # shared by every job/session of this server (the scheduler's
        # placement target for shard slice preparation and window
        # assembly).
        self._shard_pool = None
        # Scheme-wide unique namespace: request salts from different
        # servers sharing one scheme must never collide (a collision
        # would replay blinding/permutation streams across queries).
        self._salt_namespace = scheme.context_namespace()
        # Pin the relation in the process-wide store: forked query
        # workers inherit it outright, spawn-started ones receive its
        # cached pickle — either way repeated batches and rebuilt pools
        # never re-ship the ciphertexts.
        self._relation_key = _export_relation(scheme, relation)
        # Warm-start depth history persistence (``--state-dir`` twin of
        # the daemon's registration spill): load any prior observations
        # for this exact relation content now, spill after fresh results.
        self._state_dir = state_dir
        self._load_depth_spill()
        self._session_lock = threading.Lock()
        self._session_counter = 0
        self._sessions: list[QuerySession] = []
        # -- mutation / watch state --
        self._mutation_lock = threading.Lock()
        self._mutation_count = 0
        self._watches: set[WatchJob] = set()
        self._query_pool: ProcessPoolExecutor | None = None
        self._query_pool_workers = 0
        self._query_pool_active = 0  # in-flight process batches
        self._closed = False
        # -- job scheduler state --
        self._job_queue: queue.Queue = queue.Queue(maxsize=max_pending)
        self._scheduler_cap = scheduler_workers
        self._scheduler_lock = threading.Lock()
        self._scheduler_threads = 0
        self._scheduler_thread_objs: set[threading.Thread] = set()
        self._jobs_active = 0
        self._running_jobs: set[QueryJob] = set()
        # -- observability --
        # Exporter last: every other resource is attached, so a port
        # failure here leaves a server that close() can fully unwind.
        self._health = HealthState()
        self._exporter: MetricsExporter | None = None
        if metrics_port is not None:
            exporter = MetricsExporter(port=metrics_port, health=self._health)
            try:
                exporter.start()
            except BaseException:
                self.close()
                raise
            self._exporter = exporter

    # -- sessions --------------------------------------------------------

    def _reserve_ids(self, count: int) -> range:
        with self._session_lock:
            if self._closed:
                raise RuntimeError("server is closed")
            start = self._session_counter
            self._session_counter += count
        return range(start, start + count)

    def session(self) -> QuerySession:
        """Open a fresh, isolated query session.

        Session setup is serialized (it draws from the scheme's root
        randomness); the returned session can then run queries
        concurrently with other sessions.
        """
        with self._session_lock:
            if self._closed:
                raise RuntimeError("server is closed")
            session_id = self._session_counter
            self._session_counter += 1
            ctx = self.scheme._make_context(
                transport=self.transport,
                label=f":session-{session_id}",
                rtt_ms=self.rtt_ms,
                relation=self.relation,
            )
            session = QuerySession(self, ctx, session_id)
            self._sessions.append(session)
            return session

    def _forget(self, session: QuerySession) -> None:
        """Drop a closed session so long-lived servers don't accumulate."""
        with self._session_lock:
            try:
                self._sessions.remove(session)
            except ValueError:
                pass

    # -- sharding --------------------------------------------------------

    def _effective_config(self, config: QueryConfig | None) -> QueryConfig | None:
        """Fill the server's defaults into an unset config.

        ``QueryConfig(shards=...)`` always wins; a config that leaves
        ``shards`` at ``None`` inherits ``TopKServer(shards=N)``, and
        ``TopKServer(warm_start=True)`` turns warm starts on for every
        query that did not ask for them itself.  The resolution happens
        once, at job creation, so every execution path — inline,
        windowed, worker process, session — sees the same effective
        config.
        """
        if self.shards and (config is None or config.shards is None):
            config = replace(config or QueryConfig(), shards=self.shards)
        if self.warm_start and (config is None or not config.warm_start):
            config = replace(config or QueryConfig(), warm_start=True)
        return config

    #: Thread cap of the lazily-created shard-worker pool.  Sized from
    #: the cap alone — not from whichever sharded job arrives first —
    #: so a later, wider job is never silently squeezed; idle
    #: ThreadPoolExecutor threads are spawned on demand, so an
    #: over-provisioned cap costs nothing.
    _SHARD_POOL_MAX = 8

    def _shard_executor(self, config: QueryConfig | None):
        """The shard-worker pool for a sharded job (``None`` otherwise).

        Created lazily on the first sharded job and shared server-wide
        afterwards — shard tasks are short and window-granular, so one
        modest pool serves concurrent jobs without oversubscribing.
        """
        if config is None or config.effective_shards() < 2:
            return None
        with self._session_lock:
            if self._closed:
                # A job caught mid-shutdown falls back to inline shard
                # fan-out (same transcript); its cooperative cancel then
                # lands at the first round boundary.
                return None
            if self._shard_pool is None:
                self._shard_pool = ThreadPoolExecutor(
                    max_workers=self._SHARD_POOL_MAX,
                    thread_name_prefix=f"topk-shard-{self._salt_namespace}",
                )
            return self._shard_pool

    # -- result cache ----------------------------------------------------

    def _cache_enabled(self, config: QueryConfig | None) -> bool:
        return self._cache is not None and (config is None or config.cache)

    def _cache_key(
        self, token: Token, config: QueryConfig | None, relation_key: str | None = None
    ) -> tuple:
        return QueryCache.key(
            relation_key if relation_key is not None else self._relation_key,
            token.fingerprint(),
            config or QueryConfig(),
        )

    def _scan_cache_key(
        self, token: Token, config: QueryConfig | None, relation_key: str | None = None
    ) -> tuple:
        return QueryCache.scan_key(
            relation_key if relation_key is not None else self._relation_key,
            token.scan_fingerprint(),
            config or QueryConfig(),
        )

    def _cache_lookup(
        self,
        token: Token,
        config: QueryConfig | None,
        relation_key: str | None = None,
    ):
        """Serve a repeat query from the cache, or ``None`` on a miss.

        Exact repeats hit directly; a ``k' < k`` repeat of a query whose
        ``k`` result is cached is served as the first ``k'`` items of
        that result — winners are stored best-first, so the slice is an
        exact top-``k'`` (see :mod:`repro.server.query_cache`).  A
        sliced hit reports ``halting_depth`` 0: the source run's depth
        belongs to the deeper ``k`` scan (a fresh ``k'`` run typically
        halts shallower), so serving it would misattribute metadata to
        a query that never ran.  Exact hits keep their depth — an
        identical query really did halt there.

        A hit is reshaped into what it is: zero S2 traffic, zero scanned
        depths, and exactly the ``query_pattern`` bit a fresh run of the
        same token would have leaked — ``True`` for an exact repeat (an
        identical query already ran), the honest history answer for a
        prefix hit (the ``k'`` token may be new even though its answer
        is not).  The scheme's query-pattern history is still updated so
        later queries see the same L1 state a fresh run would have left
        behind.
        """
        if not self._cache_enabled(config):
            return None
        result, sliced = self._cache.lookup(
            self._cache_key(token, config, relation_key),
            self._scan_cache_key(token, config, relation_key),
            token.k,
        )
        if result is None:
            return None
        repeated = self.scheme.observe_query_pattern(token)
        vars(result).pop("stats", None)  # cached_property of the stored run
        if sliced:
            result.items = result.items[: token.k]
            result.halting_depth = 0
        result.channel_stats = ChannelStats()
        result.leakage_events = [
            LeakageEvent("S1", "SecQuery", "query_pattern", repeated)
        ]
        result.depth_seconds = []
        result.shard_stats = None
        result.cache_hit = True
        result.trace = None  # the serving job attaches its own timeline
        return result

    def _cache_store(
        self,
        token: Token,
        config: QueryConfig | None,
        result,
        relation_key: str | None = None,
    ) -> None:
        """Keep a fresh result for future repeats (deep copy: the caller
        owns — and may mutate — the returned object)."""
        if not self._cache_enabled(config):
            return
        self._cache.put(
            self._cache_key(token, config, relation_key),
            copy.deepcopy(result),
            scan_key=self._scan_cache_key(token, config, relation_key),
            k=token.k,
        )

    def invalidate_cache(self) -> int:
        """Drop every cached result (returns how many were dropped)."""
        return self._cache.clear() if self._cache is not None else 0

    def register_relation(self, relation: EncryptedRelation) -> None:
        """Re-register the relation this server serves.

        Swaps the served relation (typically a re-encrypted or updated
        build) and invalidates every cached result of both the old and
        the new relation id — a re-registration declares the previous
        results stale even when the content fingerprint is unchanged.
        In-flight jobs finish against the relation they started with.
        """
        with self._session_lock:
            if self._closed:
                raise RuntimeError("server is closed")
            old_key = self._relation_key
            self._relation_key = _export_relation(self.scheme, relation)
            self.relation = relation
            new_key = self._relation_key
        if self._cache is not None:
            self._cache.invalidate_relation(old_key)
            if new_key != old_key:
                self._cache.invalidate_relation(new_key)
        _release_relation(old_key)

    # -- mutations -------------------------------------------------------

    @property
    def version(self) -> int:
        """Current relation version (0 for a never-mutated relation)."""
        return self.relation.version

    def insert(self, row) -> MutationResult:
        """Insert one row into the served relation (mutable servers)."""
        return self._apply_mutation("insert", row)

    def update(self, object_id: int, row) -> MutationResult:
        """Replace one row's scores (same object id)."""
        return self._apply_mutation("update", object_id, row)

    def delete(self, object_id: int) -> MutationResult:
        """Remove one row from the served relation."""
        return self._apply_mutation("delete", object_id)

    def mutate(self, op: str, *args) -> MutationResult:
        """String-dispatch spelling of :meth:`insert` / :meth:`update` /
        :meth:`delete` (the wire-friendly form clients use)."""
        if op not in ("insert", "update", "delete"):
            raise MutationError(f"unknown mutation op: {op!r}")
        return self._apply_mutation(op, *args)

    def _apply_mutation(self, op: str, *args) -> MutationResult:
        """Apply one mutation and run the invalidation cascade.

        Under the mutation lock: apply the op to the
        :class:`MutableRelation` (incremental sorted-list maintenance,
        version bump) and swap the served relation.  Then, outside it:
        invalidate every consumer keyed by the predecessor's relation id
        — result cache, shard-slice store, warm-start depth history and
        its spill — tell a remote daemon to re-key its registration
        (best-effort; the fallback is the lazy re-register on the next
        session open), and wake every live watch.
        """
        if self._mutable is None:
            raise MutationError(
                "server relation is immutable — construct the server with "
                "a MutableRelation to enable insert/update/delete"
            )
        with self._mutation_lock:
            # Closed check BEFORE touching the MutableRelation: a
            # rejected mutation must leave it in lockstep with the
            # served relation, never one committed version ahead.
            # close() takes the mutation lock first, so it cannot flip
            # _closed between this check and the swap below.
            with self._session_lock:
                if self._closed:
                    raise RuntimeError("server is closed")
            result = getattr(self._mutable, op)(*args)
            new_relation = self._mutable.relation
            with self._session_lock:
                old_key = self._relation_key
                self._relation_key = _export_relation(self.scheme, new_relation)
                self.relation = new_relation
                new_key = self._relation_key
            self._mutation_count += 1
        if self._cache is not None:
            self._cache.invalidate_relation(old_key)
            if new_key != old_key:
                self._cache.invalidate_relation(new_key)
        invalidate_slices(old_key)
        # A halting depth observed on the predecessor means nothing on
        # the successor (content changed) — drop memory and spill.
        self.scheme.drop_depth_history(old_key)
        self._drop_depth_spill(old_key)
        self._notify_daemon_mutation(old_key, new_key)
        self._notify_shard_mutation(old_key, new_relation, result)
        _release_relation(old_key)
        _MUTATIONS.labels(op=op).inc()
        with self._scheduler_lock:
            watches = list(self._watches)
        for watch in watches:
            watch.notify()
        return result

    def _notify_daemon_mutation(self, old_key: str, new_key: str) -> None:
        """Re-key a remote daemon's registration (best-effort).

        A MUTATE frame moves the daemon's key material from the old
        relation id to the new one, so the next session open skips the
        re-upload.  Failures (old daemon without the frame, dead link)
        are suppressed: the daemon then simply answers
        ``UNKNOWN_RELATION`` on the next open and the client re-registers
        — slower, never wrong.
        """
        if not is_socket_address(self.transport):
            return
        with contextlib.suppress(Exception):
            client_for(self.transport).mutate_relation(old_key, new_key)

    def _notify_shard_mutation(
        self, old_key: str, new_relation, result: MutationResult
    ) -> None:
        """Delta-sync remote shard workers across a mutation (best-effort).

        Ships each placement daemon the re-encrypted touched prefixes
        plus the suffix shift so it can rebuild its held slices under
        the successor's id without a full slice re-upload.  Failures are
        suppressed: a daemon that missed the frame answers
        ``UNKNOWN_RELATION`` on the next scan and the worker re-uploads
        its slice — slower, never wrong.
        """
        if not self.shard_placement:
            return
        delta = mutation_delta(new_relation, result, old_key)
        for address in self.shard_placement:
            with contextlib.suppress(Exception):
                shard_client_for(address).mutate(delta)

    def _drop_shard_registration(self, old_key: str) -> None:
        """Drop-only shard MUTATE: purge ``old_key``'s slices remotely.

        Used by the watch/window retirement paths, whose successor
        relations are wholesale re-encryptions — there is no valid
        prefix delta, so the remote slices are simply dropped and the
        next evaluation re-uploads lazily.
        """
        if not self.shard_placement:
            return
        delta = {"old_id": old_key, "new_id": None, "prefixes": None}
        for address in self.shard_placement:
            with contextlib.suppress(Exception):
                shard_client_for(address).mutate(delta)

    # -- continuous top-k (watch jobs) -----------------------------------

    def watch(
        self,
        token: Token,
        config: QueryConfig | None = None,
        *,
        window: int | None = None,
        timeout: float | None = None,
    ) -> WatchJob:
        """Start a continuous top-k watch as a long-lived job.

        The returned :class:`~repro.server.jobs.WatchJob` evaluates the
        query immediately, then re-evaluates after every mutation,
        streaming a :class:`~repro.events.TopKChanged` event whenever
        the revealed winning set actually changes.  ``window=N`` watches
        the last ``N`` inserted (still live) rows instead of the whole
        relation — the sliding-window streaming mode (requires a mutable
        server; ``k`` is clamped to the window's fill).  ``timeout``
        bounds the watch's total lifetime like a job deadline.

        End it with ``job.stop()`` (graceful: resolves ``DONE`` with a
        :class:`~repro.server.jobs.WatchSummary`) or ``job.cancel()``;
        :meth:`close` drains live watches itself.

        Each watch occupies one scheduler slot for its lifetime; the
        dispatch cap is raised past the live-watch count so watches can
        never starve ordinary queries out of the worker pool.
        """
        if window is not None:
            if window < 1:
                raise QueryError("watch window must be >= 1")
            if self._mutable is None:
                raise MutationError(
                    "windowed watches need a mutable relation (the window "
                    "is defined over its insert log)"
                )
        config = self._effective_config(config)
        job_id = self._reserve_ids(1)[0]
        job = WatchJob(job_id, token, config, timeout=timeout, window=window)
        job._runner = self._run_watch
        with self._scheduler_lock:
            self._watches.add(job)
        _WATCHES_ACTIVE.inc()

        def _retire(_job):
            with self._scheduler_lock:
                self._watches.discard(job)
            _WATCHES_ACTIVE.dec()

        job._add_done_callback(_retire)
        self._dispatch(job, cap_hint=self._scheduler_cap + len(self._watches))
        return job

    def _run_watch(self, job: WatchJob) -> WatchSummary:
        """Scheduler runner of one watch job: evaluate on every version
        change, sleep on the wake event between changes."""
        evaluations = 0
        changes = 0
        last_set: frozenset | None = None
        last_pairs: tuple | None = None
        last_version: int | None = None
        seen_version: int | None = None
        sequence = 0
        try:
            while True:
                if job._stopped:
                    break
                job._control.check()
                relation = self.relation  # snapshot: mutations swap atomically
                version = relation.version
                if seen_version is None or version != seen_version:
                    pairs = self._evaluate_watch(job, relation, version, sequence)
                    sequence += 1
                    seen_version = version
                    if pairs is not None:
                        evaluations += 1
                        job.evaluations = evaluations
                        _WATCH_EVALUATIONS.inc()
                        last_version = version
                        current = frozenset(pairs)
                        if last_set is None or current != last_set:
                            changes += 1
                            _WATCH_CHANGES.inc()
                            last_set = current
                            last_pairs = pairs
                            job._record_event(
                                TopKChanged(version=version, top_k=pairs)
                            )
                    continue  # re-check stop/cancel/version before sleeping
                job._wake.wait(timeout=job._control.remaining)
                job._wake.clear()
        finally:
            self._retire_window_registration(job)
        return WatchSummary(
            evaluations=evaluations,
            changes=changes,
            last_version=last_version,
            last_top_k=last_pairs,
        )

    def _evaluate_watch(self, job: WatchJob, relation, version, sequence):
        """One watch evaluation: a full salted query, revealed.

        Full mode queries the served relation; windowed mode encrypts
        the current insert window (same scheme, real object ids) and
        queries that.  The window draws a randomness stream derived
        from its *content* (:func:`_window_stream`): distinct windows
        never share Paillier randomness with each other or with the
        base relation's upload stream — one shared stream would let S1
        divide aligned ciphertexts and brute-force score deltas — while
        under a seeded scheme identical windows still re-encrypt
        identically.  Returns the revealed ``(object_id, score)``
        pairs, or ``None`` when there is nothing to evaluate yet
        (empty window).
        """
        token = job.token
        if job.window is not None:
            rows, oids = self._mutable.window_rows(job.window)
            if not rows:
                return None
            relation = self.scheme.encrypt(
                rows,
                object_ids=oids,
                version=version,
                stream=_window_stream(rows, oids),
            )
            self._swap_window_registration(job, relation.relation_id())
            if token.k > len(rows):
                token = replace(token, k=len(rows))
        elif token.k > relation.n_objects:
            token = replace(token, k=relation.n_objects)
        salt = f":{self._salt_namespace}-watch-{job.job_id}-{sequence}#"
        result = _run_salted_query(
            self.scheme,
            relation,
            self.transport,
            self.rtt_ms,
            salt,
            token,
            job.config,
            on_event=job._record_event,
            control=job._control,
            session_label=f"watch-{job.job_id}-{sequence}",
            shard_executor=self._shard_executor(job.config),
            shard_placement=self.shard_placement,
        )
        return tuple(self.scheme.reveal(result))

    def _swap_window_registration(self, job: WatchJob, new_key: str) -> None:
        """Retire the previous evaluation's window relation state.

        Every windowed evaluation mints a relation whose id a socket
        transport lazily registers with the S2 daemon (key upload +
        state-dir spill) and whose halting depths the scheme records —
        without cleanup a long-lived watch grows both without bound.
        Re-keying the daemon entry old→new (the same MUTATE frame the
        mutation cascade uses: key material is identical across the
        scheme's relations) keeps the registry at one entry per watch
        and pre-registers the next OPEN, and dropping the predecessor's
        depth history and slice-store entries bounds the local side.
        """
        old_key = job._window_relation_key
        job._window_relation_key = new_key
        if old_key is None or old_key == new_key:
            return
        self.scheme.drop_depth_history(old_key)
        invalidate_slices(old_key)
        self._notify_daemon_mutation(old_key, new_key)
        self._drop_shard_registration(old_key)

    def _retire_window_registration(self, job: WatchJob) -> None:
        """Drop a finished watch's last window relation state.

        The daemon entry is re-keyed onto the served relation's id: if
        that id is already registered the moved entry is simply
        discarded (the daemon never clobbers), otherwise the move
        pre-registers it — bounded either way.
        """
        old_key = job._window_relation_key
        if old_key is None:
            return
        job._window_relation_key = None
        self.scheme.drop_depth_history(old_key)
        invalidate_slices(old_key)
        self._notify_daemon_mutation(old_key, self._relation_key)
        self._drop_shard_registration(old_key)

    # -- warm-start depth persistence ------------------------------------

    def _depth_spill_path(self, relation_key: str) -> str | None:
        if self._state_dir is None:
            return None
        if not relation_key.isalnum():
            return None  # same safety gate as the daemon's spill names
        return os.path.join(self._state_dir, f"{relation_key}.depths")

    def _load_depth_spill(self) -> None:
        """Import a prior run's halting-depth observations, if spilled.

        Keyed by relation id — content fingerprint including the
        version — so history can never leak across different data, and
        a restart over unchanged data warm-starts immediately.
        """
        path = self._depth_spill_path(self._relation_key)
        if path is None:
            return
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            depths = [int(d) for d in payload["depths"]]
        except (OSError, ValueError, KeyError, TypeError):
            return  # absent or corrupt spill: start cold, never fail
        self.scheme.import_depth_history(self._relation_key, depths)

    def _spill_depths(self) -> None:
        """Persist the current depth history (atomic tmp + rename)."""
        path = self._depth_spill_path(self._relation_key)
        if path is None:
            return
        depths = self.scheme.export_depth_history(self._relation_key)
        if not depths:
            return
        try:
            os.makedirs(self._state_dir, mode=0o700, exist_ok=True)
            payload = {"relation_id": self._relation_key, "depths": depths}
            atomic_write(path, json.dumps(payload).encode("utf-8"))
        except OSError:
            pass  # persistence is an optimization, never a failure mode

    def _drop_depth_spill(self, relation_key: str) -> None:
        path = self._depth_spill_path(relation_key)
        if path is not None:
            with contextlib.suppress(OSError):
                os.remove(path)

    @property
    def stats(self) -> dict:
        """Operational counters: reuse layer + scheduler.

        A consistent point-in-time snapshot: each component's block is
        copied under that component's own lock (the cache's counters
        under the cache lock, the scheduler's under the scheduler lock),
        and the returned dict is plain data the caller owns — it can
        never disagree with what ``/metrics`` scraped at the same
        instant, because both read the same instruments.
        """
        cache_stats = self._cache.stats() if self._cache is not None else None
        with self._scheduler_lock:
            scheduler = {
                "queue_depth": self._job_queue.qsize(),
                "jobs_active": self._jobs_active,
                "workers": self._scheduler_threads,
            }
            watches_active = len(self._watches)
        return {
            "cache": cache_stats,
            "scheduler": scheduler,
            "warm_start": self.warm_start,
            "halting_depth_hint": self.scheme.halting_depth_hint(
                self._relation_key
            ),
            "version": self.relation.version,
            "mutations": self._mutation_count,
            "watches_active": watches_active,
        }

    @property
    def metrics_port(self) -> int | None:
        """Bound port of the metrics exporter (``None`` when not mounted)."""
        exporter = self._exporter
        return exporter.port if exporter is not None else None

    def drain(self) -> None:
        """Flip ``/healthz`` to draining (sticky; idempotent).

        Load balancers stop routing here while in-flight jobs finish;
        :meth:`close` drains implicitly as its first act.
        """
        self._health.drain()

    # -- job submission (the scheduler's front door) ---------------------

    def submit(
        self,
        token: Token,
        config: QueryConfig | None = None,
        *,
        timeout: float | None = None,
        expect_version: int | None = None,
    ) -> QueryJob:
        """Submit one query as an asynchronous :class:`QueryJob`.

        The job enters the bounded queue immediately (blocking for a
        slot when the queue is full) and runs on a scheduler worker;
        ``timeout`` sets a per-job deadline measured from submission,
        enforced cooperatively at round boundaries.  The returned
        handle resolves via ``result()``, cancels via ``cancel()``, and
        streams progress via ``events()``.

        ``expect_version`` pins the query to a relation version: if a
        mutation lands before the job starts, it fails with
        :class:`~repro.exceptions.StaleRelationError` instead of
        silently answering over data the caller never saw.

        A submitted job's transcript (results, rounds, bytes, leakage)
        is bit-identical to the same query through :meth:`execute` or a
        sequential :meth:`execute_many` at the same request position —
        request salts are a pure function of the request id.
        """
        job_id = self._reserve_ids(1)[0]
        job = self._make_job(
            job_id, token, self._effective_config(config), self._run_inline, timeout
        )
        job._expect_version = expect_version
        self._dispatch(job)
        return job

    def _make_job(self, job_id, token, config, runner, timeout=None) -> QueryJob:
        job = QueryJob(job_id, token, config, timeout=timeout)
        job._runner = runner
        return job

    def _dispatch(self, job: QueryJob, cap_hint: int = 0) -> None:
        """Queue a job and make sure a worker exists to serve it.

        The spawn decision is taken *after* the put, under the same lock
        the worker-retire check holds: a worker that retired before our
        put is already reflected in ``_scheduler_threads`` when we
        decide (so we spawn a replacement), and one that checks after
        our put sees a non-empty queue and stays — a queued job can
        never be stranded without a worker.
        """
        cap = max(self._scheduler_cap, cap_hint)
        with self._scheduler_lock:
            if self._closed:
                raise RuntimeError("server is closed")
            self._jobs_active += 1
        _JOBS_ACTIVE.inc()
        job._mark_queued()
        self._job_queue.put(job)
        _QUEUE_DEPTH.inc()
        spawn = False
        with self._scheduler_lock:
            if not self._closed and (
                self._scheduler_threads < cap
                and self._scheduler_threads < self._jobs_active
            ):
                self._scheduler_threads += 1
                spawn = True
        if spawn:
            thread = threading.Thread(
                target=self._scheduler_loop,
                name=f"topk-scheduler-{self._salt_namespace}",
                daemon=True,
            )
            with self._scheduler_lock:
                self._scheduler_thread_objs.add(thread)
            thread.start()
        if self._closed:
            # close() may have drained the queue before our put landed;
            # sweep again so no job is ever stranded.
            self._drain_queue()

    def _drain_queue(self) -> None:
        """Fail every queued job as cancelled (server shutdown path)."""
        while True:
            try:
                item = self._job_queue.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                _QUEUE_DEPTH.dec()
            if item is not None and not item.done():
                with self._scheduler_lock:
                    self._jobs_active -= 1
                _JOBS_ACTIVE.dec()
                item._finish_error(
                    JobCancelled("server closed before the job started"),
                    JobStatus.CANCELLED,
                )

    def _scheduler_loop(self) -> None:
        try:
            while True:
                try:
                    item = self._job_queue.get(timeout=self._IDLE_TTL)
                except queue.Empty:
                    with self._scheduler_lock:
                        if self._job_queue.empty():
                            self._scheduler_threads -= 1
                            return
                    continue
                if item is None:  # shutdown sentinel
                    with self._scheduler_lock:
                        self._scheduler_threads -= 1
                    return
                _QUEUE_DEPTH.dec()
                self._run_job(item)
        finally:
            with self._scheduler_lock:
                self._scheduler_thread_objs.discard(threading.current_thread())

    def _run_job(self, job: QueryJob) -> None:
        try:
            if self._closed:
                # Popped during shutdown (missed by the close-time queue
                # drain): an explicit shutdown outranks the job.
                job._control.cancel()
            if not job._start():
                return
            with self._scheduler_lock:
                self._running_jobs.add(job)
            if self._closed:
                # close() set the flag before snapshotting _running_jobs;
                # if we were added after that snapshot, this re-check —
                # ordered after the add — guarantees the cancel still
                # lands (at the next round boundary).
                job.cancel()
            try:
                result = job._runner(job)
            except BaseException as exc:  # noqa: BLE001 — resolve the job
                job._finish_error(exc)
            else:
                job._finish_result(result)
        finally:
            with self._scheduler_lock:
                self._running_jobs.discard(job)
                self._jobs_active -= 1
            _JOBS_ACTIVE.dec()

    def _run_inline(self, job: QueryJob) -> QueryResult:
        """Default runner: the job's query in this scheduler thread
        (shard work, if any, placed on the server's shard-worker pool).

        Reuse layer: a cache hit returns immediately (zero rounds — the
        job exchanges nothing); otherwise the fresh result feeds the
        cache on the way out.
        """
        # Snapshot the served relation and its key together: a mutation
        # landing mid-job swaps both atomically, and a job must never
        # compute over one version while caching under another.
        with self._session_lock:
            relation = self.relation
            relation_key = self._relation_key
        expected = getattr(job, "_expect_version", None)
        if expected is not None and expected != relation.version:
            raise StaleRelationError(expected, relation.version)
        cached = self._cache_lookup(job.token, job.config, relation_key)
        if cached is not None:
            return cached
        result = _run_salted_query(
            self.scheme,
            relation,
            self.transport,
            self.rtt_ms,
            self._request_salt(job.job_id),
            job.token,
            job.config,
            on_event=job._record_event,
            control=job._control,
            session_label=f"job-{job.job_id}",
            shard_executor=self._shard_executor(job.config),
            shard_placement=self.shard_placement,
        )
        self._cache_store(job.token, job.config, result, relation_key)
        # A fresh result observed a halting depth: make the warm-start
        # history durable (no-op without state_dir).
        self._spill_depths()
        return result

    def _make_process_runner(self, executor, salt: str, prior: frozenset):
        """Runner for one ``execute_many(mode="process")`` job: hand the
        query to the persistent worker pool and wait.  Cancellation is
        honoured only while the job is queued (the flag cannot reach the
        child); a deadline abandons the wait (the worker's result is
        dropped)."""

        def run(job: QueryJob) -> QueryResult:
            # The cache lives in the parent: a repeat query never even
            # reaches the pool (the hit itself re-records the pattern).
            cached = self._cache_lookup(job.token, job.config)
            if cached is not None:
                return cached
            future = executor.submit(_run_query, salt, job.token, job.config, prior)
            try:
                result = future.result(timeout=job._control.remaining)
            except TimeoutError:
                raise JobTimeout(
                    "process-mode job deadline exceeded (worker result dropped)"
                ) from None
            self._cache_store(job.token, job.config, result)
            return result

        return run

    # -- one-shot and bulk execution -------------------------------------

    def execute(self, token: Token, config: QueryConfig | None = None) -> QueryResult:
        """Run one query to completion (thin wrapper over :meth:`submit`)."""
        return self.submit(token, config).result()

    def _request_salt(self, request_id: int) -> str:
        # The salt is a pure function of (server namespace, request id),
        # so the same batch produces the same randomness streams in every
        # execution mode (sequential, thread window, process pool) while
        # distinct servers on one scheme draw disjoint streams.
        return f":{self._salt_namespace}-request-{request_id}#"

    def execute_many(
        self,
        requests: list[tuple[Token, QueryConfig | None]],
        concurrency: int = 1,
        mode: str = "thread",
    ) -> list[QueryResult]:
        """Run many queries, ``concurrency`` at a time (wrapper over
        :meth:`submit`: every request rides the job queue).

        ``mode="thread"`` windows inline jobs over the scheduler's
        thread pool: big-int crypto holds the GIL, so threads overlap
        link latency only.  ``mode="process"`` feeds the jobs to a
        persistent worker-process pool — real multi-core execution.
        Results come back in request order either way, each carrying its
        session's ``leakage_events``; randomness streams are salted per
        request id, so sequential and process modes produce identical
        results and leakage (each worker receives the exact
        query-pattern history a sequential run would see at its request;
        the parent's history is re-synced after the batch).  Thread mode
        matches on results too, but for a batch that *repeats* a token
        the query-pattern bit lands on whichever duplicate the scheduler
        runs first — threads share the live history.

        ``concurrency <= 1`` always runs strictly sequentially (one job
        at a time through the queue) — with one request at a time there
        is no parallelism for a worker process to add, and the execution
        is replay-identical by construction.
        """
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown execute_many mode: {mode!r}")
        if not requests:
            return []
        # Resolve the server's default shard count once, up front: the
        # jobs (and the pickled configs process-mode workers receive)
        # then all carry the same effective config.
        requests = [
            (token, self._effective_config(config)) for token, config in requests
        ]
        ids = list(self._reserve_ids(len(requests)))
        if mode == "process" and concurrency > 1 and len(requests) > 1:
            # Never build a wider pool than there is work to fill it.
            return self._execute_many_process(
                requests, ids, min(concurrency, len(requests))
            )
        if concurrency <= 1 or mode == "process":
            # Sequential (also where a process batch is too small for a
            # pool — never silently downgrade process mode to threads).
            results = []
            for (token, config), job_id in zip(requests, ids):
                job = self._make_job(job_id, token, config, self._run_inline)
                self._dispatch(job)
                results.append(job.result())
            return results
        return self._collect_windowed(requests, ids, concurrency, self._run_inline)

    def _collect_windowed(
        self, requests, ids, concurrency, runner, jobs_out: list | None = None
    ) -> list:
        """Dispatch jobs with at most ``concurrency`` in flight; gather
        results in request order.  ``runner`` is one callable for the
        batch or a per-request list.  Every dispatched job is waited on
        before returning, even when an early job failed — no stragglers
        outlive the call."""
        slots = threading.Semaphore(concurrency)
        jobs: list[QueryJob] = [] if jobs_out is None else jobs_out
        try:
            for (token, config), job_id in zip(requests, ids):
                slots.acquire()
                job_runner = runner[len(jobs)] if isinstance(runner, list) else runner
                job = self._make_job(job_id, token, config, job_runner)
                job._add_done_callback(lambda _job: slots.release())
                self._dispatch(job, cap_hint=concurrency)
                jobs.append(job)
            return [job.result() for job in jobs]
        finally:
            for job in jobs:
                job._done.wait()

    def _acquire_query_executor(self, workers: int) -> ProcessPoolExecutor:
        """The persistent query-worker pool, grown to ``workers`` when idle.

        Growth replaces the pool, which is only safe with no in-flight
        batch (a shutdown would cancel another thread's futures); while
        batches are active the existing — possibly smaller — pool is
        reused, and the per-batch window semaphore still enforces the
        caller's concurrency cap either way.  Pool construction (forking
        and warming N workers, pickling the scheme and relation to each)
        happens *outside* the lock so jobs and other batches never
        block on a multi-second spin-up; a racing builder's spare pool is
        discarded.  Callers must pair with :meth:`_release_query_executor`.
        """
        with self._session_lock:
            if self._closed:
                raise RuntimeError("server is closed")
            if self._query_pool is not None:
                if self._query_pool_workers >= workers or self._query_pool_active > 0:
                    self._query_pool_active += 1
                    return self._query_pool
                # Idle and smaller than requested: retire, rebuild below.
                self._query_pool.shutdown(wait=False)
                self._query_pool = None
        # Fork-started workers inherit the relation store with the
        # address space — the initializer payload stays empty; only a
        # spawn platform ships the (cached, pickled-once) blob.
        payload = (
            None
            if pool_start_method() == "fork"
            else _relation_blob(self._relation_key)
        )
        new_pool = make_pool_executor(
            workers,
            _init_query_worker,
            (
                self._relation_key,
                payload,
                self.transport,
                self.rtt_ms,
                backend.get_backend().name,
            ),
        )
        with self._session_lock:
            if self._closed:
                new_pool.shutdown(wait=False, cancel_futures=True)
                raise RuntimeError("server is closed")
            if self._query_pool is None:
                self._query_pool = new_pool
                self._query_pool_workers = workers
            else:
                new_pool.shutdown(wait=False)  # a concurrent builder won
            self._query_pool_active += 1
            return self._query_pool

    def _release_query_executor(self) -> None:
        with self._session_lock:
            self._query_pool_active -= 1

    def _execute_many_process(self, requests, ids, concurrency) -> list[QueryResult]:
        executor = self._acquire_query_executor(concurrency)
        jobs: list[QueryJob] = []
        try:
            # Sequential repeat semantics, precomputed: request i's history
            # is the server history plus the fingerprints of requests
            # 0..i-1.
            seen = set(self.scheme.query_pattern_snapshot())
            runners = []
            for (token, _), job_id in zip(requests, ids):
                runners.append(
                    self._make_process_runner(
                        executor, self._request_salt(job_id), frozenset(seen)
                    )
                )
                seen.add(token.fingerprint())
            try:
                return self._collect_windowed(
                    requests, ids, concurrency, runners, jobs_out=jobs
                )
            finally:
                # Worker history copies are per-task scratch; fold the
                # batch into the parent's authoritative query-pattern
                # history even when a request fails — sequential execution
                # records each fingerprint at query start, and a handed-off
                # query runs to completion in its worker regardless of
                # siblings.  Jobs that never started (server closed while
                # queued) and broken-pool/cancelled casualties (their
                # worker query may never have run) stay out.
                # (_collect_windowed settled every dispatched job.)
                self._record_batch_patterns(jobs)
        finally:
            self._release_query_executor()

    def _record_batch_patterns(self, jobs: list[QueryJob]) -> None:
        self.scheme.record_query_patterns(
            [
                job.token
                for job in jobs
                if job._attempted
                and not isinstance(job._error, (BrokenProcessPool, CancelledError))
            ]
        )
        # Worker scheme copies recorded their halting depths into
        # per-task scratch; fold the observations into the parent's
        # warm-start history the same way the patterns fold above.
        # Cache hits stay out — they observed nothing new.
        for job in jobs:
            result = job._result
            if result is not None and not result.cache_hit:
                self.scheme.record_halting_depth(
                    self._relation_key, result.halting_depth
                )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Close every job, session and worker pool this server opened.

        Idempotent, and safe when the S2 daemon connection already died
        (dead links are swallowed — they can never mask the error that
        killed them).  Queued jobs are cancelled; running jobs are asked
        to stop at their next round boundary and waited for; a process
        batch in flight has its pending pool futures cancelled (that
        batch's ``execute_many`` raises) — an explicit shutdown outranks
        in-flight work.  Live watch jobs drain with the running jobs:
        ``WatchJob.cancel`` wakes the watch loop, so a watch parked on
        its wake event terminates promptly instead of holding a worker.
        """
        self._spill_depths()
        # Health flips first (sticky, idempotent): /healthz reports
        # draining for the whole teardown window while /metrics stays
        # scrapeable until the very end.
        self._health.drain()
        # Mutation lock before session lock (same order as
        # _apply_mutation): an in-flight mutation commits fully — or its
        # closed pre-check rejects it untouched — before _closed flips,
        # so the MutableRelation can never end up ahead of the served
        # relation, the caches, or the daemon registration.
        with self._mutation_lock, self._session_lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions)
            self._sessions.clear()
            pool, self._query_pool = self._query_pool, None
            self._query_pool_workers = 0
            shard_pool, self._shard_pool = self._shard_pool, None
        # Scheduler teardown: cancel queued jobs, stop running ones at
        # the next round boundary, retire the workers.
        with self._scheduler_lock:
            running = list(self._running_jobs)
            workers = self._scheduler_threads
            threads = list(self._scheduler_thread_objs)
        for job in running:
            job.cancel()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._drain_queue()
        # Shutdown sentinels wake workers parked in get(); best-effort
        # only — a worker that misses its sentinel (retired meanwhile, or
        # the bounded queue filled) still exits via the idle-TTL retire
        # path, since the queue is drained and _closed is set.  Never
        # block here: with max_pending < workers a blocking put could
        # wait on consumers that no longer exist.
        for _ in range(workers):
            try:
                self._job_queue.put_nowait(None)
            except queue.Full:
                break
        for thread in threads:
            thread.join()
        self._drain_queue()  # anything that slipped in during teardown
        for session in sessions:
            session.close()
        if shard_pool is not None:
            # Running jobs were already stopped/waited above, so no
            # shard task can still be queued behind this shutdown.
            shard_pool.shutdown(wait=True)
        _release_relation(self._relation_key)
        exporter, self._exporter = self._exporter, None
        if exporter is not None:
            exporter.close()

    def __enter__(self) -> "TopKServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
