"""The serving object: one encrypted relation behind a job scheduler.

:func:`connect` (``repro.connect``) builds a :class:`TopKServer`, the
one object a caller holds::

    import repro

    with repro.connect(scheme, encrypted, "tcp://s2.example:9317") as server:
        job = server.submit(server.token([0, 1, 2], k=3))
        for event in job.events():          # DepthAdvanced, RoundTrip, ...
            print(event)
        result = job.result(timeout=30.0)
        print(server.reveal(result), result.stats.rounds, result.stats.total_bytes)

A :class:`TopKServer` owns one :class:`~repro.core.relation.EncryptedRelation`,
the scheme that mints its tokens and reveals its results, and the S2
connection recipe.  :meth:`TopKServer.submit` hands a
:class:`~repro.server.jobs.QueryJob` to a fixed
:class:`~concurrent.futures.ThreadPoolExecutor` behind an admission
semaphore (backpressure), each job resolving asynchronously with
per-job deadline and cooperative cancellation at round boundaries.
:meth:`TopKServer.query` and :meth:`TopKServer.execute_many` are thin
wrappers over the same pool; a watch gets a thread of its own.

**One runner.**  Every query the server runs — submitted, one-shot,
thread-windowed batch, worker-process batch — goes through
:meth:`TopKServer._run_query`: it snapshots the served relation once
(the relation id is a pure function of that object), checks the job's
``expect_version`` against the snapshot, does the cache lookup and the
cache store under the snapshot's id, and runs the body
(:func:`~repro.server.query_workers.run_salted_query`) in between.  The
execution modes differ only in *where* that body executes — the
job's pool thread, or a worker process bound to the snapshot's relation
id (:mod:`repro.server.query_workers`) — so they cannot drift apart:
a mutation landing before, between or during the jobs of a batch never
lets a job compute over one version and answer or cache for another.

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
"""

from __future__ import annotations

import functools
import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.core.relation import EncryptedRelation
from repro.core.results import QueryConfig, QueryResult
from repro.core.scheme import SecTopK
from repro.core.token import Token
from repro.events import TopKChanged
from repro.exceptions import (
    JobTimeout,
    MutationError,
    QueryError,
    StaleRelationError,
)
from repro.net.channel import ChannelStats
from repro.obs.exporter import HealthState, MetricsExporter
from repro.obs.metrics import REGISTRY
from repro.protocols.base import LeakageEvent
from repro.server.jobs import QueryJob, WatchJob, WatchSummary
from repro.server.mutations import MutableRelation, MutationResult
from repro.server.query_cache import CachedResult, QueryCache
from repro.server.query_workers import QueryWorkerPool, run_salted_query

_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_scheduler_queue_depth",
    "Jobs admitted to the scheduler and not yet started.",
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


def connect(
    scheme: SecTopK,
    relation: EncryptedRelation | MutableRelation,
    address: str = "inprocess",
    **options,
) -> "TopKServer":
    """``TopKServer(scheme, relation, transport=address, **options)`` —
    the package's entry point; the options are :class:`TopKServer`'s."""
    return TopKServer(scheme, relation, transport=address, **options)


class TopKServer:
    """Serves top-k queries over one encrypted relation.

    Pass a :class:`~repro.server.mutations.MutableRelation` as
    ``relation`` to make the server writable: :meth:`insert` /
    :meth:`update` / :meth:`delete` then apply encrypted mutations, each
    bumping :attr:`version` and invalidating every stale consumer, and
    :meth:`watch` with ``window=N`` can follow the insert log.

    Parameters
    ----------
    transport:
        ``"inprocess"`` (each job's crypto cloud in this process) or
        the address of a standalone S2 daemon (``"tcp://host:port"``
        / ``"unix:///path"``).  Each remote session holds a pooled
        connection of its own while it runs; the first one registers the
        scheme's key material with the daemon and every later one —
        including process-mode worker jobs, after any mutation — opens
        by that registration alone.
    scheduler_workers:
        Size of the thread pool that runs submitted jobs: at most this
        many queries run at once, and ``execute_many`` never runs a
        window wider than it.  Watches do not count against it — each
        runs on a thread of its own.
    metrics_port:
        When set, serve the process-wide metrics registry as Prometheus
        text at ``http://127.0.0.1:PORT/metrics`` (``0`` picks a free
        port — read it back from :attr:`metrics_port`), plus a
        ``/healthz`` endpoint that flips to draining on :meth:`drain` /
        :meth:`close`.  ``None`` (default) starts no exporter;
        instrumentation is recorded either way.
    """

    #: Jobs that may wait for a pool thread.  Past that, backpressure:
    #: :meth:`submit` blocks until a running job finishes.
    MAX_PENDING = 128

    #: LRU bound of the result cache (entries).
    CACHE_CAPACITY = 256

    def __init__(
        self,
        scheme: SecTopK,
        relation: EncryptedRelation | MutableRelation,
        transport: str = "inprocess",
        scheduler_workers: int = 8,
        metrics_port: int | None = None,
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
        # Validate the cheap parameters before acquiring any resource —
        # a half-constructed server has no reachable close().
        if scheduler_workers < 1:
            raise ValueError("scheduler_workers must be >= 1")
        # The result cache (ARCHITECTURE.md, "Result cache"): a repeat
        # is served with zero S2 round-trips, legal because the repeat is
        # already L1 leakage (``query_pattern``).  QueryConfig(cache=False)
        # opts one query out of both lookup and store.
        self._cache = QueryCache(self.CACHE_CAPACITY)
        # Scheme-wide unique namespace: request salts from different
        # servers sharing one scheme must never collide (a collision
        # would replay blinding/permutation streams across queries).
        self._salt_namespace = scheme.context_namespace()
        self._worker_pool = QueryWorkerPool(scheme, transport)
        # Guards the request-id counter and the closed flag.
        self._state_lock = threading.Lock()
        self._next_request_id = 0
        # -- mutation / watch state --
        self._mutation_lock = threading.Lock()
        self._mutation_count = 0
        self._closed = False
        # -- job scheduler state --
        self._scheduler_workers = scheduler_workers
        self._executor = ThreadPoolExecutor(
            scheduler_workers,
            thread_name_prefix=f"topk-scheduler-{self._salt_namespace}",
        )
        # One permit per pool thread plus MAX_PENDING waiting slots;
        # released when a pooled job finishes.
        self._admission = threading.Semaphore(self.MAX_PENDING + scheduler_workers)
        # Guards the counters below, the watch map and every hand-off of
        # a job to its thread (see _dispatch).
        self._scheduler_lock = threading.Lock()
        self._jobs_active = 0
        self._running_jobs: set[QueryJob] = set()
        self._watches: dict[WatchJob, threading.Thread] = {}
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

    def _reserve_ids(self, count: int) -> range:
        with self._state_lock:
            if self._closed:
                raise RuntimeError("server is closed")
            start = self._next_request_id
            self._next_request_id += count
        return range(start, start + count)

    # -- result cache ----------------------------------------------------

    @staticmethod
    def _cache_enabled(config: QueryConfig | None) -> bool:
        return config is None or config.cache

    @staticmethod
    def _cache_keys(relation_key: str, token: Token, config: QueryConfig | None):
        """``(exact key, k-independent scan key)`` of one query."""
        config = config or QueryConfig()
        return (
            QueryCache.key(relation_key, token.fingerprint(), config),
            QueryCache.scan_key(relation_key, token.scan_fingerprint(), config),
        )

    def _cache_lookup(
        self, token: Token, config: QueryConfig | None, relation_key: str
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
        key, scan_key = self._cache_keys(relation_key, token, config)
        entry, sliced = self._cache.lookup(key, scan_key, token.k)
        if entry is None:
            return None
        repeated = self.scheme.observe_query_pattern(token)
        return QueryResult(
            items=entry.copy_items(token.k if sliced else None),
            halting_depth=0 if sliced else entry.halting_depth,
            channel_stats=ChannelStats(),
            config=entry.config,
            leakage_events=[LeakageEvent("S1", "SecQuery", "query_pattern", repeated)],
            cache_hit=True,
        )

    def _cache_store(
        self, token: Token, config: QueryConfig | None, result, relation_key: str
    ) -> None:
        """Keep a snapshot of a fresh result for future repeats (its
        items copied: the caller owns — and may mutate — the returned
        object)."""
        if not self._cache_enabled(config):
            return
        key, scan_key = self._cache_keys(relation_key, token, config)
        snapshot = CachedResult.of(result)
        self._cache.put(key, snapshot, scan_key=scan_key, k=token.k)

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

    def _apply_mutation(self, op: str, *args) -> MutationResult:
        """Apply one mutation: swap the pointer, invalidate the cache,
        wake the watches.

        Under the mutation lock: apply the op to the
        :class:`MutableRelation` (incremental sorted-list maintenance,
        version bump) and swap the served relation — one attribute
        store, so a job's snapshot sees the predecessor or the successor
        whole.  Then, outside it, the predecessor's cached results are
        dropped — the one thing keyed by a relation id that needs
        retiring by hand: the worker pool rebinds on the next job that
        names another id (:mod:`repro.server.query_workers`), and the S2
        daemon holds the key, not the relation, so a mutation never
        dials it.
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
            with self._state_lock:
                if self._closed:
                    raise RuntimeError("server is closed")
            result = getattr(self._mutable, op)(*args)
            old_key = self.relation.relation_id()
            self.relation = self._mutable.relation
            self._mutation_count += 1
        self._cache.invalidate_relation(old_key)
        _MUTATIONS.labels(op=op).inc()
        with self._scheduler_lock:
            watches = list(self._watches)
        for watch in watches:
            watch.notify()
        return result

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

        A watch runs on a thread of its own for its lifetime, outside
        the pool that serves submitted jobs, so any number of live
        watches leaves every ``scheduler_workers`` slot to queries.
        """
        if window is not None:
            if window < 1:
                raise QueryError("watch window must be >= 1")
            if self._mutable is None:
                raise MutationError(
                    "windowed watches need a mutable relation (the window "
                    "is defined over its insert log)"
                )
        job_id = self._reserve_ids(1)[0]
        job = WatchJob(job_id, token, config, timeout=timeout, window=window)
        job._runner = self._run_watch
        self._dispatch(
            job,
            threading.Thread(
                target=self._watch_main,
                args=(job,),
                name=f"topk-watch-{self._salt_namespace}-{job_id}",
                daemon=True,
            ),
        )
        return job

    def _watch_main(self, job: WatchJob) -> None:
        """Body of a watch's own thread: the job, then its retirement."""
        try:
            self._run_job(job)
        finally:
            with self._scheduler_lock:
                del self._watches[job]
            _WATCHES_ACTIVE.dec()

    def _run_watch(self, job: WatchJob) -> WatchSummary:
        """Runner of one watch job: evaluate on every version change,
        sleep on the wake event between changes.  A stop drains: the
        runner evaluates once more when the version moved since its last
        evaluation (so a mutation made before :meth:`WatchJob.stop` is
        always evaluated), then exits."""
        evaluations = 0
        changes = 0
        last_set: frozenset | None = None
        last_pairs: tuple | None = None
        last_version: int | None = None
        seen_version: int | None = None
        sequence = 0
        while True:
            job._control.check()
            # Read before the version: a mutation that precedes stop()
            # is then visible to this pass.
            stopping = job._stopped
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
                if stopping:
                    break
                continue  # re-check stop/cancel/version before sleeping
            if stopping:
                break
            job._wake.wait(timeout=job._control.remaining)
            job._wake.clear()
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
            if token.k > len(rows):
                token = replace(token, k=len(rows))
        elif token.k > relation.n_objects:
            token = replace(token, k=relation.n_objects)
        salt = f":{self._salt_namespace}-watch-{job.job_id}-{sequence}#"
        result = run_salted_query(
            self.scheme,
            relation,
            self.transport,
            salt,
            token,
            job.config,
            on_event=job._record_event,
            control=job._control,
            session_label=f"watch-{job.job_id}-{sequence}",
        )
        return tuple(self.scheme.reveal(result))

    @property
    def stats(self) -> dict:
        """Operational counters: reuse layer + scheduler.

        A consistent point-in-time snapshot: each component's block is
        copied under that component's own lock (the cache's counters
        under the cache lock, the scheduler's under the scheduler lock),
        and the returned dict is plain data the caller owns — it can
        never disagree with what ``/metrics`` scraped at the same
        instant, because both read the same instruments.  The
        ``scheduler`` block counts jobs: ``queue_depth`` admitted and not
        started, ``running`` started (live watches included),
        ``jobs_active`` both.
        """
        cache_stats = self._cache.stats()
        with self._scheduler_lock:
            running = len(self._running_jobs)
            scheduler = {
                "queue_depth": self._jobs_active - running,
                "jobs_active": self._jobs_active,
                "running": running,
            }
            watches_active = len(self._watches)
        return {
            "cache": cache_stats,
            "scheduler": scheduler,
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

        The job is admitted immediately — blocking while
        :attr:`MAX_PENDING` jobs already wait for a pool thread — and
        runs on the next free one; ``timeout`` sets a per-job deadline
        measured from submission, enforced cooperatively at round
        boundaries.  The returned handle resolves via ``result()``,
        cancels via ``cancel()``, and streams progress via ``events()``.

        ``expect_version`` pins the query to a relation version: if a
        mutation lands before the job starts, it fails with
        :class:`~repro.exceptions.StaleRelationError` instead of
        silently answering over data the caller never saw.

        A submitted job's transcript (results, rounds, bytes, leakage)
        is bit-identical to the same query through :meth:`query` or a
        sequential :meth:`execute_many` at the same request position —
        request salts are a pure function of the request id.
        """
        job = self._make_job(
            self._reserve_ids(1)[0],
            token,
            config,
            timeout=timeout,
            expect_version=expect_version,
        )
        self._dispatch(job)
        return job

    def _make_job(
        self, job_id, token, config, *, timeout=None, expect_version=None,
        in_worker=None,
    ) -> QueryJob:
        """A query job wired to the one runner.  ``in_worker`` — a
        ``(pool width, prior query-pattern history)`` pair — places the
        job's body on the worker-process pool instead of the scheduler
        thread; nothing else about the job differs."""
        job = QueryJob(
            job_id, token, config, timeout=timeout, expect_version=expect_version
        )
        job._runner = functools.partial(self._run_query, in_worker=in_worker)
        return job

    def _dispatch(self, job: QueryJob, thread: threading.Thread | None = None) -> None:
        """Admit a job and hand it its thread: a pool thread, or — for a
        watch — ``thread``, its own for the job's lifetime.

        The closed check and the hand-off happen under the scheduler
        lock, the lock :meth:`close` snapshots running jobs under after
        raising the flag: a job is either refused here, or handed off
        before that snapshot — and then settles, because the pool runs
        every queued job through :meth:`_run_job` before it shuts down.
        """
        if thread is None:
            self._admission.acquire()  # backpressure: MAX_PENDING waiting
        with self._scheduler_lock:
            if self._closed:
                if thread is None:
                    self._admission.release()
                raise RuntimeError("server is closed")
            self._jobs_active += 1
            _JOBS_ACTIVE.inc()
            _QUEUE_DEPTH.inc()
            job._mark_queued()
            if thread is None:
                self._executor.submit(self._run_pooled, job)
            else:
                self._watches[job] = thread
                _WATCHES_ACTIVE.inc()
                thread.start()

    def _run_pooled(self, job: QueryJob) -> None:
        try:
            self._run_job(job)
        finally:
            self._admission.release()

    def _run_job(self, job: QueryJob) -> None:
        _QUEUE_DEPTH.dec()
        try:
            if self._closed:
                # Queued when close() began: an explicit shutdown
                # outranks the job, which settles without starting.
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

    def _run_query(self, job: QueryJob, in_worker=None) -> QueryResult:
        """The one runner (see the module docstring): snapshot, version
        check, cache lookup, body, cache store — all under the
        snapshot's relation id.  A cache hit returns immediately (zero
        rounds — the job exchanges nothing); a fresh result feeds the
        cache on the way out.  Only *where the body runs* varies: this
        pool thread, or — ``in_worker`` — a worker process bound to
        the snapshot's relation id.
        """
        relation = self.relation
        relation_key = relation.relation_id()
        expected = job.expect_version
        if expected is not None and expected != relation.version:
            raise StaleRelationError(expected, relation.version)
        cached = self._cache_lookup(job.token, job.config, relation_key)
        if cached is not None:
            return cached
        if in_worker is not None:
            result = self._run_in_worker(job, relation, *in_worker)
        else:
            result = run_salted_query(
                self.scheme,
                relation,
                self.transport,
                self._request_salt(job.job_id),
                job.token,
                job.config,
                on_event=job._record_event,
                control=job._control,
                session_label=f"job-{job.job_id}",
            )
        self._cache_store(job.token, job.config, result, relation_key)
        return result

    def _run_in_worker(
        self, job: QueryJob, relation, workers: int, prior: frozenset
    ) -> QueryResult:
        """Hand the job's body to the worker pool and wait.  Cancellation
        is honoured only while the job is queued (the flag cannot reach
        the child); a deadline abandons the wait (the worker's result is
        dropped)."""
        future = self._worker_pool.submit(
            relation, workers, self._request_salt(job.job_id),
            job.token, job.config, prior,
        )
        # The worker's scheme copy is per-task scratch, so the parent's
        # authoritative query-pattern history is kept here: the token is
        # seen from the hand-off on (an inline run records it at query
        # start too, and a handed-off query runs to completion
        # regardless of what happens to this wait).
        self.scheme.observe_query_pattern(job.token)
        try:
            return future.result(timeout=job._control.remaining)
        except TimeoutError:
            raise JobTimeout(
                "process-mode job deadline exceeded (worker result dropped)"
            ) from None

    # -- one-shot and bulk execution -------------------------------------

    def query(self, token: Token, config: QueryConfig | None = None) -> QueryResult:
        """Run one query to completion (``submit(...).result()``)."""
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
        :meth:`submit`: every request is a pooled job).  The window is
        ``min(concurrency, scheduler_workers)`` — the pool runs no more
        at once — and a process pool is built at that width.

        ``mode="thread"`` runs each job's body on its pool thread:
        big-int crypto holds the GIL, so threads overlap link latency
        only.  ``mode="process"`` hands the bodies to a persistent
        worker-process pool — real multi-core execution.
        Results come back in request order either way, each carrying its
        session's ``leakage_events``; randomness streams are salted per
        request id, so sequential and process modes produce identical
        results and leakage (each worker receives the exact
        query-pattern history a sequential run would see at its
        request).  Thread mode matches on results too, but for a batch
        that *repeats* a token the query-pattern bit lands on whichever
        duplicate the scheduler runs first — threads share the live
        history.

        A window of one (``concurrency <= 1``, or a single request) runs
        strictly sequentially on a pool thread in either mode —
        with one request at a time there is no parallelism for a worker
        process to add, and the execution is replay-identical by
        construction.
        """
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown execute_many mode: {mode!r}")
        if not requests:
            return []
        ids = self._reserve_ids(len(requests))
        # Never run (or build a pool) wider than the thread pool can
        # drive or there is work to fill.
        window = max(1, min(concurrency, self._scheduler_workers, len(requests)))
        placements = [None] * len(requests)
        if mode == "process" and window > 1:
            # Bind the pool before any job of the batch is dispatched, so
            # the common-case fork precedes the batch's jobs.
            self._worker_pool.bind(self.relation, window)
            # Sequential repeat semantics, precomputed: request i's history
            # is the server history plus the fingerprints of requests
            # 0..i-1.
            seen = set(self.scheme.query_pattern_snapshot())
            for i, (token, _) in enumerate(requests):
                placements[i] = (window, frozenset(seen))
                seen.add(token.fingerprint())
        return self._collect_windowed(requests, ids, window, placements)

    def _collect_windowed(self, requests, ids, window, placements) -> list:
        """Dispatch jobs with at most ``window`` in flight; gather
        results in request order.  Every dispatched job is waited on
        before returning, even when an early job failed — no stragglers
        outlive the call."""
        slots = threading.Semaphore(window)
        jobs: list[QueryJob] = []
        try:
            for (token, config), job_id, in_worker in zip(requests, ids, placements):
                slots.acquire()
                job = self._make_job(job_id, token, config, in_worker=in_worker)
                job._add_done_callback(lambda _job: slots.release())
                self._dispatch(job)
                jobs.append(job)
            return [job.result() for job in jobs]
        finally:
            for job in jobs:
                job._done.wait()

    # -- the data owner's half (the scheme this server holds) ------------

    def token(
        self, attributes: list[int], k: int, weights: list[int] | None = None
    ) -> Token:
        """Mint a query token (:meth:`SecTopK.token`)."""
        return self.scheme.token(attributes, k, weights)

    def reveal(self, result: QueryResult) -> list[tuple[int, int]]:
        """Decrypt a result's winners into ``(object_id, score)`` pairs."""
        return self.scheme.reveal(result)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Close every job and worker pool this server opened.

        Idempotent, and safe when the S2 daemon connection already died
        (dead links are swallowed — they can never mask the error that
        killed them).  Queued jobs settle ``CANCELLED`` without starting;
        running jobs and live watches are asked to stop at their next
        round boundary and waited for (``WatchJob.cancel`` wakes a watch
        parked on its wake event); a process batch in flight has its
        pending pool futures cancelled (that batch's ``execute_many``
        raises) — an explicit shutdown outranks in-flight work.  When
        ``close`` returns, no thread this server started is alive.
        """
        # Health flips first (sticky, idempotent): /healthz reports
        # draining for the whole teardown window while /metrics stays
        # scrapeable until the very end.
        self._health.drain()
        # Mutation lock before state lock (same order as
        # _apply_mutation): an in-flight mutation commits fully — or its
        # closed pre-check rejects it untouched — before _closed flips,
        # so the MutableRelation can never end up ahead of the served
        # relation or the cache.
        with self._mutation_lock, self._state_lock:
            if self._closed:
                return
            self._closed = True
        # From here _dispatch refuses; everything it handed off before
        # this snapshot is in the pool or holds a watch thread.
        with self._scheduler_lock:
            stopping = [*self._running_jobs, *self._watches]
            watch_threads = list(self._watches.values())
        for job in stopping:
            job.cancel()
        self._worker_pool.close()
        self._executor.shutdown(wait=True)
        for thread in watch_threads:
            thread.join()
        exporter, self._exporter = self._exporter, None
        if exporter is not None:
            exporter.close()

    def __enter__(self) -> "TopKServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
