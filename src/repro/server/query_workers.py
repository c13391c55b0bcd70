"""Where a query's body executes: this thread, or a worker process bound
to one relation id.

:class:`~repro.server.topk_server.TopKServer` has one runner; the only
thing ``execute_many(mode="process")`` changes is that the runner hands
the body — :func:`run_salted_query`, the same function it would call in
its own thread — to a :class:`QueryWorkerPool`.  This module owns the
question the server must never get wrong: *how does a worker process
get which relation?*

The parent pins ``(scheme, relation)`` pairs in a process-wide store
keyed by relation id (below); workers inherit or receive the pair once,
at start.  A worker therefore holds exactly the relation its pool was
started with, for life: a pool is *bound* to that relation id, and
:meth:`QueryWorkerPool.submit` names the relation the job snapshotted —
a pool bound to any other id (the served relation was mutated since) is
retired and rebuilt first, never silently reused.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor

from repro.core.relation import EncryptedRelation
from repro.core.results import QueryConfig, QueryResult
from repro.core.scheme import SecTopK
from repro.core.token import Token
from repro.crypto import backend
from repro.protocols.base import owned_context

# The relation store: (scheme, relation) pairs keyed by relation id, with
# the blob each spawn-started worker needs pickled at most once.  In the
# parent it is refcounted by the servers and pools that exported into
# it; in a worker it is either *inherited whole* (fork — entries travel
# with the address space, no pickling, no transfer) or filled from the
# initializer's one-time payload (spawn).  Either way repeated batches,
# rebuilt pools, and sibling servers over the same relation all reuse
# the cached entry instead of re-shipping megabytes of ciphertexts.
_RELATION_STORE: dict[str, tuple[SecTopK, EncryptedRelation]] = {}
_RELATION_REFS: dict[str, int] = {}
_RELATION_BLOBS: dict[str, bytes] = {}
_STORE_LOCK = threading.Lock()

# Worker-process query state, installed by the pool initializer.
_QUERY_WORKER: dict = {}


def export_relation(scheme: SecTopK, relation: EncryptedRelation) -> None:
    """Pin (scheme, relation) in the parent-side store under its id."""
    key = relation.relation_id()
    with _STORE_LOCK:
        if key in _RELATION_STORE:
            # A second exporter of the same relation (possibly holding a
            # pickled copy of the same objects — interchangeable: the id
            # pins identical ciphertexts and key material) shares the
            # existing export.
            _RELATION_REFS[key] += 1
        else:
            _RELATION_STORE[key] = (scheme, relation)
            _RELATION_REFS[key] = 1


def release_relation(key: str) -> None:
    """Drop one pin; the last one removes the entry and its blob."""
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


def run_salted_query(
    scheme,
    relation,
    transport: str,
    salt: str,
    token: Token,
    config: QueryConfig | None,
    on_event=None,
    control=None,
    session_label: str | None = None,
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
        transport=transport, salt=salt,
        on_event=on_event, control=control, session_label=session_label,
    )
    with owned_context(ctx):
        # scheme._query attaches the per-query leakage slice itself; on
        # this fresh context that slice is the whole session log.
        return scheme.query(relation, token, config, ctx=ctx)


def _init_query_worker(relation_key, payload, transport, backend_name) -> None:
    backend.set_backend(backend_name)
    entry = _RELATION_STORE.get(relation_key)
    if entry is None:
        # Spawn-started worker: install the shipped blob; later pool
        # rebuilds over the same relation find it cached here.
        entry = pickle.loads(payload)
        _RELATION_STORE[relation_key] = entry
    _QUERY_WORKER["scheme"], _QUERY_WORKER["relation"] = entry
    _QUERY_WORKER["transport"] = transport


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
    return run_salted_query(
        scheme,
        _QUERY_WORKER["relation"],
        _QUERY_WORKER["transport"],
        salt,
        token,
        config,
    )


def _warmup() -> None:
    return None


def pool_start_method() -> str:
    """The start method worker pools use (fork where available).

    Tells whether worker processes inherit the parent's memory (fork:
    the relation store ships for free) or start empty (spawn: the pair
    must travel through initializer arguments).
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def make_pool_executor(workers: int, initializer, initargs) -> ProcessPoolExecutor:
    """A worker-process pool with the platform's cheapest start method.

    Fork starts workers cheaply on POSIX; spawn works too because the
    initializer arguments carry everything workers need.

    Workers are spawned eagerly here rather than at first submit:
    executors fork lazily, and deferring the forks until a job or
    transport thread is live would fork a multi-threaded process (lock
    state inherited mid-held, ``DeprecationWarning`` on 3.12+).  Build
    pools before starting threads where possible.  Fork stays preferred
    even when threads exist: the non-fork methods re-import ``__main__``
    in each worker, which breaks REPL/stdin parents outright, while a
    late fork only risks the (documented) 3.12+ warning from another
    pool's manager threads.
    """
    mp_context = multiprocessing.get_context(pool_start_method())
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=initializer,
        initargs=initargs,
    )
    # One submit per worker forks the whole pool now (the executor adds
    # a process per pending item until max_workers is reached).
    for future in [executor.submit(_warmup) for _ in range(workers)]:
        future.result()
    return executor


class QueryWorkerPool:
    """One server's persistent worker processes, bound to a relation id.

    Lazily built by the first :meth:`bind` / :meth:`submit` and reused
    across batches for as long as they name the same relation id and fit
    its width.  A different id, or a wider batch, retires the pool —
    queries it already accepted run to completion, their futures stay
    valid — and starts a fresh one; the binding holds its own pin in the
    relation store, so the pair outlives a mutation that lands while a
    job that snapshotted it is still waiting for a worker.
    """

    def __init__(self, scheme: SecTopK, transport: str):
        self._scheme = scheme
        self._transport = transport
        # Guards the binding *and* the submit that relies on it: a pool
        # retired between the two would reject the work item.
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._relation_key: str | None = None
        self._workers = 0
        self._closed = False

    def bind(self, relation: EncryptedRelation, workers: int) -> None:
        """Make sure the pool serves ``relation`` with >= ``workers``
        processes.  Batches call this before they dispatch, so the
        common-case fork happens ahead of their jobs."""
        with self._lock:
            self._bind_locked(relation, workers)

    def submit(
        self,
        relation: EncryptedRelation,
        workers: int,
        salt: str,
        token: Token,
        config: QueryConfig | None,
        prior_patterns: frozenset,
    ) -> Future:
        """Run one salted query over ``relation`` in a worker process."""
        with self._lock:
            self._bind_locked(relation, workers)
            return self._executor.submit(
                _run_query, salt, token, config, prior_patterns
            )

    def _bind_locked(self, relation: EncryptedRelation, workers: int) -> None:
        if self._closed:
            raise RuntimeError("server is closed")
        key = relation.relation_id()
        if self._relation_key == key and self._workers >= workers:
            return
        self._retire_locked(cancel=False)
        export_relation(self._scheme, relation)
        try:
            # Fork-started workers inherit the relation store with the
            # address space — the initializer payload stays empty; only
            # a spawn platform ships the (cached, pickled-once) blob.
            payload = None if pool_start_method() == "fork" else _relation_blob(key)
            self._executor = make_pool_executor(
                workers,
                _init_query_worker,
                (key, payload, self._transport, backend.get_backend().name),
            )
        except BaseException:
            release_relation(key)
            raise
        self._relation_key = key
        self._workers = workers

    def _retire_locked(self, cancel: bool) -> None:
        if self._executor is None:
            return
        self._executor.shutdown(wait=False, cancel_futures=cancel)
        release_relation(self._relation_key)
        self._executor = self._relation_key = None
        self._workers = 0

    def close(self) -> None:
        """Cancel pending work and stop the workers (idempotent)."""
        with self._lock:
            self._closed = True
            self._retire_locked(cancel=True)
