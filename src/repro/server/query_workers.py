"""Where a query's body executes: this thread, or a worker process bound
to one relation id.

:class:`~repro.server.topk_server.TopKServer` has one runner; the only
thing ``execute_many(mode="process")`` changes is that the runner hands
the body — :func:`run_salted_query`, the same function it would call in
its own thread — to a :class:`QueryWorkerPool`.  This module owns the
question the server must never get wrong: *how does a worker process
get which relation?*

A pool's workers get ``(scheme, relation)`` once, at start, as the
arguments of their initializer: fork-started workers inherit them with
the address space, spawn-started ones receive them pickled.  A worker
therefore holds exactly the relation its pool was started with, for
life: a pool is *bound* to that relation id, and
:meth:`QueryWorkerPool.submit` names the relation the job snapshotted —
a pool bound to any other id (the served relation was mutated since) is
retired and rebuilt first, never silently reused.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor

from repro.core.relation import EncryptedRelation
from repro.core.results import QueryConfig, QueryResult
from repro.core.scheme import SecTopK
from repro.core.token import Token
from repro.crypto import backend
from repro.protocols.base import owned_context

# Worker-process query state, installed by the pool initializer.
_QUERY_WORKER: dict = {}


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


def _init_query_worker(scheme, relation, transport, backend_name) -> None:
    backend.set_backend(backend_name)
    _QUERY_WORKER["scheme"], _QUERY_WORKER["relation"] = scheme, relation
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
    the initializer's arguments ship for free) or start empty (spawn:
    they travel pickled).
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
    valid — and starts a fresh one; its workers hold the pair they were
    started with, so it outlives a mutation that lands while a job that
    snapshotted it is still waiting for a worker.
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
        self._executor = make_pool_executor(
            workers,
            _init_query_worker,
            (self._scheme, relation, self._transport, backend.get_backend().name),
        )
        self._relation_key = key
        self._workers = workers

    def _retire_locked(self, cancel: bool) -> None:
        if self._executor is None:
            return
        self._executor.shutdown(wait=False, cancel_futures=cancel)
        self._executor = self._relation_key = None
        self._workers = 0

    def close(self) -> None:
        """Cancel pending work and stop the workers (idempotent)."""
        with self._lock:
            self._closed = True
            self._retire_locked(cancel=True)
