"""``TopKClient`` — the façade in front of the whole query stack.

One object, one mental model::

    import repro

    client = repro.connect(scheme, encrypted, "tcp://s2.example:9317")
    job = client.submit(client.token([0, 1, 2], k=3))
    for event in job.events():          # DepthAdvanced, RoundTrip, ...
        print(event)
    result = job.result(timeout=30.0)
    print(client.reveal(result), result.stats.rounds, result.stats.total_bytes)

Everything the pre-redesign surface required the caller to stitch
together — two-cloud context wiring, ``execute``/``execute_many``
modes, channel snapshots, leakage logs —
sits behind :meth:`TopKClient.submit`: queries are *jobs* with
``result(timeout)`` / ``cancel()`` / ``done()`` and a typed
``events()`` stream, and every result carries its full cost profile in
``result.stats`` (:class:`~repro.core.results.QueryStats`), identically
across all transports and execution modes.
"""

from __future__ import annotations

from repro.core.relation import EncryptedRelation
from repro.core.results import QueryConfig, QueryResult
from repro.core.scheme import SecTopK
from repro.core.token import Token
from repro.server.jobs import QueryJob, WatchJob
from repro.server.mutations import MutableRelation, MutationResult
from repro.server.topk_server import TopKServer


def connect(
    scheme: SecTopK,
    relation: EncryptedRelation | MutableRelation,
    address: str = "inprocess",
    *,
    rtt_ms: float = 0.0,
    scheduler_workers: int = 8,
    cache: bool = True,
    metrics_port: int | None = None,
) -> "TopKClient":
    """Connect a client to a relation at ``address``.

    ``address`` is a local backend name (``"inprocess"`` /
    ``"threaded"``) or the address of a standalone S2 daemon
    (``"tcp://host:port"`` / ``"unix:///path"``).  The returned
    :class:`TopKClient` owns its server: closing the client (or using
    it as a context manager) tears the whole deployment down.  The
    keyword-only options are :class:`~repro.server.topk_server.TopKServer`'s
    own (``rtt_ms``: simulated link latency per round;
    ``scheduler_workers``: size of the thread pool running submitted
    jobs; watches run on threads of their own).

    ``cache`` is the leakage-aware result cache (on by default), which
    rides on knowledge S1 already holds (L1 leakage).  A repeat of an
    earlier query — same token fingerprint, same relation, same
    transcript-relevant config — is served from the cache with **zero**
    S2 round-trips and ``stats.cache_hit=True``; the scheme still
    records the repeat, since ``query_pattern`` is exactly what the
    paper's L1 profile says S1 learns.  Opt out per query with
    ``QueryConfig(cache=False)`` or globally here.

    ``metrics_port`` mounts the server's Prometheus ``/metrics`` +
    ``/healthz`` endpoint on ``127.0.0.1`` (``0`` = ephemeral port, read
    back from ``client.server.metrics_port``; ``None`` = no exporter).

    Pass a :class:`~repro.server.mutations.MutableRelation` as
    ``relation`` to make the deployment writable: ``client.insert`` /
    ``update`` / ``delete`` then apply encrypted mutations (each bumping
    ``client.version`` and invalidating every stale consumer), and
    ``client.watch`` starts continuous top-k jobs.
    """
    server = TopKServer(
        scheme,
        relation,
        transport=address,
        rtt_ms=rtt_ms,
        scheduler_workers=scheduler_workers,
        cache=cache,
        metrics_port=metrics_port,
    )
    return TopKClient(server, owns_server=True)


class TopKClient:
    """Job-oriented client for secure top-k queries.

    Construct via :func:`connect` (owns a fresh server) or wrap an
    existing :class:`~repro.server.topk_server.TopKServer` to share its
    queue, pools and query-pattern history.
    """

    def __init__(self, server: TopKServer, owns_server: bool = False):
        self._server = server
        self._owns_server = owns_server
        self._closed = False

    @property
    def server(self) -> TopKServer:
        """The underlying scheduler (queue, pools, bookkeeping)."""
        return self._server

    @property
    def scheme(self) -> SecTopK:
        """The data owner's scheme (keys, token minting, reveal)."""
        return self._server.scheme

    @property
    def address(self) -> str:
        """The transport/backend this client's jobs run against."""
        return self._server.transport

    @property
    def stats(self) -> dict:
        """The server's operational snapshot: result-cache counters
        (``"cache"``), scheduler gauges, relation version, mutation and
        live-watch counts."""
        return self._server.stats

    # -- the job surface --------------------------------------------------

    def submit(
        self,
        token: Token,
        config: QueryConfig | None = None,
        *,
        timeout: float | None = None,
        expect_version: int | None = None,
    ) -> QueryJob:
        """Submit one query; returns its :class:`QueryJob` handle.

        ``timeout`` is the per-job deadline (seconds from submission),
        enforced cooperatively at round boundaries.  ``expect_version``
        pins the job to a relation version — it fails with
        :class:`~repro.exceptions.StaleRelationError` if a mutation
        lands first.  The job's transcript is bit-identical to the
        legacy ``execute`` path.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        return self._server.submit(
            token, config, timeout=timeout, expect_version=expect_version
        )

    def query(
        self,
        token: Token,
        config: QueryConfig | None = None,
        *,
        timeout: float | None = None,
    ) -> QueryResult:
        """Submit and block for the result (``submit(...).result()``)."""
        return self.submit(token, config, timeout=timeout).result()

    def submit_many(
        self,
        requests: list[tuple[Token, QueryConfig | None]],
        *,
        timeout: float | None = None,
    ) -> list[QueryJob]:
        """Submit a pipeline of jobs without waiting for any of them.

        The jobs overlap up to the server's scheduler capacity; collect
        them with ``[job.result() for job in jobs]`` (request order).
        """
        return [self.submit(token, config, timeout=timeout) for token, config in requests]

    # -- mutations and continuous top-k ------------------------------------

    @property
    def version(self) -> int:
        """Current relation version (bumped by every mutation)."""
        return self._server.version

    def mutate(self, op: str, *args) -> MutationResult:
        """Apply one encrypted mutation (``"insert"`` / ``"update"`` /
        ``"delete"``; requires a :class:`MutableRelation` deployment).

        Each mutation re-encrypts only the touched prefix of every
        sorted list, bumps :attr:`version`, and drops the result-cache
        entries keyed by the predecessor relation id.  The S2 daemon
        holds the key, not the relation: a mutation never contacts it.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        return self._server.mutate(op, *args)

    def insert(self, row) -> MutationResult:
        """Insert one row; returns its allocated object id in the result."""
        return self.mutate("insert", row)

    def update(self, object_id: int, row) -> MutationResult:
        """Replace one row's scores in place."""
        return self.mutate("update", object_id, row)

    def delete(self, object_id: int) -> MutationResult:
        """Remove one row."""
        return self.mutate("delete", object_id)

    def watch(
        self,
        token: Token,
        config: QueryConfig | None = None,
        *,
        window: int | None = None,
        timeout: float | None = None,
    ) -> WatchJob:
        """Start a continuous top-k watch.

        The returned :class:`~repro.server.jobs.WatchJob` evaluates
        immediately and re-evaluates after every mutation, streaming
        :class:`~repro.events.TopKChanged` events (``job.changes()``)
        whenever the revealed winning set actually changes.
        ``window=N`` watches the last ``N`` inserted rows (sliding
        window) instead of the whole relation.  Stop with ``job.stop()``
        (graceful, resolves to a ``WatchSummary``) or ``job.cancel()``.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        return self._server.watch(
            token, config, window=window, timeout=timeout
        )

    # -- data-owner conveniences ------------------------------------------

    def token(
        self, attributes: list[int], k: int, weights: list[int] | None = None
    ) -> Token:
        """Mint a query token (delegates to the scheme)."""
        return self.scheme.token(attributes, k, weights)

    def reveal(self, result: QueryResult) -> list[tuple[int, int]]:
        """Decrypt a result's winners into ``(object_id, score)`` pairs."""
        return self.scheme.reveal(result)

    @staticmethod
    def engines() -> tuple[str, ...]:
        """Engine names selectable through ``QueryConfig(engine=...)``."""
        from repro.core.engine import engine_names

        return engine_names()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the client (and its server, when owned).  Idempotent,
        and safe when the daemon connection already died."""
        if self._closed:
            return
        self._closed = True
        if self._owns_server:
            self._server.close()

    def __enter__(self) -> "TopKClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
