"""The differential harness's runner and its plaintext oracle.

The invariant: a query's transcript — the revealed winners, the halting
depth, rounds, bytes in each direction and the *ordered* leakage
sequence — is the same on every engine, transport, backend, cache,
execution mode, shard count and mutation history, and its winners are
what plaintext NRA (Fagin, Lotem and Naor) returns.

:func:`run_case` runs one case (relation, mutation history, queries, a
config and one value per serving axis) on its path, and runs the same
requests on the **reference path**: an identically seeded scheme, in
process, queried sequentially at the same request ids with
``cache=False`` and no shards, over a relation rebuilt from
``MutableRelation.snapshot()`` at the final version when a history was
given.  Fresh answers must match the reference's transcript exactly;
cache hits have their own shape (zero rounds and bytes, one
``query_pattern`` event, the source's depth — 0 for a ``k' < k`` prefix
slice); every answer must pass the plaintext oracle.

``tests/test_differential.py`` draws the cases; the suites of the paths
they cover pin their own cases through the same runner.
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto import backend
from repro.exceptions import QueryError
from repro.server import MutableRelation, TopKServer
from repro.server.jobs import JobStatus

SEED = 424242


def leakage_tuples(result) -> tuple:
    """A result's declared leakage, in event order, as comparable tuples."""
    return tuple(
        (e.observer, e.protocol, e.kind, repr(e.payload)) for e in result.leakage_events
    )


def transcript(scheme, result) -> tuple:
    """Everything S2 and the accountant see of one query, as one
    comparable value — the revealed winners, the halting depth, rounds,
    bytes in each direction and the ordered leakage tuples."""
    stats = result.channel_stats
    return (
        scheme.reveal(result),
        result.halting_depth,
        stats.rounds,
        stats.bytes_s1_to_s2,
        stats.bytes_s2_to_s1,
        leakage_tuples(result),
    )


def pattern(result) -> list:
    """The ``query_pattern`` bits a result's leakage records."""
    return [e.payload for e in result.leakage_events if e.kind == "query_pattern"]


# ---------------------------------------------------------------------------
# The plaintext oracle.
# ---------------------------------------------------------------------------


def _columns(mirror: dict, attrs, weights) -> dict:
    weights = weights or [1] * len(attrs)
    return {o: [w * row[a] for w, a in zip(weights, attrs)] for o, row in mirror.items()}


def _worst_at(columns: dict, depth: int) -> dict:
    """NRA's worst bound per seen object after ``depth`` sorted accesses
    (lists sorted best-first, ties by object id, as the relation is)."""
    worst: dict = {}
    for j in range(len(next(iter(columns.values())))):
        for o in sorted(columns, key=lambda o: (-columns[o][j], o))[:depth]:
            worst[o] = worst.get(o, 0) + columns[o][j]
    return worst


def _strict_depths(columns: dict, k: int) -> set:
    """Every depth at which strict NRA may halt under *some* order of
    candidates tied at the k-th worst score (a tie order that puts an
    open candidate outside the top-k blocks the halt)."""
    n, m = len(columns), len(next(iter(columns.values())))
    lists = [sorted(columns, key=lambda o: (-columns[o][j], o)) for j in range(m)]
    depths = set()
    for d in range(1, n + 1):
        worst = _worst_at(columns, d)
        if len(worst) < k:
            continue
        if d == n:
            return depths | {d}
        bottoms = [columns[lists[j][d - 1]][j] for j in range(m)]
        seen = {o: {j for j in range(m) if o in lists[j][:d]} for o in worst}
        kth = sorted(worst.values(), reverse=True)[k - 1]
        open_ = {
            o for o in worst
            if worst[o] + sum(bottoms[j] for j in range(m) if j not in seen[o]) > kth
        }
        if sum(bottoms) > kth or any(worst[o] < kth for o in open_):
            continue
        slots = k - sum(1 for w in worst.values() if w > kth)
        tied = sum(1 for w in worst.values() if w == kth)
        blockers = sum(1 for o in open_ if worst[o] == kth)
        if blockers <= slots:
            depths.add(d)
        if blockers == 0 or tied == slots:
            return depths
    return depths


def check_oracle(mirror, attrs, weights, k, revealed, depth, config, halted=True) -> None:
    """Tie-safe: winners are the top-k by NRA worst bound at ``depth``
    (score multiset; id set where the k-th score is not tied).  A run
    that ``halted`` at ``depth`` (not a prefix slice of a deeper run's
    winners) with no ``max_depth`` cap returns every row when
    ``k == n``, and with strict halting returns an exact top-k — the
    eager engine at a depth where NRA may halt, the batch variant and
    the literal engine (stale bounds) at or after one."""
    columns = _columns(mirror, attrs, weights)
    worst = _worst_at(columns, depth)
    ranked = sorted(worst.values(), reverse=True)
    ids = [o for o, _ in revealed]
    assert len(set(ids)) == len(ids) == min(k, len(worst)), revealed
    assert all(worst.get(o) == score for o, score in revealed), (revealed, worst)
    scores = [s for _, s in revealed]
    assert scores == sorted(scores, reverse=True) == ranked[: len(ids)]  # best first
    if len(ranked) > len(ids) and ranked[len(ids) - 1] > ranked[len(ids)]:
        assert set(ids) == {o for o, w in worst.items() if w >= ranked[len(ids) - 1]}
    if config.max_depth is not None:
        assert depth <= config.max_depth
    if config.max_depth is not None or not halted:
        return
    if k == len(mirror):
        assert set(ids) == set(mirror)
    if config.halting == "strict":
        exact = {o: sum(c) for o, c in columns.items()}
        losers = [exact[o] for o in exact if o not in ids]
        assert min(exact[o] for o in ids) >= max(losers, default=0)
        allowed = _strict_depths(columns, k)
        if config.engine == "eager" and config.check_every() == 1:
            assert depth in allowed
        else:
            assert depth >= min(allowed)


# ---------------------------------------------------------------------------
# Cases and the runner.
# ---------------------------------------------------------------------------


def make_case(rows, queries, config=QueryConfig(), **axes) -> dict:
    """One case.  ``queries`` holds ``(attrs, k, weights)`` triples, where
    ``k`` may be ``"n"`` (every row) or ``"over"`` (``n + 1``, which must
    raise).  ``transport`` is ``"inprocess"``, a daemon address, or a
    name :func:`run_case` maps to one; ``cache`` is ``off``, ``fresh``,
    ``exact`` or ``prefix``; ``execution`` is ``query``, ``submit``,
    ``thread`` or ``process``."""
    defaults = dict(history=[], shards=0, transport="inprocess",
                    backend=backend.get_backend(), cache="off", execution="query")
    return dict(defaults, rows=rows, queries=queries, config=config, **axes)


def _apply(server, mutable, history) -> None:
    """Replay a history through the server's mutation API."""
    for op, payload in history:
        rows, oids = mutable.snapshot()
        live = sorted(oids)
        if op == "insert":
            server.insert(payload)
        elif op == "update":
            server.update(
                live[payload % len(live)],
                [(7 * payload + 3 * j) % 21 for j in range(len(rows[0]))],
            )
        elif len(live) > 1:
            server.delete(live[payload % len(live)])


def _phases(case, n):
    """The case's requests, phase by phase, as ``(query index, k, cache)``.

    Phase 1 runs every query.  ``exact`` / ``prefix`` repeat them with
    the cache on (``prefix`` at ``k - 1`` where ``k >= 2``); every mode
    but ``fresh`` ends with the last phase's tokens re-run with
    ``cache=False``, whose ``query_pattern`` bits must count the hits.
    A token never repeats within a phase (a thread batch that repeats
    one races on which duplicate reads as the repeat).
    """
    ks = [
        {"n": n, "over": n + 1}[k] if isinstance(k, str) else min(k, n)
        for _, k, _ in case["queries"]
    ]
    mode = case["cache"]
    phases = [[(i, k, mode != "off") for i, k in enumerate(ks)]]
    if max(ks) > n:
        return phases
    if mode in ("exact", "prefix"):
        shrink = 1 if mode == "prefix" else 0
        phases.append([(i, k - shrink if k >= 2 else k, True) for i, k in enumerate(ks)])
    if mode != "fresh":
        phases.append([(i, k, False) for i, k, _ in phases[-1]])
    return phases


def _issue(server, execution, requests):
    if execution == "query":
        return [server.query(token, config) for token, config in requests]
    if execution == "submit":
        jobs = [server.submit(token, config) for token, config in requests]
        results = [job.result(timeout=120) for job in jobs]
        assert all(job.done() and job.status == JobStatus.DONE for job in jobs)
        return results
    return server.execute_many(requests, concurrency=2, mode=execution)


def _run_phases(server, case, phases, config, execution):
    """Mint every token up front (same order on both paths), then issue
    each phase; returns the per-phase results, or the ``QueryError``."""
    queries = case["queries"]
    tokens = {
        (i, k): server.token(queries[i][0], k, queries[i][2])
        for phase in phases for i, k, _ in phase
    }
    out = []
    for phase in phases:
        requests = [(tokens[i, k], replace(config, cache=cache)) for i, k, cache in phase]
        try:
            out.append(_issue(server, execution, requests))
        except QueryError as exc:
            return exc
    return out


def run_case(case, daemons=None):
    """Run ``case`` on its path and on the reference path, check every
    answer, and return the path's per-phase results (or the
    ``QueryError`` that ``k > n`` raised on both).  ``daemons`` maps a
    transport name (``tcp``, ``unix``) to a daemon address."""
    daemons = dict(daemons or {}, remote=os.environ.get("REPRO_REMOTE_S2"))
    transport = daemons.get(case["transport"], case["transport"])
    scheme = SecTopK(SystemParams.tiny(), seed=SEED)
    rows, history = case["rows"], case["history"]
    relation = MutableRelation(scheme, rows) if history else scheme.encrypt(rows)
    previous = backend.set_backend(case["backend"])
    try:
        with TopKServer(scheme, relation, transport=transport) as server:
            _apply(server, relation, history)
            rows, oids = relation.snapshot() if history else (rows, range(len(rows)))
            phases = _phases(case, len(rows))
            config = replace(case["config"], shards=case["shards"])
            got = _run_phases(server, case, phases, config, case["execution"])
            cache = server.stats["cache"]
    finally:
        backend.set_backend(previous)

    reference = SecTopK(SystemParams.tiny(), seed=SEED)
    rebuilt = (
        reference.encrypt(rows, object_ids=list(oids), version=relation.version)
        if history else reference.encrypt(rows)
    )
    unshared = [[(i, k, False) for i, k, _ in phase] for phase in phases]
    with TopKServer(reference, rebuilt) as server:
        want = _run_phases(server, case, unshared, case["config"], "query")

    if isinstance(want, QueryError):
        assert isinstance(got, QueryError), "k > n must raise on every path"
        return got
    mirror = dict(zip(oids, rows))
    sources = {}
    hits = prefix_hits = misses = 0
    for phase, results, expected in zip(phases, got, want):
        for (i, k, cached), result, ref in zip(phase, results, expected):
            attrs, _, weights = case["queries"][i]
            if cached and i in sources:
                source_k, source = sources[i]
                sliced = k < source_k
                hits += 1
                prefix_hits += sliced
                assert result.cache_hit and result.stats.rounds == 0
                assert result.stats.bytes_s1_to_s2 == result.stats.bytes_s2_to_s1 == 0
                assert leakage_tuples(result) == leakage_tuples(ref)[:1]
                assert result.halting_depth == (0 if sliced else source.halting_depth)
                assert scheme.reveal(result) == scheme.reveal(source)[:k]
                assert [item.worst.value for item in result.items] == [
                    item.worst.value for item in source.items[:k]
                ]
                depth = source.halting_depth
            else:
                sliced = False
                assert not result.cache_hit
                assert transcript(scheme, result) == transcript(reference, ref)
                assert replace(result.stats, elapsed_seconds=0.0, shards=()) == replace(
                    ref.stats, elapsed_seconds=0.0
                )
                sources.setdefault(i, (k, result))
                misses += cached
                depth = result.halting_depth
            check_oracle(
                mirror, attrs, weights, k, scheme.reveal(result), depth, case["config"],
                halted=not sliced,
            )
    # Every miss stored one entry; cache=False neither served nor stored.
    assert (cache.hits, cache.prefix_hits, cache.misses, cache.size) == (
        hits, prefix_hits, misses, misses
    )
    return got
