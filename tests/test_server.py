"""Tests for the multi-query server front-end."""

from __future__ import annotations

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.server import TopKServer


@pytest.fixture(scope="module")
def deployment():
    rng = SecureRandom(123)
    rows = [[rng.randint_below(40) for _ in range(3)] for _ in range(10)]
    scheme = SecTopK(SystemParams.tiny(), seed=55)
    relation = scheme.encrypt(rows)
    return scheme, relation, rows


def _oracle_topk(rows, attrs, k):
    from repro.nra import SortedLists, nra_topk

    return {o for o, _ in nra_topk(SortedLists(rows, attrs), k).topk}


class TestSessions:
    def test_sequential_sessions_are_isolated(self):
        # A session is one S1 context (own transport, leakage log and
        # channel accounting) — what every server job runs on.
        scheme, relation, _ = _fresh_deployment()
        token = scheme.token([0, 1], k=2)
        first = scheme._make_context()
        second = scheme._make_context()
        try:
            result_a = scheme.query(
                relation, token, QueryConfig(variant="elim"), ctx=first
            )
            result_b = scheme.query(
                relation, token, QueryConfig(variant="elim"), ctx=second
            )
        finally:
            first.close()
            second.close()

        # Per-session observability: each log/channel covers exactly
        # its own query — no cross-query state bleed.
        assert first.channel.snapshot().rounds == result_a.channel_stats.rounds
        assert second.channel.snapshot().rounds == result_b.channel_stats.rounds
        assert first.leakage.events is not second.leakage.events
        a_pattern = [e for e in first.leakage.events if e.kind == "query_pattern"]
        b_pattern = [e for e in second.leakage.events if e.kind == "query_pattern"]
        assert len(a_pattern) == len(b_pattern) == 1
        # The query-pattern history itself is shared (it IS the L1
        # leakage): the second run of the same token is a repeat.
        assert a_pattern[0].payload is False
        assert b_pattern[0].payload is True

    def test_results_match_oracle(self, deployment):
        scheme, relation, rows = deployment
        with TopKServer(scheme, relation) as server:
            result = server.execute(scheme.token([0, 2], k=2))
            winners = {o for o, _ in scheme.reveal(result)}
            assert winners == _oracle_topk(rows, [0, 2], 2)

    def test_threaded_transport_sessions(self, deployment):
        scheme, relation, rows = deployment
        with TopKServer(scheme, relation, transport="threaded") as server:
            result = server.execute(scheme.token([1, 2], k=2))
            winners = {o for o, _ in scheme.reveal(result)}
            assert winners == _oracle_topk(rows, [1, 2], 2)


def _fresh_deployment():
    """An identically-seeded deployment per call (parity comparisons need
    two independent servers whose request ids start from zero)."""
    rng = SecureRandom(123)
    rows = [[rng.randint_below(40) for _ in range(3)] for _ in range(10)]
    scheme = SecTopK(SystemParams.tiny(), seed=55)
    return scheme, scheme.encrypt(rows), rows


def _requests(scheme):
    return [
        (scheme.token([0, 1], k=2), QueryConfig(variant="elim")),
        (scheme.token([1, 2], k=2), QueryConfig(variant="elim")),
        (scheme.token([0, 1, 2], k=3), QueryConfig(variant="elim")),
    ]


def _leakage_tuples(result):
    return [
        (e.observer, e.protocol, e.kind, repr(e.payload))
        for e in result.leakage_events
    ]


class TestProcessMode:
    """Process-pool execution must be replay-identical to sequential."""

    def test_process_matches_sequential(self):
        scheme_a, relation_a, rows = _fresh_deployment()
        with TopKServer(scheme_a, relation_a) as server:
            sequential = server.execute_many(_requests(scheme_a), concurrency=1)

        scheme_b, relation_b, _ = _fresh_deployment()
        with TopKServer(scheme_b, relation_b) as server:
            process = server.execute_many(
                _requests(scheme_b), concurrency=2, mode="process"
            )
            # The pool is persistent: a second batch reuses the workers.
            again = server.execute_many(
                [(scheme_b.token([0, 2], k=1), None)], concurrency=2, mode="process"
            )
        assert len(again) == 1 and len(again[0].items) == 1

        for a, b in zip(sequential, process):
            assert scheme_a.reveal(a) == scheme_b.reveal(b)
            assert a.halting_depth == b.halting_depth
            assert a.channel_stats.rounds == b.channel_stats.rounds
            assert a.channel_stats.total_bytes == b.channel_stats.total_bytes
            # Identical leakage event sequences per request — which makes
            # the batch multisets identical too.
            assert _leakage_tuples(a) == _leakage_tuples(b)

    def test_cross_batch_repeat_detected_in_workers(self):
        """A token repeated across process batches must read as a repeat
        regardless of which worker serves it (the parent ships each
        request its sequential-equivalent history)."""
        scheme, relation, _ = _fresh_deployment()
        token = scheme.token([0, 1], k=2)
        with TopKServer(scheme, relation) as server:
            first = server.execute_many([(token, None)], concurrency=2, mode="process")
            second = server.execute_many([(token, None)], concurrency=2, mode="process")

        def pattern(result):
            return [
                e.payload for e in result.leakage_events if e.kind == "query_pattern"
            ]

        assert pattern(first[0]) == [False]
        assert pattern(second[0]) == [True]

    def test_servers_sharing_a_scheme_draw_disjoint_streams(self):
        """Two servers on one scheme must not reuse request salts."""
        scheme, relation, _ = _fresh_deployment()
        server_a = TopKServer(scheme, relation)
        server_b = TopKServer(scheme, relation)
        assert server_a._salt_namespace != server_b._salt_namespace
        assert server_a._request_salt(0) != server_b._request_salt(0)
        server_a.close()
        server_b.close()

    def test_process_history_syncs_to_parent(self):
        scheme, relation, _ = _fresh_deployment()
        tokens = [scheme.token([0, 1], k=2), scheme.token([1, 2], k=2)]
        with TopKServer(scheme, relation) as server:
            # Two requests, so both bodies really run in worker processes
            # (whose scheme copies are per-task scratch).
            server.execute_many(
                [(t, None) for t in tokens], concurrency=2, mode="process"
            )
            # The parent kept the authoritative history: a fresh run of
            # either token now reads as a repeat (L1 query-pattern leakage).
            for token in tokens:
                again = server.execute(token, QueryConfig(cache=False))
                pattern = [
                    e.payload
                    for e in again.leakage_events
                    if e.kind == "query_pattern"
                ]
                assert pattern == [True]

    def test_unknown_mode_rejected(self, deployment):
        scheme, relation, _ = deployment
        with TopKServer(scheme, relation) as server:
            with pytest.raises(ValueError):
                server.execute_many([(scheme.token([0], k=1), None)], mode="fiber")


class TestRelationStore:
    """The process-wide relation store behind process-mode worker pools:
    exports are keyed by relation id, shared across servers over the
    same relation, pickled at most once, and released with the last
    server."""

    def test_exported_for_server_lifetime(self):
        from repro.server import query_workers as ts

        scheme, relation, _ = _fresh_deployment()
        key = relation.relation_id()
        assert key not in ts._RELATION_STORE
        with TopKServer(scheme, relation):
            stored_scheme, stored_relation = ts._RELATION_STORE[key]
            assert stored_scheme is scheme and stored_relation is relation
            assert ts._RELATION_REFS[key] == 1
        assert key not in ts._RELATION_STORE
        assert key not in ts._RELATION_REFS

    def test_sibling_servers_share_one_export(self):
        from repro.server import query_workers as ts

        scheme, relation, _ = _fresh_deployment()
        key = relation.relation_id()
        server_a = TopKServer(scheme, relation)
        server_b = TopKServer(scheme, relation)
        assert ts._RELATION_REFS[key] == 2
        server_a.close()
        assert ts._RELATION_REFS[key] == 1  # close is idempotent too
        server_a.close()
        assert ts._RELATION_REFS[key] == 1
        server_b.close()
        assert key not in ts._RELATION_STORE

    def test_blob_pickled_at_most_once(self):
        from repro.server import query_workers as ts

        scheme, relation, _ = _fresh_deployment()
        with TopKServer(scheme, relation):
            key = relation.relation_id()
            first = ts._relation_blob(key)
            assert ts._relation_blob(key) is first

    def test_workers_resolve_relation_from_store(self):
        """The initializer path spawn platforms use: a worker that
        receives the blob installs it under the relation id, and a
        worker whose store already holds the id (fork inheritance, or a
        rebuilt pool on spawn) skips the payload entirely."""
        import pickle

        from repro.crypto import backend
        from repro.server import query_workers as ts

        active = backend.get_backend().name
        scheme, relation, _ = _fresh_deployment()
        key = relation.relation_id()
        blob = pickle.dumps((scheme, relation))
        try:
            ts._init_query_worker(key, blob, "inprocess", 0.0, active)
            assert ts._QUERY_WORKER["relation"].relation_id() == key
            # Second pool build over the same relation: no payload needed.
            ts._QUERY_WORKER.clear()
            ts._init_query_worker(key, None, "inprocess", 0.0, active)
            assert ts._QUERY_WORKER["relation"].relation_id() == key
        finally:
            ts._QUERY_WORKER.clear()
            ts._RELATION_STORE.pop(key, None)

    def test_relation_id_stable_across_pickling(self):
        import pickle

        _, relation, _ = _fresh_deployment()
        copied = pickle.loads(pickle.dumps(relation))
        assert copied.relation_id() == relation.relation_id()


class TestExecuteMany:
    def test_concurrent_matches_sequential(self, deployment):
        scheme, relation, rows = deployment
        requests = [
            (scheme.token([0, 1], k=2), QueryConfig(variant="elim")),
            (scheme.token([1, 2], k=2), QueryConfig(variant="elim")),
            (scheme.token([0, 2], k=3), QueryConfig(variant="elim")),
            (scheme.token([0, 1, 2], k=2), QueryConfig(variant="elim")),
        ]
        attrs_and_k = [([0, 1], 2), ([1, 2], 2), ([0, 2], 3), ([0, 1, 2], 2)]
        with TopKServer(scheme, relation) as server:
            concurrent = server.execute_many(requests, concurrency=3)
        for result, (attrs, k) in zip(concurrent, attrs_and_k):
            winners = {o for o, _ in scheme.reveal(result)}
            assert winners == _oracle_topk(rows, attrs, k)

    def test_results_keep_request_order(self, deployment):
        scheme, relation, _ = deployment
        requests = [
            (scheme.token([0], k=1), None),
            (scheme.token([0, 1, 2], k=4), None),
        ]
        with TopKServer(scheme, relation) as server:
            results = server.execute_many(requests, concurrency=2)
        assert len(results[0].items) == 1
        assert len(results[1].items) == 4
