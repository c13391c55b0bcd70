"""Cross-query scan reuse: result cache, warm starts.

Locks down the PR-7 reuse layer:

* **Result cache** — a repeat query (same relation, token fingerprint
  and transcript-relevant config) is served from the server's
  leakage-aware LRU with **zero** S2 round-trips, bit-identical
  winners, ``cache_hit=True`` and exactly the ``query_pattern`` repeat
  event the paper's L1 profile already grants S1; misses, evictions
  and the ``cache=False`` opt-outs all behave (invalidation on
  mutation is pinned in ``test_mutations.py``).
* **Warm starts** — history-driven first-check placement never changes
  the returned top-k (tie-tolerant exact-score oracle; same contract
  as the batch variant) and only ever reduces pre-halt rounds.

The property tests require Hypothesis (the ``test`` extra) and skip
cleanly where only the dependency-free core is installed.
"""

from __future__ import annotations

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.exceptions import QueryError
from repro.server import QueryCache, TopKServer

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)

SEED = 771177


def _deployment(seed: int = SEED, n: int = 10, m: int = 3, spread: int = 40):
    rng = SecureRandom(seed + 1)
    rows = [[rng.randint_below(spread) for _ in range(m)] for _ in range(n)]
    scheme = SecTopK(SystemParams.tiny(), seed=seed)
    return scheme, scheme.encrypt(rows), rows


def _transcript(scheme, result) -> tuple:
    """Everything S2 (and the accountant) can see, as one comparable value."""
    return (
        scheme.reveal(result),
        result.halting_depth,
        result.channel_stats.rounds,
        result.channel_stats.bytes_s1_to_s2,
        result.channel_stats.bytes_s2_to_s1,
        tuple(
            (e.observer, e.protocol, e.kind, repr(e.payload))
            for e in result.leakage_events
        ),
    )


def _exact_scores(rows, attrs, weights=None):
    weights = weights or [1] * len(attrs)
    return {
        i: sum(w * row[a] for w, a in zip(weights, attrs))
        for i, row in enumerate(rows)
    }


def _assert_valid_topk(reveal, rows, attrs, k, weights=None):
    """Tie-tolerant oracle: the returned ids' *exact* aggregate scores
    must be the k largest exact scores (any tie-break is a valid
    top-k; worst-at-halt reported scores may drift with the halting
    depth, per Section 3.4)."""
    exact = _exact_scores(rows, attrs, weights)
    ids = [o for o, _ in reveal]
    assert len(ids) == len(set(ids)) == k
    got = sorted((exact[i] for i in ids), reverse=True)
    want = sorted(exact.values(), reverse=True)[:k]
    assert got == want, (reveal, exact)


# ---------------------------------------------------------------------------
# The leakage-aware result cache.
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_repeat_hit_is_bit_identical_with_zero_rounds(self):
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            fresh = server.execute(token)
            hit = server.execute(token)
        assert not fresh.cache_hit and fresh.stats.rounds > 0
        assert hit.cache_hit
        # Winners are bit-identical; the transport cost is zero.
        assert scheme.reveal(hit) == scheme.reveal(fresh)
        assert len(hit.items) == len(fresh.items)
        assert [repr(i.worst) for i in hit.items] == [
            repr(i.worst) for i in fresh.items
        ]
        assert hit.halting_depth == fresh.halting_depth
        assert hit.stats.rounds == 0
        assert hit.channel_stats.bytes_s1_to_s2 == 0
        assert hit.channel_stats.bytes_s2_to_s1 == 0
        # The hit leaks exactly what L1 already grants S1: the repeat.
        assert [(e.observer, e.protocol, e.kind, e.payload) for e in hit.leakage_events] == [
            ("S1", "SecQuery", "query_pattern", True)
        ]
        stats = server.stats["cache"]
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1

    def test_hit_recorded_in_scheme_pattern_history(self):
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            server.execute(token)
            server.execute(token)
            # A fresh run of the same fingerprint on a cache-off config
            # must still see the repeat: the hit re-recorded the pattern.
            third = server.execute(token, QueryConfig(cache=False))
        repeats = [
            e.payload for e in third.leakage_events if e.kind == "query_pattern"
        ]
        assert repeats == [True]

    def test_distinct_tokens_and_configs_miss(self):
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation) as server:
            a = server.execute(scheme.token([0, 1], k=2))
            b = server.execute(scheme.token([1, 2], k=2))
            # Same token, transcript-relevant config change: a miss.
            c = server.execute(
                scheme.token([0, 1], k=2), QueryConfig(engine="literal")
            )
        assert not a.cache_hit and not b.cache_hit and not c.cache_hit

    def test_shards_do_not_split_the_cache(self):
        """``shards`` is transcript-invisible, so it is not part of the
        key: a stored result serves every sharding of the same query."""
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            fresh = server.execute(token, QueryConfig())
            hits = [
                server.execute(token, QueryConfig(shards=shards))
                for shards in (0, 1, 2)
            ]
        assert not fresh.cache_hit
        for hit in hits:
            assert hit.cache_hit and hit.stats.rounds == 0
            assert hit.stats.shards == ()

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(TopKServer, "CACHE_CAPACITY", 1)
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation) as server:
            t1, t2 = scheme.token([0, 1], k=2), scheme.token([1, 2], k=2)
            server.execute(t1)
            server.execute(t2)  # evicts t1
            again = server.execute(t1)  # miss: was evicted
            assert not again.cache_hit
            stats = server.stats["cache"]
            assert stats.evictions >= 1 and stats.size == 1

    def test_cache_false_opt_outs(self):
        scheme, relation, _ = _deployment()
        # Per-query opt-out: neither serves from nor stores to the cache.
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            server.execute(token, QueryConfig(cache=False))
            second = server.execute(token, QueryConfig(cache=False))
            assert not second.cache_hit and second.stats.rounds > 0
            assert server.stats["cache"].size == 0
        # Server-wide opt-out.
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation, cache=False) as server:
            token = scheme.token([0, 1], k=2)
            server.execute(token)
            second = server.execute(token)
            assert not second.cache_hit and second.stats.rounds > 0
            assert server.stats["cache"] is None

    def test_hit_copies_are_isolated(self):
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            fresh = server.execute(token)
            first_hit = server.execute(token)
            first_hit.items.clear()  # caller mutates their copy
            second_hit = server.execute(token)
        assert len(second_hit.items) == len(fresh.items) > 0
        assert scheme.reveal(second_hit) == scheme.reveal(fresh)

    def test_execute_many_repeats_hit_sequentially(self):
        scheme, relation, _ = _deployment()
        token = scheme.token([0, 1], k=2)
        with TopKServer(scheme, relation) as server:
            results = server.execute_many([(token, None), (token, None)])
        assert [r.cache_hit for r in results] == [False, True]
        assert scheme.reveal(results[0]) == scheme.reveal(results[1])

    def test_cache_unit_key_and_capacity(self):
        cache = QueryCache(capacity=2)
        cfg = QueryConfig()
        k1 = QueryCache.key("rel", "fp1", cfg)
        assert k1 == QueryCache.key("rel", "fp1", QueryConfig())
        assert k1 != QueryCache.key("rel", "fp2", cfg)
        assert k1 != QueryCache.key("other", "fp1", cfg)
        assert k1 != QueryCache.key("rel", "fp1", QueryConfig(engine="literal"))
        with pytest.raises(ValueError):
            QueryCache(capacity=0)

    def test_min_check_depth_validation(self):
        with pytest.raises(QueryError):
            QueryConfig(min_check_depth=0)


class TestReuseBehindDaemon:
    """The reuse layer composes with the socket transport: cache hits
    skip the daemon entirely."""

    @pytest.fixture()
    def daemon(self):
        from repro.net.socket_transport import disconnect_all
        from repro.server.s2_service import S2Service

        service = S2Service("tcp://127.0.0.1:0")
        address = service.start()
        yield service, address
        disconnect_all()
        service.close()

    def test_cache_hit_over_tcp(self, daemon):
        service, address = daemon
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation, transport=address) as server:
            tokens = [scheme.token([0, 1], k=2), scheme.token([1, 2], k=2)]
            jobs = [server.submit(t) for t in tokens]
            fresh = [j.result(timeout=120.0) for j in jobs]
            served_before = service.stats()["requests_served"]
            hit = server.execute(tokens[0])
        assert hit.cache_hit and hit.stats.rounds == 0
        assert scheme.reveal(hit) == scheme.reveal(fresh[0])
        # The hit never reached the daemon.
        assert service.stats()["requests_served"] == served_before
        assert service.stats()["requests_in_flight_peak"] >= 1


# ---------------------------------------------------------------------------
# History-driven warm starts.
# ---------------------------------------------------------------------------


class TestWarmStart:
    def test_same_token_repeat_cuts_rounds(self):
        scheme, relation, rows = _deployment()
        with TopKServer(scheme, relation, cache=False, warm_start=True) as server:
            token = scheme.token([0, 1], k=2)
            cold = server.execute(token)
            warm = server.execute(token)
        # Sorted: the top two rows tie at 52, and EncSort's order among
        # equal keys is S1's random permutation.
        assert sorted(scheme.reveal(warm)) == sorted(scheme.reveal(cold))
        assert warm.halting_depth == cold.halting_depth
        assert warm.stats.rounds < cold.stats.rounds
        assert server.stats["halting_depth_hint"] == cold.halting_depth

    def test_cross_token_results_stay_correct(self):
        """A hint learned from one query applied to another never breaks
        top-k correctness (exact-score oracle, tie-tolerant)."""
        scheme, relation, rows = _deployment(n=12)
        cases = [([0, 1], 2, None), ([1, 2], 1, None), ([0, 1, 2], 3, [1, 2, 1])]
        with TopKServer(scheme, relation, cache=False, warm_start=True) as server:
            for attrs, k, weights in cases:
                result = server.execute(scheme.token(attrs, k=k, weights=weights))
                _assert_valid_topk(
                    scheme.reveal(result), rows, attrs, k, weights
                )

    def test_reuse_defaults_do_not_move_fresh_transcripts(self):
        """A default server (cache on) produces the exact transcript of
        one with the whole reuse layer disabled — the layer is inert
        until a repeat or a warm-start opt-in."""
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation, cache=False, warm_start=False) as server:
            off = _transcript(scheme, server.execute(scheme.token([0, 1, 2], k=3)))
        scheme2, relation2, _ = _deployment()
        with TopKServer(scheme2, relation2) as server:
            on = _transcript(scheme2, server.execute(scheme2.token([0, 1, 2], k=3)))
        assert on == off

    def test_explicit_min_check_depth_wins_over_hint(self):
        scheme, relation, _ = _deployment()
        with TopKServer(scheme, relation, cache=False, warm_start=True) as server:
            token = scheme.token([0, 1], k=2)
            cold = server.execute(token)
            pinned = server.execute(
                token, QueryConfig(warm_start=True, min_check_depth=1)
            )
        # min_check_depth=1 anchors the grid at the first depth — the
        # default cadence — so the hint must not have rewritten it.
        assert pinned.stats.rounds == cold.stats.rounds

    def test_hint_tracks_minimum_observed(self):
        scheme, relation, _ = _deployment()
        scheme.record_halting_depth("rel", 7)
        scheme.record_halting_depth("rel", 4)
        scheme.record_halting_depth("rel", 9)
        assert scheme.halting_depth_hint("rel") == 4
        assert scheme.halting_depth_hint("other") is None

    def test_history_keeps_a_bounded_number_of_relation_ids(self):
        """Mutations and window evaluations mint relation ids forever;
        nothing retires one by hand, so the history evicts the id
        observed longest ago — never one still being observed."""
        scheme, relation, _ = _deployment()
        size = scheme.DEPTH_HISTORY_SIZE
        scheme.record_halting_depth("live", 5)
        for i in range(size - 1):
            scheme.record_halting_depth(f"minted-{i}", 3)
            scheme.record_halting_depth("live", 6)  # the served relation
        assert len(scheme._depth_history) == size
        scheme.record_halting_depth("one-more", 2)  # the 65th id
        assert len(scheme._depth_history) == size
        assert scheme.halting_depth_hint("minted-0") is None
        assert scheme.halting_depth_hint("minted-1") == 3
        assert scheme.halting_depth_hint("live") == 5
        assert scheme.halting_depth_hint("one-more") == 2


# ---------------------------------------------------------------------------
# Property harness: warm starts never change the top-k (Hypothesis).
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip(
    "hypothesis", reason="property harness needs the 'test' extra (hypothesis)"
)

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

PROPERTY_SETTINGS = dict(
    max_examples=6,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def reuse_cases(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    m = draw(st.integers(min_value=2, max_value=3))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=30), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    # Distinct (attrs, k) shapes only — repeats are the result cache's
    # job, covered by TestResultCache.
    queries = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        attrs = sorted(
            draw(st.sets(st.integers(0, m - 1), min_size=min(2, m), max_size=m))
        )
        k = draw(st.integers(min_value=1, max_value=min(2, n)))
        if (attrs, k) not in queries:
            queries.append((attrs, k))
    engine = draw(st.sampled_from(["eager", "literal"]))
    return rows, queries, engine


class TestWarmStartProperty:
    @settings(**PROPERTY_SETTINGS)
    @given(case=reuse_cases())
    def test_warm_start_preserves_topk(self, case):
        rows, queries, engine = case
        scheme = SecTopK(SystemParams.tiny(), seed=SEED)
        relation = scheme.encrypt(rows)
        config = QueryConfig(engine=engine, cache=False, warm_start=True)
        with TopKServer(scheme, relation, cache=False) as server:
            for attrs, k in queries:
                result = server.execute(scheme.token(attrs, k=k), config)
                _assert_valid_topk(scheme.reveal(result), rows, attrs, k)
