"""Cross-query reuse: the leakage-aware result cache.

A repeat query (same relation, token fingerprint and
transcript-relevant config) is served from the server's LRU with
**zero** S2 round-trips, bit-identical winners, ``cache_hit=True`` and
exactly the ``query_pattern`` repeat event the paper's L1 profile
already grants S1; misses, evictions and the ``cache=False`` opt-outs
all behave, and a cache-on server leaves fresh transcripts untouched
(invalidation on mutation is pinned in ``test_mutations.py``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.server import QueryCache, TopKServer

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)

SEED = 771177


def _deployment():
    rng = SecureRandom(SEED + 1)
    rows = [[rng.randint_below(40) for _ in range(3)] for _ in range(10)]
    scheme = SecTopK(SystemParams.tiny(), seed=SEED)
    return scheme, scheme.encrypt(rows)


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


# ---------------------------------------------------------------------------
# The leakage-aware result cache.
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_repeat_hit_is_bit_identical_with_zero_rounds(self):
        scheme, relation = _deployment()
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            fresh = server.query(token)
            hit = server.query(token)
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
        scheme, relation = _deployment()
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            server.query(token)
            server.query(token)
            # A fresh run of the same fingerprint on a cache-off config
            # must still see the repeat: the hit re-recorded the pattern.
            third = server.query(token, QueryConfig(cache=False))
        repeats = [
            e.payload for e in third.leakage_events if e.kind == "query_pattern"
        ]
        assert repeats == [True]

    def test_distinct_tokens_and_configs_miss(self):
        scheme, relation = _deployment()
        with TopKServer(scheme, relation) as server:
            a = server.query(scheme.token([0, 1], k=2))
            b = server.query(scheme.token([1, 2], k=2))
            # Same token, transcript-relevant config change: a miss.
            c = server.query(
                scheme.token([0, 1], k=2), QueryConfig(engine="literal")
            )
        assert not a.cache_hit and not b.cache_hit and not c.cache_hit

    def test_shards_do_not_split_the_cache(self):
        """``shards`` is transcript-invisible, so it is not part of the
        key: a stored result serves every sharding of the same query."""
        scheme, relation = _deployment()
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            fresh = server.query(token, QueryConfig())
            hits = [
                server.query(token, QueryConfig(shards=shards))
                for shards in (0, 1, 2)
            ]
        assert not fresh.cache_hit
        for hit in hits:
            assert hit.cache_hit and hit.stats.rounds == 0
            assert hit.stats.shards == ()

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(TopKServer, "CACHE_CAPACITY", 1)
        scheme, relation = _deployment()
        with TopKServer(scheme, relation) as server:
            t1, t2 = scheme.token([0, 1], k=2), scheme.token([1, 2], k=2)
            server.query(t1)
            server.query(t2)  # evicts t1
            again = server.query(t1)  # miss: was evicted
            assert not again.cache_hit
            stats = server.stats["cache"]
            assert stats.evictions >= 1 and stats.size == 1

    def test_cache_false_opt_outs(self):
        scheme, relation = _deployment()
        # Per-query opt-out: neither serves from nor stores to the cache.
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            server.query(token, QueryConfig(cache=False))
            second = server.query(token, QueryConfig(cache=False))
            assert not second.cache_hit and second.stats.rounds > 0
            assert server.stats["cache"].size == 0
        # Server-wide opt-out.
        scheme, relation = _deployment()
        with TopKServer(scheme, relation, cache=False) as server:
            token = scheme.token([0, 1], k=2)
            server.query(token)
            second = server.query(token)
            assert not second.cache_hit and second.stats.rounds > 0
            assert server.stats["cache"] is None

    def test_hit_copies_are_isolated(self):
        scheme, relation = _deployment()
        with TopKServer(scheme, relation) as server:
            token = scheme.token([0, 1], k=2)
            fresh = server.query(token)
            first_hit = server.query(token)
            first_hit.items.clear()  # caller mutates their copy
            second_hit = server.query(token)
        assert len(second_hit.items) == len(fresh.items) > 0
        assert scheme.reveal(second_hit) == scheme.reveal(fresh)

    def test_execute_many_repeats_hit_sequentially(self):
        scheme, relation = _deployment()
        token = scheme.token([0, 1], k=2)
        with TopKServer(scheme, relation) as server:
            results = server.execute_many([(token, None), (token, None)])
        assert [r.cache_hit for r in results] == [False, True]
        assert scheme.reveal(results[0]) == scheme.reveal(results[1])

    def test_cache_unit_key_and_capacity(self):
        QueryCache(capacity=2)
        cfg = QueryConfig()
        k1 = QueryCache.key("rel", "fp1", cfg)
        assert k1 == QueryCache.key("rel", "fp1", QueryConfig())
        assert k1 != QueryCache.key("rel", "fp2", cfg)
        assert k1 != QueryCache.key("other", "fp1", cfg)
        # One valid non-default value per transcript-relevant field; with
        # the operational pair it must name every QueryConfig field, so
        # adding or removing a field forces the key to be revisited.
        relevant = {
            "variant": "full",
            "batch_p": 4,
            "engine": "literal",
            "halting": "paper",
            "compare_method": "dgk",
            "sort_method": "network",
            "max_depth": 3,
        }
        operational = {"cache": False, "shards": 2}
        assert set(relevant) | set(operational) == {
            f.name for f in dataclasses.fields(QueryConfig)
        }
        for name, value in relevant.items():
            changed = QueryConfig(**{name: value})
            assert QueryCache.key("rel", "fp1", changed) != k1, name
        for name, value in operational.items():
            changed = QueryConfig(**{name: value})
            assert QueryCache.key("rel", "fp1", changed) == k1, name
        with pytest.raises(ValueError):
            QueryCache(capacity=0)

    def test_cache_on_does_not_move_fresh_transcripts(self):
        """A default server (cache on) produces the exact transcript of
        one with the cache disabled — the cache is inert until a repeat."""
        scheme, relation = _deployment()
        with TopKServer(scheme, relation, cache=False) as server:
            off = _transcript(scheme, server.query(scheme.token([0, 1, 2], k=3)))
        scheme2, relation2 = _deployment()
        with TopKServer(scheme2, relation2) as server:
            on = _transcript(scheme2, server.query(scheme2.token([0, 1, 2], k=3)))
        assert on == off


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
        scheme, relation = _deployment()
        with TopKServer(scheme, relation, transport=address) as server:
            tokens = [scheme.token([0, 1], k=2), scheme.token([1, 2], k=2)]
            jobs = [server.submit(t) for t in tokens]
            fresh = [j.result(timeout=120.0) for j in jobs]
            served_before = service.stats()["requests_served"]
            hit = server.query(tokens[0])
        assert hit.cache_hit and hit.stats.rounds == 0
        assert scheme.reveal(hit) == scheme.reveal(fresh[0])
        # The hit never reached the daemon.
        assert service.stats()["requests_served"] == served_before
        assert service.stats()["requests_in_flight_peak"] >= 1
