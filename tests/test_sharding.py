"""Sharded S1 relations: the plumbing around the sharded scan.

``shards >= 2`` is transcript-invisible — results, rounds, bytes and
leakage bit-identical to the unsharded scan (the differential runner's
reference path), property-style and over a daemon.  Also here: the
per-shard ``QueryStats`` slice tiles the scan, the shard plan
partition laws, the fan-in validation and the ``QueryConfig(shards=N)``
route through the server and the client.

Requires Hypothesis (the ``test`` extra); the module skips cleanly
where only the dependency-free core is installed.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property harness needs the 'test' extra (hypothesis)"
)

from differential import make_case, run_case  # noqa: E402
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import repro  # noqa: E402
from repro.core.params import SystemParams  # noqa: E402
from repro.core.results import QueryConfig, ShardStats  # noqa: E402
from repro.core.scheme import SecTopK  # noqa: E402
from repro.exceptions import ProtocolError, QueryError, ShardFanInError  # noqa: E402
from repro.server import TopKServer  # noqa: E402
from repro.server.sharding import ShardPlan, ShardedQueryLists, fan_in_batches  # noqa: E402

SEED = 424242

# Keep the example budget small and deterministic (derandomized) so the
# tier-1 suite stays fast and CI never flakes on a fresh draw.
PROPERTY_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _run(rows, attrs, k, config, weights=None):
    """One query on a fresh, identically-seeded deployment."""
    scheme = SecTopK(SystemParams.tiny(), seed=SEED)
    relation = scheme.encrypt(rows)
    return scheme.query(relation, scheme.token(attrs, k=k, weights=weights), config)


# ---------------------------------------------------------------------------
# Sharded == unsharded, and the per-shard cost slice.
# ---------------------------------------------------------------------------


@st.composite
def query_cases(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    m = draw(st.integers(min_value=2, max_value=3))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=30), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    attrs = sorted(
        draw(st.sets(st.integers(0, m - 1), min_size=min(2, m), max_size=m))
    )
    k = draw(st.integers(min_value=1, max_value=min(2, n)))
    engine = draw(st.sampled_from(["eager", "literal"]))
    variant = draw(st.sampled_from(["elim", "full", "batch"]))
    halting = draw(st.sampled_from(["strict", "paper"]))
    batch_p = draw(st.integers(2, 3)) if variant == "batch" else 150
    shards = draw(st.integers(min_value=2, max_value=5))
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(1, 3), min_size=len(attrs), max_size=len(attrs)),
        )
    )
    config = QueryConfig(
        variant=variant, batch_p=batch_p, engine=engine, halting=halting
    )
    return rows, attrs, k, config, shards, weights


class TestShardedEqualsUnsharded:
    """``shards >= 2`` is transcript-invisible."""

    @given(case=query_cases())
    @settings(**PROPERTY_SETTINGS)
    def test_bit_parity(self, case):
        rows, attrs, k, config, shards, weights = case
        phases = run_case(make_case(rows, [(attrs, k, weights)], config, shards=shards))
        assert all(result.shard_stats for (result,) in phases), "no shard stats reported"

    def test_socket_transport_shard_leg(self, tcp_daemon):
        """One sharded run against a real S2 daemon."""
        rows = [[(7 * i + 3 * j) % 23 for j in range(3)] for i in range(8)]
        run_case(make_case(rows, [([0, 1, 2], 2, None)], shards=3, transport=tcp_daemon))

    @given(case=query_cases())
    @settings(**PROPERTY_SETTINGS)
    def test_shard_stats_tile_the_scan(self, case):
        """The per-shard cost slice is internally consistent: the slices
        tile ``[0, n)``, served records match the fetched windows, and
        untouched tail shards report zero work."""
        rows, attrs, k, config, shards, weights = case
        sharded_config = QueryConfig(
            variant=config.variant,
            batch_p=config.batch_p,
            engine=config.engine,
            halting=config.halting,
            shards=shards,
        )
        result = _run(rows, attrs, k, sharded_config, weights=weights)

        stats = result.shard_stats
        n, m = len(rows), len(attrs)
        assert len(stats) == min(shards, n)  # clamped to the scan length
        assert stats[0].depth_lo == 0 and stats[-1].depth_hi == n
        for left, right in zip(stats, stats[1:]):
            assert left.depth_hi == right.depth_lo, "slices must be contiguous"

        # The scan fetches whole check windows: the deepest fetched depth
        # is the halting depth rounded up to a window boundary.
        window = sharded_config.check_every()
        depths = result.halting_depth
        fetched = min(n, ((depths + window - 1) // window) * window)
        assert sum(s.records_scanned for s in stats) == m * fetched
        for s in stats:
            if s.depth_lo < fetched:
                assert s.depth_reached == min(s.depth_hi, fetched)
                assert s.records_scanned == m * (
                    min(s.depth_hi, fetched) - s.depth_lo
                )
            else:
                assert s.depth_reached == 0 and s.records_scanned == 0

# ---------------------------------------------------------------------------
# Shard plan partition laws (pure, so the example budget can be generous).
# ---------------------------------------------------------------------------


class TestShardPlan:
    @given(
        n=st.integers(min_value=1, max_value=500),
        shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_partition_laws(self, n, shards):
        plan = ShardPlan.for_scan(n, shards)
        assert 1 <= plan.n_shards <= min(shards, n)
        # Contiguous cover of range(n)...
        assert plan.bounds[0][0] == 0 and plan.bounds[-1][1] == n
        for (_, hi), (lo, _) in zip(plan.bounds, plan.bounds[1:]):
            assert hi == lo
        # ...balanced to within one row...
        sizes = [hi - lo for lo, hi in plan.bounds]
        assert max(sizes) - min(sizes) <= 1
        # ...and owner() agrees with the bounds.
        for shard, (lo, hi) in enumerate(plan.bounds):
            assert plan.owner(lo) == shard
            assert plan.owner(hi - 1) == shard

    def test_invalid_plans_rejected(self):
        with pytest.raises(QueryError):
            ShardPlan(0, 1)
        with pytest.raises(QueryError):
            ShardPlan(4, 5)
        with pytest.raises(QueryError):
            ShardPlan(4, 0)
        with pytest.raises(QueryError):
            ShardPlan(4, 2).owner(4)

    def test_overlapping_windows(self):
        plan = ShardPlan(10, 3)  # bounds: (0,4) (4,7) (7,10)
        assert plan.overlapping(0, 4) == [0]
        assert plan.overlapping(3, 5) == [0, 1]
        assert plan.overlapping(0, 10) == [0, 1, 2]
        assert plan.overlapping(5, 5) == []


class TestFanIn:
    def test_merges_depth_ordered(self):
        merged = fan_in_batches([[(3, "d"), (4, "e")], [(1, "b"), (2, "c")]])
        assert merged == [(1, "b"), (2, "c"), (3, "d"), (4, "e")]

    def test_rejects_overlap_and_gap(self):
        with pytest.raises(ProtocolError, match="overlapping"):
            fan_in_batches([[(1, "a")], [(1, "b")]])
        with pytest.raises(ProtocolError, match="gap"):
            fan_in_batches([[(1, "a")], [(3, "c")]])

    def test_empty_contributions_ok(self):
        assert fan_in_batches([[], [(5, "x")], []]) == [(5, "x")]

    def test_errors_name_the_offending_shard_and_window(self):
        """Fan-in failures are typed and carry the culprit: the shard id
        that contributed the bad depth plus the window bounds, so a
        distributed-scan bug is diagnosable from the exception alone."""
        with pytest.raises(ShardFanInError) as exc_info:
            fan_in_batches(
                [[(1, "a")], [(1, "b")]], 1, 2, shard_ids=[7, 9]
            )
        assert exc_info.value.shard_id == 9
        assert exc_info.value.window == (1, 2)
        assert "shard 9" in str(exc_info.value)

        with pytest.raises(ShardFanInError) as exc_info:
            fan_in_batches([[(0, "a")], [(2, "c")]], 0, 3, shard_ids=[4, 6])
        assert exc_info.value.window == (0, 3)
        assert "[0, 3)" in str(exc_info.value)

        # A stray depth outside the window is attributed to its owner.
        with pytest.raises(ShardFanInError) as exc_info:
            fan_in_batches([[(0, "a")], [(5, "z")]], 0, 2, shard_ids=[0, 3])
        assert exc_info.value.shard_id == 3

    def test_window_bounds_catch_edge_gaps(self):
        """Interior contiguity cannot see a missing first/last depth;
        the window bounds make those gaps diagnosable too."""
        batches = [[(1, "b")], [(2, "c")]]
        assert fan_in_batches(batches, 1, 3) == [(1, "b"), (2, "c")]
        with pytest.raises(ProtocolError, match="tile the window"):
            fan_in_batches(batches, 0, 3)  # depth 0 missing at the edge
        with pytest.raises(ProtocolError, match="tile the window"):
            fan_in_batches(batches, 1, 4)  # depth 3 missing at the edge
        with pytest.raises(ProtocolError, match="tile the window"):
            fan_in_batches([], 0, 1)  # nothing contributed at all


# ---------------------------------------------------------------------------
# Server / client routes.
# ---------------------------------------------------------------------------


def _deployment(seed: int = SEED):
    rows = [[(11 * i + 5 * j + i * j) % 31 for j in range(3)] for i in range(9)]
    scheme = SecTopK(SystemParams.tiny(), seed=seed)
    return scheme, scheme.encrypt(rows), rows


class TestServerRoutes:
    def test_config_validation(self):
        with pytest.raises(QueryError):
            QueryConfig(shards=-1)
        assert QueryConfig().effective_shards() == 0
        assert QueryConfig(shards=0).effective_shards() == 0
        assert QueryConfig(shards=1).effective_shards() == 1

    def test_server_default_and_per_query_override(self, transcript):
        scheme_a, relation_a, _ = _deployment()
        with TopKServer(scheme_a, relation_a) as server:
            base = server.query(scheme_a.token([0, 1, 2], k=2))

        scheme_b, relation_b, _ = _deployment()
        with TopKServer(scheme_b, relation_b) as server:
            # The server has no sharding default of its own: shards come
            # from each query's config, and only from there.
            sharded = server.query(
                scheme_b.token([0, 1, 2], k=2), QueryConfig(shards=3, cache=False)
            )
            override = server.query(
                scheme_b.token([0, 1, 2], k=2), QueryConfig(shards=2, cache=False)
            )
        assert base.shard_stats is None
        assert len(sharded.shard_stats) == 3
        assert len(override.shard_stats) == 2
        assert transcript(scheme_a, base)[2:] == transcript(scheme_b, sharded)[2:]

    def test_connect_shards_and_query_stats_slice(self):
        scheme, relation, _ = _deployment()
        with repro.connect(scheme, relation) as client:
            result = client.query(client.token([0, 1], k=2), QueryConfig(shards=2))
        stats = result.stats
        assert len(stats.shards) == 2
        assert all(isinstance(s, ShardStats) for s in stats.shards)
        assert stats.shards[0].depth_lo == 0
        assert sum(s.records_scanned for s in stats.shards) > 0

    def test_unsharded_results_carry_empty_slice(self):
        scheme, relation, _ = _deployment()
        with repro.connect(scheme, relation) as client:
            result = client.query(client.token([0, 1], k=2))
        assert result.shard_stats is None
        assert result.stats.shards == ()

    def test_sharded_lists_reject_bad_index(self):
        scheme, relation, _ = _deployment()
        token = scheme.token([0, 1], k=2)
        lists = ShardedQueryLists(relation, token, n_shards=2)
        column = lists[0]
        assert len(column) == relation.n_objects
        assert column[-1] is column[relation.n_objects - 1]
        with pytest.raises(IndexError):
            column[relation.n_objects]
        with pytest.raises(TypeError):
            column["0"]
