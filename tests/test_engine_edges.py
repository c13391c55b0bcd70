"""Edge-path tests for the query engines and supporting containers."""

import pytest
from differential import check_oracle
from hypothesis import given, settings, strategies as st

from repro.bench.harness import BenchContext, SeriesReport, measure_query, oracle_halting_depth
from repro.core.params import SystemParams
from repro.core.results import QueryConfig, QueryResult
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.data.synthetic import Relation, gaussian_relation
from repro.exceptions import QueryError
from repro.nra import SortedLists, nra_topk


@pytest.fixture(scope="module")
def scheme():
    return SecTopK(SystemParams.tiny(), seed=123)


class TestSingleListQueries:
    """m = 1: the degenerate NRA where depth d reveals the d-th best."""

    def test_single_attribute(self, scheme):
        rows = [[9], [3], [7], [1], [5]]
        encrypted = scheme.encrypt(rows)
        token = scheme.token([0], k=2)
        result = scheme.query(
            encrypted, token, QueryConfig(variant="elim", engine="eager")
        )
        got = scheme.reveal(result)
        assert got == [(0, 9), (2, 7)]
        # m=1: halting as soon as k+1 items prove the bound -> depth k+1
        # at most (the k-th worst equals the exact k-th score).
        assert result.halting_depth <= 3


class TestAlternativeBuildingBlocks:
    def test_query_with_dgk_and_network(self, scheme):
        rows = [[7, 1], [2, 8], [5, 4], [1, 2], [9, 9], [0, 3]]
        encrypted = scheme.encrypt(rows)
        token = scheme.token([0, 1], k=2)
        result = scheme.query(
            encrypted,
            token,
            QueryConfig(
                variant="elim",
                engine="eager",
                compare_method="dgk",
                sort_method="network",
            ),
        )
        oracle = nra_topk(SortedLists(rows, [0, 1]), 2)
        assert scheme.reveal(result) == oracle.topk
        assert result.halting_depth == oracle.halting_depth

    def test_literal_with_batching(self, scheme):
        rows = [[7, 1], [2, 8], [5, 4], [1, 2], [9, 9], [0, 3]]
        encrypted = scheme.encrypt(rows)
        token = scheme.token([0, 1], k=2)
        result = scheme.query(
            encrypted,
            token,
            QueryConfig(variant="batch", batch_p=2, engine="literal"),
        )
        oracle = nra_topk(SortedLists(rows, [0, 1]), 2)
        got = scheme.reveal(result)
        assert {o for o, _ in got} == {o for o, _ in oracle.topk}


class TestPropertyEndToEnd:
    @given(
        st.lists(
            st.lists(st.integers(0, 25), min_size=2, max_size=2),
            min_size=4,
            max_size=7,
        )
    )
    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    def test_random_small_relations(self, rows):
        """Hypothesis-driven differential test on tiny relations.  The
        secure engine breaks worst-score ties by S1's permutation, the
        oracle by object id: any depth some tie order allows is right."""
        scheme = SecTopK(SystemParams.tiny(), seed=sum(map(sum, rows)) + len(rows))
        result = scheme.query(scheme.encrypt(rows), scheme.token([0, 1], k=2))
        check_oracle(dict(enumerate(rows)), [0, 1], None, 2, scheme.reveal(result),
                     result.halting_depth, QueryConfig())


class TestHarness:
    def test_series_report_render_and_emit(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        report = SeriesReport(title="T", header=["a", "bb"])
        report.add([1, 22])
        report.add([333, 4])
        report.note("n")
        text = report.render()
        assert "== T ==" in text
        assert "note: n" in text
        report.emit("out.txt")
        assert (tmp_path / "out.txt").read_text().startswith("== T ==")

    def test_bench_context_caches(self):
        ctx = BenchContext(SystemParams.tiny(), seed=5)
        relation = gaussian_relation(6, 2, seed=2, name="cache-test")
        first = ctx.encrypted(relation)
        assert ctx.encrypted(relation) is first
        assert ctx.scheme_for(relation) is ctx.scheme_for(relation)

    def test_measure_query_metrics(self):
        ctx = BenchContext(SystemParams.tiny(), seed=6)
        relation = gaussian_relation(8, 2, seed=3, name="measure-test", max_value=200)
        metrics = measure_query(
            ctx,
            relation,
            [0, 1],
            2,
            QueryConfig(variant="elim", engine="eager", max_depth=3),
            "X",
        )
        assert metrics.dataset == "measure-test"
        assert metrics.bytes_total > 0
        assert metrics.time_per_depth > 0
        assert metrics.latency_modeled > 0
        assert len(metrics.row()) == len(metrics.HEADER)

    def test_oracle_halting_depth(self):
        relation = Relation(name="x", rows=[[9, 9], [1, 1], [2, 2], [0, 0]])
        depth = oracle_halting_depth(relation, [0, 1], 1)
        assert depth == nra_topk(SortedLists(relation.rows, [0, 1]), 1, halting="paper").halting_depth


class TestResultContainers:
    def test_time_per_depth_empty(self):
        result = QueryResult(items=[], halting_depth=0, channel_stats=None)
        assert result.time_per_depth == 0.0

    def test_relation_list_for_missing(self, scheme):
        encrypted = scheme.encrypt([[1, 2], [3, 4]])
        with pytest.raises(QueryError):
            encrypted.list_for(99)


class TestRepeatedQueries:
    def test_fresh_clouds_per_query(self, scheme):
        """Each query() call gets independent channel accounting."""
        rows = [[5, 1], [2, 8], [7, 3], [1, 1]]
        encrypted = scheme.encrypt(rows)
        token = scheme.token([0, 1], k=2)
        r1 = scheme.query(encrypted, token)
        r2 = scheme.query(encrypted, token)
        got1, got2 = scheme.reveal(r1), scheme.reveal(r2)
        assert got1 == got2
        assert r1.channel_stats.total_bytes == r2.channel_stats.total_bytes
