"""Tests for the plaintext NRA, TA and naive top-k oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataError, QueryError
from repro.nra import SortedLists, naive_topk, nra_topk

ROWS = [
    [10, 3, 2],
    [8, 8, 0],
    [5, 7, 6],
    [3, 2, 8],
    [1, 1, 1],
]


class TestSortedLists:
    def test_descending_order(self):
        lists = SortedLists(ROWS)
        for lst in lists.lists:
            scores = [item.score for item in lst]
            assert scores == sorted(scores, reverse=True)

    def test_depth_access(self):
        lists = SortedLists(ROWS)
        depth0 = lists.depth(0)
        assert [i.score for i in depth0] == [10, 8, 8]

    def test_bottoms(self):
        lists = SortedLists(ROWS)
        assert lists.bottoms(0) == [10, 8, 8]
        assert lists.bottoms(4) == [1, 1, 0]

    def test_attribute_selection(self):
        lists = SortedLists(ROWS, [2])
        assert lists.n_lists == 1
        assert [i.score for i in lists.lists[0]] == [8, 6, 2, 1, 0]

    def test_validation(self):
        with pytest.raises(DataError):
            SortedLists([])
        with pytest.raises(DataError):
            SortedLists([[1], [1, 2]])
        with pytest.raises(DataError):
            SortedLists(ROWS, [9])
        with pytest.raises(DataError):
            SortedLists(ROWS).depth(99)

    def test_prefix(self):
        lists = SortedLists(ROWS)
        assert len(lists.prefix(0, 2)) == 3


class TestNaive:
    def test_example(self):
        assert naive_topk(ROWS, [0, 1, 2], 2) == [(2, 18), (1, 16)]

    def test_weights(self):
        assert naive_topk(ROWS, [0, 1], 1, weights=[0, 1]) == [(1, 8)]

    def test_validation(self):
        with pytest.raises(QueryError):
            naive_topk(ROWS, [0], 0)
        with pytest.raises(QueryError):
            naive_topk(ROWS, [0, 1], 1, weights=[1])


class TestNra:
    def test_matches_naive_on_example(self):
        lists = SortedLists(ROWS)
        result = nra_topk(lists, 2)
        assert result.topk == naive_topk(ROWS, [0, 1, 2], 2)

    def test_halting_depth_bounded(self):
        result = nra_topk(SortedLists(ROWS), 2)
        assert 1 <= result.halting_depth <= len(ROWS)

    def test_paper_halting_also_correct(self):
        lists = SortedLists(ROWS)
        strict = nra_topk(lists, 2, halting="strict")
        paper = nra_topk(lists, 2, halting="paper")
        assert strict.topk == paper.topk
        # The paper rule checks fewer candidates, so it can only halt
        # earlier or at the same depth... but unsoundly early halts are
        # prevented by the unseen bound; either way results agree.

    def test_k_equals_n(self):
        """With k = n every object is reported; ids match the exact
        ranking's ids and the reported worst bounds never exceed the
        exact aggregates (NRA reports bounds, not exact scores)."""
        result = nra_topk(SortedLists(ROWS), len(ROWS))
        naive = naive_topk(ROWS, [0, 1, 2], len(ROWS))
        assert {o for o, _ in result.topk} == {o for o, _ in naive}
        exact = {o: s for o, s in naive}
        assert all(worst <= exact[o] for o, worst in result.topk)

    def test_trace(self):
        result = nra_topk(SortedLists(ROWS), 1, trace=True)
        assert len(result.depths_state) == result.halting_depth
        assert result.depths_state[0]["depth"] == 1

    def test_validation(self):
        with pytest.raises(QueryError):
            nra_topk(SortedLists(ROWS), 0)
        with pytest.raises(QueryError):
            nra_topk(SortedLists(ROWS), 1, halting="loose")

    @given(
        st.lists(
            st.lists(st.integers(0, 100), min_size=3, max_size=3),
            min_size=3,
            max_size=25,
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=40)
    def test_matches_naive_property(self, rows, k):
        """The exact aggregates of NRA's reported ids equal the naive
        top-k score multiset (tie-robust formulation of 'NRA returns a
        correct top-k set')."""
        k = min(k, len(rows))
        result = nra_topk(SortedLists(rows), k)
        naive = naive_topk(rows, [0, 1, 2], k)
        reported_exact = sorted(sum(rows[o]) for o, _ in result.topk)
        assert reported_exact == sorted(s for _, s in naive)

    @given(
        st.sets(st.integers(0, 10**6), min_size=4, max_size=20),
        st.integers(1, 3),
    )
    @settings(max_examples=25)
    def test_exact_ids_when_tie_free(self, base_scores, k):
        """With tie-free aggregates the reported id set is exact."""
        scores = sorted(base_scores)
        rows = [[s, (7 * s + 13) % (10**6), (s * s + 1) % (10**6)] for s in scores]
        aggregates = [sum(r) for r in rows]
        if len(set(aggregates)) != len(aggregates):
            return  # skip rare tie draws
        result = nra_topk(SortedLists(rows), k)
        naive = naive_topk(rows, [0, 1, 2], k)
        assert {o for o, _ in result.topk} == {o for o, _ in naive}
