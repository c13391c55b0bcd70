"""Differential tests: SecQuery vs the plaintext NRA oracle.

These are the capstone integration tests — the oblivious engine must
return exactly the plaintext algorithm's answers.  Relations are kept
small (the crypto is pure Python) but cover duplicates, ties in local
scores, every variant/engine combination and both halting rules.
"""

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.exceptions import QueryError
from repro.nra import SortedLists, naive_topk, nra_topk


@pytest.fixture(scope="module")
def rows():
    rng = SecureRandom(314)
    # Tie-free aggregates with duplicated *local* scores (small range).
    rows = []
    seen_sums = set()
    while len(rows) < 14:
        candidate = [rng.randint_below(40) for _ in range(3)]
        if sum(candidate) not in seen_sums:
            seen_sums.add(sum(candidate))
            rows.append(candidate)
    return rows


@pytest.fixture(scope="module")
def scheme():
    return SecTopK(SystemParams.tiny(), seed=21)


@pytest.fixture(scope="module")
def encrypted(scheme, rows):
    return scheme.encrypt(rows)


def _oracle(rows, attributes, k, halting="strict", weights=None):
    """Plaintext NRA run matching what the secure engine executes.

    NRA reports *worst-at-halt* scores, which may be below the exact
    aggregates (Section 3.4: "NRA may not report the exact object
    scores") — so differential tests must compare against this oracle,
    not against the exact-score naive top-k.
    """
    if weights is not None:
        rows = [[w * row[a] for w, a in zip(weights, attributes)] for row in rows]
        attributes = list(range(len(weights)))
    return nra_topk(SortedLists(rows, attributes), k, halting=halting)


class TestEagerVariants:
    @pytest.mark.parametrize("variant", ["elim", "full", "batch"])
    def test_matches_oracle_exactly(self, scheme, encrypted, rows, variant):
        """Same top-k ids, same scores, same halting depth as plain NRA."""
        config = QueryConfig(
            variant=variant, batch_p=3, engine="eager", halting="strict"
        )
        token = scheme.token([0, 1, 2], k=3)
        result = scheme.query(encrypted, token, config)
        oracle = _oracle(rows, [0, 1, 2], 3)
        got = scheme.reveal(result)
        if variant != "batch":
            # Same algorithm, same depth: ids AND worst scores agree.
            assert got == oracle.topk
            assert result.halting_depth == oracle.halting_depth
        else:
            # Batched checks halt at the next check point, where worst
            # bounds have grown; the winning id set is what must agree.
            assert {o for o, _ in got} == {o for o, _ in oracle.topk}
            assert result.halting_depth >= oracle.halting_depth

    def test_paper_halting_correct(self, scheme, encrypted, rows):
        config = QueryConfig(variant="elim", engine="eager", halting="paper")
        token = scheme.token([0, 1, 2], k=2)
        result = scheme.query(encrypted, token, config)
        got = scheme.reveal(result)
        oracle = _oracle(rows, [0, 1, 2], 2, halting="paper")
        assert got == oracle.topk

    def test_two_attributes(self, scheme, encrypted, rows):
        token = scheme.token([0, 2], k=2)
        result = scheme.query(
            encrypted, token, QueryConfig(variant="elim", engine="eager")
        )
        got = scheme.reveal(result)
        assert [o for o, _ in got] == [
            o for o, _ in _oracle(rows, [0, 2], 2).topk
        ]

    def test_k_equals_one(self, scheme, encrypted, rows):
        token = scheme.token([0, 1, 2], k=1)
        result = scheme.query(
            encrypted, token, QueryConfig(variant="elim", engine="eager")
        )
        got = scheme.reveal(result)
        assert got == _oracle(rows, [0, 1, 2], 1).topk
        # The winner is also the exact-score winner.
        assert got[0][0] == naive_topk(rows, [0, 1, 2], 1)[0][0]

    def test_weights(self, scheme, encrypted, rows):
        token = scheme.token([0, 1], k=2, weights=[2, 3])
        result = scheme.query(
            encrypted, token, QueryConfig(variant="elim", engine="eager")
        )
        oracle = _oracle(rows, [0, 1], 2, weights=[2, 3])
        assert scheme.reveal(result) == oracle.topk


class TestLiteralEngine:
    def test_correct_topk_elim(self, scheme, encrypted, rows):
        token = scheme.token([0, 1], k=2)
        result = scheme.query(
            encrypted, token, QueryConfig(variant="elim", engine="literal")
        )
        oracle = _oracle(rows, [0, 1], 2)
        got = scheme.reveal(result)
        # Literal halts at or after the oracle (stale upper bounds), so
        # the id set matches but worst bounds may have grown.
        assert {o for o, _ in got} == {o for o, _ in oracle.topk}
        assert result.halting_depth >= oracle.halting_depth

    def test_correct_topk_full(self, scheme, encrypted, rows):
        token = scheme.token([0, 1], k=2)
        result = scheme.query(
            encrypted, token, QueryConfig(variant="full", engine="literal")
        )
        got = scheme.reveal(result)
        oracle = _oracle(rows, [0, 1], 2)
        assert {o for o, _ in got} == {o for o, _ in oracle.topk}


class TestEdgeCases:
    def test_duplicate_heavy_relation(self):
        """Small value range -> many within-depth duplicates."""
        rng = SecureRandom(55)
        rows = [[rng.randint_below(4) for _ in range(3)] for _ in range(10)]
        scheme = SecTopK(SystemParams.tiny(), seed=91)
        encrypted = scheme.encrypt(rows)
        token = scheme.token([0, 1, 2], k=3)
        result = scheme.query(
            encrypted, token, QueryConfig(variant="elim", engine="eager")
        )
        got = scheme.reveal(result)
        oracle = _oracle(rows, [0, 1, 2], 3)
        assert sorted(s for _, s in got) == sorted(s for _, s in oracle.topk)

    def test_k_equals_n(self):
        rows = [[5, 1], [3, 3], [1, 9], [2, 2]]
        scheme = SecTopK(SystemParams.tiny(), seed=92)
        encrypted = scheme.encrypt(rows)
        token = scheme.token([0, 1], k=4)
        result = scheme.query(
            encrypted, token, QueryConfig(variant="elim", engine="eager")
        )
        got = scheme.reveal(result)
        oracle = _oracle(rows, [0, 1], 4)
        assert got == oracle.topk
        # Every object is reported; the id set is exactly 0..n-1.
        assert {o for o, _ in got} == {0, 1, 2, 3}

    def test_k_too_large_rejected(self, scheme, encrypted):
        token = scheme.token([0, 1], k=100)
        with pytest.raises(QueryError):
            scheme.query(encrypted, token)

    def test_max_depth_cap(self, scheme, encrypted, rows):
        token = scheme.token([0, 1, 2], k=3)
        result = scheme.query(
            encrypted,
            token,
            QueryConfig(variant="elim", engine="eager", max_depth=2),
        )
        assert result.halting_depth <= 2
        assert len(result.items) == 3  # best-effort answer still k items

    def test_depth_timings_collected(self, scheme, encrypted):
        token = scheme.token([0, 1], k=2)
        result = scheme.query(encrypted, token)
        assert len(result.depth_seconds) == result.halting_depth
        assert result.time_per_depth > 0

    def test_channel_stats_populated(self, scheme, encrypted):
        token = scheme.token([0, 1], k=2)
        result = scheme.query(encrypted, token)
        assert result.channel_stats.total_bytes > 0
        assert result.channel_stats.rounds > 0


class TestWeightBound:
    """A weighted aggregate must stay below the encoder's sentinel
    ``2**(score_bits + blind_bits)``: past it the blinded comparisons
    wrap and reveal a wrong top-k, so such a token is refused up front."""

    @pytest.fixture(scope="class")
    def wide(self):
        rng = SecureRandom(9)
        rows = [[rng.randint_below(1 << 16) for _ in range(3)] for _ in range(16)]
        scheme = SecTopK(SystemParams.tiny(), seed=5)
        return scheme, scheme.encrypt(rows), rows

    @staticmethod
    def _heaviest(scheme) -> int:
        """The largest weight sum the bound admits."""
        return (scheme.encoder.sentinel - 1) // scheme.encoder.max_score

    @pytest.mark.parametrize("variant", ["elim", "full"])
    def test_oversized_weights_rejected_before_any_round(self, wide, variant):
        scheme, encrypted, _ = wide
        for weights in ([2**90, 1], [self._heaviest(scheme), 1]):
            token = scheme.token([0, 1], k=3, weights=weights)
            ctx = scheme._make_context()
            try:
                with pytest.raises(QueryError, match="weights"):
                    scheme.query(encrypted, token, QueryConfig(variant=variant), ctx=ctx)
                assert ctx.channel.snapshot().rounds == 0
                assert not ctx.leakage.events
            finally:
                ctx.close()

    def test_weights_at_the_bound_accepted(self, wide):
        scheme, encrypted, rows = wide
        weights = [self._heaviest(scheme) - 1, 1]
        result = scheme.query(encrypted, scheme.token([0, 1], k=3, weights=weights))
        expected = naive_topk(rows, [0, 1], 3, weights=weights)
        assert {o for o, _ in scheme.reveal(result)} == {o for o, _ in expected}


class TestQueryConfig:
    def test_validation(self):
        with pytest.raises(QueryError):
            QueryConfig(variant="bogus")
        with pytest.raises(QueryError):
            QueryConfig(engine="bogus")
        with pytest.raises(QueryError):
            QueryConfig(halting="bogus")
        with pytest.raises(QueryError):
            QueryConfig(variant="batch", batch_p=0)
        with pytest.raises(QueryError):
            QueryConfig(max_depth=0)
        with pytest.raises(QueryError):
            QueryConfig(max_depth=-1)
        assert QueryConfig(max_depth=1).max_depth == 1

    def test_check_every(self):
        assert QueryConfig(variant="elim").check_every() == 1
        assert QueryConfig(variant="batch", batch_p=7).check_every() == 7


class TestLazyWeighting:
    """``weight_entries`` weights a block of entries on first access, to
    the values eager weighting gives, and a scan that halts early never
    weights the blocks past its halting depth."""

    def test_blocks_weighted_on_first_access(self, encrypted, monkeypatch):
        from repro.crypto import backend
        from repro.structures.items import WeightedEntries, weight_entries

        entries = next(iter(encrypted.lists.values()))
        assert weight_entries(entries, 1) is entries
        pk = entries[0].score.public_key
        calls = []
        real = backend.powmod_vec
        monkeypatch.setattr(
            backend, "powmod_vec",
            lambda bases, exp, mod: calls.append(len(bases)) or real(bases, exp, mod),
        )
        weighted = weight_entries(entries, 3)
        assert isinstance(weighted, WeightedEntries) and len(weighted) == len(entries)
        assert calls == []
        weighted[1], weighted[WeightedEntries.BLOCK - 1], weighted[0]
        assert calls == [WeightedEntries.BLOCK]
        tail = len(entries) - WeightedEntries.BLOCK
        assert weighted[-1] is weighted[len(entries) - 1]
        assert calls == [WeightedEntries.BLOCK, tail]
        assert [e.score.value for e in weighted] == [
            pow(e.score.value, 3, pk.n_squared) for e in entries
        ]
        assert all(
            w.ehl is e.ehl and w.record is e.record for w, e in zip(weighted, entries)
        )
        with pytest.raises(IndexError):
            weighted[len(entries)]

    def test_early_halt_weights_only_its_blocks(self, scheme, encrypted, rows, monkeypatch):
        from repro.crypto import backend
        from repro.structures.items import WeightedEntries

        weighed = []
        real = backend.powmod_vec

        def spy(bases, exp, mod):
            if exp == 2 and mod == scheme.public_key.n_squared:
                weighed.append(len(bases))
            return real(bases, exp, mod)

        monkeypatch.setattr(backend, "powmod_vec", spy)
        token = scheme.token([0, 1, 2], k=1, weights=[2, 2, 2])
        result = scheme.query(encrypted, token, QueryConfig(variant="elim"))
        assert scheme.reveal(result) == _oracle(rows, [0, 1, 2], 1, weights=[2, 2, 2]).topk
        # The scan halts inside the first block: one block per list.
        assert result.halting_depth <= WeightedEntries.BLOCK < len(rows)
        assert weighed == [WeightedEntries.BLOCK] * 3
