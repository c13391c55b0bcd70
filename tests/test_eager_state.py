"""The eager engine carries only what the halting rule reads.

* A candidate holds one running ``Enc(worst)`` and its seen bits; its
  best bound is derived only for the candidates the halting rule
  compares (``t[k:]`` strict, ``t[k]`` paper), in the round of the
  rule's first stage.
* Items cross SecDedup / SecDupElim without payload or best, and
  EncSort's items without the key it ships separately.
* None of that moves a round, a halting depth or a revealed top-k.
"""

import itertools
import random

import pytest

from repro.core.engine import EagerEngine
from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.net.batching import RoundBatcher
from repro.net.dispatch import S2Dispatcher
from repro.net.messages import BlindedSign, DedupBatch, SortAffine, StripLayerBatch
from repro.net.transport import ThreadedTransport
from repro.nra import SortedLists, nra_topk

_RNG = random.Random(31)
#: Loosely correlated (strict NRA halts at depth 7 of 12, the paper rule
#: at 6), and tie-free in every partial sum, so one halting depth and one
#: top-k is right whatever order S1's permutations pick among items.
ROWS = [[1500 * (12 - i) + _RNG.randrange(16000) for _ in range(3)] for i in range(12)]
ATTRS, K = [0, 1, 2], 3


def _partial_sums_distinct(rows) -> bool:
    for size in range(1, len(rows[0]) + 1):
        for subset in itertools.combinations(range(len(rows[0])), size):
            sums = [sum(row[a] for a in subset) for row in rows]
            if len(set(sums)) != len(sums):
                return False
    return True


def _oracle(rows, attrs, k, halting, every):
    """Plaintext NRA whose rule is evaluated at the depths ``every``
    spaces out (plus the last) — the check grid of the batch variant."""
    lists = SortedLists(rows, attrs)
    n, m = lists.n_objects, lists.n_lists
    seen: dict[int, dict[int, int]] = {}
    for d in range(n):
        for j, item in enumerate(lists.depth(d)):
            seen.setdefault(item.object_id, {})[j] = item.score
        if (d + 1) % every and d != n - 1:
            continue
        bottoms = lists.bottoms(d)
        worst = {o: sum(s.values()) for o, s in seen.items()}
        best = {
            o: worst[o] + sum(bottoms[j] for j in range(m) if j not in s)
            for o, s in seen.items()
        }
        ranked = sorted(worst.items(), key=lambda kv: (-kv[1], kv[0]))
        if len(ranked) < k:
            continue
        mk = ranked[k - 1][1]
        rest = [o for o, _ in ranked[k:]]
        if halting == "paper":
            rest = rest[:1]
        if d == n - 1 or (
            sum(bottoms) <= mk and all(best[o] <= mk for o in rest)
        ):
            return ranked[:k], d + 1
    raise AssertionError("unreachable: the last depth always halts")


def _configs():
    for variant, halting in itertools.product(
        ("elim", "full", "batch"), ("strict", "paper")
    ):
        yield pytest.param(
            {"variant": variant, "halting": halting, "batch_p": 3},
            id=f"{variant}-{halting}",
        )


@pytest.fixture(scope="module")
def scheme():
    return SecTopK(SystemParams.tiny(), seed=31)


@pytest.fixture(scope="module")
def relation(scheme):
    return scheme.encrypt(ROWS)


def test_rows_are_tie_free():
    assert _partial_sums_distinct(ROWS)


class TestMatchesPlaintextNra:
    @pytest.mark.parametrize("config", _configs())
    def test_halting_depth_and_topk(self, scheme, relation, config):
        config = QueryConfig(engine="eager", **config)
        result = scheme.query(relation, scheme.token(ATTRS, k=K), config)
        topk, depth = _oracle(ROWS, ATTRS, K, config.halting, config.check_every())
        assert result.halting_depth == depth
        assert scheme.reveal(result) == topk

    def test_oracle_is_nra_on_a_dense_grid(self):
        for halting in ("strict", "paper"):
            expected = nra_topk(SortedLists(ROWS, ATTRS), K, halting=halting)
            assert _oracle(ROWS, ATTRS, K, halting, 1) == (
                expected.topk,
                expected.halting_depth,
            )


class TestBestBoundsRideStageOne:
    """At a check depth the best bounds are recovered for exactly the
    candidates the rule compares — ``m`` select bits each — in the round
    that carries the rule's first comparison, and nowhere else."""

    @staticmethod
    def _spy(monkeypatch):
        rounds: list[list] = []
        checks: list[dict] = []
        real_flush = RoundBatcher._flush
        real_check = EagerEngine._halting_check

        def flush(self, messages):
            rounds.append(list(messages))
            return real_flush(self, messages)

        def halting_check(self, t_sorted, depth):
            # A list shorter than k never reaches S2.
            before = len(rounds)
            assert real_check(self, t_sorted[: self.k - 1], depth) is False
            assert len(rounds) == before
            check = {"len": len(t_sorted), "depth": depth, "first": before}
            checks.append(check)
            halted = real_check(self, t_sorted, depth)
            check["rounds"] = len(rounds) - before
            return halted

        monkeypatch.setattr(RoundBatcher, "_flush", flush)
        monkeypatch.setattr(EagerEngine, "_halting_check", halting_check)
        return rounds, checks

    @staticmethod
    def _strips(batch):
        return [
            len(msg.cts)
            for msg in batch
            if isinstance(msg, StripLayerBatch) and msg.protocol == "SecQuery"
        ]

    @pytest.mark.parametrize("config", _configs())
    def test_refresh_bits_per_check_depth(self, scheme, relation, monkeypatch, config):
        config = QueryConfig(engine="eager", **config)
        m = len(ATTRS)
        rounds, checks = self._spy(monkeypatch)
        result = scheme.query(relation, scheme.token(ATTRS, k=K), config)
        assert checks and checks[-1]["depth"] == result.halting_depth - 1

        in_checks = set()
        for check in checks:
            span = range(check["first"], check["first"] + check["rounds"])
            in_checks.update(span)
            if check["depth"] == len(ROWS) - 1:
                assert check["rounds"] == 0  # the last depth halts outright
                continue
            behind = check["len"] - K
            compared = min(behind, 1) if config.halting == "paper" else behind
            stage_1 = rounds[check["first"]]
            assert sum(isinstance(msg, BlindedSign) for msg in stage_1) == 1
            assert self._strips(stage_1) == ([m * compared] if compared else [])
            for later in span[1:]:
                assert self._strips(rounds[later]) == []
        # Outside the halting rule only the m absorb flows recover.
        for index, batch in enumerate(rounds):
            if index not in in_checks:
                assert len(self._strips(batch)) <= m
                assert not any(isinstance(msg, BlindedSign) for msg in batch)

    def test_no_refresh_below_k(self, scheme, relation, monkeypatch):
        """k = n: every check depth but the last has fewer than k
        candidates, so no best bound is ever recovered."""
        rounds, checks = self._spy(monkeypatch)
        result = scheme.query(
            relation, scheme.token(ATTRS, k=len(ROWS)), QueryConfig(engine="eager")
        )
        assert result.halting_depth == len(ROWS)
        assert [check["depth"] for check in checks] == [len(ROWS) - 1]
        assert all(len(self._strips(batch)) <= len(ATTRS) for batch in rounds)
        assert not any(isinstance(msg, BlindedSign) for b in rounds for msg in b)


class TestItemsOnTheWire:
    """What S2 decodes from the frames a threaded link carries."""

    @pytest.mark.parametrize("variant", ["elim", "full"])
    def test_dedup_and_sort_items_carry_no_dead_fields(
        self, scheme, relation, monkeypatch, variant
    ):
        seen: dict[type, list] = {DedupBatch: [], SortAffine: []}
        real = S2Dispatcher.dispatch

        def dispatch(self, msg):
            if type(msg) in seen:
                seen[type(msg)].append(msg)
            return real(self, msg)

        monkeypatch.setattr(S2Dispatcher, "dispatch", dispatch)
        ctx = scheme._make_context(transport="threaded")
        try:
            assert isinstance(ctx.transport, ThreadedTransport)
            result = scheme.query(
                relation,
                scheme.token(ATTRS, k=K),
                QueryConfig(engine="eager", variant=variant),
                ctx=ctx,
            )
        finally:
            ctx.close()
        assert scheme.reveal(result) == _oracle(ROWS, ATTRS, K, "strict", 1)[0]
        assert seen[DedupBatch] and seen[SortAffine]
        for msg in seen[DedupBatch]:
            for item in msg.items:
                assert item.list_scores is None and item.best is None
                assert item.worst is not None and len(item.seen_bits) == len(ATTRS)
        for msg in seen[SortAffine]:
            assert len(msg.keys) == len(msg.items)
            for item in msg.items:
                assert item.list_scores is None and item.best is None
                assert item.worst is None  # the key travels as msg.keys
                assert len(item.seen_bits) == len(ATTRS)


#: ``(rounds, halting depth)`` of two queries per configuration, recorded
#: before the eager state was slimmed.  One number moved on purpose: the
#: capped budget path paid 18 rounds, three of them to refresh, dedup and
#: sort a list its last check depth had already deduplicated and sorted.
PINNED = {
    "eager-elim-strict": ({"variant": "elim"}, [(37, 7), (27, 5)]),
    "eager-full-strict": ({"variant": "full"}, [(37, 7), (27, 5)]),
    "eager-batch-strict": ({"variant": "batch", "batch_p": 3}, [(29, 9), (19, 6)]),
    "eager-elim-paper": ({"variant": "elim", "halting": "paper"}, [(31, 6), (27, 5)]),
    "eager-full-paper": ({"variant": "full", "halting": "paper"}, [(31, 6), (27, 5)]),
    "eager-dgk-network": (
        {"compare_method": "dgk", "sort_method": "network"},
        [(96, 7), (57, 5)],
    ),
    "literal-elim": ({"engine": "literal", "variant": "elim"}, [(65, 8), (67, 8)]),
    "literal-full": ({"engine": "literal", "variant": "full"}, [(65, 8), (67, 8)]),
    "eager-capped": ({"variant": "elim", "max_depth": 3}, [(15, 3), (15, 3)]),
}


class TestRoundsUnchanged:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_rounds_and_depth_pinned(self, name):
        kwargs, expected = PINNED[name]
        scheme = SecTopK(SystemParams.tiny(), seed=31)
        relation = scheme.encrypt(ROWS)
        got = []
        for attrs, k in ((ATTRS, K), ([0, 2], 2)):
            result = scheme.query(relation, scheme.token(attrs, k=k), QueryConfig(**kwargs))
            got.append((result.channel_stats.rounds, result.halting_depth))
        assert got == expected
