"""The eager engine carries only what the halting rule reads, and never
touches the Damgård–Jurik layer.

* A candidate holds one running ``Enc(worst)`` and its Paillier seen
  bits; its best bound is derived only for the candidates the halting
  rule compares (``t[k:]`` strict, ``t[k]`` paper), in the round of the
  rule's first stage.
* S2 applies the bits it decrypts (``BlindedSelect``): one absorb round
  per depth, no ``N^3`` operation on either side.
* A check depth is one ``DedupSort`` round, whose items cross without
  payload or best, next to a one-way key per item.
* Halting depths and revealed top-k match plaintext NRA, husks included.
"""

import itertools
import random

import pytest

from repro.core.engine import EagerEngine
from repro.core.leakage import equality_pattern_matrices
from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto import backend
from repro.crypto.paillier import Ciphertext
from repro.net.batching import RoundBatcher
from repro.net.dispatch import S2Dispatcher
from repro.net.messages import (
    BlindedSelect,
    BlindedSign,
    DedupBatch,
    DedupSort,
    SortAffine,
    StripLayerBatch,
    ZeroTestBatch,
)
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
    """At a check depth the best bounds are derived for exactly the
    candidates the rule compares — ``m`` coin-masked bit-mode slots
    each — in the round that carries the rule's first comparison, and
    nowhere else."""

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
    def _selects(batch, bit_mode):
        return [
            len(msg.cts)
            for msg in batch
            if isinstance(msg, BlindedSelect) and msg.bit_mode is bit_mode
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
            assert self._selects(stage_1, True) == ([m * compared] if compared else [])
            assert self._selects(stage_1, False) == []
            for later in span[1:]:
                assert self._selects(rounds[later], True) == []
        # Outside the halting rule only the m absorb flows select, with
        # equality tests; no round strips a layer or sends a zero test.
        for index, batch in enumerate(rounds):
            assert not any(
                isinstance(msg, (StripLayerBatch, ZeroTestBatch)) for msg in batch
            )
            if index not in in_checks:
                assert self._selects(batch, True) == []
                assert len(self._selects(batch, False)) <= m
                assert not any(isinstance(msg, BlindedSign) for msg in batch)

    def test_no_refresh_below_k(self, scheme, relation, monkeypatch):
        """k = n: every check depth but the last has fewer than k
        candidates, so no best bound is ever derived."""
        rounds, checks = self._spy(monkeypatch)
        result = scheme.query(
            relation, scheme.token(ATTRS, k=len(ROWS)), QueryConfig(engine="eager")
        )
        assert result.halting_depth == len(ROWS)
        assert [check["depth"] for check in checks] == [len(ROWS) - 1]
        assert all(self._selects(batch, True) == [] for batch in rounds)
        assert all(len(self._selects(batch, False)) <= len(ATTRS) for batch in rounds)
        assert not any(isinstance(msg, BlindedSign) for b in rounds for msg in b)


class TestItemsOnTheWire:
    """What S2's dispatcher receives on the eager path."""

    @pytest.mark.parametrize("variant", ["elim", "full"])
    def test_dedup_and_sort_items_carry_no_dead_fields(
        self, scheme, relation, monkeypatch, variant
    ):
        seen: dict[type, list] = {DedupBatch: [], SortAffine: [], DedupSort: []}
        real = S2Dispatcher.dispatch

        def dispatch(self, msg):
            if type(msg) in seen:
                seen[type(msg)].append(msg)
            return real(self, msg)

        monkeypatch.setattr(S2Dispatcher, "dispatch", dispatch)
        ctx = scheme._make_context()
        try:
            result = scheme.query(
                relation,
                scheme.token(ATTRS, k=K),
                QueryConfig(engine="eager", variant=variant),
                ctx=ctx,
            )
        finally:
            ctx.close()
        assert scheme.reveal(result) == _oracle(ROWS, ATTRS, K, "strict", 1)[0]
        # Every check depth is one DedupSort: no separate dedup or sort.
        assert seen[DedupSort] and not seen[DedupBatch] and not seen[SortAffine]
        for msg in seen[DedupSort]:
            # The one-way key rides next to the item, whose own blinded
            # worst is what comes back.
            assert len(msg.keys) == len(msg.items)
            for item in msg.items:
                assert item.list_scores is None and item.best is None
                assert item.worst is not None and len(item.seen_bits) == len(ATTRS)
                assert all(type(bit) is Ciphertext for bit in item.seen_bits)


def _layered_moduli(scheme) -> set[int]:
    """Every modulus a Damgård–Jurik operation runs at: ``N^3`` (S1's
    selects, either side's randomizer pool) and ``p^3`` / ``q^3`` (S2's
    strips)."""
    sk = scheme.keypair.secret_key
    return {scheme.dj.n_s1, sk.p**3, sk.q**3}


def _spy_moduli(monkeypatch) -> list[int]:
    """The modulus of every backend exponentiation and randomizer product."""
    moduli: list[int] = []
    for name in ("powmod_vec", "powmod_pairs"):
        real = getattr(backend, name)

        def spy(bases, exps, mod, _real=real):
            moduli.append(mod)
            return _real(bases, exps, mod)

        monkeypatch.setattr(backend, name, spy)
    real_products = backend.pool_products

    def pool_products(pool, reads):
        moduli.append(pool.mod)
        return real_products(pool, reads)

    monkeypatch.setattr(backend, "pool_products", pool_products)
    return moduli


class TestNoLayeredWork:
    """No eager query runs an operation in the Damgård–Jurik layer, on
    either side — not a select, a strip, a randomizer, nor the pool
    build behind them (each scheme below is fresh, so a first draw
    would build its pool).  The literal engine still does."""

    @pytest.mark.parametrize(
        "methods", [("blinded", "affine"), ("dgk", "network")], ids=["blinded", "dgk"]
    )
    @pytest.mark.parametrize("config", _configs())
    def test_eager_query_has_no_n3_operation(self, monkeypatch, config, methods):
        scheme = SecTopK(SystemParams.tiny(), seed=31)
        relation = scheme.encrypt(ROWS)
        moduli = _spy_moduli(monkeypatch)
        compare_method, sort_method = methods
        result = scheme.query(
            relation,
            scheme.token(ATTRS, k=K),
            QueryConfig(
                engine="eager",
                compare_method=compare_method,
                sort_method=sort_method,
                **config,
            ),
        )
        assert scheme.reveal(result)
        assert moduli and not set(moduli) & _layered_moduli(scheme)

    def test_literal_engine_still_uses_the_layer(self, monkeypatch):
        scheme = SecTopK(SystemParams.tiny(), seed=31)
        relation = scheme.encrypt(ROWS)
        moduli = _spy_moduli(monkeypatch)
        scheme.query(relation, scheme.token(ATTRS, k=K), QueryConfig(engine="literal"))
        assert set(moduli) >= _layered_moduli(scheme)


def _husk_rows():
    """Object 0 is list 0's first entry, list 1's second and list 2's
    third, so a batch variant whose first check is at depth 3 or 4
    absorbs list 2's copy against object 0's entry *and* the husk list
    1's copy left."""
    n = 12
    orders = [
        list(range(n)),
        [5, 0, 1, 2, 3, 4] + list(range(6, n)),
        [6, 7, 0, 1, 2, 3, 4, 5] + list(range(8, n)),
    ]
    rng = random.Random(0)
    rows = [[0] * len(orders) for _ in range(n)]
    for j, order in enumerate(orders):
        for rank, obj in enumerate(order):
            rows[obj][j] = 1000 * (n - rank) + rng.randrange(900)
    return rows


HUSK_ROWS = _husk_rows()


class TestHusks:
    """Between check points one item can match several entries of its
    object — the object's first entry and the husks its earlier copies
    left — and nothing breaks: the answer is plaintext NRA's, and every
    bit S2 decrypts on the best path is a bit."""

    def test_rows_are_tie_free(self):
        assert _partial_sums_distinct(HUSK_ROWS)

    @pytest.mark.parametrize("halting", ["strict", "paper"])
    @pytest.mark.parametrize("batch_p", [3, 4])
    @pytest.mark.parametrize("k", [2, 3])
    def test_multi_match_absorb_matches_nra(self, halting, batch_p, k):
        scheme = SecTopK(SystemParams.tiny(), seed=37)
        relation = scheme.encrypt(HUSK_ROWS)
        config = QueryConfig(variant="batch", batch_p=batch_p, halting=halting)
        ctx = scheme._make_context()
        try:
            result = scheme.query(relation, scheme.token(ATTRS, k=k), config, ctx=ctx)
        finally:
            ctx.close()
        topk, depth = _oracle(HUSK_ROWS, ATTRS, k, halting, batch_p)
        assert result.halting_depth == depth
        assert scheme.reveal(result) == topk
        # The case is real: some item matched two entries at once ...
        assert any(sum(bits) > 1 for bits in equality_pattern_matrices(ctx.leakage))
        # ... and the best path only ever decrypted bits.
        masked = [bit for e in ctx.leakage.by_kind("masked_bit") for bit in e.payload]
        assert masked and set(masked) <= {0, 1}


#: ``(rounds, halting depth)`` of two queries per configuration.  Every
#: affine-sort eager row is one round per sorted check depth below what
#: a separate dedup and sort paid (e.g. ``(30, 7)`` then, ``(23, 7)``
#: now); the dgk-network and literal rows have not moved.
PINNED = {
    "eager-elim-strict": ({"variant": "elim"}, [(23, 7), (17, 5)]),
    "eager-full-strict": ({"variant": "full"}, [(23, 7), (17, 5)]),
    "eager-batch-strict": ({"variant": "batch", "batch_p": 3}, [(17, 9), (11, 6)]),
    "eager-elim-paper": ({"variant": "elim", "halting": "paper"}, [(19, 6), (17, 5)]),
    "eager-full-paper": ({"variant": "full", "halting": "paper"}, [(19, 6), (17, 5)]),
    "eager-dgk-network": (
        {"compare_method": "dgk", "sort_method": "network"},
        [(89, 7), (52, 5)],
    ),
    "literal-elim": ({"engine": "literal", "variant": "elim"}, [(65, 8), (67, 8)]),
    "literal-full": ({"engine": "literal", "variant": "full"}, [(65, 8), (67, 8)]),
    "eager-capped": ({"variant": "elim", "max_depth": 3}, [(9, 3), (9, 3)]),
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
