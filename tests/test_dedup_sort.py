"""``DedupSort``: the eager engine's check depth — duplicate elimination
(or burial) and the affine sort by worst score — in one S2 round.

* S2 keeps every carried candidate and every new entry whose count of
  earlier copies is 0 — one member per duplicate group, the groups
  ``DedupBatch``'s matrix finds — orders the survivors by their one-way
  keys (descending) and appends new junk, whose worst unblinds to the
  sentinel.
* The ranks S2 receives name only which candidates are new.

That the keys' per-item noise hides S1's scale ``r`` from S2 is pinned
with the other sort-key properties in ``test_leakage_gaps.py``.
"""

import pytest

from repro.core.leakage import audit
from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.exceptions import ProtocolError
from repro.net.dispatch import S2Dispatcher
from repro.net.messages import DedupSort
from repro.protocols.sec_dedup import _prepare, sec_dedup
from repro.protocols.sec_dup_elim import sec_dup_elim
from repro.structures.ehl_plus import EhlPlusFactory
from repro.structures.items import ScoredItem

VARIANTS = {"elim": sec_dup_elim, "full": sec_dedup}


@pytest.fixture()
def factory(ctx):
    return EhlPlusFactory(ctx.public_key, b"k" * 32, n_hashes=3, rng=ctx.rng)


def _items(ctx, factory, entries):
    """Eager-shaped candidates: ``(object, worst)`` pairs, with two
    Paillier seen bits and the object's record."""
    return [
        ScoredItem(
            ehl=factory.encode(obj),
            worst=ctx.encrypt(worst),
            seen_bits=ctx.public_key.encrypt_batch([1, 0], ctx.rng),
            record=ctx.encrypt(ord(obj)),
        )
        for obj, worst in entries
    ]


def _counts(ctx, entries, carried=0):
    """``Enc(c)`` per entry past the first ``carried``: ``c`` counts the
    entries before it with the same object, as its absorb would have."""
    objects = [obj for obj, _ in entries]
    return ctx.public_key.encrypt_batch(
        [objects[:i].count(objects[i]) for i in range(carried, len(objects))], ctx.rng
    )


def _opened(items, keypair):
    """``(worst, record)`` per returned item, in output order."""
    sk = keypair.secret_key
    return [(sk.decrypt_signed(i.worst), sk.decrypt(i.record)) for i in items]


#: Objects a and b twice each (same worst for both copies).
DUPLICATED = [("a", 50), ("b", 10), ("a", 50), ("c", 30), ("d", -4), ("b", 10)]


class TestDedupSort:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_survivors_sorted_then_new_junk(
        self, ctx, factory, keypair, own_keypair, variant
    ):
        result = VARIANTS[variant](
            ctx,
            _items(ctx, factory, DUPLICATED),
            own_keypair,
            counts=_counts(ctx, DUPLICATED),
        )
        assert ctx.channel.stats.rounds == 1
        opened = _opened(result, keypair)
        assert opened[:4] == [(50, ord("a")), (30, ord("c")), (10, ord("b")), (-4, ord("d"))]
        if variant == "elim":
            assert len(result) == 4
            return
        # Two junk items, last, their worst pinned to the sentinel and
        # every seen bit set; their identities match no survivor.
        assert len(result) == 6
        sk = keypair.secret_key
        assert [w for w, _ in opened[4:]] == [-ctx.encoder.sentinel] * 2
        assert all(sk.decrypt(bit) == 1 for item in result[4:] for bit in item.seen_bits)
        for junk in result[4:]:
            for survivor in result[:4]:
                assert sk.decrypt(junk.ehl.minus(survivor.ehl, ctx.rng)) != 0

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_ties_keep_every_item(self, ctx, factory, keypair, own_keypair, variant):
        entries = [("p", 7), ("q", 7), ("r", 3), ("s", 7), ("p", 7)]
        result = VARIANTS[variant](
            ctx, _items(ctx, factory, entries), own_keypair, counts=_counts(ctx, entries)
        )
        opened = _opened(result, keypair)
        assert [w for w, _ in opened[:4]] == [7, 7, 7, 3]
        assert {r for _, r in opened[:3]} == {ord("p"), ord("q"), ord("s")}
        assert len(result) == (4 if variant == "elim" else 5)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_lowest_rank_copy_survives(self, ctx, factory, keypair, own_keypair, variant):
        """The carried (rank-0) copy wins over a new entry of its object."""
        entries = [("x", 333), ("y", 5), ("x", 111)]
        items = _items(ctx, factory, entries)
        result = VARIANTS[variant](
            ctx, items, own_keypair, counts=_counts(ctx, entries, carried=1)
        )
        assert _opened(result, keypair)[:2] == [(333, ord("x")), (5, ord("y"))]
        assert len(result) == (2 if variant == "elim" else 3)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_short_lists_cost_no_round(self, ctx, factory, own_keypair, variant):
        single = _items(ctx, factory, [("x", 1)])
        assert VARIANTS[variant](ctx, [], own_keypair, counts=[]) == []
        counts = _counts(ctx, [("x", 1)])
        assert VARIANTS[variant](ctx, single, own_keypair, counts=counts) == single
        assert ctx.channel.stats.rounds == 0

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_declared_events(self, ctx, factory, own_keypair, variant):
        """One ``dedup_count`` per new entry, the group sizes the counts
        imply, and the sort half's events under ``EncSort``; no pair
        matrix, and nothing links a group to a key.  The bytes go to the
        dedup protocol."""
        protocol = {"elim": "SecDupElim", "full": "SecDedup"}[variant]
        VARIANTS[variant](
            ctx,
            _items(ctx, factory, DUPLICATED),
            own_keypair,
            counts=_counts(ctx, DUPLICATED),
        )
        log = ctx.leakage
        assert [e.payload for e in log.by_kind("dedup_groups")] == [[1, 1, 2, 2]]
        counts = log.by_kind("dedup_count")
        assert len(counts) == 6 and {(e.observer, e.protocol) for e in counts} == {
            ("S2", protocol)
        }
        assert not log.by_kind("dedup_matrix")
        keys = log.by_kind("sort_key_blinded")
        assert len(keys) == 4 and {e.protocol for e in keys} == {"EncSort"}
        assert [(e.protocol, e.payload) for e in log.by_kind("sort_size")] == [
            ("EncSort", 4)
        ]
        uniques = sorted((e.observer, e.payload) for e in log.by_kind("unique_count"))
        assert uniques == ([("S1", 4), ("S2", 4)] if variant == "elim" else [])
        assert audit(log).clean
        assert set(ctx.channel.stats.per_protocol_bytes) == {protocol}

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_group_sizes_match_the_matrix(self, ctx, factory, own_keypair, variant):
        """Carried ``a, b`` and new ``a, a, c, b``: the ``dedup_groups``
        the counts imply are the ones ``DedupBatch``'s matrix finds."""
        entries = [("a", 9), ("b", 8), ("a", 9), ("a", 9), ("c", 4), ("b", 8)]
        counts = _counts(ctx, entries, carried=2)
        VARIANTS[variant](ctx, _items(ctx, factory, entries), own_keypair, counts=counts)
        VARIANTS[variant](ctx, _items(ctx, factory, entries), own_keypair, [0, 0, 1, 2, 3, 4])
        groups = [e.payload for e in ctx.leakage.by_kind("dedup_groups")]
        assert groups == [[1, 2, 3], [1, 2, 3]]

    @pytest.mark.parametrize(
        "field, reshape",
        [
            ("counts", lambda v: v[:-1]),
            ("keys", lambda v: v[:-1]),
            ("ranks", lambda v: v + v),
            ("ranks", lambda v: [-1] + v[1:]),
            ("companions", lambda v: v[:-1]),
        ],
        ids=["counts", "keys", "ranks", "negative-rank", "companions"],
    )
    def test_wrong_shape_is_a_protocol_error(
        self, ctx, factory, own_keypair, field, reshape
    ):
        items = _items(ctx, factory, DUPLICATED[:3])
        counts = _counts(ctx, DUPLICATED[:3])
        _, fields = _prepare(ctx, items, [1, 2, 3], own_keypair, None, counts)
        fields[field] = reshape(fields[field])
        with pytest.raises(ProtocolError, match="malformed dedup batch"):
            ctx.call(
                DedupSort(
                    protocol="SecDupElim",
                    own_public=own_keypair.public_key,
                    sentinel=-ctx.encoder.sentinel,
                    eliminate=True,
                    **fields,
                )
            )


#: 12 rows over 3 lists with overlapping heads: several check depths,
#: duplicates at each, and more than one candidate carried between them.
ROWS = [[(97 * i + 31 * a * a + 7) % 64 + 4 * (12 - i) for a in range(3)] for i in range(12)]


def _spy_dedup_rounds(monkeypatch) -> list:
    """``(message, reply)`` of every deduplication S2 serves."""
    rounds = []
    real = S2Dispatcher.dispatch

    def dispatch(self, msg):
        reply = real(self, msg)
        if hasattr(msg, "ranks"):
            rounds.append((msg, reply))
        return reply

    monkeypatch.setattr(S2Dispatcher, "dispatch", dispatch)
    return rounds


class TestEngineRanks:
    @pytest.mark.parametrize("variant", ["elim", "full", "batch"])
    def test_ranks_carry_no_order_among_carried(self, monkeypatch, variant):
        """A candidate carried from the last check depth is rank 0,
        whatever its place in that depth's sorted output; this window's
        entries are ``1, 2, …``."""
        scheme = SecTopK(SystemParams.tiny(), seed=5)
        relation = scheme.encrypt(ROWS)
        rounds = _spy_dedup_rounds(monkeypatch)
        scheme.query(
            relation,
            scheme.token([0, 1, 2], k=2),
            QueryConfig(variant=variant, batch_p=2),
        )
        assert len(rounds) >= 3
        carried = [0] + [len(items_out) for _, (items_out, _) in rounds[:-1]]
        assert max(carried) > 1
        # The carried candidates are the lowest ranks, all one value ...
        for (msg, _), head in zip(rounds, carried):
            assert len(set(sorted(msg.ranks)[:head])) <= 1
        # ... 0, and the window's entries count on from 1.
        for (msg, _), head in zip(rounds, carried):
            fresh = len(msg.ranks) - head
            assert sorted(msg.ranks) == [0] * head + list(range(1, fresh + 1))

