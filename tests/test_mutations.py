"""Mutable encrypted relations + continuous top-k.

Locks down the mutation layer end to end (that answers under racing
mutations are right is ``tests/test_differential.py``'s stress leg):

* **Transcript equivalence** — after any interleaving of
  insert/update/delete, a query over the incrementally maintained
  relation has the transcript of the same query over a relation rebuilt
  from scratch at the final state (``differential.run_case``'s
  reference path), on every engine and over a daemon.
* **MutableRelation semantics** — splice positions, touched-prefix
  lengths, copy-on-write suffix sharing, ``mutation_pattern`` leakage,
  version monotonicity, error paths.
* **Invalidation** — every mutation path drops the predecessor's
  result-cache entries and never contacts a remote daemon (S2 holds the
  key, registered once, whatever relation ids the run mints); pinned
  consumers (``expect_version`` jobs) fail with
  :class:`~repro.exceptions.StaleRelationError` instead of silently
  answering over stale data.
* **One runner** — after a mutation every execution path (``submit``,
  ``query``, thread and process ``execute_many``) answers for the
  successor, cached or not; a mutation landing *during* a process batch
  leaves each job answering — and caching — for the version it
  snapshotted.
* **Prefix cache serving** — a ``k' < k`` repeat of a cached query is
  served as the first ``k'`` items with zero S2 rounds and depth 0, and
  the right entry serves it.
* **Continuous top-k** — ``watch()`` emits
  :class:`~repro.events.TopKChanged` exactly when the revealed winning
  set changes (plaintext oracle), windowed watches follow the insert
  log, and ``close()`` drains live watches.
"""

from __future__ import annotations

import os
import pickle
import threading
import time

import pytest
from differential import make_case, run_case
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.events import TopKChanged
from repro.exceptions import EncodingRangeError, MutationError, StaleRelationError
from repro.server import MutableRelation, TopKServer

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)

SEED = 424242


def _true_topk_ids(rows_by_id: dict, attrs, k) -> set:
    """The unique top-k id set (callers keep aggregates distinct)."""
    exact = {oid: sum(row[a] for a in attrs) for oid, row in rows_by_id.items()}
    ranked = sorted(exact, key=lambda o: (-exact[o], o))
    return set(ranked[:k])


# ---------------------------------------------------------------------------
# Mutated == rebuilt, bit for bit.
# ---------------------------------------------------------------------------

_row = st.lists(st.integers(0, 30), min_size=2, max_size=2)


@st.composite
def mutation_cases(draw):
    return make_case(
        draw(st.lists(_row, min_size=3, max_size=6)),
        [([0, 1], draw(st.integers(1, 2)), None)],
        QueryConfig(engine=draw(st.sampled_from(["eager", "literal"]))),
        history=draw(st.lists(st.one_of(
            st.tuples(st.just("insert"), _row),
            st.tuples(st.sampled_from(["update", "delete"]), st.integers(0, 97)),
        ), min_size=1, max_size=5)),
    )


class TestMutatedEqualsRebuilt:
    """Any interleaving of mutations produces a relation whose query
    transcripts equal a rebuild's from scratch at the final state."""

    @given(case=mutation_cases())
    @settings(max_examples=10, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_bit_parity(self, case):
        run_case(case)

    def test_socket_transport_mutation_leg(self, tcp_daemon):
        rows = [[(5 * i + j) % 17 for j in range(2)] for i in range(5)]
        history = [("insert", [16, 3]), ("update", 1), ("delete", 0)]
        run_case(make_case(rows, [([0, 1], 2, None)], history=history, transport=tcp_daemon))


# ---------------------------------------------------------------------------
# MutableRelation semantics.
# ---------------------------------------------------------------------------


class TestMutableRelation:
    def _mutable(self, rows=None, seed=SEED):
        scheme = SecTopK(SystemParams.tiny(), seed=seed)
        rows = rows if rows is not None else [[5, 2], [3, 9], [8, 1], [6, 6]]
        return scheme, MutableRelation(scheme, rows)

    def test_versions_are_monotonic_and_rekey_the_relation(self):
        _, mutable = self._mutable()
        ids = {mutable.relation.relation_id()}
        res = mutable.insert([9, 9])
        assert res.version == mutable.version == 1
        ids.add(mutable.relation.relation_id())
        res = mutable.update(res.object_id, [1, 1])
        assert res.version == 2
        ids.add(mutable.relation.relation_id())
        res = mutable.delete(res.object_id)
        assert res.version == 3
        ids.add(mutable.relation.relation_id())
        assert len(ids) == 4, "every version must key a distinct relation id"

    def test_object_ids_are_never_reused(self):
        _, mutable = self._mutable()
        first = mutable.insert([9, 9]).object_id
        mutable.delete(first)
        second = mutable.insert([9, 9]).object_id
        assert second > first

    def test_touched_prefixes(self):
        """Insert touches ``pos + 1`` entries, delete ``pos``, update
        ``max(pos_old, pos_new + 1)`` — per sorted list."""
        scheme, mutable = self._mutable(rows=[[10, 0], [5, 5], [0, 10]])
        # New top of list 0 (pos 0 -> prefix 1); bottom of list 1
        # (pos 3 -> prefix 4... list only has 3 entries + itself).
        res = mutable.insert([11, 1])
        by_name = dict(res.touched)
        names = scheme.attribute_list_names()
        assert by_name[names[0]] == 1  # lands on top: prefix is itself
        assert by_name[names[1]] == 3  # lands at index 2 of 4
        assert all(
            1 <= p <= mutable.n_objects for p in by_name.values()
        )
        # Deleting the top of list 0 touches nothing before it.
        res = mutable.delete(0)
        by_name = dict(res.touched)
        assert by_name[names[0]] == 1  # was at index 1 after the insert
        # The untouched suffix is shared by reference with the
        # predecessor (copy-on-write, not copy): [12, 0] lands on top of
        # list 0, so everything below it is the predecessor's entries.
        pred = mutable.relation
        mutable.insert([12, 0])
        succ = mutable.relation
        name = names[0]
        assert succ.lists[name][1:] == pred.lists[name]
        assert succ.lists[name][-1] is pred.lists[name][-1]

    def test_mutation_pattern_leakage_event(self):
        _, mutable = self._mutable()
        res = mutable.insert([7, 7])
        (event,) = res.leakage_events
        assert (event.observer, event.protocol, event.kind) == (
            "S1",
            "SecMutate",
            "mutation_pattern",
        )
        assert event.payload == ("insert", res.touched)

    def test_snapshot_and_log_replay(self):
        _, mutable = self._mutable()
        results = [mutable.insert([7, 7]), mutable.update(0, [1, 1]), mutable.delete(2)]
        rows, oids = mutable.snapshot()
        assert oids == [0, 1, 3, results[0].object_id]
        assert rows[0] == [1, 1] and rows[-1] == [7, 7]
        assert [r.op for r in results] == ["insert", "update", "delete"]
        assert [r.object_id for r in results[1:]] == [0, 2]
        assert [r.version for r in results] == [1, 2, 3] and mutable.version == 3

    def test_state_does_not_grow_with_mutation_history(self):
        """A long-lived mutable keeps only the live rows: after 100
        insert/delete cycles of one row its pickle is the size it had
        after the first cycle (the ciphertexts' own widths aside)."""
        _, mutable = self._mutable()
        sizes = []
        for _ in range(100):
            mutable.delete(mutable.insert([7, 7]).object_id)
            sizes.append(len(pickle.dumps(mutable)))
        assert mutable.version == 200
        assert abs(sizes[-1] - sizes[0]) <= 0.02 * sizes[0]

    def test_window_rows_follow_the_insert_log(self):
        _, mutable = self._mutable(rows=[[1, 1], [2, 2]])
        a = mutable.insert([3, 3]).object_id
        b = mutable.insert([4, 4]).object_id
        rows, oids = mutable.window_rows(2)
        assert oids == [a, b]
        mutable.delete(b)
        rows, oids = mutable.window_rows(2)
        assert oids == [1, a], "deleted rows drop out of the window"
        with pytest.raises(MutationError):
            mutable.window_rows(0)

    def test_error_paths(self):
        scheme, mutable = self._mutable()
        with pytest.raises(MutationError, match="unknown object id"):
            mutable.update(99, [1, 1])
        with pytest.raises(MutationError, match="unknown object id"):
            mutable.delete(99)
        with pytest.raises(MutationError, match="attributes"):
            mutable.insert([1, 2, 3])
        with pytest.raises(EncodingRangeError):
            mutable.insert([1, 1 << 40])
        for oid in (0, 1, 2):
            mutable.delete(oid)
        with pytest.raises(MutationError, match="last object"):
            mutable.delete(3)
        # Failed mutations never bump the version.
        assert mutable.version == 3


# ---------------------------------------------------------------------------
# The server-side invalidation cascade.
# ---------------------------------------------------------------------------


def _deployment(rows=None, seed=SEED, **server_kwargs):
    scheme = SecTopK(SystemParams.tiny(), seed=seed)
    rows = rows if rows is not None else [[5, 2], [3, 9], [8, 1], [6, 6]]
    mutable = MutableRelation(scheme, rows)
    server = TopKServer(scheme, mutable, **server_kwargs)
    return scheme, mutable, server


class TestServerMutations:
    def test_results_track_mutations(self):
        # Aggregates 7/12/9/13 and 18 for the insert: no top-2 set below
        # hangs on a tie, so rng-consumption changes cannot re-roll it.
        scheme, _, server = _deployment(rows=[[5, 2], [3, 9], [8, 1], [6, 7]])
        with server:
            token = scheme.token([0, 1], k=2)
            assert {o for o, _ in scheme.reveal(server.query(token))} == {1, 3}
            oid = server.insert([9, 9]).object_id
            assert {o for o, _ in scheme.reveal(server.query(token))} == {oid, 3}
            server.update(oid, [0, 0])
            assert {o for o, _ in scheme.reveal(server.query(token))} == {1, 3}
            server.delete(3)
            assert {o for o, _ in scheme.reveal(server.query(token))} == {1, 2}
            stats = server.stats
            assert stats["version"] == 3 and stats["mutations"] == 3

    def test_immutable_server_rejects_mutations(self):
        scheme = SecTopK(SystemParams.tiny(), seed=SEED)
        relation = scheme.encrypt([[5, 2], [3, 9]])
        with TopKServer(scheme, relation) as server:
            with pytest.raises(MutationError, match="immutable"):
                server.insert([1, 1])

    def test_every_mutation_path_invalidates_the_cache(self):
        scheme, _, server = _deployment()
        with server:
            token = scheme.token([0, 1], k=2)
            mutations = [
                lambda: server.insert([9, 9]),
                lambda: server.update(0, [2, 2]),
                lambda: server.delete(1),
            ]
            for mutate in mutations:
                server.query(token)  # prime (or legitimately repeat)
                assert server.query(token).cache_hit
                mutate()
                after = server.query(token)
                assert not after.cache_hit, "mutation must drop the cache"
            assert server.stats["cache"].invalidations >= len(mutations)

    def test_mutation_invalidates_the_slice_store(self):
        scheme, mutable, server = _deployment(
            rows=[[(3 * i + j) % 19 for j in range(2)] for i in range(8)]
        )
        with server:
            token = scheme.token([0, 1], k=2)
            before = server.query(token, QueryConfig(shards=3))
            assert before.shard_stats[-1].depth_hi == 8
            inserted = server.insert([18, 18]).object_id
            # Slices are cut from the served relation per query — there
            # is no slice store — so a sharded query after a mutation
            # answers for the successor.
            after = server.query(token, QueryConfig(shards=3))
            assert not after.cache_hit
            assert after.shard_stats[-1].depth_hi == 9
            assert scheme.reveal(after)[0] == (inserted, 36)

    def test_expect_version_pins_a_job(self):
        scheme, _, server = _deployment()
        with server:
            token = scheme.token([0, 1], k=2)
            server.submit(token, expect_version=0).result()
            server.insert([9, 9])
            with pytest.raises(StaleRelationError):
                server.submit(token, expect_version=0).result()
            server.submit(token, expect_version=1).result()

# ---------------------------------------------------------------------------
# One runner: every execution path sees the same relation snapshot.
# ---------------------------------------------------------------------------

_PATHS = {
    "submit": lambda server, requests: [
        server.submit(token, config).result() for token, config in requests
    ],
    "query": lambda server, requests: [
        server.query(token, config) for token, config in requests
    ],
    "thread": lambda server, requests: server.execute_many(requests, concurrency=2),
    "process": lambda server, requests: server.execute_many(
        requests, concurrency=2, mode="process"
    ),
}


class TestOneRunner:
    ROWS = [[(7 * i + 3 * a) % 40 for a in range(3)] for i in range(12)]
    ATTRS = ([0, 1, 2], [0, 1], [1, 2], [0, 2])
    DOMINATING = [1000, 1000, 1000]  # becomes object 12, wins every query

    def _oracle(self, rows) -> list[set]:
        from repro.nra import SortedLists, nra_topk

        return [
            {o for o, _ in nra_topk(SortedLists(rows, attrs), 2).topk}
            for attrs in self.ATTRS
        ]

    def _setup(self):
        scheme, _, server = _deployment(rows=self.ROWS)
        tokens = [scheme.token(attrs, k=2) for attrs in self.ATTRS]

        def ids(results) -> list[set]:
            return [{o for o, _ in scheme.reveal(r)} for r in results]

        return scheme, server, tokens, ids

    @pytest.mark.parametrize("path", sorted(_PATHS))
    def test_every_path_answers_for_the_successor(self, path):
        run = _PATHS[path]
        _, server, tokens, ids = self._setup()
        before = self._oracle(self.ROWS)
        after = self._oracle(self.ROWS + [self.DOMINATING])
        with server:
            assert ids(run(server, [(t, None) for t in tokens])) == before
            server.insert(self.DOMINATING)
            uncached = run(server, [(t, QueryConfig(cache=False)) for t in tokens])
            assert ids(uncached) == after
            cached = run(server, [(t, None) for t in tokens])
            assert ids(cached) == after
            assert not any(r.cache_hit for r in cached), (
                "the mutation dropped the predecessor's entries"
            )
            # What that run stored is the successor's answer.
            repeats = [server.submit(t).result() for t in tokens]
            assert all(r.cache_hit for r in repeats)
            assert ids(repeats) == after

    def test_mutation_during_a_process_batch(self, monkeypatch):
        """The mutation lands after the first job snapshotted the
        relation and before its body reaches a worker: that job answers
        (and caches) for the predecessor, later jobs for the successor,
        and nothing of the predecessor sits under the successor's id."""
        scheme, server, tokens, ids = self._setup()
        before = self._oracle(self.ROWS)
        after = self._oracle(self.ROWS + [self.DOMINATING])
        pool_submit = server._worker_pool.submit
        snapshots: dict[str, int] = {}  # token fingerprint -> version handed off
        first = threading.Lock()

        def submit_after_insert(relation, workers, salt, token, *args):
            if first.acquire(blocking=False):  # exactly one hand-off inserts
                server.insert(self.DOMINATING)
            snapshots[token.fingerprint()] = relation.version
            return pool_submit(relation, workers, salt, token, *args)

        monkeypatch.setattr(server._worker_pool, "submit", submit_after_insert)
        with server:
            results = server.execute_many(
                [(t, None) for t in tokens], concurrency=2, mode="process"
            )
            versions = [snapshots[t.fingerprint()] for t in tokens]
            assert 0 in versions and versions[-1] == 1
            for got, version, old, new in zip(ids(results), versions, before, after):
                assert got == (old, new)[version], (
                    "a job answers for the version it snapshotted"
                )
            successor = server.relation.relation_id()
            for key, stored in server._cache._entries.items():
                if key[0] == successor:
                    assert 12 in {o for o, _ in scheme.reveal(stored)}
            assert ids([server.submit(t).result() for t in tokens]) == after


# ---------------------------------------------------------------------------
# Prefix serving: k' < k repeats from the cache.
# ---------------------------------------------------------------------------


class TestPrefixCacheServing:
    ROWS = [[(5 * i + 2 * j) % 21 for j in range(2)] for i in range(7)]

    def test_smaller_k_served_from_cached_result(self):
        run_case(make_case(self.ROWS, [([0, 1], 3, None)], cache="prefix"))

    def test_sliced_hits_do_not_inherit_the_deeper_runs_depth(self):
        """A prefix-served result reports halting_depth 0 — the k' query
        never ran; exact repeats keep their genuine depth."""
        for cache in ("prefix", "exact"):
            run_case(make_case(self.ROWS, [([0, 1], 3, None)], cache=cache))

    def test_larger_k_misses(self):
        scheme, _, server = _deployment()
        with server:
            server.query(scheme.token([0, 1], k=2))
            bigger = server.query(scheme.token([0, 1], k=3))
            assert not bigger.cache_hit
            assert server.stats["cache"].prefix_hits == 0

    def test_exact_hit_wins_over_prefix_serving(self):
        scheme, _, server = _deployment(
            rows=[[(5 * i + 2 * j) % 21 for j in range(2)] for i in range(7)]
        )
        with server:
            server.query(scheme.token([0, 1], k=2))  # miss, stored
            again = server.query(scheme.token([0, 1], k=2))
            assert again.cache_hit
            assert server.stats["cache"].prefix_hits == 0
            server.query(scheme.token([0, 1], k=4))  # miss, stored
            sliced = server.query(scheme.token([0, 1], k=3))
            assert sliced.cache_hit and len(sliced.items) == 3
            assert server.stats["cache"].prefix_hits == 1
            # k=2 has its own exact entry: served exactly, not sliced.
            exact = server.query(scheme.token([0, 1], k=2))
            assert exact.cache_hit and len(exact.items) == 2
            assert server.stats["cache"].prefix_hits == 1

    def test_prefix_hits_respect_config_and_relation(self):
        scheme, _, server = _deployment()
        with server:
            server.query(scheme.token([0, 1], k=3))
            other_engine = server.query(
                scheme.token([0, 1], k=2), QueryConfig(engine="literal")
            )
            assert not other_engine.cache_hit
            server.insert([9, 9])
            after = server.query(scheme.token([0, 1], k=2))
            assert not after.cache_hit


# ---------------------------------------------------------------------------
# Continuous top-k: watch jobs.
# ---------------------------------------------------------------------------


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestWatch:
    def test_stop_drains_the_mutations_before_it(self, monkeypatch):
        """An insert and a stop() made while an evaluation is in flight:
        the watch evaluates the insert's version once more, then ends."""
        scheme, mutable, server = _deployment()
        entered, gate = threading.Event(), threading.Event()
        real = server._evaluate_watch

        def gated(job, relation, version, sequence):
            entered.set()
            assert gate.wait(timeout=60.0)
            return real(job, relation, version, sequence)

        monkeypatch.setattr(server, "_evaluate_watch", gated)
        with server:
            job = server.watch(scheme.token([0, 1], k=2))
            assert entered.wait(timeout=60.0)
            version = server.insert([10, 10]).version
            job.stop()
            gate.set()
            summary = job.summary(timeout=60.0)
        assert (summary.evaluations, summary.last_version) == (2, version)

    def test_events_match_the_plaintext_oracle(self):
        """TopKChanged fires exactly when the winning set changes: the
        initial evaluation, a membership change, and never for a no-op
        update (same row content → bit-identical evaluation)."""
        rows = [[10, 10], [6, 5], [1, 2]]  # distinct aggregates: 20, 11, 3
        scheme, mutable, server = _deployment(rows=rows)
        mirror = {i: rows[i] for i in range(len(rows))}
        with server:
            token = scheme.token([0, 1], k=2)
            job = server.watch(token)
            assert _wait_for(lambda: job.evaluations >= 1)
            # 1) no-op update: version bumps, content identical.
            server.update(1, [6, 5])
            assert _wait_for(lambda: job.evaluations >= 2)
            # 2) membership change: a new dominant row.
            oid = server.insert([15, 15]).object_id
            mirror[oid] = [15, 15]
            assert _wait_for(lambda: job.evaluations >= 3)
            job.stop()
            summary = job.summary(timeout=60.0)
        assert summary.evaluations == 3
        assert summary.changes == 2, "the no-op update must not emit"
        changes = list(job.changes())
        assert [type(e) for e in changes] == [TopKChanged, TopKChanged]
        assert {o for o, _ in changes[0].top_k} == {0, 1}
        assert {o for o, _ in changes[1].top_k} == _true_topk_ids(
            mirror, [0, 1], 2
        )
        assert changes[1].version == 2
        assert summary.last_top_k == changes[1].top_k
        assert summary.last_version == 2

    def test_windowed_watch_follows_the_insert_log(self):
        scheme, mutable, server = _deployment(rows=[[1, 1], [2, 2]])
        with server:
            job = server.watch(scheme.token([0, 1], k=1), window=2)
            assert _wait_for(lambda: job.evaluations >= 1)
            a = server.insert([9, 9]).object_id
            assert _wait_for(lambda: job.evaluations >= 2)
            b = server.insert([3, 3]).object_id
            assert _wait_for(lambda: job.evaluations >= 3)
            job.stop()
            summary = job.summary(timeout=60.0)
        events = list(job.changes())
        # Window starts as the two seed rows, then slides over inserts:
        # {0:2, 1:4} -> {1:4, a:18} -> {a:18, b:6}; top-1 follows.
        assert [{o for o, _ in e.top_k} for e in events][:2] == [{1}, {a}]
        assert {o for o, _ in summary.last_top_k} == {a}
        assert summary.evaluations == 3

    def test_rejected_mutation_leaves_the_mutable_in_lockstep(self):
        """A mutation against a closed server must be rejected *before*
        touching the MutableRelation — a post-hoc check would leave it
        one committed version ahead of the served relation and caches."""
        scheme, mutable, server = _deployment()
        before = mutable.snapshot()
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.insert([9, 9])
        assert mutable.version == 0
        assert mutable.snapshot() == before
        assert server.relation is mutable.relation

    def test_windowed_watch_requires_a_mutable_relation(self):
        scheme = SecTopK(SystemParams.tiny(), seed=SEED)
        relation = scheme.encrypt([[5, 2], [3, 9]])
        with TopKServer(scheme, relation) as server:
            with pytest.raises(MutationError, match="mutable"):
                server.watch(scheme.token([0, 1], k=1), window=2)
            # Full-mode watches over an immutable relation are legal
            # (they evaluate once and then idle).
            job = server.watch(scheme.token([0, 1], k=1))
            assert _wait_for(lambda: job.evaluations >= 1)
            job.stop()
            assert job.summary(timeout=60.0).changes == 1

    def test_close_drains_live_watches(self):
        scheme, _, server = _deployment()
        job = server.watch(scheme.token([0, 1], k=1))
        assert _wait_for(lambda: job.evaluations >= 1)
        server.close()
        assert _wait_for(job.done, timeout=30.0), (
            "close() must wake and resolve a parked watch"
        )
        assert server.stats["watches_active"] == 0

    def test_stop_resolves_to_a_summary_and_cancel_cancels(self):
        scheme, _, server = _deployment()
        with server:
            job = server.watch(scheme.token([0, 1], k=1))
            assert _wait_for(lambda: job.evaluations >= 1)
            job.stop()
            summary = job.summary(timeout=60.0)
            assert summary.evaluations == 1 and summary.changes == 1
            assert job.status == "done"

            other = server.watch(scheme.token([1], k=1))
            assert _wait_for(lambda: other.evaluations >= 1)
            other.cancel()
            assert _wait_for(other.done, timeout=30.0)
            assert other.status == "cancelled"


# ---------------------------------------------------------------------------
# Window re-encryption randomness (content-derived streams).
# ---------------------------------------------------------------------------


def _score_bytes(relation):
    """Every list's score ciphertexts, in a comparable shape."""
    return {
        name: [item.score.to_bytes() for item in entries]
        for name, entries in relation.lists.items()
    }


class TestWindowEncryptionStreams:
    """Sliding-window re-encryption must never reuse Paillier
    randomness across *different* plaintext relations: a shared stream
    would let S1 divide aligned ciphertexts and brute-force the score
    delta.  Identical window content, by contrast, must replay the same
    stream (the declared dedup property of windowed watches)."""

    def test_identical_windows_reencrypt_identically(self):
        from repro.server.topk_server import _window_stream

        scheme = SecTopK(SystemParams.tiny(), seed=SEED)
        scheme.encrypt([[5, 2], [3, 9]])
        rows, oids = [[7, 1], [2, 8]], [4, 5]
        label = _window_stream(rows, oids)
        a = scheme.encrypt(rows, object_ids=oids, version=3, stream=label)
        b = scheme.encrypt(rows, object_ids=oids, version=3, stream=label)
        assert _score_bytes(a) == _score_bytes(b)

    def test_distinct_windows_share_no_randomness(self):
        from repro.server.topk_server import _window_stream

        scheme = SecTopK(SystemParams.tiny(), seed=SEED)
        base_rows = [[5, 2], [3, 9]]
        base = scheme.encrypt(base_rows)
        # Same plaintexts as the upload: any ciphertext equality could
        # only come from replaying the upload's "enc" stream.
        w = scheme.encrypt(
            base_rows,
            object_ids=[0, 1],
            stream=_window_stream(base_rows, [0, 1]),
        )
        base_scores = _score_bytes(base)
        w_scores = _score_bytes(w)
        for name, ciphertexts in w_scores.items():
            assert not set(ciphertexts) & set(base_scores[name])
        # Two windows differing in one row: positions holding *equal*
        # plaintexts must still carry independent randomness.
        rows2, oids2 = [[5, 2], [4, 9]], [0, 1]
        w2 = scheme.encrypt(
            rows2, object_ids=oids2, stream=_window_stream(rows2, oids2)
        )
        w2_scores = _score_bytes(w2)
        for name, ciphertexts in w2_scores.items():
            # First entry of each list encrypts the same score in both
            # windows (5 and 9 respectively) — bytes must differ.
            assert ciphertexts[0] != w_scores[name][0]


# ---------------------------------------------------------------------------
# Mutations against a daemon: S2 holds the key, not the relation.
# ---------------------------------------------------------------------------


def _assert_one_registration(service, scheme):
    """The daemon holds exactly this scheme's key, uploaded once, under
    the key-derived id, spilled to exactly one ``.reg`` file."""
    from repro.net.socket_transport import default_registration_id

    key_id = default_registration_id(scheme.keypair, scheme.dj)
    stats = service.stats()
    assert stats["registrations"] == stats["registration_uploads"] == 1
    with service._lock:
        assert list(service._registry) == [key_id]
    assert os.listdir(service.state_dir) == [f"{key_id}.reg"]


class TestDaemonMutation:
    @pytest.fixture()
    def daemon(self, tmp_path):
        from repro.net.socket_transport import disconnect_all
        from repro.server.s2_service import S2Service

        service = S2Service("tcp://127.0.0.1:0", state_dir=str(tmp_path))
        address = service.start()
        yield service, address
        disconnect_all()
        service.close()

    def test_one_key_registers_once_across_relations_mutations_and_windows(
        self, daemon
    ):
        """One scheme, two relations, mutations on both and a windowed
        watch: every relation id the run mints opens sessions under the
        one registration the first query uploaded."""
        service, address = daemon
        scheme = SecTopK(SystemParams.tiny(), seed=SEED)
        rows_a = {0: [5, 2], 1: [3, 9], 2: [8, 1], 3: [6, 7]}
        rows_b = {0: [1, 4], 1: [9, 2], 2: [2, 4]}
        mutable_a = MutableRelation(scheme, list(rows_a.values()))
        mutable_b = MutableRelation(scheme, list(rows_b.values()))
        token = scheme.token([0, 1], k=2)
        with TopKServer(scheme, mutable_a, transport=address) as server_a, \
                TopKServer(scheme, mutable_b, transport=address) as server_b:
            watch = server_a.watch(scheme.token([0, 1], k=1), window=2)
            assert _wait_for(lambda: watch.evaluations >= 1)
            for i, (server, rows) in enumerate(
                [(server_a, rows_a), (server_b, rows_b), (server_a, rows_a)]
            ):
                row = [20 + 3 * i, 11 + i]  # distinct aggregates: no ties
                rows[server.insert(row).object_id] = row
                for srv, plain in ((server_a, rows_a), (server_b, rows_b)):
                    revealed = scheme.reveal(srv.query(token))
                    assert {o for o, _ in revealed} == _true_topk_ids(
                        plain, [0, 1], 2
                    )
            assert _wait_for(lambda: watch.evaluations >= 3)
            watch.stop()
            watch.summary(timeout=120.0)
            _assert_one_registration(service, scheme)
        _assert_one_registration(service, scheme)

    def test_mutation_never_contacts_the_daemon(self, daemon, monkeypatch):
        """A mutation swaps a pointer and drops cache entries — it sends
        no frame and opens no connection, live daemon or dead."""
        from repro.net import socket_transport

        service, address = daemon
        scheme, mutable, server = _deployment(transport=address)
        with server:
            token = scheme.token([0, 1], k=2)
            server.query(token)  # the connection exists from here on
            touched = []

            def spy(name):
                real = getattr(socket_transport, name)

                def wrapper(*args, **kwargs):
                    touched.append(name)
                    return real(*args, **kwargs)

                monkeypatch.setattr(socket_transport, name, wrapper)

            spy("send_frame")
            spy("connect_socket")
            oid = server.insert([9, 9]).object_id
            server.update(oid, [9, 8])
            assert touched == []
            revealed = scheme.reveal(server.query(token))
            assert oid in {o for o, _ in revealed}
            assert "send_frame" in touched  # the spy does see queries
            socket_transport.disconnect_all()
            service.close()
            del touched[:]
            server.delete(oid)
            assert touched == [] and server.version == 3

    def test_windowed_watch_bounds_daemon_registrations(self, daemon):
        """Every windowed evaluation mints a fresh relation id; none of
        them reaches the daemon, so a long-lived churn workload holds
        the one key registration — while running and after it stops."""
        service, address = daemon
        scheme, mutable, server = _deployment(transport=address)
        with server:
            job = server.watch(scheme.token([0, 1], k=1), window=2)
            assert _wait_for(lambda: job.evaluations >= 1)
            for i in range(3):
                server.insert([5 + i, 6 + i])
                assert _wait_for(lambda: job.evaluations >= i + 2)
            _assert_one_registration(service, scheme)
            job.stop()
            job.summary(timeout=120.0)
            _assert_one_registration(service, scheme)

    def test_interleaved_churn_over_the_daemon(self, daemon):
        """The socket-smoke shape: mutations, queries and a watch
        interleaved against one daemon connection.  Each insert waits
        for the watch to evaluate the one before it: the watch evaluates
        only the newest version, so inserts made during one evaluation
        would share the next."""
        service, address = daemon
        scheme, mutable, server = _deployment(transport=address)
        with server:
            token = scheme.token([0, 1], k=2)
            watch = server.watch(token)
            assert _wait_for(lambda: watch.evaluations >= 1)
            for i in range(3):
                oid = server.insert([10 + i, 10 + i]).object_id
                revealed = scheme.reveal(server.query(token))
                assert oid in {o for o, _ in revealed}
                assert _wait_for(lambda i=i: watch.evaluations >= 2 + i)
            watch.stop()
            summary = watch.summary(timeout=120.0)
            assert summary.evaluations == 4
            _assert_one_registration(service, scheme)


class TestClientFacade:
    def test_client_mutation_and_watch_surface(self):
        scheme = SecTopK(SystemParams.tiny(), seed=SEED)
        mutable = MutableRelation(scheme, [[5, 2], [3, 9], [8, 1]])
        with repro.connect(scheme, mutable) as client:
            token = client.token([0, 1], k=2)
            assert client.version == 0
            oid = client.insert([9, 9]).object_id
            assert client.version == 1
            client.update(oid, [7, 7])
            client.delete(0)
            assert client.version == 3
            revealed = client.reveal(client.query(token))
            assert {o for o, _ in revealed} == {1, oid}
            job = client.watch(token)
            assert _wait_for(lambda: job.evaluations >= 1)
            job.stop()
            assert job.summary(timeout=60.0).changes == 1
        with pytest.raises(RuntimeError):
            client.insert([1, 1])
        with pytest.raises(RuntimeError):
            client.watch(token)
