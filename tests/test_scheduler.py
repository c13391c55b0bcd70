"""The serving path's threads: TopKServer's job pool, watch threads,
shutdown, and ThreadedTransport under concurrent exchanges."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.exceptions import JobCancelled
from repro.net import messages
from repro.protocols.base import make_parties
from repro.server import JobStatus, TopKServer
from repro.server import topk_server

_SERVING_THREADS = ("topk-scheduler-", "topk-watch-", "s2-transport")


def _deployment():
    rng = SecureRandom(123)
    rows = [[rng.randint_below(40) for _ in range(3)] for _ in range(10)]
    scheme = SecTopK(SystemParams.tiny(), seed=55)
    return scheme, scheme.encrypt(rows)


def _wait_for(predicate, deadline_s: float = 60.0) -> bool:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestWatchesDoNotStarveQueries:
    @pytest.mark.parametrize(
        "options,watches",
        [({"scheduler_workers": 1}, 1), ({}, 8)],
        ids=["1-worker-1-watch", "default-8-workers-8-watches"],
    )
    def test_query_answers_while_watches_fill_the_pool_size(self, options, watches):
        scheme, relation = _deployment()
        with TopKServer(scheme, relation, **options) as server:
            live = [
                server.watch(scheme.token([i % 3, (i + 1) % 3], k=2))
                for i in range(watches)
            ]
            assert _wait_for(lambda: all(w.evaluations >= 1 for w in live))
            job = server.submit(scheme.token([0, 1, 2], k=2))
            try:
                result = job.result(timeout=30)
            except TimeoutError:
                pytest.fail(
                    f"query starved behind {watches} live watches: "
                    f"{server.stats['scheduler']}"
                )
            assert len(result.items) == 2
            assert all(w.status == JobStatus.RUNNING for w in live)


class TestClose:
    def test_close_leaves_no_serving_thread_and_settles_stats(self):
        before = set(threading.enumerate())
        scheme, relation = _deployment()
        server = TopKServer(
            scheme, relation, transport="threaded", rtt_ms=20.0, scheduler_workers=1
        )
        watches = [server.watch(scheme.token([0, 1], k=2)) for _ in range(2)]
        assert _wait_for(lambda: all(w.evaluations >= 1 for w in watches))
        config = QueryConfig(cache=False)
        jobs = [server.submit(scheme.token([0, 1, 2], k=2), config) for _ in range(3)]
        # One pooled job and both watches run; two jobs wait.
        assert _wait_for(lambda: server.stats["scheduler"]["running"] == 3)
        assert server.stats["scheduler"] == {
            "queue_depth": 2,
            "jobs_active": 5,
            "running": 3,
        }
        server.close()
        survivors = [
            t
            for t in threading.enumerate()
            if t not in before and t.name.startswith(_SERVING_THREADS)
        ]
        assert survivors == []
        assert all(job.done() for job in jobs + watches)
        for queued in jobs[1:]:
            assert queued.status == JobStatus.CANCELLED
            with pytest.raises(JobCancelled):
                queued.result(timeout=0)
        stats = server.stats
        assert stats["scheduler"] == {"queue_depth": 0, "jobs_active": 0, "running": 0}
        assert stats["watches_active"] == 0
        with pytest.raises(RuntimeError):
            server.submit(scheme.token([0], k=1))
        with pytest.raises(RuntimeError):
            server.watch(scheme.token([0], k=1))

    def test_close_races_a_submitter_blocked_on_backpressure(self, monkeypatch):
        monkeypatch.setattr(TopKServer, "MAX_PENDING", 1)
        scheme, relation = _deployment()
        server = TopKServer(scheme, relation, rtt_ms=20.0, scheduler_workers=1)
        config = QueryConfig(cache=False)
        # One running, one waiting: the admission semaphore is exhausted.
        held = [server.submit(scheme.token([0, 1, 2], k=2), config) for _ in range(2)]
        outcome: list = []

        def submitter():
            try:
                outcome.append(server.submit(scheme.token([1, 2], k=2), config))
            except RuntimeError as exc:
                outcome.append(exc)

        blocked = threading.Thread(target=submitter)
        blocked.start()
        time.sleep(0.1)
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=60)
        blocked.join(timeout=60)
        assert not closer.is_alive(), "close() hung behind a blocked submitter"
        assert not blocked.is_alive(), "the blocked submitter never returned"
        assert all(job.done() for job in held)
        (got,) = outcome
        if not isinstance(got, RuntimeError):
            assert got.done(), "an admitted job must settle before close() returns"


class TestExecuteManyWindow:
    def test_window_is_capped_at_the_pool_size(self, monkeypatch):
        lock = threading.Lock()
        running = [0]
        peak = [0]
        real = topk_server.run_salted_query

        def spy(*args, **kwargs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            try:
                return real(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(topk_server, "run_salted_query", spy)
        scheme, relation = _deployment()
        attrs = [[0], [1], [2], [0, 1], [1, 2], [0, 2]]
        with TopKServer(scheme, relation, rtt_ms=10.0, scheduler_workers=2) as server:
            results = server.execute_many(
                [(scheme.token(a, k=2), None) for a in attrs], concurrency=4
            )
        assert [len(r.items) for r in results] == [2] * len(attrs)
        assert peak[0] == 2


class TestThreadedTransportConcurrency:
    def test_concurrent_exchanges_get_the_sequential_replies(self):
        """Threads sharing one ThreadedTransport — more of them than
        cores, switching often, their first rounds racing the key
        registration — get exactly the replies a sequential run gets:
        the two codec registries never see rounds interleave."""
        scheme = SecTopK(SystemParams.tiny(), seed=3)
        pk = scheme.public_key
        rng = SecureRandom(9)
        batches = {
            name: [[rng.randint_below(3) for _ in range(4)] for _ in range(3)]
            for name in "abcd"
        }
        expected = {
            name: [[int(v == 0) for v in values] for values in values_list]
            for name, values_list in batches.items()
        }

        def run(ctx, values_list):
            replies = []
            for values in values_list:
                cts = [pk.encrypt(v) for v in values]
                (reply,) = ctx.transport.exchange(
                    [messages.ZeroTestBatch(protocol="probe", cts=cts)]
                )
                replies.append(ctx.dj.decrypt_batch(reply, scheme.keypair))
            return replies

        ctx = make_parties(scheme.keypair, transport="threaded")
        try:
            assert {name: run(ctx, vs) for name, vs in batches.items()} == expected
        finally:
            ctx.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(10):  # a fresh transport: a fresh first round
                ctx = make_parties(scheme.keypair, transport="threaded")
                start = threading.Barrier(len(batches))
                concurrent: dict = {}
                errors: list = []

                def worker(name):
                    try:
                        start.wait(timeout=60)
                        concurrent[name] = run(ctx, batches[name])
                    except Exception as exc:  # surfaced by the assert below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=worker, args=(name,)) for name in batches
                ]
                try:
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                finally:
                    ctx.close()
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert concurrent == expected
        finally:
            sys.setswitchinterval(interval)
