"""The job API: ``repro.connect`` returns the serving ``TopKServer``.

* a submitted job has the transcript (results, rounds, bytes, ordered
  leakage, ``QueryStats``) of a sequential ``query``, in process and
  over a TCP daemon, and so does a process batch;
* cancellation at a round boundary and per-job timeouts resolve the
  job without wedging the server — subsequent jobs are served;
* the streaming event taxonomy arrives in order;
* ``QueryStats`` carries the uniform cost profile;
* a listener observes a job without changing its transcript;
* the curated ``repro.__all__`` leads with ``connect`` and the job types.
"""

from __future__ import annotations

import threading
import time

import pytest
from differential import make_case, run_case

import repro
from repro import JobCancelled, JobStatus, JobTimeout, QueryConfig
from repro.core.params import SystemParams
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.events import (
    CandidateFinalized,
    DepthAdvanced,
    JobFinished,
    JobQueued,
    JobStarted,
    RoundTrip,
)
from repro.exceptions import QueryError, TransportError
from repro.net.socket_transport import disconnect_all
from repro.server import S2Service, TopKServer

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)


def _fresh_deployment(seed: int = 55):
    rng = SecureRandom(123)
    rows = [[rng.randint_below(40) for _ in range(3)] for _ in range(10)]
    scheme = SecTopK(SystemParams.tiny(), seed=seed)
    return scheme, scheme.encrypt(rows), rows


def _oracle_topk(rows, attrs, k):
    from repro.nra import naive_topk

    return naive_topk(rows, attrs, k)


class TestSubmitExecuteParity:
    """submit == query, bit for bit."""

    @pytest.mark.parametrize("config", ["eager", "literal"])
    @pytest.mark.parametrize("transport", ["inprocess", "tcp"])
    def test_bit_identical(self, transport, config, request):
        if transport == "tcp":
            transport = request.getfixturevalue("tcp_daemon")
        _, _, rows = _fresh_deployment()
        run_case(make_case(rows, [([0, 1, 2], 2, None)], QueryConfig(engine=config),
                           transport=transport, execution="submit"))

    def test_submit_overlap_matches_execute_many(self):
        _, _, rows = _fresh_deployment()
        queries = [([0, 1], 2, None), ([1, 2], 2, None), ([0, 2], 2, None)]
        run_case(make_case(rows, queries, execution="submit"))


class TestEventStream:
    def test_event_taxonomy_and_ordering(self):
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation) as client:
            job = client.submit(client.token([0, 1], k=2))
            events = list(job.events())

        kinds = [type(e) for e in events]
        assert kinds[0] is JobQueued and events[0].job_id == job.job_id
        assert kinds[1] is JobStarted
        assert kinds[-1] is JobFinished and events[-1].status == JobStatus.DONE

        depths = [e.depth for e in events if isinstance(e, DepthAdvanced)]
        assert depths == sorted(depths) and len(set(depths)) == len(depths)
        assert depths, "no DepthAdvanced events emitted"

        rounds = [e.rounds for e in events if isinstance(e, RoundTrip)]
        assert rounds == sorted(rounds) and rounds[-1] >= len(rounds)

        finals = [e for e in events if isinstance(e, CandidateFinalized)]
        assert [e.rank for e in finals] == [1, 2]
        assert all(e.depth == depths[-1] for e in finals)
        # Finalization comes after the last depth and before the finish.
        last_depth_idx = max(
            i for i, e in enumerate(events) if isinstance(e, DepthAdvanced)
        )
        assert all(events.index(e) > last_depth_idx for e in finals)

        # Replays see the identical stream.
        assert list(job.events()) == events

    def test_listener_does_not_change_transcript(self, leakage_tuples):
        scheme_a, relation_a, _ = _fresh_deployment()
        with repro.connect(scheme_a, relation_a) as client:
            silent = client.submit(client.token([0, 1], k=2)).result()

        scheme_b, relation_b, _ = _fresh_deployment()
        with repro.connect(scheme_b, relation_b) as client:
            job = client.submit(client.token([0, 1], k=2))
            consumed = sum(1 for _ in job.events())
            watched = job.result()
        assert consumed > 0
        assert scheme_a.reveal(silent) == scheme_b.reveal(watched)
        assert silent.channel_stats.rounds == watched.channel_stats.rounds
        assert leakage_tuples(silent) == leakage_tuples(watched)


class TestCancellationAndTimeouts:
    def test_cancel_at_round_boundary_then_serve_next_job(self, slow_rounds):
        slow_rounds(20)
        scheme, relation, rows = _fresh_deployment()
        # 20 ms per round stretches the query well past the cancel.
        with repro.connect(scheme, relation) as client:
            job = client.submit(client.token([0, 1, 2], k=2))
            for event in job.events():
                if isinstance(event, RoundTrip):
                    assert job.cancel() is True
                    break
            with pytest.raises(JobCancelled):
                job.result(timeout=60)
            assert job.status == JobStatus.CANCELLED and job.done()
            assert job.cancel() is False  # too late — already terminal

            # The server (and its transports) survive the abort.
            after = client.query(client.token([0, 1], k=2))
            winners = {o for o, _ in client.reveal(after)}
            assert winners == {o for o, _ in _oracle_topk(rows, [0, 1], 2)}

    def test_cancel_while_queued_never_starts(self, slow_rounds):
        slow_rounds(20)
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation, scheduler_workers=1) as client:
            blocker = client.submit(client.token([0, 1, 2], k=2))
            queued = client.submit(client.token([0, 1], k=2))
            assert queued.cancel() is True
            with pytest.raises(JobCancelled):
                queued.result(timeout=60)
            assert not any(
                isinstance(e, JobStarted) for e in queued.events()
            ), "a cancelled-while-queued job must never start"
            blocker.result(timeout=120)  # the worker was never wedged

    def test_per_job_timeout(self, slow_rounds):
        slow_rounds(20)
        scheme, relation, rows = _fresh_deployment()
        with repro.connect(scheme, relation) as client:
            job = client.submit(client.token([0, 1, 2], k=2), timeout=0.1)
            with pytest.raises(JobTimeout):
                job.result(timeout=60)
            assert job.status == JobStatus.FAILED
            # Later jobs are unaffected.
            after = client.query(client.token([0, 2], k=2))
            winners = {o for o, _ in client.reveal(after)}
            assert winners == {o for o, _ in _oracle_topk(rows, [0, 2], 2)}

    def test_result_wait_timeout_is_not_a_job_failure(self, slow_rounds):
        slow_rounds(10)
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation) as client:
            job = client.submit(client.token([0, 1], k=2))
            with pytest.raises(TimeoutError):
                job.result(timeout=0.01)
            result = job.result(timeout=120)  # still running, then done
            assert job.status == JobStatus.DONE
            assert len(result.items) == 2


class TestEngineRegistry:
    def test_unknown_engine_rejected(self):
        for retired in ("quantum", "plaintext", "sknn"):
            with pytest.raises(QueryError):
                QueryConfig(engine=retired)


class TestQueryStats:
    def test_stats_mirror_channel_and_leakage(self):
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation) as client:
            result = client.query(client.token([0, 1], k=2))
        stats = result.stats
        assert stats.rounds == result.channel_stats.rounds
        assert stats.bytes_s1_to_s2 == result.channel_stats.bytes_s1_to_s2
        assert stats.bytes_s2_to_s1 == result.channel_stats.bytes_s2_to_s1
        assert stats.total_bytes == result.channel_stats.total_bytes
        assert stats.halting_depth == result.halting_depth
        assert stats.depths_scanned == len(result.depth_seconds)
        assert stats.engine == "eager" and stats.variant == "elim"
        assert stats.leakage == tuple(
            (e.observer, e.protocol, e.kind, repr(e.payload))
            for e in result.leakage_events
        )
        assert stats.leakage[0][2] == "query_pattern"

    def test_stats_uniform_across_execution_modes(self):
        _, _, rows = _fresh_deployment()
        run_case(make_case(rows, [([0, 1], 2, None)], execution="process"))

    def test_per_query_leakage_slices_in_shared_session(self):
        scheme, relation, _ = _fresh_deployment()
        ctx = scheme._make_context()
        try:
            first = scheme.query(relation, scheme.token([0, 1], k=2), ctx=ctx)
            second = scheme.query(relation, scheme.token([1, 2], k=2), ctx=ctx)
        finally:
            ctx.close()
        # Each result carries only its own query's events, while the
        # session log holds both.
        assert len(ctx.leakage.events) == len(first.leakage_events) + len(
            second.leakage_events
        )
        assert first.leakage_events[0].kind == "query_pattern"
        assert second.leakage_events[0].kind == "query_pattern"
        # Channel accounting is per-query too: the session's cumulative
        # counters are the sum of the per-result deltas.
        session_stats = ctx.channel.snapshot()
        assert session_stats.rounds == first.stats.rounds + second.stats.rounds
        assert (
            session_stats.total_bytes
            == first.stats.total_bytes + second.stats.total_bytes
        )


class TestSchedulerRaces:
    """The untested edge windows: cancel vs completion, close vs queued
    submit, and a deadline landing exactly on a round boundary."""

    def test_cancel_racing_completion_never_corrupts_state(self, slow_rounds):
        slow_rounds(1)
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation) as client:
            # A cancel that definitively lost the race is a clean no-op.
            done_job = client.submit(client.token([0, 1], k=2))
            events = list(done_job.events())  # drains to JobFinished
            assert isinstance(events[-1], JobFinished)
            assert done_job.cancel() is False
            assert done_job.status == JobStatus.DONE
            assert len(done_job.result(timeout=1).items) == 2

            # Cancels fired at staggered offsets race the job's own
            # completion; whatever side wins, the job must settle in a
            # coherent terminal state (DONE with a result, or CANCELLED
            # raising JobCancelled) and the server must keep serving.
            for attempt in range(4):
                job = client.submit(client.token([0, 1, 2], k=2))
                canceller = threading.Timer(0.05 * attempt, job.cancel)
                canceller.start()
                try:
                    result = job.result(timeout=120)
                except JobCancelled:
                    assert job.status == JobStatus.CANCELLED
                else:
                    assert job.status == JobStatus.DONE
                    assert len(result.items) == 2
                finally:
                    canceller.cancel()
                assert job.done()
            follow_up = client.query(client.token([0, 1], k=2))
            assert len(follow_up.items) == 2

    def test_close_racing_queued_submits(self, slow_rounds):
        slow_rounds(10)
        scheme, relation, _ = _fresh_deployment()
        client = repro.connect(scheme, relation, scheduler_workers=1)
        jobs: list = []
        rejected = threading.Event()

        def submitter():
            try:
                for _ in range(32):
                    jobs.append(client.submit(client.token([0, 1], k=2)))
            except RuntimeError:
                rejected.set()  # close won the race mid-stream

        feeder = threading.Thread(target=submitter)
        feeder.start()
        while not jobs and feeder.is_alive():
            time.sleep(0.001)
        client.close()
        feeder.join(timeout=120)
        assert not feeder.is_alive()
        # Every job that made it through submit() must settle: finished
        # normally or cancelled by the shutdown — never stranded.
        for job in jobs:
            assert job._done.wait(timeout=120), "job stranded by close()"
            assert job.status in (JobStatus.DONE, JobStatus.CANCELLED)
        # And the post-close surface is consistently closed.
        with pytest.raises(RuntimeError):
            client.submit(client.token([0], k=1))

    def test_deadline_expiry_on_a_round_boundary(self, slow_rounds):
        slow_rounds(20)
        scheme, relation, rows = _fresh_deployment()
        with repro.connect(scheme, relation) as client:
            job = client.submit(client.token([0, 1, 2], k=2), timeout=3600.0)
            for event in job.events():
                if isinstance(event, RoundTrip):
                    # Land the deadline exactly on the boundary the next
                    # before-round check observes (the event fires from
                    # the after-round hook of the previous boundary).
                    job._control._deadline = time.monotonic()
                    break
            with pytest.raises(JobTimeout):
                job.result(timeout=120)
            assert job.status == JobStatus.FAILED
            finished = [e for e in job.events() if isinstance(e, JobFinished)]
            assert finished and finished[0].status == JobStatus.FAILED
            # The boundary abort left the server fully serviceable.
            after = client.query(client.token([0, 1], k=2))
            winners = {o for o, _ in client.reveal(after)}
            assert winners == {o for o, _ in _oracle_topk(rows, [0, 1], 2)}


class TestListenerRobustness:
    """A broken ``events`` listener must observe, never corrupt."""

    def test_raising_listener_swallowed_and_recorded(self, leakage_tuples):
        scheme_a, relation_a, _ = _fresh_deployment()
        with repro.connect(scheme_a, relation_a) as client:
            clean = client.submit(client.token([0, 1], k=2)).result()

        scheme_b, relation_b, _ = _fresh_deployment()
        with repro.connect(scheme_b, relation_b) as client:
            job = client.submit(client.token([0, 1], k=2))
            job.add_listener(self._explode)
            watched = job.result(timeout=120)
        assert job.status == JobStatus.DONE
        assert job.listener_errors, "listener exceptions were not recorded"
        assert all(isinstance(e, RuntimeError) for e in job.listener_errors)
        # Bit-parity with the listener-free run: the round loop never
        # saw the exceptions.
        assert scheme_a.reveal(clean) == scheme_b.reveal(watched)
        assert clean.channel_stats.rounds == watched.channel_stats.rounds
        assert clean.channel_stats.total_bytes == watched.channel_stats.total_bytes
        assert leakage_tuples(clean) == leakage_tuples(watched)

    def test_context_on_event_hook_guarded(self):
        """The low-level hook path: a raising ``on_event`` on the S1
        context is swallowed into ``ctx.hook_errors`` mid-round."""
        scheme, relation, _ = _fresh_deployment()
        ctx = scheme._make_context(on_event=self._explode)
        try:
            result = scheme.query(relation, scheme.token([0, 1], k=2), ctx=ctx)
        finally:
            ctx.close()
        assert len(result.items) == 2
        assert ctx.hook_errors
        assert all(isinstance(e, RuntimeError) for e in ctx.hook_errors)

    @staticmethod
    def _explode(event):
        raise RuntimeError(f"broken listener saw {type(event).__name__}")


class TestCuratedSurface:
    def test_all_leads_with_client_facade(self):
        """The client-facing entry point, ``connect``, and the job types
        lead the curated surface; there is no separate client class."""
        assert repro.__all__[:4] == ["connect", "QueryJob", "WatchJob", "JobStatus"]
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        assert not hasattr(repro, "TopKClient")

    #: What ``perfbench`` drives on the object ``repro.connect`` returns.
    DRIVEN = ("submit", "token", "reveal", "insert", "update", "delete", "stats",
              "__enter__", "__exit__")

    def test_connect_returns_the_server(self):
        """``repro.connect`` hands back the ``TopKServer`` itself, with
        every member the benchmark drives, and neither it nor the server
        accepts a retired knob (pool, rendezvous, queue bound, cache
        capacity, depth spill, server-level shards, simulated link
        latency)."""
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation, "inprocess") as server:
            assert type(server) is TopKServer
            assert server.transport == "inprocess"
            for member in self.DRIVEN:
                assert hasattr(server, member), member
            result = server.submit(server.token([0, 1], k=2)).result(timeout=120)
            assert server.reveal(result) == scheme.reveal(result)
            assert server.stats["cache"] is not None
        for retired in (
            {"s2_workers": 2},
            {"s2_mode": "thread"},
            {"coalesce_ms": 2.0},
            {"max_pending": 2},
            {"cache_capacity": 1},
            {"state_dir": "/tmp"},
            {"shards": 2},
            {"rtt_ms": 1.0},
        ):
            with pytest.raises(TypeError):
                repro.connect(scheme, relation, **retired)
            with pytest.raises(TypeError):
                TopKServer(scheme, relation, **retired)

    def test_daemon_cli_rejects_retired_pool_flag(self):
        from repro.server import s2_service

        with pytest.raises(SystemExit) as exit_info:
            s2_service.main(["--s2-workers", "2"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("name", ["gmp_kernel", "GMP-KERNEL", "quantum"])
    def test_daemon_cli_rejects_unknown_backend(self, name, capsys):
        """A misspelt or retired ``--backend`` is argparse's usage error
        (exit 2), before any backend is resolved."""
        from repro.server import s2_service

        with pytest.raises(SystemExit) as exit_info:
            s2_service.main(["--backend", name])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_shard_daemon_module_is_gone(self):
        """``python -m`` on the S2 daemon's retired sibling (``shard_``
        for ``s2_``) finds no module."""
        import runpy

        from repro.server import s2_service

        retired = s2_service.__name__.replace("s2_", "shard_")
        with pytest.raises(ImportError, match=retired):
            runpy.run_module(retired, run_name="__main__")


class TestSchedulerRobustness:
    def test_bounded_queue_backpressure_drains(self, monkeypatch):
        monkeypatch.setattr(TopKServer, "MAX_PENDING", 2)
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation, scheduler_workers=2) as client:
            jobs = [client.submit(client.token([0, 1], k=1)) for _ in range(6)]
            assert all(len(j.result(timeout=120).items) == 1 for j in jobs)

    def test_close_cancels_queued_jobs(self, slow_rounds):
        slow_rounds(20)
        scheme, relation, _ = _fresh_deployment()
        client = repro.connect(scheme, relation, scheduler_workers=1)
        running = client.submit(client.token([0, 1, 2], k=2))
        queued = client.submit(client.token([0, 1], k=2))
        closer = threading.Thread(target=client.close)
        closer.start()
        closer.join(timeout=120)
        assert not closer.is_alive()
        assert running.done() and queued.done()
        with pytest.raises(JobCancelled):
            queued.result(timeout=1)
        with pytest.raises(RuntimeError):
            client.submit(client.token([0], k=1))

    def test_server_close_idempotent_after_daemon_death(self):
        service = S2Service("tcp://127.0.0.1:0")
        address = service.start()
        try:
            scheme, relation, _ = _fresh_deployment()
            client = repro.connect(scheme, relation, address)
            first = client.query(client.token([0, 1], k=2))
            assert len(first.items) == 2
            service.close()
            with pytest.raises(TransportError):
                client.query(client.token([1, 2], k=2))
            # Teardown over the dead link must not raise a secondary
            # PeerDisconnected — and must stay idempotent.
            client.close()
            client.close()
        finally:
            disconnect_all()
            service.close()
