"""The job-oriented client API: ``repro.connect`` / ``TopKClient``.

Covers the PR-4 acceptance criteria:

* ``submit(...).result()`` is bit-identical (results, rounds, bytes,
  leakage profile) to the legacy ``TopKServer.execute`` path, across
  the in-process, threaded and TCP-daemon transports;
* cancellation at a round boundary and per-job timeouts resolve the
  job without wedging the server — subsequent jobs are served;
* the streaming event taxonomy arrives in order;
* the engine registry serves eager/literal plus the plaintext/sknn
  baselines through the same ``QueryConfig``;
* ``QueryStats`` carries the uniform cost profile;
* the curated ``repro.__all__`` leads with the client façade and the
  legacy spellings warn.
"""

from __future__ import annotations

import threading
import time

import pytest

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


def _leakage_tuples(result):
    return [
        (e.observer, e.protocol, e.kind, repr(e.payload))
        for e in result.leakage_events
    ]


@pytest.fixture(scope="module")
def tcp_daemon():
    service = S2Service("tcp://127.0.0.1:0")
    address = service.start()
    yield service, address
    disconnect_all()
    service.close()


class TestSubmitExecuteParity:
    """The acceptance criterion: submit == execute, bit for bit."""

    CONFIGS = [
        pytest.param(QueryConfig(variant="elim", engine="eager"), id="eager"),
        pytest.param(QueryConfig(variant="elim", engine="literal"), id="literal"),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("transport", ["inprocess", "threaded", "tcp"])
    def test_bit_identical(self, transport, config, request):
        if transport == "tcp":
            _, transport = request.getfixturevalue("tcp_daemon")

        scheme_a, relation_a, _ = _fresh_deployment()
        token_a = scheme_a.token([0, 1, 2], k=2)
        with TopKServer(scheme_a, relation_a, transport=transport) as server:
            legacy = server.execute(token_a, config)

        scheme_b, relation_b, _ = _fresh_deployment()
        token_b = scheme_b.token([0, 1, 2], k=2)
        with repro.connect(scheme_b, relation_b, transport) as client:
            job = client.submit(token_b, config)
            modern = job.result(timeout=120)

        assert scheme_a.reveal(legacy) == scheme_b.reveal(modern)
        assert legacy.halting_depth == modern.halting_depth
        assert legacy.channel_stats.rounds == modern.channel_stats.rounds
        assert (
            legacy.channel_stats.bytes_s1_to_s2
            == modern.channel_stats.bytes_s1_to_s2
        )
        assert (
            legacy.channel_stats.bytes_s2_to_s1
            == modern.channel_stats.bytes_s2_to_s1
        )
        assert _leakage_tuples(legacy) == _leakage_tuples(modern)
        assert job.status == JobStatus.DONE and job.done()

    def test_submit_many_overlap_matches_execute_many(self):
        scheme_a, relation_a, _ = _fresh_deployment()
        requests_a = [
            (scheme_a.token([0, 1], k=2), None),
            (scheme_a.token([1, 2], k=2), None),
            (scheme_a.token([0, 2], k=2), None),
        ]
        with TopKServer(scheme_a, relation_a) as server:
            batch = server.execute_many(requests_a, concurrency=1)

        scheme_b, relation_b, _ = _fresh_deployment()
        requests_b = [
            (scheme_b.token([0, 1], k=2), None),
            (scheme_b.token([1, 2], k=2), None),
            (scheme_b.token([0, 2], k=2), None),
        ]
        with repro.connect(scheme_b, relation_b) as client:
            jobs = client.submit_many(requests_b)
            piped = [job.result(timeout=120) for job in jobs]

        for a, b in zip(batch, piped):
            assert scheme_a.reveal(a) == scheme_b.reveal(b)
            assert a.channel_stats.rounds == b.channel_stats.rounds
            assert a.channel_stats.total_bytes == b.channel_stats.total_bytes


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

    def test_listener_does_not_change_transcript(self):
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
        assert _leakage_tuples(silent) == _leakage_tuples(watched)


class TestCancellationAndTimeouts:
    def test_cancel_at_round_boundary_then_serve_next_job(self):
        scheme, relation, rows = _fresh_deployment()
        # 20 ms per round stretches the query well past the cancel.
        with repro.connect(scheme, relation, rtt_ms=20.0) as client:
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

    def test_cancel_while_queued_never_starts(self):
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(
            scheme, relation, rtt_ms=20.0, scheduler_workers=1
        ) as client:
            blocker = client.submit(client.token([0, 1, 2], k=2))
            queued = client.submit(client.token([0, 1], k=2))
            assert queued.cancel() is True
            with pytest.raises(JobCancelled):
                queued.result(timeout=60)
            assert not any(
                isinstance(e, JobStarted) for e in queued.events()
            ), "a cancelled-while-queued job must never start"
            blocker.result(timeout=120)  # the worker was never wedged

    def test_per_job_timeout(self):
        scheme, relation, rows = _fresh_deployment()
        with repro.connect(scheme, relation, rtt_ms=20.0) as client:
            job = client.submit(client.token([0, 1, 2], k=2), timeout=0.1)
            with pytest.raises(JobTimeout):
                job.result(timeout=60)
            assert job.status == JobStatus.FAILED
            # Later jobs are unaffected.
            after = client.query(client.token([0, 2], k=2))
            winners = {o for o, _ in client.reveal(after)}
            assert winners == {o for o, _ in _oracle_topk(rows, [0, 2], 2)}

    def test_result_wait_timeout_is_not_a_job_failure(self):
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation, rtt_ms=10.0) as client:
            job = client.submit(client.token([0, 1], k=2))
            with pytest.raises(TimeoutError):
                job.result(timeout=0.01)
            result = job.result(timeout=120)  # still running, then done
            assert job.status == JobStatus.DONE
            assert len(result.items) == 2


class TestEngineRegistry:
    def test_registry_lists_all_engines(self):
        from repro.core.engine import engine_names

        assert set(engine_names()) >= {"eager", "literal", "plaintext", "sknn"}
        assert repro.TopKClient.engines() == engine_names()

    def test_unknown_engine_rejected(self):
        with pytest.raises(QueryError):
            QueryConfig(engine="quantum")

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(QueryConfig(engine="plaintext"), id="plaintext"),
            pytest.param(
                QueryConfig(engine="sknn", compare_method="blinded"), id="sknn"
            ),
        ],
    )
    def test_baselines_match_oracle(self, config):
        scheme, relation, rows = _fresh_deployment()
        with repro.connect(scheme, relation) as client:
            result = client.query(client.token([0, 1, 2], k=3), config)
        assert client.reveal(result) == _oracle_topk(rows, [0, 1, 2], 3)
        assert result.halting_depth == len(rows)  # full scan, by design
        assert result.stats.engine == config.engine

    def test_plaintext_engine_transport_equivalent(self):
        runs = {}
        for transport in ("inprocess", "threaded"):
            scheme, relation, _ = _fresh_deployment()
            with repro.connect(scheme, relation, transport) as client:
                result = client.query(
                    client.token([0, 1], k=2), QueryConfig(engine="plaintext")
                )
                runs[transport] = (
                    client.reveal(result),
                    result.channel_stats.rounds,
                    result.channel_stats.total_bytes,
                    tuple(_leakage_tuples(result)),
                )
        assert runs["inprocess"] == runs["threaded"]

    def test_naive_engine_ships_everything_once(self):
        scheme, relation, rows = _fresh_deployment()
        with repro.connect(scheme, relation) as client:
            result = client.query(
                client.token([0, 1, 2], k=2), QueryConfig(engine="plaintext")
            )
        # One round, O(n·m) payload: the strawman's cost signature.
        assert result.channel_stats.rounds == 1
        reveals = [e for e in result.leakage_events if e.kind == "full_reveal"]
        assert reveals and reveals[0].payload == (3 * len(rows), len(rows))


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
        scheme_a, relation_a, _ = _fresh_deployment()
        with TopKServer(scheme_a, relation_a) as server:
            seq = server.execute_many(
                [(scheme_a.token([0, 1], k=2), None)], concurrency=1
            )[0]
        scheme_b, relation_b, _ = _fresh_deployment()
        with TopKServer(scheme_b, relation_b) as server:
            proc = server.execute_many(
                [(scheme_b.token([0, 1], k=2), None)], concurrency=2, mode="process"
            )[0]
        from dataclasses import replace

        # Identical modulo wall-clock (elapsed is measured, not derived).
        assert replace(seq.stats, elapsed_seconds=0.0) == replace(
            proc.stats, elapsed_seconds=0.0
        )

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

    def test_cancel_racing_completion_never_corrupts_state(self):
        scheme, relation, _ = _fresh_deployment()
        with repro.connect(scheme, relation, rtt_ms=1.0) as client:
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

    def test_close_racing_queued_submits(self):
        scheme, relation, _ = _fresh_deployment()
        client = repro.connect(scheme, relation, rtt_ms=10.0, scheduler_workers=1)
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

    def test_deadline_expiry_on_a_round_boundary(self):
        scheme, relation, rows = _fresh_deployment()
        with repro.connect(scheme, relation, rtt_ms=20.0) as client:
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

    def test_raising_listener_swallowed_and_recorded(self):
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
        assert _leakage_tuples(clean) == _leakage_tuples(watched)

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
        assert repro.__all__[:5] == [
            "connect",
            "TopKClient",
            "QueryJob",
            "WatchJob",
            "JobStatus",
        ]
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_connect_knobs_are_server_knobs(self):
        """``connect`` forwards its keyword-only options to ``TopKServer``
        and neither accepts a retired knob (pool, rendezvous, queue
        bound, cache capacity, depth spill, server-level shards)."""
        import inspect

        server_params = inspect.signature(TopKServer.__init__).parameters
        keyword_only = [
            name
            for name, param in inspect.signature(repro.connect).parameters.items()
            if param.kind is inspect.Parameter.KEYWORD_ONLY
        ]
        assert keyword_only and set(keyword_only) <= set(server_params)
        scheme, relation, _ = _fresh_deployment()
        for retired in (
            {"s2_workers": 2},
            {"s2_mode": "thread"},
            {"coalesce_ms": 2.0},
            {"max_pending": 2},
            {"cache_capacity": 1},
            {"state_dir": "/tmp"},
            {"shards": 2},
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

    def test_close_cancels_queued_jobs(self):
        scheme, relation, _ = _fresh_deployment()
        client = repro.connect(scheme, relation, rtt_ms=20.0, scheduler_workers=1)
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
            client.server.close()
        finally:
            disconnect_all()
            service.close()
