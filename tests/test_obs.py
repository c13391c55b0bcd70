"""Observability layer: metrics core, exporter, traces, and the
instrumented server surfaces.

The binding contract tested here: the arithmetic of the metrics core
is exact (bucket boundaries, quantile ranks, concurrent increments),
and the server and daemon surfaces report what the instruments
recorded.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.request

import pytest

from repro.core.params import SystemParams
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.events import JobFinished, JobQueued, S2Progress, SpanClosed
from repro.exceptions import TransportError
from repro.net import socket_transport
from repro.net.socket_transport import disconnect_all
from repro.obs.exporter import CONTENT_TYPE, HealthState, MetricsExporter
from repro.obs.metrics import (
    MAX_LABEL_SETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import JobTrace, Span, trace_phases
from repro.server import S2Service, TopKServer, s2_service
from repro.server.topk_server import _QUEUE_DEPTH


def _rows(seed: int, n: int = 12, m: int = 2) -> list[list[int]]:
    rng = SecureRandom(seed)
    return [[rng.randint_below(30) for _ in range(m)] for _ in range(n)]


def _http_get(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.read().decode("utf-8")


# -- metrics core ----------------------------------------------------------


class TestCounterGauge:
    def test_counter_sums_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "t")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_gauge", "t")
        g.inc()
        g.inc(4)
        g.dec(2)
        assert g.value == 3
        g.set(11)
        assert g.value == 11

    def test_concurrent_increments_sum_exactly(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "t")
        g = reg.gauge("t_gauge", "t")
        per_thread, threads = 500, 8

        def work():
            for _ in range(per_thread):
                c.inc()
                g.inc(2)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert c.value == per_thread * threads
        assert g.value == 2 * per_thread * threads


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0):
            h.observe(v)
        # Cumulative: <=1 holds {0.5, 1.0}; <=2 adds {1.5, 2.0}; <=4
        # adds {3.0, 4.0}; +Inf adds {9.0}.
        assert h.bucket_counts() == [
            (1.0, 2), (2.0, 4), (4.0, 6), (float("inf"), 7),
        ]
        assert h.count == 7
        assert h.sum == pytest.approx(21.0)

    def test_quantile_rank_math(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        # Ranks: ceil(q*4) clamped to >= 1 → rank 1 in bucket 1.0,
        # ranks 2-3 in bucket 2.0, rank 4 in bucket 4.0.
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(0.75) == 2.0
        assert h.quantile(1.0) == 4.0

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram(buckets=(1.0,)).quantile(0.5) == 0.0

    def test_overflow_lands_in_inf_bucket(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.bucket_counts() == [(1.0, 0), (float("inf"), 1)]
        assert h.quantile(0.5) == float("inf")

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, float("inf")))


class TestRegistryAndLabels:
    def test_reregistration_is_idempotent_but_kind_checked(self):
        reg = MetricsRegistry()
        a = reg.counter("t_total", "t")
        assert reg.counter("t_total", "t") is a
        with pytest.raises(ValueError):
            reg.gauge("t_total", "t")
        with pytest.raises(ValueError):
            reg.counter("t_total", "t", labelnames=("x",))

    def test_unknown_label_names_fail_loudly(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_total", "t", labelnames=("engine",))
        with pytest.raises(ValueError):
            fam.labels(wrong="x")
        with pytest.raises(ValueError):
            fam.labels()

    def test_same_labels_return_same_child(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_total", "t", labelnames=("engine",))
        assert fam.labels(engine="eager") is fam.labels(engine="eager")
        assert fam.labels(engine="eager") is not fam.labels(engine="literal")

    def test_cardinality_overflow_folds_instead_of_growing(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_total", "t", labelnames=("rid",))
        for i in range(MAX_LABEL_SETS + 50):
            fam.labels(rid=f"r{i}").inc()
        overflow = fam.labels(rid="one-more")
        overflow.inc()
        # Every combination past the cap shares the one overflow child.
        assert overflow is fam.labels(rid="yet-another")
        assert len(fam._children) == MAX_LABEL_SETS + 1
        total = sum(child.value for child in fam._children.values())
        assert total == MAX_LABEL_SETS + 51

    def test_labeled_family_refuses_bare_use(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_total", "t", labelnames=("engine",))
        with pytest.raises(AttributeError):
            fam.inc()

    def test_snapshot_includes_histogram_count_and_sum(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "a").inc(3)
        h = reg.histogram("b_seconds", "b", buckets=(1.0,))
        h.observe(0.5)
        h.observe(2.0)
        snap = reg.snapshot()
        assert snap["a_total"] == 3
        assert snap["b_seconds_count"] == 2
        assert snap["b_seconds_sum"] == pytest.approx(2.5)

    def test_prometheus_text_format_golden(self):
        reg = MetricsRegistry()
        reg.counter("z_total", "Last alphabetically.").inc(2)
        fam = reg.gauge("a_gauge", "A labeled gauge.", labelnames=("engine",))
        fam.labels(engine="eager").set(1.5)
        h = reg.histogram("h_seconds", "A histogram.", buckets=(0.5, 1.0))
        h.observe(0.25)
        h.observe(0.75)
        assert reg.render() == (
            "# HELP a_gauge A labeled gauge.\n"
            "# TYPE a_gauge gauge\n"
            'a_gauge{engine="eager"} 1.5\n'
            "# HELP h_seconds A histogram.\n"
            "# TYPE h_seconds histogram\n"
            'h_seconds_bucket{le="0.5"} 1\n'
            'h_seconds_bucket{le="1"} 2\n'
            'h_seconds_bucket{le="+Inf"} 2\n'
            "h_seconds_sum 1\n"
            "h_seconds_count 2\n"
            "# HELP z_total Last alphabetically.\n"
            "# TYPE z_total counter\n"
            "z_total 2\n"
        )


# -- traces ----------------------------------------------------------------


class TestJobTrace:
    def test_begin_end_lap_add_discard(self):
        trace = JobTrace()
        trace.begin("run")
        assert trace.lap("round") is None  # first lap only opens
        first = trace.lap("round")
        assert first is not None and first.name == "round"
        trace.add("pool:decrypt", 0.25)
        trace.discard("round")  # open tail lap is not a round
        run = trace.end("run")
        assert run is not None and run.seconds >= 0
        assert trace.end("run") is None  # already closed
        names = [s.name for s in trace.freeze()]
        assert sorted(names) == ["pool:decrypt", "round", "run"]

    def test_add_anchors_duration_at_now(self):
        trace = JobTrace()
        span = trace.add("s2", 1.5)
        assert span.seconds == pytest.approx(1.5)
        assert span.start == pytest.approx(span.end - 1.5)

    def test_freeze_sorts_by_end_time(self):
        trace = JobTrace()
        trace.add("late", 0.1)
        trace.add("early", 5.0)  # anchored earlier start, same-ish end
        ends = [s.end for s in trace.freeze()]
        assert ends == sorted(ends)

    def test_trace_phases_strips_suffixes_and_aggregates(self):
        spans = (
            Span("round", 0.0, 1.0),
            Span("round", 1.0, 3.0),
            Span("pool:decrypt", 0.5, 1.0),
            Span("pool:compare", 1.0, 1.25),
        )
        phases = trace_phases([spans, (Span("round", 0.0, 0.5),)])
        assert phases["round"] == {"seconds": pytest.approx(3.5), "count": 3}
        assert phases["pool"] == {"seconds": pytest.approx(0.75), "count": 2}
        # A single frozen trace (not a list of traces) works too.
        assert trace_phases(spans)["pool"]["count"] == 2
        assert trace_phases(()) == {}


# -- exporter --------------------------------------------------------------


class TestExporter:
    def test_serves_metrics_health_and_404(self):
        reg = MetricsRegistry()
        reg.counter("exp_total", "exported").inc(7)
        health = HealthState()
        exporter = MetricsExporter(port=0, registries=[reg], health=health)
        port = exporter.start()
        try:
            status, body = _http_get(f"http://127.0.0.1:{port}/metrics")
            assert status == 200
            assert "exp_total 7" in body
            status, body = _http_get(f"http://127.0.0.1:{port}/healthz")
            assert (status, body) == (200, "ready\n")
            health.drain()
            with pytest.raises(urllib.error.HTTPError) as err:
                _http_get(f"http://127.0.0.1:{port}/healthz")
            assert err.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as err:
                _http_get(f"http://127.0.0.1:{port}/nope")
            assert err.value.code == 404
        finally:
            exporter.close()
        exporter.close()  # idempotent

    def test_concatenates_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("first_total", "a").inc()
        b.counter("second_total", "b").inc(2)
        exporter = MetricsExporter(port=0, registries=[a, b])
        port = exporter.start()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5.0
            ) as response:
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode()
            assert "first_total 1" in body
            assert "second_total 2" in body
        finally:
            exporter.close()


# -- the instrumented server ----------------------------------------------


@pytest.fixture(scope="module")
def deployment():
    scheme = SecTopK(SystemParams.tiny(), seed=55)
    relation = scheme.encrypt(_rows(21))
    server = TopKServer(scheme, relation, metrics_port=0)
    yield scheme, relation, server
    server.close()


class TestServerObservability:
    def test_metrics_endpoint_serves_key_series(self, deployment):
        scheme, _, server = deployment
        server.submit(scheme.token([0, 1], k=2)).result(timeout=60)
        _, body = _http_get(f"http://127.0.0.1:{server.metrics_port}/metrics")
        # The acceptance triplet: scheduler queue depth, per-engine
        # latency histograms, cache hit counters.
        assert "repro_scheduler_queue_depth 0" in body
        assert 'repro_query_seconds_bucket{engine="eager",le="+Inf"}' in body
        assert "repro_cache_hits_total" in body
        assert "repro_cache_misses_total" in body
        assert "repro_channel_rounds_total" in body
        assert "repro_scheduler_queue_wait_seconds_count" in body
        assert "repro_scheduler_jobs_active 0" in body

    def test_job_result_carries_trace(self, deployment):
        scheme, _, server = deployment
        job = server.submit(scheme.token([0, 1], k=2, weights=[2, 1]))
        result = job.result(timeout=60)
        names = {span.name for span in result.trace}
        assert {"queued", "run", "round"} <= names
        assert tuple(result.stats.trace) == tuple(result.trace)
        events = list(job.events())
        assert isinstance(events[0], JobQueued)
        assert isinstance(events[-1], JobFinished)
        closed = [e.name for e in events if isinstance(e, SpanClosed)]
        assert "queued" in closed and "run" in closed and "round" in closed

    def test_cache_hit_gets_fresh_trace(self, deployment):
        scheme, _, server = deployment
        token = scheme.token([1, 0], k=2)
        first = server.submit(token).result(timeout=60)
        second = server.submit(token).result(timeout=60)
        assert not first.cache_hit and second.cache_hit
        hit_names = {span.name for span in second.trace}
        assert "round" not in hit_names  # zero S2 rounds on a hit
        assert {"queued", "run"} <= hit_names

    def test_stats_snapshot_has_scheduler_block(self, deployment):
        _, _, server = deployment
        stats = server.stats
        assert stats["scheduler"]["queue_depth"] == 0
        assert stats["scheduler"]["jobs_active"] == 0
        assert stats["cache"] is not None

    def test_queue_depth_gauge_settles_at_zero(self, deployment):
        scheme, _, server = deployment
        jobs = [
            server.submit(scheme.token([0, 1], k=2, weights=[i + 1, 1]))
            for i in range(3)
        ]
        for job in jobs:
            job.result(timeout=60)
        assert _QUEUE_DEPTH.value == 0

    def test_healthz_flips_on_drain(self):
        scheme = SecTopK(SystemParams.tiny(), seed=56)
        server = TopKServer(scheme, scheme.encrypt(_rows(22, n=6)), metrics_port=0)
        try:
            status, _ = _http_get(f"http://127.0.0.1:{server.metrics_port}/healthz")
            assert status == 200
            server.drain()
            with pytest.raises(urllib.error.HTTPError) as err:
                _http_get(f"http://127.0.0.1:{server.metrics_port}/healthz")
            assert err.value.code == 503
        finally:
            server.close()


class TestRemoteProgress:
    def test_remote_events_include_s2_progress(self):
        service = S2Service("tcp://127.0.0.1:0", metrics_port=0)
        address = service.start()
        scheme = SecTopK(SystemParams.tiny(), seed=58)
        server = TopKServer(scheme, scheme.encrypt(_rows(23, n=8)), transport=address)
        try:
            job = server.submit(scheme.token([0, 1], k=2))
            result = job.result(timeout=60)
            progress = [e for e in job.events() if isinstance(e, S2Progress)]
            assert progress, "v3 daemon must piggyback decrypt progress"
            assert all(
                p.batches >= 1 and p.values >= 1 and p.seconds >= 0
                for p in progress
            )
            # Progress frames land in the trace as s2 sub-spans.
            assert "s2" in {span.name for span in result.trace}
            _, body = _http_get(
                f"http://127.0.0.1:{service.metrics_port}/metrics"
            )
            assert "repro_s2_requests_total" in body
            assert "repro_s2_request_seconds_count" in body
        finally:
            server.close()
            disconnect_all()
            service.close()

    def test_progress_counts_every_ciphertext_of_a_reply(self):
        """A round's progress counts the ciphertexts its replies carry:
        a vector its length, an item batch its components.  Seeded, the
        first round is one absorb slot (two vectors of one) and the
        second a ``DedupSort`` whose reply holds two items of seven
        components and their four companions — 18 values, where the
        reply tuple's length (2) was counted before."""
        service = S2Service("tcp://127.0.0.1:0")
        address = service.start()
        scheme = SecTopK(SystemParams.tiny(), seed=58)
        server = TopKServer(scheme, scheme.encrypt(_rows(23, n=8)), transport=address)
        try:
            job = server.submit(scheme.token([0, 1], k=2))
            job.result(timeout=60)
            progress = [e for e in job.events() if isinstance(e, S2Progress)]
            assert [(p.batches, p.values) for p in progress[:2]] == [(1, 2), (1, 18)]
        finally:
            server.close()
            disconnect_all()
            service.close()

    def test_foreign_daemon_banner_is_a_transport_error_naming_it(
        self, monkeypatch
    ):
        """One banner, no downgrade: a daemon speaking another revision
        answers ``version-mismatch`` naming its banner, and the client
        raises that — once, with no redial."""
        monkeypatch.setattr(s2_service, "PROTOCOL_BANNER", b"repro-s2/9")
        service = S2Service("tcp://127.0.0.1:0")
        address = service.start()
        try:
            with pytest.raises(TransportError, match="repro-s2/9") as excinfo:
                socket_transport.S2Client(address)
            assert socket_transport.VERSION_MISMATCH in str(excinfo.value)
            assert service.stats()["connections_total"] == 1
        finally:
            service.close()
