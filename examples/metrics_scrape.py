#!/usr/bin/env python3
"""The observability layer, end to end: exporter, traces, live scrape.

Mounts the server's Prometheus exporter on an ephemeral localhost port
(``repro.connect(..., metrics_port=0)``), runs a few queries, and then

* scrapes ``/metrics`` the way Prometheus would and prints the query
  latency histogram, cache counters and scheduler gauges;
* checks ``/healthz`` before and after ``drain()`` — the load
  balancer's remove-from-rotation signal;
* prints the last job's :class:`~repro.obs.trace.JobTrace` timeline
  (queued → run → per-round laps → pool sub-spans) and its per-phase
  aggregate via :func:`~repro.obs.trace.trace_phases`.

In a real deployment the same endpoint comes from the daemon side too:
``python -m repro.server.s2_service --metrics-port 9464`` serves its
own registrations/sessions/request series at ``:9464/metrics``.

Run:  PYTHONPATH=src python examples/metrics_scrape.py
"""

from __future__ import annotations

import urllib.error
import urllib.request

import repro
from repro import QueryConfig
from repro.data import gaussian_relation
from repro.obs.trace import trace_phases


def scrape(port: int, path: str = "/metrics") -> tuple[int, str]:
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10
        ) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


def main() -> None:
    relation = gaussian_relation(n_objects=20, n_attributes=3, seed=7)
    scheme = repro.SecTopK(repro.SystemParams.insecure_demo(), seed=2024)
    encrypted = scheme.encrypt(relation.rows)
    config = QueryConfig(variant="elim", engine="eager")

    with repro.connect(scheme, encrypted, metrics_port=0) as server:
        port = server.metrics_port
        print(f"exporter on http://127.0.0.1:{port}/metrics\n")

        # Drive some traffic: two distinct queries plus one cache hit.
        hot = server.token([0, 1], k=3)
        server.query(hot, config)
        server.query(server.token([1, 2], k=3), config)
        job = server.submit(hot, config)
        result = job.result()
        assert result.cache_hit, "repeat of a finished query must hit the cache"

        # -- the scrape, as Prometheus would do it -----------------------
        status, body = scrape(port)
        assert status == 200
        wanted = (
            "repro_query_seconds_bucket",
            "repro_query_seconds_count",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_channel_rounds_total",
            "repro_scheduler_queue_depth",
            "repro_scheduler_jobs_active",
        )
        print("-- /metrics (selected series) --")
        for line in body.splitlines():
            if not line.startswith(wanted):
                continue
            if "_bucket{" in line and '"+Inf"' not in line:
                continue  # full histograms are long; print the +Inf tail
            print(f"  {line}")
        for name in wanted:
            assert name in body, f"missing series: {name}"

        # -- health: ready while serving, draining once told to ----------
        status, text = scrape(port, "/healthz")
        print(f"\n/healthz while serving: {status} {text.strip()}")
        assert status == 200
        server.drain()
        status, text = scrape(port, "/healthz")
        print(f"/healthz after drain():  {status} {text.strip()}")
        assert status == 503

        # -- the cache hit's trace: queued + run, zero rounds ------------
        print("\n-- cache-hit job trace --")
        for span in result.trace:
            print(f"  {span.name:<10} {span.seconds * 1e3:8.3f} ms")
        print("\n-- per-phase aggregate (trace_phases) --")
        for phase, agg in sorted(trace_phases(result.trace).items()):
            print(
                f"  {phase:<10} {agg['seconds'] * 1e3:8.3f} ms "
                f"across {agg['count']} span(s)"
            )
    print("\nok")


if __name__ == "__main__":
    main()
