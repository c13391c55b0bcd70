"""Server throughput and round-coalescing evidence.

Two series, emitted to ``benchmarks/results/throughput.txt``:

* **Throughput** — queries/sec through the :class:`~repro.server.TopKServer`
  front-end for both transport backends and several concurrency levels.
  Pure-Python big-int crypto holds the GIL, so thread concurrency mostly
  overlaps link latency rather than CPU; the point of the series is that
  the session machinery adds negligible overhead and scales without
  cross-session interference.

* **Round coalescing** — measured ``ChannelStats.rounds`` per scanned
  depth as the number of query lists ``m`` grows.  The uncoalesced
  formulation pays O(m) round-trips per depth (eager: ``2m`` absorption
  rounds; literal: ``4m`` SecWorst/SecBest rounds); the coalescing layer
  collapses each depth stage into one round-trip, so measured
  rounds/depth stays flat in ``m`` — the per-depth round complexity of
  the paper's Table 3.

A third, machine-readable series lands in
``benchmarks/results/client.json``: the **submit pipeline** — the
client API's overlapped ``submit``/``result`` jobs against sequential
and thread-windowed ``execute_many`` on a simulated-latency link (the
regime where overlapping rounds is what throughput is made of) — plus
the **reuse grid**: qps across a repeat-ratio × concurrency grid with
the result cache on/off (the PR-7 reuse layer's measured win) — plus
the **mutation grid**: qps across a mutation-rate × watch-count grid
over a live mutable relation (cache invalidation and continuous-watch
re-evaluation priced into one clock).

Run directly (``PYTHONPATH=src python benchmarks/bench_throughput.py``)
or via pytest.
"""

from __future__ import annotations

import json
import pathlib
import platform
import time

import repro
from repro.bench.harness import SeriesReport
from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.rng import SecureRandom
from repro.server import TopKServer

CLIENT_RESULTS = pathlib.Path(__file__).resolve().parent / "results" / "client.json"

N_ROWS = 16
N_ATTRS = 4
N_QUERIES = 6
SEED = 2024


def _deployment(m: int = N_ATTRS) -> tuple[SecTopK, object, list[list[int]]]:
    rng = SecureRandom(SEED)
    rows = [[rng.randint_below(50) for _ in range(m)] for _ in range(N_ROWS)]
    scheme = SecTopK(SystemParams.tiny(), seed=SEED)
    return scheme, scheme.encrypt(rows), rows


def _workload(scheme: SecTopK, count: int):
    """A mix of distinct small queries (different attribute subsets)."""
    subsets = [[0, 1], [1, 2], [0, 2], [0, 1, 2], [2, 3], [1, 3]]
    config = QueryConfig(variant="elim", engine="eager", halting="paper")
    return [
        (scheme.token(subsets[i % len(subsets)], k=2), config)
        for i in range(count)
    ]


def run_throughput() -> SeriesReport:
    report = SeriesReport(
        title="Server throughput: TopKServer queries/sec "
        f"(n={N_ROWS}, m={N_ATTRS}, k=2, {N_QUERIES} queries, tiny params)",
        header=["transport", "concurrency", "queries", "seconds", "qps"],
    )
    for concurrency in (1, 2, 4):
        scheme, relation, _ = _deployment()
        requests = _workload(scheme, N_QUERIES)
        with TopKServer(scheme, relation) as server:
            started = time.perf_counter()
            results = server.execute_many(requests, concurrency=concurrency)
            elapsed = time.perf_counter() - started
        assert all(len(r.items) == 2 for r in results)
        report.add(
            [
                "inprocess",
                concurrency,
                N_QUERIES,
                f"{elapsed:.2f}",
                f"{N_QUERIES / elapsed:.2f}",
            ]
        )
    report.note(
        "GIL-bound big-int crypto: threads overlap link latency, not CPU; "
        "session isolation is the scaling primitive a multi-process "
        "deployment reuses."
    )
    return report


def run_coalescing() -> SeriesReport:
    report = SeriesReport(
        title="Round coalescing: measured rounds/depth vs query width m "
        "(uncoalesced pays O(m) rounds/depth)",
        header=[
            "engine",
            "m",
            "depth",
            "rounds",
            "rounds/depth",
            "uncoalesced est.",
        ],
    )
    for engine in ("eager", "literal"):
        for m in (2, 3, 4):
            scheme, relation, _ = _deployment()
            token = scheme.token(list(range(m)), k=2)
            config = QueryConfig(variant="elim", engine=engine, halting="paper")
            result = scheme.query(relation, token, config)
            depth = result.halting_depth
            rounds = result.channel_stats.rounds
            # Per-depth rounds before coalescing: eager paid 2m absorption
            # rounds (+~4 check-point rounds), literal 4m SecWorst/SecBest
            # rounds (+~6 update/check rounds).
            estimate = (2 * m + 4) if engine == "eager" else (4 * m + 6)
            report.add(
                [
                    engine,
                    m,
                    depth,
                    rounds,
                    f"{rounds / depth:.1f}",
                    f"~{estimate}/depth",
                ]
            )
    report.note(
        "rounds/depth stays flat as m grows: each depth's equality stage "
        "and RecoverEnc stage cross the link as one coalesced round-trip, "
        "and the eager check-depth bound refresh rides the absorption's "
        "recover round (5 rounds per eager check depth, was 6)."
    )
    return report


def run_submit_pipeline(rtt_ms: float = 10.0, out: pathlib.Path | None = None) -> dict:
    """The client API's overlapped-jobs leg: submit pipeline vs
    ``execute_many`` on a simulated-latency link.

    Every mode runs the identical workload on a fresh identically-seeded
    deployment (transcripts are salt-determined, so the comparison is
    pure scheduling).  Writes ``benchmarks/results/client.json``.
    """
    rows = []

    def _measure(mode: str, run) -> None:
        scheme, relation, _ = _deployment()
        requests = _workload(scheme, N_QUERIES)
        with repro.connect(
            scheme, relation, rtt_ms=rtt_ms, scheduler_workers=4
        ) as client:
            started = time.perf_counter()
            results = run(client, requests)
            elapsed = time.perf_counter() - started
        assert all(len(r.items) == 2 for r in results)
        rows.append(
            {
                "mode": mode,
                "rtt_ms": rtt_ms,
                "queries": N_QUERIES,
                "seconds": round(elapsed, 4),
                "qps": round(N_QUERIES / elapsed, 3),
                "rounds": results[0].stats.rounds,
            }
        )

    _measure(
        "execute_many-sequential",
        lambda c, reqs: c.execute_many(reqs, concurrency=1),
    )
    _measure(
        "execute_many-thread-4",
        lambda c, reqs: c.execute_many(reqs, concurrency=4),
    )
    _measure(
        "submit-pipeline-4",
        lambda c, reqs: [job.result() for job in [c.submit(*req) for req in reqs]],
    )

    by_mode = {r["mode"]: r["qps"] for r in rows}
    report = {
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "n_rows": N_ROWS,
            "n_attrs": N_ATTRS,
            "params": "tiny",
            "note": "submit pipeline overlaps link latency across jobs; "
            "identical transcripts across modes (salt-determined)",
        },
        "rows": rows,
        "speedups": {
            "submit_vs_sequential": round(
                by_mode["submit-pipeline-4"] / by_mode["execute_many-sequential"], 3
            ),
            "submit_vs_thread": round(
                by_mode["submit-pipeline-4"] / by_mode["execute_many-thread-4"], 3
            ),
        },
    }
    out = out or CLIENT_RESULTS
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    print(json.dumps(report["speedups"], indent=2))
    return report


def run_instrumentation_overhead(
    repeats: int = 3, out: pathlib.Path | None = None
) -> dict:
    """The observability tax: identical workload with metrics recording
    on vs off, best-of-``repeats`` wall clock each way.

    Instruments are a handful of lock-guarded float updates amid big-int
    crypto, so the ratio should be statistical noise (the CI perf-smoke
    leg asserts < 5%).  Best-of-N min times keep scheduler jitter out of
    the ratio.  Merged into ``benchmarks/results/client.json`` under
    ``"instrumentation_overhead"``.
    """
    from repro.obs.metrics import set_enabled

    def _run_once(metrics_on: bool) -> float:
        set_enabled(metrics_on)
        try:
            scheme, relation, _ = _deployment()
            requests = _workload(scheme, N_QUERIES)
            with TopKServer(scheme, relation) as server:
                started = time.perf_counter()
                results = server.execute_many(requests, concurrency=1)
                elapsed = time.perf_counter() - started
            assert all(len(r.items) == 2 for r in results)
            return elapsed
        finally:
            set_enabled(True)

    # One discarded warm-up, then the legs interleave: measuring all of
    # one leg before the other would fold warm-up and allocator drift
    # into whichever leg ran first.
    _run_once(True)
    seconds_off = seconds_on = float("inf")
    for _ in range(repeats):
        seconds_off = min(seconds_off, _run_once(False))
        seconds_on = min(seconds_on, _run_once(True))
    ratio = seconds_on / seconds_off
    report = {
        "meta": {
            "note": "best-of-N min wall clock for the identical workload "
            "with instrument recording enabled vs disabled "
            "(set_enabled); transcripts are bit-identical either way",
            "repeats": repeats,
            "queries": N_QUERIES,
        },
        "seconds_metrics_off": round(seconds_off, 4),
        "seconds_metrics_on": round(seconds_on, 4),
        "ratio": round(ratio, 4),
        "overhead_pct": round((ratio - 1.0) * 100.0, 2),
    }
    out = out or CLIENT_RESULTS
    out.parent.mkdir(parents=True, exist_ok=True)
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged["instrumentation_overhead"] = report
    out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out} (instrumentation_overhead)")
    print(json.dumps({"overhead_pct": report["overhead_pct"]}, indent=2))
    return report


def _reuse_workload(scheme: SecTopK, count: int, repeat_heavy: bool):
    """``count`` requests; repeat-heavy interleaves one hot token at
    every odd position (its first occurrence, position 0, is fresh)."""
    subsets = [[0, 1], [1, 2], [0, 2], [0, 1, 2], [2, 3], [1, 3]]
    config = QueryConfig(variant="elim", engine="eager", halting="paper")
    hot = scheme.token(subsets[0], k=2)
    requests = []
    for i in range(count):
        if repeat_heavy and i % 2 == 1:
            requests.append((hot, config))
        else:
            requests.append((scheme.token(subsets[i % len(subsets)], k=2), config))
    return requests


def run_reuse_grid(rtt_ms: float = 5.0, out: pathlib.Path | None = None) -> dict:
    """The reuse-layer leg: qps across a repeat-ratio × concurrency grid
    with the result cache on/off.

    Every leg runs its workload on a fresh identically-seeded deployment
    over a simulated-latency in-process link.  Cache hits cost zero
    round-trips, so the cache-on repeat-heavy legs are where the qps win
    lands.  Merged into ``benchmarks/results/client.json`` under
    ``"reuse_grid"`` (next to the submit-pipeline rows).
    """
    queries = 6
    rows = []
    for workload in ("distinct", "repeat-heavy"):
        for concurrency in (1, 4):
            for cache in (True, False):
                scheme, relation, _ = _deployment()
                requests = _reuse_workload(
                    scheme, queries, workload == "repeat-heavy"
                )
                with repro.connect(
                    scheme,
                    relation,
                    "inprocess",
                    rtt_ms=rtt_ms,
                    scheduler_workers=4,
                    cache=cache,
                ) as client:
                    started = time.perf_counter()
                    results = client.execute_many(
                        requests, concurrency=concurrency
                    )
                    elapsed = time.perf_counter() - started
                assert all(len(r.items) == 2 for r in results)
                rows.append(
                    {
                        "workload": workload,
                        "concurrency": concurrency,
                        "cache": cache,
                        "rtt_ms": rtt_ms,
                        "queries": queries,
                        "seconds": round(elapsed, 4),
                        "qps": round(queries / elapsed, 3),
                        "cache_hits": sum(r.stats.cache_hit for r in results),
                    }
                )

    def _qps(workload, concurrency, cache):
        for row in rows:
            if (
                row["workload"] == workload
                and row["concurrency"] == concurrency
                and row["cache"] is cache
            ):
                return row["qps"]
        raise KeyError((workload, concurrency, cache))

    grid = {
        "meta": {
            "note": "windowed execute_many over a simulated-latency "
            "in-process link; repeat-heavy = hot token at every odd slot; "
            "cache hits serve with zero S2 rounds under L1 query_pattern "
            "leakage (concurrent repeats of a still-running query miss, "
            "so the win is largest sequentially)",
        },
        "rows": rows,
        "speedups": {
            "cache_repeat_heavy_seq": round(
                _qps("repeat-heavy", 1, True) / _qps("repeat-heavy", 1, False), 3
            ),
            "cache_repeat_heavy_conc4": round(
                _qps("repeat-heavy", 4, True) / _qps("repeat-heavy", 4, False), 3
            ),
        },
    }
    out = out or CLIENT_RESULTS
    out.parent.mkdir(parents=True, exist_ok=True)
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged["reuse_grid"] = grid
    out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out} (reuse_grid)")
    print(json.dumps(grid["speedups"], indent=2))
    return grid


def run_mutation_grid(out: pathlib.Path | None = None) -> dict:
    """The mutation-layer leg: qps across a mutation-rate × watch-count
    grid over a live :class:`~repro.server.MutableRelation`.

    Every leg replays the repeat-heavy workload (hot token at every odd
    slot) against a fresh identically-seeded mutable deployment, with
    encrypted mutations interleaved at the given rate and ``watches``
    continuous top-k jobs re-evaluating after every mutation.  The grid
    surfaces the two costs the subsystem trades off: mutations
    invalidate the result cache (hits drop as the rate rises) and every
    live watch adds one re-evaluation query per mutation.  Merged into
    ``benchmarks/results/client.json`` under ``"mutation_grid"``.
    """
    queries = 6
    config = QueryConfig(variant="elim", engine="eager", halting="paper")
    rows = []
    for mutation_rate in (0.0, 0.5):
        for watch_count in (0, 2):
            rng = SecureRandom(SEED)
            base = [
                [rng.randint_below(50) for _ in range(N_ATTRS)]
                for _ in range(N_ROWS)
            ]
            scheme = SecTopK(SystemParams.tiny(), seed=SEED)
            mutable = repro.MutableRelation(scheme, base)
            requests = _reuse_workload(scheme, queries, repeat_heavy=True)
            with repro.connect(scheme, mutable, "inprocess") as client:
                watches = [
                    client.watch(scheme.token([0, 1], k=2), config)
                    for _ in range(watch_count)
                ]
                started = time.perf_counter()
                mutations = 0
                results = []
                for i, (token, query_config) in enumerate(requests):
                    due = int(i * mutation_rate) > int((i - 1) * mutation_rate)
                    if i and due:
                        client.insert(
                            [rng.randint_below(50) for _ in range(N_ATTRS)]
                        )
                        mutations += 1
                    results.append(client.query(token, query_config))
                # Watch re-evaluation is part of the measured cost: the
                # clock stops only once every watch has caught up with
                # the final version.
                for watch in watches:
                    while watch.evaluations < 1 + mutations:
                        time.sleep(0.005)
                elapsed = time.perf_counter() - started
                evaluations = 0
                for watch in watches:
                    watch.stop()
                    evaluations += watch.summary(timeout=60).evaluations
                version = client.version
            assert all(len(r.items) == 2 for r in results)
            assert version == mutations
            rows.append(
                {
                    "mutation_rate": mutation_rate,
                    "watches": watch_count,
                    "queries": queries,
                    "mutations": mutations,
                    "seconds": round(elapsed, 4),
                    "qps": round(queries / elapsed, 3),
                    "cache_hits": sum(r.stats.cache_hit for r in results),
                    "watch_evaluations": evaluations,
                    "final_version": version,
                }
            )

    def _qps(mutation_rate, watches):
        for row in rows:
            if (
                row["mutation_rate"] == mutation_rate
                and row["watches"] == watches
            ):
                return row["qps"]
        raise KeyError((mutation_rate, watches))

    grid = {
        "meta": {
            "note": "repeat-heavy workload over an in-process mutable "
            "deployment; mutations interleave at the given rate (insert "
            "of a fresh random row) and each live watch re-evaluates "
            "after every mutation; cache hits drop as mutations "
            "invalidate the hot token's entry, and the watch columns "
            "price continuous re-evaluation into the same clock",
        },
        "rows": rows,
        "relative_qps": {
            "mutations_vs_static": round(_qps(0.5, 0) / _qps(0.0, 0), 3),
            "watches2_vs_none_at_mut50": round(
                _qps(0.5, 2) / _qps(0.5, 0), 3
            ),
        },
    }
    out = out or CLIENT_RESULTS
    out.parent.mkdir(parents=True, exist_ok=True)
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged["mutation_grid"] = grid
    out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out} (mutation_grid)")
    print(json.dumps(grid["relative_qps"], indent=2))
    return grid


def test_throughput_series():
    """Pytest entry point: emit both series."""
    run_throughput().emit("throughput.txt")
    run_coalescing().emit("throughput.txt")


def test_submit_pipeline_series():
    """Pytest entry point: emit the client-API pipeline series."""
    run_submit_pipeline()


def test_reuse_grid_series():
    """Pytest entry point: emit the reuse-layer qps grid."""
    run_reuse_grid()


def test_mutation_grid_series():
    """Pytest entry point: emit the mutation-rate x watch-count grid."""
    run_mutation_grid()


def test_instrumentation_overhead_series():
    """Pytest entry point: emit the metrics on/off overhead leg."""
    run_instrumentation_overhead()


if __name__ == "__main__":
    run_throughput().emit("throughput.txt")
    run_coalescing().emit("throughput.txt")
    run_submit_pipeline()
    run_reuse_grid()
    run_mutation_grid()
    run_instrumentation_overhead()
