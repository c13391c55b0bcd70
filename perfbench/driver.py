"""One run of one workload: untraced (end-to-end metrics) or traced
(per-layer metrics)."""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import sys
import time

from repro.core.results import QueryConfig
from repro.crypto import backend
from repro.obs.trace import trace_phases

from perfbench import harness, probes, tracing, workloads

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Queries re-run in-process to pin a socket run's transcript.
PARITY_QUERIES = 4
#: Share of a traced run's seconds spent on its untraced reference phase.
REFERENCE_SHARE = 0.25
#: Repeats of an already-cached query behind ``server.submit_overhead_us``.
HIT_PROBES = 20
#: Queries behind ``server.shard2_overhead_ratio``.
SHARD_QUERIES = 4


def _phase_s(phases: dict, name: str) -> float:
    return phases[name]["seconds"] if name in phases else 0.0


def _failed_ops(problems) -> int:
    return len({index for index, _ in problems})


def run_untraced(spec, seed: int, seconds: float, setup_repeats: int):
    """Returns ``(values, detail)``: the end-to-end metric values and the
    run's sample counts, sizes and problems."""
    setups = []
    for _ in range(setup_repeats - 1):
        with harness.deploy(spec, seed) as dep:
            setups.append(dep.setup_s)
    with harness.deploy(spec, seed) as dep:
        setups.append(dep.setup_s)
        records, wall = harness.closed_loop(dep, spec, seconds)
        rss = harness.self_rss_mib() + dep.daemon_rss_mib()
        problems = harness.verify(spec, dep.scheme, records)
        daemon_pid = dep.daemon.pid if dep.daemon is not None else None
    if spec.transport == "tcp":
        problems += harness.parity_problems(spec, seed, records, PARITY_QUERIES)[0]
    values, samples = harness.end_to_end(
        records, spec.clients, statistics.median(setups), rss)
    detail = {
        "samples": samples, "wall_s": wall, "attempted": len(records),
        "failed": _failed_ops(problems), "problems": problems[:20],
        "daemon_pid": daemon_pid,
    }
    return values, detail


def _submit_overhead_us(dep, spec, records) -> float:
    """Median latency of re-submitting a query whose answer is cached:
    the scheduler hop, the lookup and the deep copy, nothing else."""
    last = next((r for r in reversed(records)
                 if r.kind == "query" and r.error is None and not r.cache_hit), None)
    if last is None:
        return 0.0
    token, config = harness.mint(dep.client, spec.tokens[last.token])
    # A mutation after `last` emptied the cache: one run refills it.
    dep.client.submit(token, config).result(timeout=harness.OP_TIMEOUT_S)
    samples = []
    for _ in range(HIT_PROBES):
        started = time.perf_counter()
        result = dep.client.submit(token, config).result(timeout=harness.OP_TIMEOUT_S)
        if result.stats.cache_hit:
            samples.append(time.perf_counter() - started)
    return harness.percentile(samples, 0.5) * 1e6


def _shard_overhead_ratio(dep, spec) -> float:
    """Wall of a few queries with ``shards=2`` over the same with
    ``shards=0``.  No default path shards, so this moves nothing: it is
    the fix-or-delete evidence ROADMAP asks for."""
    totals = {0: 0.0, 2: 0.0}
    for spec_token in spec.tokens[:SHARD_QUERIES]:
        token, _ = harness.mint(dep.client, spec_token)
        for shards in totals:
            started = time.perf_counter()
            dep.client.submit(token, QueryConfig(shards=shards, cache=False)).result(
                timeout=harness.OP_TIMEOUT_S)
            totals[shards] += time.perf_counter() - started
    return totals[2] / totals[0]


def _layer_values(spec, records, reference, recorder, cache):
    """``(values, samples)``: the per-layer metrics that come out of a
    traced phase's records, its span breakdown and the program's own
    counters, and the sample counts behind them."""
    parts = tracing.breakdown(recorder, records)
    layers = parts["layers"]
    done = [r for r in records if r.error is None]
    queries = [r for r in done if r.kind == "query"]
    ran = [r for r in queries if not r.cache_hit]
    mutations = [r for r in done if r.kind != "query"]
    depths = sum(r.halting_depth for r in ran)
    program = [trace_phases(r.trace) for r in ran]
    untraced = {r.index: r for r in reference if r.error is None}
    common = [r for r in done if r.index in untraced]

    def p50_ms(rs):
        return harness.percentile([r.seconds * 1e3 for r in rs], 0.5)

    def per_depth(total):
        return total / depths if depths else 0.0

    def protocol_bytes(name):
        return harness.mean([r.protocol_bytes.get(name, 0) for r in ran])

    values = {
        "crypto.kernel_s": recorder.kernel_s,
        "crypto.kernel_calls": recorder.kernel_calls,
        "protocols.sec_dedup_query_bytes": protocol_bytes("SecDedup"),
        "protocols.sec_dup_elim_query_bytes": protocol_bytes("SecDupElim"),
        "protocols.sec_update_query_bytes": protocol_bytes("SecUpdate"),
        "protocols.enc_sort_query_bytes": protocol_bytes("EncSort"),
        "core.depth_ms": per_depth(sum(r.seconds for r in ran) * 1e3),
        "core.rounds_per_depth": per_depth(sum(r.rounds for r in ran)),
        "core.bytes_per_depth": per_depth(sum(r.total_bytes for r in ran)),
        "core.halting_depth_mean": harness.mean([r.halting_depth for r in ran]),
        "core.s1_compute_s": sum(_phase_s(p, "run") - _phase_s(p, "round") for p in program),
        "net.round_s": parts["round_s"],
        "net.rounds": parts["rounds"],
        "net.link_s": layers["net.link"],
        "server.queue_wait_p50_ms": harness.percentile(parts["queued_s"], 0.5) * 1e3,
        "server.s2_handler_s": layers["s2"],
        "server.s2_handler_ms_per_round":
            layers["s2"] * 1e3 / parts["rounds"] if parts["rounds"] else 0.0,
        "server.cache_hit_ratio":
            sum(r.cache_hit for r in queries) / len(queries) if queries else 0.0,
        "server.cache_prefix_hits": cache.prefix_hits,
        "server.cache_invalidations": cache.invalidations,
        "server.cache_miss_p50_ms": p50_ms(ran),
        "server.mutation_p50_ms": p50_ms(mutations),
        "server.mutation_reencrypted_entries": sum(r.reencrypted for r in mutations),
        "obs.bench_trace_overhead_ratio":
            sum(r.seconds for r in common) / sum(untraced[r.index].seconds for r in common)
            if common else 0.0,
        "obs.host_slowdown": harness.mean([r.slowdown for r in done]),
        "trace.total_s": parts["total_s"],
        "trace.unattributed_s": parts["unattributed_s"],
    }
    for kind in ("insert", "update", "delete"):
        values[f"server.mutation_{kind}_ms"] = harness.mean(
            [r.seconds * 1e3 for r in mutations if r.kind == kind])
    for config in workloads.CONFIGS:
        values[f"core.{config.replace('/', '_')}_p50_ms"] = p50_ms(
            [r for r in ran if spec.tokens[r.token].config == config])
    for layer, seconds in layers.items():
        values[f"trace.{layer}_self_s"] = seconds
    samples = {"ops": len(done), "queries": len(queries), "queries_run": len(ran),
               "mutations": len(mutations), "reference_ops": len(reference)}
    return values, samples


def run_traced(spec, seed: int, seconds: float, spans_path: str | None):
    """Returns ``(values, detail)``: every per-layer metric value.

    The workload runs twice — a short untraced reference phase, then the
    traced phase — so the tracing overhead is measured on the same
    operations; evidence probes tied to one workload follow."""
    with harness.deploy(spec, seed) as dep:
        reference, reference_wall = harness.closed_loop(
            dep, spec, seconds * REFERENCE_SHARE)
        problems = harness.verify(spec, dep.scheme, reference)
    recorder = tracing.Recorder()
    with harness.deploy(spec, seed) as dep:
        with tracing.installed(recorder):
            records, wall = harness.closed_loop(
                dep, spec, seconds * (1 - REFERENCE_SHARE), recorder)
        cache = dep.client.stats["cache"]
        problems += harness.verify(spec, dep.scheme, records)
        hit_us = _submit_overhead_us(dep, spec, records)
        shard_ratio = _shard_overhead_ratio(dep, spec) if spec.name == "fresh_inproc" else 0.0
    tax = 1.0
    if spec.transport == "tcp":
        more, tcp_s, local_s = harness.parity_problems(spec, seed, records, 2 * PARITY_QUERIES)
        problems += more
        tax = tcp_s / local_s if local_s else 0.0
    c2_ratio = 0.0
    if spec.clients > 1 and reference:
        # The reference phase's operations again from one client: the
        # two-client throughput over the one-client throughput.
        solo_spec = dataclasses.replace(spec, clients=1, ops=spec.ops[:len(reference)])
        with harness.deploy(solo_spec, seed) as dep:
            solo, solo_wall = harness.closed_loop(dep, solo_spec, math.inf)
        c2_ratio = (len(reference) / reference_wall) / (len(solo) / solo_wall)

    values = probes.run_all(spec.scale, seed, spec.rows)
    layer_values, samples = _layer_values(spec, records, reference, recorder, cache)
    values.update(layer_values)
    values.update({
        "net.tcp_tax_ratio": tax,
        "server.c2_speedup_ratio": c2_ratio,
        "server.submit_overhead_us": hit_us,
        "server.shard2_overhead_ratio": shard_ratio,
    })
    if spans_path:
        with open(spans_path, "w") as handle:
            json.dump(tracing.dump(recorder, records), handle)
    detail = {
        "samples": samples, "wall_s": wall, "attempted": len(records) + len(reference),
        "failed": _failed_ops(problems), "problems": problems[:20],
    }
    return values, detail


def run_once(args, manifest) -> int:
    scale = workloads.TINY if args.tiny else workloads.FULL
    started = time.perf_counter()
    spec = workloads.build(args.workload, args.seed, scale)
    if args.trace:
        declared = manifest["per_layer"]
        values, detail = run_traced(spec, args.seed, args.seconds, args.spans)
    else:
        declared = manifest["end_to_end"]
        values, detail = run_untraced(spec, args.seed, args.seconds,
                                      1 if args.tiny else SETUP_REPEATS)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:16.6f} {metric['unit']}")
    if not args.trace:
        print(f"(timings at reference host speed; this run's host slowdown was "
              f"{detail['samples']['host_slowdown']:.3f})")
    for index, message in detail["problems"]:
        print(f"WRONG op {index}: {message}", file=sys.stderr)
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    if args.detail:
        detail.update({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": scale.name, "sizes": spec.sizes,
            "backend": backend.get_backend().name, "result": result,
            "run_s": time.perf_counter() - started,
        })
        with open(args.detail, "w") as handle:
            json.dump(detail, handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
