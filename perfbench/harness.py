"""Deploy the program, drive a closed loop against it, check every answer.

Everything here goes through the program's public surface:
``repro.connect`` / ``client.submit`` / ``job.result`` / ``client.insert``
and the ``result.stats`` block each query already returns.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

import repro
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.net.socket_transport import disconnect_all
from repro.nra import SortedLists, nra_topk
from repro.server.mutations import MutableRelation
from repro.server.s2_service import launch_daemon

from perfbench import workloads

#: Wait bound for one operation; an operation slower than this is a failure.
OP_TIMEOUT_S = 60.0
#: How long a terminated daemon gets to exit before it is killed.
DAEMON_EXIT_S = 10.0


# ----------------------------------------------------------------------
# Placing the work and reading the host's speed.
# ----------------------------------------------------------------------

#: CPU seconds ``_fixed_work`` takes on this box in its fast spells; a host
#: slowdown of 1.0 means exactly this.  A constant of the benchmark: it only
#: fixes the scale of the reference-speed timings.
REFERENCE_WORK_S = 0.0028
#: An operation shorter than this re-uses the slowdowns read before it.
SLOWDOWN_REUSE_S = 0.02

_MODULUS = (1 << 511) + 0x10F35


def placement() -> tuple[int, int]:
    """``(client cpu, daemon cpu)``: the first two CPUs this process may
    use (the same one twice when it may use only one)."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[min(1, len(allowed) - 1)]


@contextlib.contextmanager
def on_cpu(cpu: int):
    """Keep the calling thread, and every thread or process it starts
    meanwhile, on one CPU."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)


def _fixed_work() -> int:
    """A fixed piece of work with the program's mix — three quarters
    interpreter steps around short C calls that allocate small objects,
    one quarter big-integer arithmetic at the ciphertext size — made of
    nothing the program owns, so no change to the program can move it."""
    digest = b"perfbench-host-speed"
    total = 0
    for i in range(5600):
        digest = hashlib.sha256(digest).digest()
        total += digest[i & 31]
    x = int.from_bytes(digest, "big")
    for _ in range(41):
        x = pow(x, 65537, _MODULUS)
    return total + (x & 1)


def host_slowdown(cpu: int) -> float:
    """How much slower than the reference ``cpu`` runs right now: the
    calling thread's CPU time over ``_fixed_work`` there, as a multiple of
    ``REFERENCE_WORK_S``.  Thread CPU time, not wall time, so waiting for
    the interpreter lock or for the CPU does not read as a slow host (on
    this VM a slow spell is charged to the thread's CPU time)."""
    with on_cpu(cpu):
        started = time.thread_time()
        _fixed_work()
        return (time.thread_time() - started) / REFERENCE_WORK_S


@dataclass
class OpRecord:
    index: int
    kind: str
    token: int
    seconds: float
    slowdown: float = 1.0
    """Slowdown of the client's CPU around this operation: the mean of
    the reads before and after it."""
    daemon_seconds: float = 0.0
    """Handler time the S2 daemon reported for this operation; it is
    spent on the daemon's CPU while the client waits."""
    daemon_slowdown: float = 1.0
    error: str | None = None
    # query ops
    cache_hit: bool = False
    halting_depth: int = 0
    rounds: int = 0
    total_bytes: int = 0
    protocol_bytes: dict = field(default_factory=dict)
    trace: tuple = ()
    result: object = None
    # mutation ops
    object_id: int = -1
    reencrypted: int = 0
    root_span: int = -1

    @property
    def reference_s(self) -> float:
        """This operation's time at reference host speed: the part spent
        on each CPU over that CPU's slowdown."""
        remote = min(self.daemon_seconds, self.seconds)
        return (self.seconds - remote) / self.slowdown + remote / self.daemon_slowdown


@dataclass
class Deployment:
    scheme: SecTopK
    client: object
    daemon: object  # subprocess.Popen | None
    setup_s: float
    client_cpu: int
    daemon_cpu: int

    def daemon_rss_mib(self) -> float:
        """Peak resident set of the S2 daemon child, 0 without one."""
        if self.daemon is None:
            return 0.0
        try:
            with open(f"/proc/{self.daemon.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0


def stop_daemon(process) -> None:
    """Terminate the daemon child and wait until it is gone."""
    process.terminate()
    try:
        process.wait(timeout=DAEMON_EXIT_S)
    except Exception:
        process.kill()
        process.wait()


@contextlib.contextmanager
def running_daemon(cpu: int):
    """An S2 daemon on an ephemeral loopback port, as a separate OS
    process kept on ``cpu``; yields ``(process, address)`` and leaves
    nothing behind."""
    with on_cpu(cpu):
        process, address = launch_daemon(quiet=True)
    try:
        yield process, address
    finally:
        try:
            disconnect_all()
        finally:
            stop_daemon(process)


@contextlib.contextmanager
def deploy(spec: workloads.WorkloadSpec, seed: int):
    """Key generation, ``Enc``, daemon launch + REGISTER, connect, one
    warm-up query — the whole set-up a user pays before the first answer —
    timed as ``setup_s`` (at reference host speed, like every timing the
    benchmark gates); torn down on exit, whatever happened inside.

    The client process runs on one CPU and the daemon on another, so the
    speed of the CPU an operation ran on is one the benchmark can read
    (``host_slowdown``): the two vCPUs of this VM slow down independently
    of each other."""
    client_cpu, daemon_cpu = placement()
    with contextlib.ExitStack() as stack:
        stack.enter_context(on_cpu(client_cpu))
        before = host_slowdown(client_cpu)
        started = time.perf_counter()
        scheme = SecTopK(spec.scale.system_params(), seed=seed)
        if spec.mutable:
            relation = MutableRelation(scheme, [list(row) for row in spec.rows])
        else:
            relation = scheme.encrypt(spec.rows)
        daemon, address = None, "inprocess"
        if spec.transport == "tcp":
            daemon, address = stack.enter_context(running_daemon(daemon_cpu))
        client = stack.enter_context(repro.connect(scheme, relation, address))
        # A one-attribute token: workload tokens all have m >= 2, so the
        # warm-up can never pre-fill the cache for one of them.
        client.submit(client.token([0], k=1)).result(timeout=OP_TIMEOUT_S)
        setup_s = time.perf_counter() - started
        slowdown = (before + host_slowdown(client_cpu)) / 2
        yield Deployment(scheme, client, daemon, setup_s / slowdown, client_cpu, daemon_cpu)


def self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# The closed loop.
# ----------------------------------------------------------------------


def mint(client, token: workloads.TokenSpec):
    """``(Token, QueryConfig)`` the program is handed for a workload token."""
    return (
        client.token(list(token.attributes), token.k, list(token.weights)),
        QueryConfig(**workloads.CONFIGS[token.config]),
    )


def closed_loop(dep: Deployment, spec: workloads.WorkloadSpec, seconds: float,
                recorder=None):
    """Run ``spec.ops`` in order from ``spec.clients`` closed-loop client
    threads until ``seconds`` have passed (an operation in flight at the
    deadline completes).  Returns ``(records, wall_seconds)``."""
    client = dep.client
    minted = [mint(client, token) for token in spec.tokens]
    ops = spec.ops
    records: list[OpRecord] = []
    cursor = [0]
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def run_one(index: int) -> OpRecord:
        op = ops[index]
        record = OpRecord(index, op.kind, op.token, 0.0)
        span = None
        if recorder is not None:
            fingerprint = minted[op.token][0].fingerprint() if op.kind == "query" else None
            span = recorder.begin_root(index, op.kind, fingerprint)
            record.root_span = span.id
        start = time.perf_counter()
        try:
            if op.kind == "query":
                job = client.submit(*minted[op.token])
                try:
                    result = job.result(timeout=OP_TIMEOUT_S)
                except TimeoutError:
                    job.cancel()
                    raise
                record.seconds = time.perf_counter() - start
                stats = result.stats
                record.cache_hit = stats.cache_hit
                record.halting_depth = stats.halting_depth
                record.rounds = stats.rounds
                record.total_bytes = stats.total_bytes
                record.protocol_bytes = dict(result.channel_stats.per_protocol_bytes)
                record.trace = stats.trace
                record.daemon_seconds = sum(
                    span.seconds for span in stats.trace if span.name.split(":")[0] == "s2")
                record.result = result
            else:
                if op.kind == "insert":
                    outcome = client.insert(list(op.row))
                elif op.kind == "update":
                    outcome = client.update(op.object_id, list(op.row))
                else:
                    outcome = client.delete(op.object_id)
                record.seconds = time.perf_counter() - start
                record.object_id = outcome.object_id
                record.reencrypted = sum(length for _, length in outcome.touched)
        except Exception as exc:  # noqa: BLE001 — a failed op is a counted outcome
            record.seconds = time.perf_counter() - start
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                recorder.pop(span)
        return record

    def slowdowns() -> tuple[float, float]:
        local = host_slowdown(dep.client_cpu)
        return local, host_slowdown(dep.daemon_cpu) if dep.daemon is not None else local

    def worker() -> None:
        before = slowdowns()
        while True:
            with lock:
                index = cursor[0]
                if index >= len(ops) or time.perf_counter() >= deadline:
                    return
                cursor[0] += 1
            record = run_one(index)
            after = slowdowns() if record.seconds >= SLOWDOWN_REUSE_S else before
            record.slowdown = (before[0] + after[0]) / 2
            record.daemon_slowdown = (before[1] + after[1]) / 2
            before = after
            with lock:
                records.append(record)

    if spec.clients == 1:
        worker()
    else:
        threads = [threading.Thread(target=worker, name=f"bench-client-{i}")
                   for i in range(spec.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - started
    records.sort(key=lambda r: r.index)
    return records, wall


# ----------------------------------------------------------------------
# The correctness gate.
# ----------------------------------------------------------------------


def _oracle(snapshot: dict, token: workloads.TokenSpec):
    """The repo's plaintext NRA over the current snapshot; returns
    ``(sorted scores of its top-k, halting depth)``."""
    oids = sorted(snapshot)
    rows = [[w * snapshot[oid][a] for a, w in zip(token.attributes, token.weights)]
            for oid in oids]
    outcome = nra_topk(SortedLists(rows), min(token.k, len(oids)))
    return sorted(score for _, score in outcome.topk), outcome.halting_depth


def verify(spec: workloads.WorkloadSpec, scheme: SecTopK, records) -> list[tuple]:
    """Replay the records in order against a plaintext mirror and return
    ``(operation index, what is wrong)`` for every wrong operation
    (raised ones included)."""
    snapshot = {oid: tuple(row) for oid, row in enumerate(spec.rows)}
    # scan identity -> {k: revealed ids}, emptied by every mutation — a
    # model of what the result cache may legally serve.
    served: dict[tuple, dict[int, list]] = {}
    problems: list[tuple] = []

    def wrong(record, message):
        problems.append((record.index, f"{record.kind}: {message}"))

    for record in records:
        op = spec.ops[record.index]
        if record.kind != "query":
            served.clear()
            if op.kind == "delete":
                snapshot.pop(op.object_id, None)
            else:
                snapshot[op.object_id] = tuple(op.row)
            if record.error is not None:
                wrong(record, record.error)
            elif record.object_id != op.object_id:
                wrong(record, f"touched object {record.object_id}, expected {op.object_id}")
            continue
        if record.error is not None:
            wrong(record, record.error)
            continue
        token = spec.tokens[record.token]
        revealed = scheme.reveal(record.result)
        ids = [oid for oid, _ in revealed]
        scan = (token.attributes, token.weights)
        if record.cache_hit:
            if not spec.mutable:
                wrong(record, "cache hit on a workload of distinct tokens")
            stored = served.get(scan, {})
            sources = [k0 for k0 in stored if k0 >= token.k]
            if not sources:
                wrong(record, "cache hit with nothing cached for this scan")
            elif ids != stored[min(sources)][: token.k]:
                wrong(record, "cache hit differs from the cached answer")
            continue
        served.setdefault(scan, {})[token.k] = ids
        if not workloads.is_topk(snapshot, token, ids, token.k):
            wrong(record, f"revealed ids {ids} are not a top-{token.k}")
            continue
        scores, depth = _oracle(snapshot, token)
        exact = token.config in ("eager/elim", "eager/full")
        if exact and (record.halting_depth != depth
                      or sorted(score for _, score in revealed) != scores):
            wrong(record, f"differs from plaintext NRA (depth {record.halting_depth} "
                          f"vs {depth})")
        elif not exact and record.halting_depth < depth:
            wrong(record, f"halted at {record.halting_depth}, before plaintext NRA's {depth}")
    return problems


def parity_problems(spec: workloads.WorkloadSpec, seed: int, records, count: int):
    """Re-run the first ``count`` queries in-process on an identically
    seeded deployment: rounds, bytes, halting depth and winners must be
    identical to what the socket run produced.  Returns ``(problems,
    tcp_seconds, inprocess_seconds)`` over the compared queries."""
    remote = {r.index: r for r in records if r.kind == "query" and r.error is None}
    chosen = sorted(remote)[:count]
    local = dataclasses.replace(
        spec, transport="inprocess", clients=1, ops=[spec.ops[i] for i in chosen]
    )
    problems = []
    with deploy(local, seed) as dep:
        reference, _ = closed_loop(dep, local, seconds=math.inf)
        for index, ref in zip(chosen, reference):
            got = remote[index]
            if ref.error is not None:
                problems.append((index, f"in-process reference failed: {ref.error}"))
                continue
            same = (
                (got.rounds, got.total_bytes, got.halting_depth)
                == (ref.rounds, ref.total_bytes, ref.halting_depth)
                and dep.scheme.reveal(got.result) == dep.scheme.reveal(ref.result)
            )
            if not same:
                problems.append((index, (
                    f"socket run (rounds {got.rounds}, bytes {got.total_bytes}) differs "
                    f"from in-process (rounds {ref.rounds}, bytes {ref.total_bytes})")))
    tcp_s = sum(remote[i].seconds for i in chosen)
    local_s = sum(r.seconds for r in reference)
    return problems, tcp_s, local_s


# ----------------------------------------------------------------------
# Records -> end-to-end metrics.
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(records, clients: int, setup_s: float, rss_mib: float):
    """The end-to-end metrics of one run, plus the sample count behind
    each percentile.

    Every timing is at reference host speed (``OpRecord.reference_s``).
    ``throughput_qps`` is completed operations over the reference-speed
    time one client spent in them — what a closed loop without think time
    delivers.  ``query_p50_ms`` / ``query_p80_ms`` are over queries that
    ran the protocol (cache misses): with hits mixed in, the distribution
    is bimodal and its median flips between modes."""
    done = [r for r in records if r.error is None]
    queries = [r for r in done if r.kind == "query"]
    ran = [r for r in queries if not r.cache_hit]
    ran_ms = [r.reference_s * 1e3 for r in ran]
    busy_s = sum(r.reference_s for r in done) / clients
    metrics = {
        "setup_s": setup_s,
        "throughput_qps": len(done) / busy_s if busy_s else 0.0,
        "query_p50_ms": percentile(ran_ms, 0.5),
        "query_p80_ms": percentile(ran_ms, 0.8),
        "query_mean_ms": mean([r.reference_s * 1e3 for r in queries]),
        "bytes_per_query": mean([r.total_bytes for r in ran]),
        "rounds_per_query": mean([r.rounds for r in ran]),
        "peak_rss_mb": rss_mib,
    }
    samples = {
        "ops": len(done),
        "queries": len(queries),
        "queries_run": len(ran),
        "mutations": len(done) - len(queries),
        "host_slowdown": mean([r.slowdown for r in done]),
    }
    return metrics, samples
