"""The benchmark's own span recorder, for the traced run only.

Spans are kept in memory and handed back when the run ends.  They come
from three places:

* a root span per operation, opened by the closed loop around
  ``client.submit`` → ``job.result`` (or a mutation call);
* wrappers this module installs on late-bound public methods of the
  program (``WRAPPED`` below) — nothing under ``src/`` is edited, and
  :func:`installed` puts every original back;
* the program's existing per-job timeline (``result.stats.trace``:
  ``queued`` / ``run`` / ``round`` / ``s2``), merged in afterwards.

A layer's *self time* is its spans' duration minus what their child spans
cover.  :func:`breakdown` partitions the summed root-span time into layer
self times plus an explicit ``unattributed`` remainder, so the parts add
up to the traced total by construction.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass

from repro.core.scheme import SecTopK
from repro.crypto import backend
from repro.net.dispatch import S2Dispatcher
from repro.net.socket_transport import S2Client, SocketTransport
from repro.net.transport import InProcessTransport
from repro.net.wire import WireCodec
from repro.obs.trace import trace_phases
from repro.server.query_cache import QueryCache

#: ``(class, method, span name, layer)`` — late-bound public methods only.
WRAPPED = (
    (SecTopK, "query", "core.query", "core"),
    (InProcessTransport, "exchange", "net.exchange", "net.transport"),
    (SocketTransport, "exchange", "net.exchange", "net.wire"),
    (WireCodec, "encode_envelope", "wire.encode_envelope", "net.wire"),
    (S2Client, "request_begin", "socket.send", "net.link"),
    (S2Client, "request_finish", "socket.wait", "net.link"),
    (S2Dispatcher, "dispatch", "s2.dispatch", "s2"),
    (QueryCache, "lookup", "cache.lookup", "server.cache"),
    (QueryCache, "put", "cache.put", "server.cache"),
)
KERNEL_OPS = ("powmod", "powmod_vec", "invert")

#: Layers of the self-time breakdown, in reporting order.
LAYERS = (
    "server.queue", "server.scheduler", "server.cache", "server.mutation", "core",
    "crypto.kernel", "net.transport", "net.wire", "net.link", "s2",
)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int  # -1: no enclosing span on this thread
    op: int  # operation index, -1 when not known on this thread
    thread: int
    child_s: float = 0.0
    kernel_s: float = 0.0
    kernel_calls: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span collector."""

    def __init__(self):
        self.spans: list[Span] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._op_of_fingerprint: dict[str, int] = {}

    # -- span stack (per thread) -----------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def push(self, name: str, layer: str, op: int = -1) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op < 0:
            op = parent.op if parent is not None else getattr(self._tls, "op", -1)
        with self._lock:
            span = Span(len(self.spans), name, layer, time.perf_counter(), 0.0,
                        parent.id if parent is not None else -1, op,
                        threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        return span

    def pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.seconds

    # -- roots (opened by the closed loop) -------------------------------

    def begin_root(self, op: int, kind: str, fingerprint: str | None) -> Span:
        if fingerprint is not None:
            with self._lock:
                self._op_of_fingerprint[fingerprint] = op
        layer = "client" if kind == "query" else "server.mutation"
        return self.push(f"op.{kind}", layer, op)

    def op_for(self, token) -> int:
        """The operation whose query carries ``token`` (scheduler threads
        learn which job they serve from the token they are handed)."""
        with self._lock:
            return self._op_of_fingerprint.get(token.fingerprint(), -1)

    # -- kernel counters (too many calls for a span each) ----------------

    def kernel(self, seconds: float) -> None:
        """Charge one kernel call to the innermost open span of this
        thread (every kernel call of a traced operation has one)."""
        stack = self._stack()
        if stack:
            stack[-1].kernel_s += seconds
            stack[-1].kernel_calls += 1

    @property
    def kernel_s(self) -> float:
        return sum(span.kernel_s for span in self.spans)

    @property
    def kernel_calls(self) -> int:
        return sum(span.kernel_calls for span in self.spans)


def _span_wrapper(recorder: Recorder, original, name: str, layer: str):
    def wrapper(self, *args, **kwargs):
        span = recorder.push(name, layer)
        try:
            return original(self, *args, **kwargs)
        finally:
            recorder.pop(span)

    wrapper.__wrapped__ = original
    return wrapper


def _query_wrapper(recorder: Recorder, original):
    def wrapper(self, relation, token, *args, **kwargs):
        op = recorder.op_for(token)
        recorder._tls.op = op
        span = recorder.push("core.query", "core", op)
        try:
            return original(self, relation, token, *args, **kwargs)
        finally:
            recorder.pop(span)
            recorder._tls.op = -1

    wrapper.__wrapped__ = original
    return wrapper


def _kernel_wrapper(recorder: Recorder, original):
    def wrapper(*args):
        started = time.perf_counter()
        try:
            return original(*args)
        finally:
            recorder.kernel(time.perf_counter() - started)

    return wrapper


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Install every wrapper for the duration of the block."""
    originals = []
    active = backend.get_backend()
    try:
        for cls, method, name, layer in WRAPPED:
            original = cls.__dict__[method]
            originals.append((cls, method, original))
            if (cls, method) == (SecTopK, "query"):
                setattr(cls, method, _query_wrapper(recorder, original))
            else:
                setattr(cls, method, _span_wrapper(recorder, original, name, layer))
        for op in KERNEL_OPS:
            # Instance attributes on the active backend object: module
            # level ``backend.powmod`` resolves the method per call.
            setattr(active, op, _kernel_wrapper(recorder, getattr(active, op)))
        yield recorder
    finally:
        for cls, method, original in originals:
            setattr(cls, method, original)
        for op in KERNEL_OPS:
            vars(active).pop(op, None)


# ----------------------------------------------------------------------
# Self-time breakdown.
# ----------------------------------------------------------------------


def breakdown(recorder: Recorder, records) -> dict:
    """Partition the summed root-span time of ``records`` into layers.

    Returns ``{"total_s", "layers": {layer: self seconds},
    "unattributed_s", "round_s", "rounds", "queued_s": [...]}``;
    ``sum(layers.values()) + unattributed_s == total_s`` up to float
    rounding.  ``unattributed_s`` is root-span time covered by no layer:
    the client-side hand-off around ``queued`` + ``run``, and the whole
    span of an operation that failed before producing a timeline.
    """
    spans = recorder.spans
    roots = {record.root_span: record for record in records if record.root_span >= 0}
    layers = dict.fromkeys(LAYERS, 0.0)
    client_threads = {spans[root].thread for root in roots}

    # Wrapper spans: self time per layer.  A span's kernel time is split
    # out as crypto.kernel unless the span is S2's handler — over tcp the
    # daemon's kernel time is inside its handler time, so in-process runs
    # fold it the same way and the two stay comparable.
    covered_by_op: dict[int, float] = {}
    for span in spans:
        if span.id in roots:
            continue
        own = span.seconds - span.child_s
        if span.layer != "s2":
            own -= span.kernel_s
            layers["crypto.kernel"] += span.kernel_s
        layers[span.layer] += own
        if span.parent < 0 and span.thread not in client_threads:
            # Top-level span of a scheduler thread: a child of some
            # operation's ``run`` span.
            covered_by_op[span.op] = covered_by_op.get(span.op, 0.0) + span.seconds
    unlinked = covered_by_op.pop(-1, 0.0)

    total = unattributed = round_s = 0.0
    rounds = 0
    queued = []
    for root_id, record in roots.items():
        root = spans[root_id]
        total += root.seconds
        if record.kind != "query":
            layers["server.mutation"] += root.seconds - root.child_s - root.kernel_s
            layers["crypto.kernel"] += root.kernel_s
            continue
        phases = {name: slot["seconds"] for name, slot in trace_phases(record.trace).items()}
        if "run" not in phases:
            unattributed += root.seconds
            continue
        queued.append(phases.get("queued", 0.0))
        layers["server.queue"] += phases.get("queued", 0.0)
        layers["server.scheduler"] += phases["run"] - covered_by_op.get(record.index, 0.0)
        unattributed += root.seconds - phases["run"] - phases.get("queued", 0.0)
        round_s += phases.get("round", 0.0)
        rounds += sum(1 for span in record.trace if span.name == "round")
        # The daemon reports its handler time per round; it is spent
        # while S1 waits on the socket.
        remote_s2 = phases.get("s2", 0.0)
        layers["s2"] += remote_s2
        layers["net.link"] -= remote_s2
    # Scheduler-thread spans that could not be tied to an operation (a
    # cache lookup runs before the thread learns its token) still sit
    # inside some ``run`` span.
    layers["server.scheduler"] -= unlinked
    return {
        "total_s": total,
        "layers": layers,
        "unattributed_s": unattributed,
        "round_s": round_s,
        "rounds": rounds,
        "queued_s": queued,
    }


def dump(recorder: Recorder, records) -> list[dict]:
    """Every span as plain data (name, start, end, parent, operation),
    with the program's own timeline merged under its operation's root."""
    out = [
        {"id": s.id, "name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
         "parent": s.parent, "op": s.op, "kernel_s": s.kernel_s,
         "kernel_calls": s.kernel_calls}
        for s in recorder.spans
    ]
    for record in records:
        if record.root_span < 0:
            continue
        origin = recorder.spans[record.root_span].start
        for span in record.trace:
            out.append({"id": len(out), "name": f"program.{span.name}", "layer": "program",
                        "start": origin + span.start, "end": origin + span.end,
                        "parent": record.root_span, "op": record.index,
                        "kernel_s": 0.0, "kernel_calls": 0})
    return out
