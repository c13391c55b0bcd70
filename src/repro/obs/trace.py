"""Per-job trace timelines: monotonic-clock spans over a job's life.

A :class:`JobTrace` collects :class:`Span`\\ s — ``queued`` (submit →
start), ``run`` (start → finish), one ``round`` lap per coalesced
round-trip, plus duration-only sub-spans for S2-side decrypt batches.
Traces are pure observation: building one consumes no randomness and
touches no protocol state, so a traced run is transcript-identical to
an untraced one (pinned by the equivalence suites).

The frozen trace lands on :attr:`QueryResult.trace` /
:attr:`QueryStats.trace`; :func:`trace_phases` aggregates one or many
traces into the per-phase (queue vs rounds vs crypto) breakdowns the
benchmarks record.

Span times are ``time.monotonic()`` offsets from the trace's own
origin, so spans within one trace compare exactly; traces from
different processes do not share an origin.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One named interval: ``[start, end]`` seconds from the trace origin.

    Duration-only spans (an S2-side batch reported over the wire)
    anchor at the time they were *recorded* with
    ``start = end - duration``.
    """

    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class JobTrace:
    """Mutable span collector for one job (thread-safe).

    ``begin``/``end`` bracket named phases; ``lap`` closes the previous
    occurrence of a repeating name (per-round spans) and opens the next;
    ``add`` records an externally-measured duration.  Close operations
    return the closed :class:`Span` (or ``None``) instead of invoking
    callbacks — callers deliver any derived events themselves, outside
    whatever locks they hold.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._origin = time.monotonic()
        self._open: dict[str, float] = {}
        self._spans: list[Span] = []

    def _now(self) -> float:
        return time.monotonic() - self._origin

    def begin(self, name: str) -> None:
        with self._lock:
            self._open[name] = self._now()

    def end(self, name: str) -> Span | None:
        """Close an open span; ``None`` when ``name`` was never begun."""
        now = self._now()
        with self._lock:
            start = self._open.pop(name, None)
            if start is None:
                return None
            span = Span(name, start, now)
            self._spans.append(span)
            return span

    def lap(self, name: str) -> Span | None:
        """Close the open ``name`` span (if any) and open the next one.

        Returns the span just closed — the per-round heartbeat: the
        first lap opens round 1, each later lap closes a round and
        opens the next.
        """
        now = self._now()
        with self._lock:
            start = self._open.get(name)
            self._open[name] = now
            if start is None:
                return None
            span = Span(name, start, now)
            self._spans.append(span)
            return span

    def add(self, name: str, seconds: float) -> Span:
        """Record an externally-measured duration, anchored at now."""
        now = self._now()
        span = Span(name, now - seconds, now)
        with self._lock:
            self._spans.append(span)
        return span

    def discard(self, name: str) -> None:
        """Drop an open span without recording it (a trailing ``round``
        lap that never completed is not a round)."""
        with self._lock:
            self._open.pop(name, None)

    def freeze(self) -> tuple[Span, ...]:
        """The spans recorded so far, chronological by end time."""
        with self._lock:
            return tuple(sorted(self._spans, key=lambda s: (s.end, s.start)))


def trace_phases(traces) -> dict:
    """Aggregate one or many frozen traces into per-phase totals.

    Returns ``{phase: {"seconds": total, "count": n}}`` where the phase
    is the span name with any ``:suffix`` stripped (``round:3`` folds
    into ``round``) — the shape the benchmarks store next to their
    wall-clock numbers.
    """
    if traces and isinstance(traces[0], Span):
        traces = [traces]
    out: dict[str, dict] = {}
    for trace in traces:
        for span in trace:
            phase = span.name.split(":", 1)[0]
            slot = out.setdefault(phase, {"seconds": 0.0, "count": 0})
            slot["seconds"] += span.seconds
            slot["count"] += 1
    return out
