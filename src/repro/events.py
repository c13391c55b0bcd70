"""Typed progress events streamed from a running query job.

A :class:`~repro.server.jobs.QueryJob` exposes ``events()``, an iterator
over the events below.  They are emitted from two hooks:

* the scheduler (:mod:`repro.server.topk_server`) marks the job
  lifecycle — :class:`JobQueued`, :class:`JobStarted`,
  :class:`JobFinished`;
* the S1 context (:mod:`repro.protocols.base`) and the NRA engine loop
  (:mod:`repro.core.engine`) mark query progress — one
  :class:`RoundTrip` per coalesced round (with the channel's cumulative
  byte/round counters), one :class:`DepthAdvanced` per scanned depth,
  and one :class:`CandidateFinalized` per winner once the halting rule
  fixes the top-k.

Events are observations, never protocol state: emitting them consumes
no randomness and touches no ciphertext, so a job run with a listener
is bit-identical (results, rounds, bytes, leakage) to one without.

This module is a leaf — it may be imported from any layer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProgressEvent:
    """Base class of every event a query job streams."""


@dataclass(frozen=True)
class JobQueued(ProgressEvent):
    """The server admitted the job; it waits for a thread."""

    job_id: int


@dataclass(frozen=True)
class JobStarted(ProgressEvent):
    """The job's thread picked it up and began executing it."""

    job_id: int


@dataclass(frozen=True)
class RoundTrip(ProgressEvent):
    """One coalesced communication round completed.

    Counters are *cumulative* for the job's channel, so a consumer can
    render live totals without summing.
    """

    rounds: int
    bytes_s1_to_s2: int
    bytes_s2_to_s1: int


@dataclass(frozen=True)
class DepthAdvanced(ProgressEvent):
    """The NRA engine finished scanning one depth of the sorted lists."""

    depth: int
    """1-based depth just completed."""

    candidates: int
    """Size of the candidate list ``T`` after this depth."""


@dataclass(frozen=True)
class CandidateFinalized(ProgressEvent):
    """The halting rule fixed one winner (emitted once per rank)."""

    rank: int
    """1-based position in the top-k, best first."""

    depth: int
    """1-based depth at which the query halted."""


@dataclass(frozen=True)
class S2Progress(ProgressEvent):
    """S2-side decrypt-batch progress, piggybacked on a REPLY frame.

    Remote daemons report how much crypto work each round carried (the
    REPLY frame's progress element).  Counters are per-round, not cumulative.
    """

    batches: int
    """How many dispatched requests this round's REPLY covered."""

    values: int
    """Total payload values (ciphertexts and friends) across them."""

    seconds: float
    """S2-side wall-clock spent serving the round."""


@dataclass(frozen=True)
class SpanClosed(ProgressEvent):
    """A :class:`~repro.obs.trace.Span` of the job's trace closed.

    Streams the trace live (per-round laps, S2 sub-spans); the
    full timeline lands on ``result.stats.trace`` at the end.
    """

    name: str
    seconds: float


@dataclass(frozen=True)
class TopKChanged(ProgressEvent):
    """A continuous top-k watch observed a new winning set.

    Emitted by a :class:`~repro.server.jobs.WatchJob` once per
    *distinct* top-k set: the first evaluation always emits (the watch's
    initial view), later re-evaluations emit only when the revealed
    ``(object_id, score)`` set actually changed — an insert that lands
    outside the top-k produces no event.
    """

    version: int
    """Relation version the evaluation ran against."""

    top_k: tuple
    """The revealed winners — ``(object_id, score)`` pairs, best first."""


@dataclass(frozen=True)
class JobFinished(ProgressEvent):
    """Terminal event: the job reached ``done``/``cancelled``/``failed``.

    Always the last event of a job's stream.
    """

    job_id: int
    status: str
