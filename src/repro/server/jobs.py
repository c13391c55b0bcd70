"""Query jobs: the asynchronous unit of work of the client API.

A :class:`QueryJob` is the future-like handle :meth:`TopKServer.submit
<repro.server.topk_server.TopKServer.submit>` returns: it resolves to a
:class:`~repro.core.results.QueryResult` (:meth:`QueryJob.result`),
supports cooperative cancellation (:meth:`QueryJob.cancel`) and per-job
deadlines, and streams typed :mod:`repro.events` progress events
(:meth:`QueryJob.events`) while the query runs.

Cancellation and deadlines are *cooperative*: the job's
:class:`JobControl` is checked at every communication round boundary
(see :meth:`~repro.protocols.base.S1Context.checkpoint`) and at every engine
depth, so an abort never interrupts a round mid-flight — the transport
and the S2 side stay consistent, and the server keeps serving
subsequent jobs.  A job executed on a worker *process*
(``execute_many(mode="process")``) honours cancellation only while it
is still queued; its deadline, if any, travels with it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.exceptions import JobCancelled, JobTimeout
from repro.events import (
    JobFinished,
    JobQueued,
    JobStarted,
    ProgressEvent,
    RoundTrip,
    S2Progress,
    SpanClosed,
    TopKChanged,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import JobTrace

_QUEUE_WAIT = REGISTRY.histogram(
    "repro_scheduler_queue_wait_seconds",
    "Seconds a job waited between admission and start.",
)

#: How many swallowed listener exceptions a job retains (the first N; a
#: persistently broken listener fails once per event, and keeping every
#: traceback alive would grow memory with the length of the scan).
MAX_RECORDED_LISTENER_ERRORS = 32


class JobStatus:
    """Lifecycle states of a :class:`QueryJob`."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"

    #: States from which the job will never move again.
    TERMINAL = frozenset({DONE, CANCELLED, FAILED})


class JobControl:
    """Cancellation flag + absolute deadline, checked at round boundaries.

    The S1 context holds a reference and calls :meth:`check` before
    every round flush; raising here is what aborts the query at the
    next safe point.
    """

    __slots__ = ("_cancelled", "_deadline")

    def __init__(self, timeout: float | None = None):
        self._cancelled = threading.Event()
        self._deadline = None if timeout is None else time.monotonic() + timeout

    def cancel(self) -> None:
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def deadline_expired(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline

    @property
    def remaining(self) -> float | None:
        """Seconds until the deadline (``None`` = no deadline)."""
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def check(self) -> None:
        """Raise if the job should stop at this boundary."""
        if self._cancelled.is_set():
            raise JobCancelled("job cancelled at a round boundary")
        if self.deadline_expired:
            raise JobTimeout("job deadline exceeded at a round boundary")


class QueryJob:
    """Future-like handle for one submitted top-k query."""

    def __init__(self, job_id: int, token, config, timeout: float | None = None,
                 expect_version: int | None = None):
        self.job_id = job_id
        self.token = token
        self.config = config
        #: Relation version the submitter pinned the query to (``None``:
        #: whichever version is served when the job runs).
        self.expect_version = expect_version
        self._control = JobControl(timeout)
        self._status = JobStatus.PENDING
        self._result = None
        self._error: BaseException | None = None
        self._done = threading.Event()
        self._events: list[ProgressEvent] = []
        self._events_cond = threading.Condition()
        self._callbacks: list = []
        self._listeners: list = []
        self._listener_errors: list[BaseException] = []
        # Installed by the scheduler: how this job actually executes.
        self._runner = None
        #: Monotonic-clock span timeline of this job (queued, run,
        #: per-round laps, S2 sub-spans).  Frozen onto the result
        #: at completion; purely observational — never consulted by the
        #: protocol.
        self.trace = JobTrace()

    # -- observation ------------------------------------------------------

    @property
    def status(self) -> str:
        """Current :class:`JobStatus` value."""
        return self._status

    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self._done.is_set()

    def result(self, timeout: float | None = None):
        """Block for the :class:`~repro.core.results.QueryResult`.

        ``timeout`` bounds the *wait* only (the job keeps running; a
        ``TimeoutError`` here is not a job failure).  A cancelled job
        raises :class:`~repro.exceptions.JobCancelled`, a deadline-hit
        job :class:`~repro.exceptions.JobTimeout`, and a failed job its
        original error.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} not finished within {timeout}s (still "
                f"{self._status})"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block for the job's error (``None`` when it succeeded)."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.job_id} not finished within {timeout}s")
        return self._error

    # -- cancellation -----------------------------------------------------

    def cancel(self) -> bool:
        """Request cooperative cancellation.

        Returns ``False`` when the job already reached a terminal state
        (too late), ``True`` otherwise — the job will stop at the next
        round boundary (or before it ever starts, if still queued).
        """
        if self._done.is_set():
            return False
        self._control.cancel()
        return True

    # -- event stream -----------------------------------------------------

    def events(self):
        """Iterate the job's progress events, live.

        Yields every recorded event in order, blocking for new ones
        while the job runs; the stream ends after the terminal
        :class:`~repro.events.JobFinished` event.  Multiple independent
        iterations are allowed (each replays from the start).
        """
        index = 0
        while True:
            with self._events_cond:
                while index >= len(self._events) and not self._done.is_set():
                    self._events_cond.wait()
                if index >= len(self._events):
                    return
                event = self._events[index]
            index += 1
            yield event

    def add_listener(self, callback) -> None:
        """Register a push listener: ``callback(event)`` runs for every
        subsequent progress event, on the thread that produced it (the
        job's own thread, inside the round loop).

        Listener exceptions are swallowed and recorded in
        :attr:`listener_errors` (the first
        :data:`MAX_RECORDED_LISTENER_ERRORS`) — a broken listener can
        observe a query, never corrupt it.  Prefer :meth:`events` for
        consumption at your own pace; listeners are for low-latency
        taps (metrics, logs).
        """
        with self._events_cond:
            self._listeners.append(callback)

    @property
    def listener_errors(self) -> list[BaseException]:
        """Exceptions raised by push listeners, in occurrence order."""
        with self._events_cond:
            return list(self._listener_errors)

    # -- scheduler-side hooks ---------------------------------------------

    def _record_event(self, event: ProgressEvent) -> None:
        # Derive trace spans *before* touching the (non-reentrant)
        # condition: RoundTrip laps the current round span, S2 progress
        # frames land as anchored sub-spans.
        derived = None
        if isinstance(event, RoundTrip):
            span = self.trace.lap("round")
            if span is not None:
                derived = SpanClosed(name=span.name, seconds=span.seconds)
        elif isinstance(event, S2Progress):
            self.trace.add("s2", event.seconds)
        with self._events_cond:
            self._events.append(event)
            self._events_cond.notify_all()
            listeners = list(self._listeners)
        self._deliver(listeners, event)
        if derived is not None:
            self._record_event(derived)

    def _deliver(self, listeners: list, event: ProgressEvent) -> None:
        """Push one event to listeners; swallow-and-record failures (the
        caller may be the round loop, which must never see them)."""
        for callback in listeners:
            try:
                callback(event)
            except Exception as exc:
                with self._events_cond:
                    if len(self._listener_errors) < MAX_RECORDED_LISTENER_ERRORS:
                        self._listener_errors.append(exc)

    def _mark_queued(self) -> None:
        self.trace.begin("queued")
        self._record_event(JobQueued(job_id=self.job_id))

    def _start(self) -> bool:
        """Transition to RUNNING; ``False`` when the job must not run
        (cancelled or expired while queued — finished here instead)."""
        if self._control.cancelled:
            self._finish_error(
                JobCancelled("job cancelled before it started"),
                JobStatus.CANCELLED,
            )
            return False
        if self._control.deadline_expired:
            self._finish_error(
                JobTimeout("job deadline expired while queued"), JobStatus.FAILED
            )
            return False
        self._status = JobStatus.RUNNING
        queued = self.trace.end("queued")
        if queued is not None:
            _QUEUE_WAIT.observe(queued.seconds)
        self.trace.begin("run")
        self.trace.begin("round")
        self._record_event(JobStarted(job_id=self.job_id))
        if queued is not None:
            self._record_event(SpanClosed(name=queued.name, seconds=queued.seconds))
        return True

    def _finish_result(self, result) -> None:
        self._result = result
        self._finish(JobStatus.DONE)

    def _close_run_span(self) -> None:
        """End the lifecycle spans (tail of an open round lap is not a
        round — discard it) and emit the run span's closure."""
        self.trace.discard("round")
        run = self.trace.end("run")
        if run is not None:
            self._record_event(SpanClosed(name=run.name, seconds=run.seconds))
        if self._result is not None:
            try:
                self._result.trace = self.trace.freeze()
                vars(self._result).pop("stats", None)
            except Exception:
                pass

    def _finish_error(self, error: BaseException, status: str | None = None) -> None:
        self._error = error
        if status is None:
            if isinstance(error, JobCancelled):
                status = JobStatus.CANCELLED
            else:
                status = JobStatus.FAILED
        self._finish(status)

    def _finish(self, status: str) -> None:
        if status not in JobStatus.TERMINAL:
            raise ValueError(f"not a terminal job status: {status!r}")
        self._close_run_span()
        self._status = status
        event = JobFinished(job_id=self.job_id, status=status)
        with self._events_cond:
            self._events.append(event)
            self._done.set()
            self._events_cond.notify_all()
            listeners = list(self._listeners)
        self._deliver(listeners, event)
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _add_done_callback(self, callback) -> None:
        """Internal: run ``callback(job)`` once terminal (immediately if
        already done).  Used by the server's windowed batch execution."""
        run_now = False
        with self._events_cond:
            if self._done.is_set():
                run_now = True
            else:
                self._callbacks.append(callback)
        if run_now:
            callback(self)


@dataclass
class WatchSummary:
    """What a gracefully stopped :class:`WatchJob` resolves to."""

    evaluations: int
    """Top-k evaluations actually run (idle wakeups don't count)."""

    changes: int
    """:class:`~repro.events.TopKChanged` events emitted."""

    last_version: int | None
    """Relation version of the last evaluation (``None``: none ran)."""

    last_top_k: tuple | None
    """The last emitted winners — ``(object_id, score)`` pairs."""

    trace: object | None = None
    """Frozen job trace, installed by the job machinery at completion."""


class WatchJob(QueryJob):
    """A long-lived continuous top-k job.

    Runs through the same job lifecycle as a :class:`QueryJob`, but on a
    thread of its own rather than the server's pool, because instead of
    resolving after one query it loops:
    evaluate the top-k, emit a :class:`~repro.events.TopKChanged` event
    whenever the revealed winning set differs from the previous one,
    then sleep until the server signals a mutation (:meth:`notify`), the
    deadline nears, or the watch is ended.

    Two ways to end it:

    * :meth:`stop` — graceful; the loop evaluates once more if the
      relation changed since its last evaluation, then exits, and the job
      resolves ``DONE`` with a :class:`WatchSummary`;
    * :meth:`cancel` — cooperative abort (also what ``TopKServer.close``
      uses to drain live watches); the job terminates ``CANCELLED``, at
      a round boundary even mid-evaluation.

    ``window`` selects the sliding-insert mode: each evaluation runs
    over the last ``window`` live rows in insertion order instead of the
    whole relation (``k`` is clamped to the window's size).
    """

    def __init__(self, job_id: int, token, config,
                 timeout: float | None = None, window: int | None = None):
        super().__init__(job_id, token, config, timeout)
        self.window = window
        #: Live count of evaluations run so far (monotonic; written by
        #: the watch runner, so a reader may briefly lag — the
        #: :class:`WatchSummary` carries the authoritative final value).
        self.evaluations = 0
        self._wake = threading.Event()
        self._stopped = False

    def notify(self) -> None:
        """Wake the watch loop (the server calls this on every mutation)."""
        self._wake.set()

    def stop(self) -> None:
        """End the watch gracefully: every mutation made before this call
        is evaluated, then it resolves with its summary."""
        self._stopped = True
        self._wake.set()

    def cancel(self) -> bool:
        cancelled = super().cancel()
        self._wake.set()
        return cancelled

    def changes(self):
        """Iterate only the :class:`~repro.events.TopKChanged` events,
        live (same semantics as :meth:`QueryJob.events`)."""
        for event in self.events():
            if isinstance(event, TopKChanged):
                yield event

    def summary(self, timeout: float | None = None) -> WatchSummary:
        """Block for the watch's :class:`WatchSummary` (alias of
        :meth:`result` with the watch-shaped return type)."""
        return self.result(timeout)
