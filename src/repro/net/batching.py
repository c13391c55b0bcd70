"""Round coalescing: many independent S2 requests, one round-trip.

The paper counts communication *rounds* per depth (Table 3, Fig. 13);
the seed implementation issued one round per sub-protocol call, so a
depth with ``m`` lists cost ``O(m)`` round-trips.  This module lets
callers express a protocol as a *flow* — a generator that ``yield``\\ s
request messages and receives their replies — and runs many flows in
lock-step: at each stage, every pending request across all flows is
flushed to S2 as ONE coalesced round-trip.

A protocol written once as a flow serves both styles:

* synchronous — ``run_flows([flow])`` drives it alone, one round per
  yield (exactly the seed's round structure), and
* coalesced — the engines pass all of a depth's independent flows
  together, collapsing ``O(m)`` equality/recover rounds into ``O(1)``.

Accounting: a coalesced flush increments the global round counter once
and credits each *distinct* participating protocol's round counter, so
``sum(per_protocol_rounds)`` can exceed ``rounds`` in coalesced runs —
the per-protocol view answers "how many rounds did this protocol ride
in", the global counter "how many round-trips crossed the link".
"""

from __future__ import annotations

from repro.exceptions import ShardFanInError
from repro.net.channel import Channel
from repro.net.transport import Transport


def single_message_flow(msg):
    """A flow that performs exactly one request/reply exchange."""
    reply = yield msg
    return reply


def fan_in_batches(
    per_shard_batches: list,
    lo: int | None = None,
    hi: int | None = None,
    shard_ids: list | None = None,
) -> list:
    """Fan-in stage of the sharded scan: merge per-shard depth batches.

    Each shard worker contributes a batch of ``(depth, payload)`` pairs
    for the depths of one check window that fall inside its slice; this
    stage merges them into a single depth-ordered batch — the stream the
    engine consumes — *before* the window's rounds are built, so the
    messages that reach the round batcher are exactly the ones an
    unsharded scan would send.

    Validates that the shards' contributions tile the window: a
    duplicated or missing depth means the shard plan and the workers
    disagree, and silently proceeding would desynchronize the transcript
    from the unsharded run.  Pass the window bounds ``[lo, hi)`` to
    catch depths missing at the window *edges* too — without them only
    interior gaps are detectable.  Pass ``shard_ids`` (one id per batch,
    in batch order) and the raised :class:`ShardFanInError` names the
    shard whose contribution broke the tiling.
    """
    if shard_ids is None:
        shard_ids = [None] * len(per_shard_batches)
    owner = {}
    merged = []
    for batch, shard_id in zip(per_shard_batches, shard_ids):
        for pair in batch:
            depth = pair[0]
            if depth in owner:
                raise ShardFanInError(
                    "shard fan-in: overlapping depth batches at depth "
                    f"{depth}",
                    shard_id=shard_id,
                    window=(lo, hi) if lo is not None and hi is not None else None,
                )
            owner[depth] = shard_id
            merged.append(pair)
    merged.sort(key=lambda pair: pair[0])
    depths = [depth for depth, _ in merged]
    if lo is not None and hi is not None:
        if depths != list(range(lo, hi)):
            missing = sorted(set(range(lo, hi)) - set(depths))
            stray = sorted(set(depths) - set(range(lo, hi)))
            detail = f"shard fan-in: batches do not tile the window [{lo}, {hi})"
            culprit = None
            if stray:
                detail += f"; stray depths {stray}"
                culprit = owner.get(stray[0])
            if missing:
                detail += f"; missing depths {missing}"
            raise ShardFanInError(detail, shard_id=culprit, window=(lo, hi))
    elif depths and depths != list(range(depths[0], depths[0] + len(depths))):
        gap_after = next(
            d for d, nxt in zip(depths, depths[1:]) if nxt != d + 1
        )
        raise ShardFanInError(
            f"shard fan-in: depth batches leave a gap after depth {gap_after}",
            shard_id=owner.get(gap_after),
        )
    return merged


class RoundBatcher:
    """Drives protocol flows over a transport with channel accounting.

    ``before_round`` / ``after_round`` are the job-control hooks of the
    client API: the first runs ahead of every flush (cooperative
    cancellation and per-job deadlines trigger here — *the* round
    boundary), the second after the replies land (progress streaming).
    Both are observations only; they never touch the message stream.

    ``before_round`` exceptions are the abort mechanism (job control
    raises :class:`~repro.exceptions.JobCancelled` / ``JobTimeout``
    there on purpose), so they propagate.  ``after_round`` only streams
    progress: an exception out of it — a broken user listener — must
    never corrupt a query mid-round, so it is swallowed and recorded in
    :attr:`hook_errors` instead.
    """

    def __init__(
        self,
        channel: Channel,
        transport: Transport,
        before_round=None,
        after_round=None,
    ):
        self.channel = channel
        self.transport = transport
        self._before_round = before_round
        self._after_round = after_round
        #: Exceptions raised by observation-only hooks, in occurrence
        #: order (first :data:`MAX_RECORDED_HOOK_ERRORS` retained — a
        #: persistently broken hook fails every round, and keeping every
        #: traceback alive would grow with the scan); the round loop
        #: keeps going either way.
        self.hook_errors: list[BaseException] = []

    #: Retention cap for :attr:`hook_errors`.
    MAX_RECORDED_HOOK_ERRORS = 32

    def record_hook_error(self, exc: BaseException) -> None:
        """Keep a swallowed observation-hook exception (bounded)."""
        if len(self.hook_errors) < self.MAX_RECORDED_HOOK_ERRORS:
            self.hook_errors.append(exc)

    # -- public API ------------------------------------------------------

    def call(self, msg):
        """One message, one round-trip; returns the reply."""
        return self._flush([msg])[0]

    def run_flows(self, flows: list) -> list:
        """Run flows in lock-step; returns their results in order.

        Each iteration advances every unfinished flow by one yield,
        collects the yielded messages, and flushes them as a single
        coalesced round.  Flows of different lengths are fine — finished
        flows simply stop participating.  Flows are always advanced in
        list order, so a flow may rely on earlier flows having completed
        the same stage (the eager engine's absorption uses this).
        """
        results = [None] * len(flows)
        replies = [None] * len(flows)
        active = list(range(len(flows)))
        while active:
            stage: list[tuple[int, object]] = []
            for i in active:
                try:
                    stage.append((i, flows[i].send(replies[i])))
                except StopIteration as stop:
                    results[i] = stop.value
            if stage:
                flushed = self._flush([msg for _, msg in stage])
                for (i, _), reply in zip(stage, flushed):
                    replies[i] = reply
            active = [i for i, _ in stage]
        return results

    # -- one coalesced round ---------------------------------------------

    def _flush(self, messages: list) -> list:
        """Ship ``messages`` in one round-trip, with byte/round accounting.

        The ``before_round`` checkpoint (deadline / cancellation) fires
        before anything is sent, so a cancelled job stops at the round
        boundary.
        """
        if self._before_round is not None:
            self._before_round()
        channel = self.channel
        with channel.coalesced_round([msg.protocol for msg in messages]):
            for msg in messages:
                with channel.protocol(msg.protocol):
                    channel.send(msg.request_payload())
            replies = self.transport.exchange(messages)
            for msg, reply in zip(messages, replies):
                with channel.protocol(msg.protocol):
                    channel.receive(reply)
        if self._after_round is not None:
            try:
                self._after_round()
            except Exception as exc:  # observation hook: never abort the round loop
                self.record_hook_error(exc)
        return replies
