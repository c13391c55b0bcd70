"""Byte- and round-accounting channel between the two clouds.

Every sub-protocol sends its messages through a :class:`Channel`; the
channel measures the serialized size of whatever crosses it and attributes
the traffic to the protocol named in the current :meth:`Channel.round`
context.  Nothing is actually copied — accounting is the only effect —
which keeps the in-process simulation fast while making the Table 3 /
Figure 13 numbers exact.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY

# Process-wide traffic instruments (see ARCHITECTURE.md, observability
# layer).  Children resolved once at import so the per-message cost is
# one lock + add; recording is observation only — the ChannelStats the
# transcripts are pinned on never route through these.
_ROUNDS = REGISTRY.counter(
    "repro_channel_rounds_total", "Physical S1<->S2 round-trips."
)
_BYTES = REGISTRY.counter(
    "repro_channel_bytes_total",
    "Protocol payload bytes crossing the inter-cloud link.",
    labelnames=("direction",),
)
_BYTES_S1_TO_S2 = _BYTES.labels(direction="s1_to_s2")
_BYTES_S2_TO_S1 = _BYTES.labels(direction="s2_to_s1")


def measure_size(obj) -> int:
    """Serialized byte size of a protocol message component.

    Supports the types that ever cross the inter-cloud boundary:
    ciphertext vectors and single ciphertexts, item batches and join
    tuples (each knows its own size), integers, bits/bools, bytes, and
    (possibly nested) lists/tuples of those.
    """
    # Most of a message is objects that know their own size (each a
    # length sum); ask them before walking the type chain.
    sized = getattr(obj, "serialized_size", None)
    if sized is not None:
        return sized()
    if obj is None:
        return 0
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return max(1, (obj.bit_length() + 7) // 8)
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(measure_size(x) for x in obj)
    raise TypeError(f"cannot measure wire size of {type(obj).__name__}")


@dataclass
class ChannelStats:
    """Cumulative traffic statistics for one channel."""

    bytes_s1_to_s2: int = 0
    bytes_s2_to_s1: int = 0
    rounds: int = 0
    per_protocol_bytes: dict = field(default_factory=lambda: defaultdict(int))
    per_protocol_rounds: dict = field(default_factory=lambda: defaultdict(int))

    @property
    def total_bytes(self) -> int:
        """Bytes in both directions."""
        return self.bytes_s1_to_s2 + self.bytes_s2_to_s1

    def snapshot(self) -> "ChannelStats":
        """A frozen copy (for before/after deltas)."""
        copy = ChannelStats(
            bytes_s1_to_s2=self.bytes_s1_to_s2,
            bytes_s2_to_s1=self.bytes_s2_to_s1,
            rounds=self.rounds,
        )
        copy.per_protocol_bytes = defaultdict(int, self.per_protocol_bytes)
        copy.per_protocol_rounds = defaultdict(int, self.per_protocol_rounds)
        return copy

    def delta(self, earlier: "ChannelStats") -> "ChannelStats":
        """Traffic since ``earlier`` (an earlier :meth:`snapshot`)."""
        diff = ChannelStats(
            bytes_s1_to_s2=self.bytes_s1_to_s2 - earlier.bytes_s1_to_s2,
            bytes_s2_to_s1=self.bytes_s2_to_s1 - earlier.bytes_s2_to_s1,
            rounds=self.rounds - earlier.rounds,
        )
        for key, value in self.per_protocol_bytes.items():
            previous = earlier.per_protocol_bytes.get(key, 0)
            if value != previous:
                diff.per_protocol_bytes[key] = value - previous
        for key, value in self.per_protocol_rounds.items():
            previous = earlier.per_protocol_rounds.get(key, 0)
            if value != previous:
                diff.per_protocol_rounds[key] = value - previous
        return diff


@dataclass(frozen=True)
class LinkModel:
    """A simple latency model for the inter-cloud link.

    The paper assumes "a standard 50 Mbps LAN setting" between the two
    clouds when converting bandwidth into latency (Table 3), and notes
    that round-trip time is negligible next to computation; both knobs
    are configurable here.
    """

    bandwidth_mbps: float = 50.0
    rtt_ms: float = 0.0

    def latency_seconds(self, stats: ChannelStats) -> float:
        """Modeled wall-clock time the measured traffic would take."""
        transfer = stats.total_bytes * 8 / (self.bandwidth_mbps * 1_000_000)
        return transfer + stats.rounds * self.rtt_ms / 1000.0


class Channel:
    """The S1 <-> S2 message channel with automatic accounting.

    The S1 round loop (:meth:`repro.protocols.base.S1Context.run_flows`)
    accounts every message exchange here::

        with channel.coalesced_round([msg.protocol for msg in batch]):
            for msg in batch:
                with channel.protocol(msg.protocol):
                    channel.send(msg.request_payload())   # S1 -> S2
            ...
            channel.receive(reply)                        # S2 -> S1

    The :meth:`round` context (one protocol, one round) remains for
    direct use in tests and ad-hoc accounting.
    """

    def __init__(self):
        self.stats = ChannelStats()
        self._current_protocol: list[str] = []

    # -- round bookkeeping ---------------------------------------------

    @contextlib.contextmanager
    def round(self, protocol: str):
        """One communication round attributed to ``protocol``."""
        self._current_protocol.append(protocol)
        self.stats.rounds += 1
        self.stats.per_protocol_rounds[protocol] += 1
        _ROUNDS.inc()
        try:
            yield self
        finally:
            self._current_protocol.pop()

    @contextlib.contextmanager
    def coalesced_round(self, protocols: list[str]):
        """One round-trip carrying requests of several protocols.

        The global round counter increments once (it measures physical
        round-trips); each *distinct* participating protocol's round
        counter increments once (it measures how many rounds that
        protocol rode in).  With a single-protocol batch this is exactly
        :meth:`round`.
        """
        self.stats.rounds += 1
        for name in dict.fromkeys(protocols):
            self.stats.per_protocol_rounds[name] += 1
        _ROUNDS.inc()
        yield self

    @contextlib.contextmanager
    def protocol(self, protocol: str):
        """Attribute traffic to ``protocol`` without counting a round.

        Used by composite protocols whose inner sub-protocols count their
        own rounds.
        """
        self._current_protocol.append(protocol)
        try:
            yield self
        finally:
            self._current_protocol.pop()

    def _attribute(self, nbytes: int) -> None:
        label = self._current_protocol[-1] if self._current_protocol else "?"
        self.stats.per_protocol_bytes[label] += nbytes

    # -- transfers ------------------------------------------------------

    def send(self, *objects):
        """Record an S1 -> S2 transfer; returns the payload unchanged."""
        nbytes = measure_size(list(objects))
        self.stats.bytes_s1_to_s2 += nbytes
        self._attribute(nbytes)
        _BYTES_S1_TO_S2.inc(nbytes)
        return objects[0] if len(objects) == 1 else objects

    def receive(self, *objects):
        """Record an S2 -> S1 transfer; returns the payload unchanged."""
        nbytes = measure_size(list(objects))
        self.stats.bytes_s2_to_s1 += nbytes
        self._attribute(nbytes)
        _BYTES_S2_TO_S1.inc(nbytes)
        return objects[0] if len(objects) == 1 else objects

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> ChannelStats:
        """Frozen copy of the running statistics."""
        return self.stats.snapshot()

    def reset(self) -> None:
        """Zero all counters."""
        self.stats = ChannelStats()
