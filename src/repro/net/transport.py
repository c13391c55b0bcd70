"""Transport backends carrying protocol messages between the clouds.

A :class:`Transport` delivers a *batch* of typed request messages to S2
and returns the per-message replies; one :meth:`Transport.exchange` call
is one communication round-trip, which is exactly what the channel's
round counter measures.

:class:`InProcessTransport` invokes the S2 dispatcher directly.  Nothing
is copied or encoded (the accounting channel still measures payload
sizes), which keeps the simulation as fast as a direct call while
enforcing the message boundary; :class:`LatencyTransport` adds a
simulated round-trip time to any backend.

The byte link lives in :mod:`repro.net.socket_transport`: a
:class:`~repro.net.socket_transport.SocketTransport` speaks the
:class:`~repro.net.wire.WireCodec` byte stream over TCP or Unix-domain
sockets to the standalone S2 daemon (:mod:`repro.server.s2_service`).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

from repro.exceptions import ProtocolError


class Transport(ABC):
    """One side of the S1 <-> S2 link, message-batch oriented."""

    @abstractmethod
    def exchange(self, messages: list) -> list:
        """Deliver ``messages`` in one round-trip; return their replies."""

    def close(self) -> None:
        """Release transport resources (idempotent).

        Implementations must tolerate a dead peer: closing a link whose
        other side already vanished reports nothing — the client API's
        idempotent teardown depends on close never masking the error
        that killed the link."""


class LatencyTransport(Transport):
    """Wrap a transport with a simulated per-round-trip link latency.

    The two clouds live at different providers in the paper's deployment
    model; sleeping one RTT per :meth:`exchange` turns the in-process
    simulation into a WAN-shaped one, which is what makes concurrent
    sessions (thread- or process-pooled) overlap genuinely measurable
    wall-clock latency in the benchmarks.  The sleep releases the GIL,
    so concurrency hides it exactly like a real network wait.
    """

    def __init__(self, inner: Transport, rtt_ms: float):
        if rtt_ms < 0:
            raise ProtocolError("link RTT cannot be negative")
        self.inner = inner
        self.rtt_ms = rtt_ms

    def exchange(self, messages: list) -> list:
        replies = self.inner.exchange(messages)
        time.sleep(self.rtt_ms / 1000.0)
        return replies

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name):
        # Transparent wrapper: backend-specific surface (``session_id``,
        # ...) stays reachable through the latency shim.
        # ``copy`` and ``pickle`` probe dunders on an instance whose
        # ``__init__`` never ran: neither those nor ``inner`` itself may
        # be forwarded, or the lookup recurses.
        if name == "inner" or name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.inner, name)


class InProcessTransport(Transport):
    """Directly dispatch messages to an in-process S2."""

    def __init__(self, dispatcher):
        self.dispatcher = dispatcher

    def exchange(self, messages: list) -> list:
        return [self.dispatcher.dispatch(msg) for msg in messages]
