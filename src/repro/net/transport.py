"""Transport backends carrying protocol messages between the clouds.

A :class:`Transport` delivers a *batch* of typed request messages to S2
and returns the per-message replies; one :meth:`Transport.exchange` call
is one communication round-trip, which is exactly what the channel's
round counter measures.

:class:`InProcessTransport` invokes the S2 dispatcher directly.  Nothing
is copied or encoded (the accounting channel still measures payload
sizes), which keeps the simulation as fast as a direct call while
enforcing the message boundary.

The byte link lives in :mod:`repro.net.socket_transport`: a
:class:`~repro.net.socket_transport.SocketTransport` speaks the
:class:`~repro.net.wire.WireCodec` byte stream over TCP or Unix-domain
sockets to the standalone S2 daemon (:mod:`repro.server.s2_service`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod


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


class InProcessTransport(Transport):
    """Directly dispatch messages to an in-process S2."""

    def __init__(self, dispatcher):
        self.dispatcher = dispatcher

    def exchange(self, messages: list) -> list:
        return [self.dispatcher.dispatch(msg) for msg in messages]
