"""Transport backends carrying protocol messages between the clouds.

A :class:`Transport` delivers a *batch* of typed request messages to S2
and returns the per-message replies; one :meth:`Transport.exchange` call
is one communication round-trip, which is exactly what the channel's
round counter measures.

Two backends:

* :class:`InProcessTransport` — invokes the S2 dispatcher directly.
  Nothing is copied or encoded (the accounting channel still measures
  payload sizes), which keeps the simulation as fast as the seed's
  direct-call style while enforcing the message boundary.

* :class:`ThreadedTransport` — a one-thread executor standing in for
  S2.  Requests and replies genuinely cross the boundary as *bytes*
  (encoded with :class:`~repro.net.wire.WireCodec`), so nothing but
  serialized messages ever reaches S2 — the strongest in-process stand-in
  for a socket link.

The real socket link lives in :mod:`repro.net.socket_transport`: a
:class:`~repro.net.socket_transport.SocketTransport` speaks the same
codec over TCP or Unix-domain sockets to the standalone S2 daemon
(:mod:`repro.server.s2_service`).
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor

from repro.exceptions import ProtocolError
from repro.net.wire import WireCodec


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
        # Transparent wrapper: backend-specific surface (``closed``,
        # ``session_id``, ...) stays reachable through the latency shim.
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


class ThreadedTransport(Transport):
    """A link to an S2 service thread with real serialization.

    The S1 side encodes each request batch to bytes; the transport's
    one-worker executor decodes, dispatches in order and encodes the
    replies back.  Each endpoint owns its own :class:`WireCodec`; the
    registries stay in sync because both process the identical byte
    stream in the same order — which is why one lock covers a whole
    exchange, encode to decode.
    """

    def __init__(self, dispatcher):
        self.dispatcher = dispatcher
        self._s1_codec = WireCodec()
        self._s2_codec = WireCodec()
        self._closed = False
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(1, thread_name_prefix="s2-transport")

    def _serve(self, data: bytes) -> bytes:
        """S2 side of one round: decode, dispatch, encode the replies."""
        messages = self._s2_codec.decode_envelope(data)
        return self._s2_codec.encode_replies(
            [self.dispatcher.dispatch(msg) for msg in messages]
        )

    def exchange(self, messages: list) -> list:
        with self._lock:
            if self._closed:
                raise ProtocolError("transport is closed")
            data = self._s1_codec.encode_envelope(messages)
            try:
                reply = self._executor.submit(self._serve, data).result()
            except Exception as exc:
                raise ProtocolError(
                    f"S2 dispatch failed ({type(exc).__name__}): {exc}"
                ) from exc
            return self._s1_codec.decode_replies(reply)

    def close(self) -> None:
        """Retire the S2 service thread deterministically.

        Waits for an in-flight exchange (it holds the lock) and joins
        the worker, so when ``close`` returns no service thread survives
        — tests can assert a clean slate between cases.
        """
        with self._lock:
            self._closed = True
            self._executor.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has retired the service thread."""
        return self._closed


def make_transport(kind: str, dispatcher, rtt_ms: float = 0.0) -> Transport:
    """Build a *local* transport backend by name (``"inprocess"`` or
    ``"threaded"``).

    Remote S2 addresses (``tcp://`` / ``unix://``) are wired by
    :func:`repro.connect` (through the schemes' context wiring), which
    owns the key material a remote session needs — they cannot be built from a
    dispatcher.  ``rtt_ms > 0`` wraps the backend in a
    :class:`LatencyTransport` that sleeps one simulated round-trip per
    exchange.
    """
    if kind == "inprocess":
        transport: Transport = InProcessTransport(dispatcher)
    elif kind == "threaded":
        transport = ThreadedTransport(dispatcher)
    else:
        hint = (
            " (remote S2 addresses go to repro.connect(scheme, relation, "
            "address), not make_transport)"
            if isinstance(kind, str) and kind.startswith(("tcp://", "unix://"))
            else ""
        )
        raise ProtocolError(f"unknown transport kind: {kind!r}{hint}")
    if rtt_ms > 0:
        transport = LatencyTransport(transport, rtt_ms)
    return transport
