"""The inter-cloud message-passing layer.

Everything that crosses the S1/S2 boundary is a typed request message
(:mod:`repro.net.messages`) carried by a :class:`repro.net.transport.Transport`
and serviced by the :class:`repro.net.dispatch.S2Dispatcher`; S1's
round loop (:meth:`repro.protocols.base.S1Context.run_flows`) coalesces
independent requests into single round-trips, and
:class:`repro.net.channel.Channel` records

* bytes transferred in each direction,
* the number of communication rounds, and
* a per-protocol breakdown,

so the bandwidth/latency results of Table 3 and Figure 13 can be
regenerated exactly, and a configurable :class:`repro.net.channel.LinkModel`
turns byte counts into modeled latency (the paper assumes a 50 Mbps
inter-cloud link).  See ARCHITECTURE.md for the full layer map.
"""

from repro.net.channel import Channel, ChannelStats, LinkModel, measure_size
from repro.net.dispatch import S2Dispatcher
from repro.net.socket_transport import (
    SocketTransport,
    disconnect_all,
    is_socket_address,
)
from repro.net.transport import InProcessTransport, Transport
from repro.net.wire import WireCodec

__all__ = [
    "Channel",
    "ChannelStats",
    "InProcessTransport",
    "LinkModel",
    "S2Dispatcher",
    "SocketTransport",
    "Transport",
    "WireCodec",
    "disconnect_all",
    "is_socket_address",
    "measure_size",
]
