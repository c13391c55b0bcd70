"""Hostile bytes under the codec: decode or ``ProtocolError``, nothing else.

The inputs are arbitrary bytes and truncations and byte flips of four
real frames — the request and reply of a ``DedupSort`` round (an eager
check depth), of a ``SortGateBatch`` round (the network sort), of a
``BlindedSelect`` round (an eager absorb: two vectors each way) and of a
``ZeroTestBatch`` round (the literal engine: an ``E2`` vector back) —
under ``decode_envelope`` and ``decode_replies``.  A reply is decoded by a
codec that has read its request first, as a session's codec has.
Examples are pinned (``derandomize=True``) and capped.
"""

from __future__ import annotations

import collections

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.exceptions import ProtocolError
from repro.net import messages, wire
from repro.net.dispatch import S2Dispatcher
from repro.net.wire import WireCodec

FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def _first_round(config: QueryConfig, message_type) -> tuple[bytes, bytes]:
    """``(request frame, reply frame)`` of the first ``message_type``
    round of one tiny query, written by one fresh codec."""
    served = []
    real = S2Dispatcher.dispatch

    def dispatch(self, msg):
        reply = real(self, msg)
        if type(msg) is message_type and not served:
            served.append((msg, reply))
        return reply

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S2Dispatcher, "dispatch", dispatch)
        scheme = SecTopK(SystemParams.tiny(), seed=41)
        rows = [[(7 * i + 5 * a * a + 3) % 17 + 2 * (8 - i) for a in range(2)] for i in range(8)]
        relation = scheme.encrypt(rows)
        ctx = scheme._make_context()
        try:
            scheme.query(relation, scheme.token([0, 1], k=2), config, ctx=ctx)
        finally:
            ctx.close()
    ((msg, reply),) = served
    codec = WireCodec()
    return codec.encode_envelope([msg]), codec.encode_replies([reply])


@pytest.fixture(scope="module")
def frames() -> dict[str, tuple[bytes, bytes]]:
    return {
        "DedupSort": _first_round(QueryConfig(variant="full"), messages.DedupSort),
        "SortGateBatch": _first_round(
            QueryConfig(variant="full", sort_method="network"), messages.SortGateBatch
        ),
        "BlindedSelect": _first_round(QueryConfig(), messages.BlindedSelect),
        "ZeroTestBatch": _first_round(QueryConfig(engine="literal"), messages.ZeroTestBatch),
    }


def _decodes_or_refuses(request: bytes, reply: bytes | None) -> None:
    """Decode ``request`` (and then ``reply``, when given, on the same
    codec); anything but success or ``ProtocolError`` fails the test.
    The keys a hostile frame names go to a key table of this call's own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wire, "_SHARED", collections.OrderedDict())
        codec = WireCodec()
        try:
            codec.decode_envelope(request)
            if reply is not None:
                codec.decode_replies(reply)
        except ProtocolError:
            pass


def _mangle(frame: bytes, cut: int, flips: list[tuple[int, int]]) -> bytes:
    """``frame`` with ``flips`` (position, xor mask) applied, cut to
    ``cut`` of its length in thousandths."""
    out = bytearray(frame)
    for at, mask in flips:
        out[at % len(out)] ^= mask
    return bytes(out[: len(out) * cut // 1000])


#: Flips land anywhere, or in the first 64 bytes, where a frame's
#: structure is densest (counts, type id, protocol name, key headers).
FLIPS = st.lists(
    st.tuples(st.integers(0, 63) | st.integers(0, 1 << 20), st.integers(1, 255)),
    max_size=4,
)
CUTS = st.one_of(st.just(1000), st.integers(0, 999))


@FUZZ
@given(data=st.binary(max_size=512))
# One value of 5,000 nested 1-tuples, and a name that is not UTF-8.
@example(data=b"\x01" + bytes([wire._TUPLE, 1]) * 5000 + bytes([wire._INT, 0]))
@example(data=bytes([1, wire._STR, 2, 0xC3, 0x28]))
def test_arbitrary_bytes(frames, data):
    request, _ = frames["DedupSort"]
    _decodes_or_refuses(data, None)
    _decodes_or_refuses(request, data)


@pytest.mark.parametrize(
    "round_name", ["DedupSort", "SortGateBatch", "BlindedSelect", "ZeroTestBatch"]
)
@FUZZ
@given(cut=CUTS, flips=FLIPS, side=st.sampled_from(["request", "reply"]))
def test_mangled_real_frames(frames, round_name, cut, flips, side):
    request, reply = frames[round_name]
    if side == "request":
        _decodes_or_refuses(_mangle(request, cut, flips), reply)
    else:
        _decodes_or_refuses(request, _mangle(reply, cut, flips))
