"""Tests for the inter-cloud accounting channel and latency model."""

import copy
import pickle

import pytest

from repro.net.channel import Channel, ChannelStats, LinkModel, measure_size
from repro.net.transport import LatencyTransport, Transport


class TestMeasureSize:
    def test_primitives(self):
        assert measure_size(None) == 0
        assert measure_size(True) == 1
        assert measure_size(0) == 1
        assert measure_size(255) == 1
        assert measure_size(256) == 2
        assert measure_size(b"abcd") == 4

    def test_nested_lists(self):
        assert measure_size([1, [2, (3, b"xy")]]) == 1 + 1 + 1 + 2

    def test_ciphertext(self, keypair, rng):
        c = keypair.public_key.encrypt(1, rng)
        assert measure_size(c) == keypair.public_key.ciphertext_bytes

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            measure_size(object())

    def test_ciphertext_lists(self, keypair, own_keypair, rng):
        """A list of ciphertexts is the sum of their sizes — under one key
        or several, mixed with other types, nested or empty."""
        pk, other = keypair.public_key, own_keypair.public_key
        same = pk.encrypt_batch([1, 2, 3, 4], rng)
        theirs = other.encrypt_batch([5, 6], rng)
        size, their_size = pk.ciphertext_bytes, other.ciphertext_bytes
        assert size != their_size
        assert measure_size(same) == measure_size(tuple(same)) == 4 * size
        assert measure_size(same + theirs) == 4 * size + 2 * their_size
        assert measure_size([same[0], 256, b"xy"]) == size + 2 + 2
        assert measure_size([same, [theirs, (same[:1], 7)], []]) == (
            5 * size + 2 * their_size + 1
        )
        assert measure_size([]) == 0


class TestChannel:
    def test_round_and_bytes(self):
        ch = Channel()
        with ch.round("P"):
            ch.send(b"abc")
            ch.receive(b"defg")
        assert ch.stats.rounds == 1
        assert ch.stats.bytes_s1_to_s2 == 3
        assert ch.stats.bytes_s2_to_s1 == 4
        assert ch.stats.total_bytes == 7
        assert ch.stats.per_protocol_bytes["P"] == 7
        assert ch.stats.per_protocol_rounds["P"] == 1

    def test_nested_protocol_attribution(self):
        ch = Channel()
        with ch.protocol("outer"):
            with ch.round("inner"):
                ch.send(b"xx")
        assert ch.stats.per_protocol_bytes["inner"] == 2
        assert ch.stats.rounds == 1

    def test_send_returns_payload(self):
        ch = Channel()
        with ch.round("P"):
            assert ch.send(b"a") == b"a"
            assert ch.send(b"a", b"b") == (b"a", b"b")

    def test_snapshot_delta(self):
        ch = Channel()
        with ch.round("P"):
            ch.send(b"ab")
        before = ch.snapshot()
        with ch.round("Q"):
            ch.send(b"cdef")
        delta = ch.stats.delta(before)
        assert delta.total_bytes == 4
        assert delta.rounds == 1
        assert delta.per_protocol_bytes == {"Q": 4}

    def test_reset(self):
        ch = Channel()
        with ch.round("P"):
            ch.send(b"ab")
        ch.reset()
        assert ch.stats.total_bytes == 0
        assert ch.stats.rounds == 0


class TestLinkModel:
    def test_bandwidth_only(self):
        stats = ChannelStats(bytes_s1_to_s2=50_000_000 // 8, rounds=0)
        # 50 Mbit over a 50 Mbps link = 1 second.
        assert LinkModel(bandwidth_mbps=50).latency_seconds(stats) == pytest.approx(1.0)

    def test_rtt_contribution(self):
        stats = ChannelStats(rounds=10)
        model = LinkModel(bandwidth_mbps=50, rtt_ms=5)
        assert model.latency_seconds(stats) == pytest.approx(0.05)


class _EchoTransport(Transport):
    """A picklable stand-in link with one backend-specific attribute."""

    session_id = 7

    def exchange(self, messages: list) -> list:
        return list(messages)


class TestLatencyTransport:
    """The latency shim forwards unknown attributes to the link it wraps —
    but never ``inner`` itself or a dunder, which ``copy`` and ``pickle``
    look up on an instance whose ``__init__`` never ran."""

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clone_keeps_the_wrapped_link(self, clone):
        twin = clone(LatencyTransport(_EchoTransport(), rtt_ms=0.0))
        assert isinstance(twin.inner, _EchoTransport)
        assert twin.rtt_ms == 0.0
        assert twin.session_id == 7
        assert twin.exchange(["ping"]) == ["ping"]

    def test_uninitialised_shim_raises_attribute_error(self):
        bare = LatencyTransport.__new__(LatencyTransport)
        with pytest.raises(AttributeError):
            bare.inner
        with pytest.raises(AttributeError):
            bare.session_id
