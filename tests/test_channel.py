"""Tests for the inter-cloud accounting channel and latency model."""

import pytest

from repro.net.channel import Channel, ChannelStats, LinkModel, measure_size


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

