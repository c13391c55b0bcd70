"""Unit tests for the wire codec, typed messages and round batcher."""

from __future__ import annotations

import pytest

from repro.crypto.damgard_jurik import DamgardJurik, LayeredCiphertext
from repro.crypto.paillier import Ciphertext, PaillierKeypair
from repro.crypto.rng import SecureRandom
from repro.exceptions import ProtocolError
from repro.net.batching import single_message_flow
from repro.net.channel import measure_size
from repro.net.dispatch import S2Dispatcher
from repro.net.messages import (
    MESSAGE_TYPES,
    BlindedSelect,
    DedupBatch,
    DedupSort,
    StripLayerBatch,
    ZeroTestBatch,
    message_class,
    message_fields,
    message_type_id,
)
from repro.net.transport import InProcessTransport
from repro.net import wire
from repro.net.wire import WireCodec, _Reader
from repro.structures.ehl import Ehl, EncryptedHashList
from repro.structures.ehl_plus import EhlPlus, EhlPlusFactory
from repro.structures.items import JoinedTuple, ListPrefix, ScoredItem


@pytest.fixture()
def dj(keypair):
    return DamgardJurik(keypair.public_key, s=2)


def _roundtrip(value):
    encoder = WireCodec()
    out = bytearray()
    encoder.encode_value(value, out)
    decoder = WireCodec()
    return decoder.decode_value(_Reader(bytes(out)))


class TestWireValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            12345678901234567890,
            -987654321,
            b"",
            b"\x00\xffabc",
            "protocol-name",
            [1, [2, None], (True, b"x")],
            (),
        ],
    )
    def test_primitives(self, value):
        assert _roundtrip(value) == value

    def test_ciphertext(self, keypair, rng):
        ct = keypair.public_key.encrypt(42, rng)
        back = _roundtrip(ct)
        assert back.value == ct.value
        assert back.public_key == keypair.public_key
        assert keypair.secret_key.decrypt(back) == 42

    def test_ciphertexts_under_two_keys(self, keypair, own_keypair, rng):
        a = keypair.public_key.encrypt(1, rng)
        b = own_keypair.public_key.encrypt(2, rng)
        back_a, back_b = _roundtrip([a, b])
        assert keypair.secret_key.decrypt(back_a) == 1
        assert own_keypair.secret_key.decrypt(back_b) == 2

    def test_layered_ciphertext(self, keypair, dj, rng):
        lc = dj.encrypt(7, rng)
        back = _roundtrip(lc)
        assert back.value == lc.value
        assert dj.decrypt(back, keypair) == 7

    def test_layered_first_keeps_registries_in_sync(
        self, keypair, own_keypair, dj, rng
    ):
        """A LayeredCiphertext introducing a key must register it on both
        endpoints identically, or later index-based ciphertext references
        resolve to different keys (regression: encoder skipped the
        registration the decoder performed)."""
        encoder, decoder = WireCodec(), WireCodec()
        stream = [
            dj.encrypt(3, rng),                       # introduces keypair's n
            own_keypair.public_key.encrypt(1, rng),   # second key
            keypair.public_key.encrypt(2, rng),       # back-reference first key
        ]
        out = bytearray()
        for value in stream:
            encoder.encode_value(value, out)
        reader = _Reader(bytes(out))
        decoded = [decoder.decode_value(reader) for _ in stream]
        assert dj.decrypt(decoded[0], keypair) == 3
        assert own_keypair.secret_key.decrypt(decoded[1]) == 1
        assert keypair.secret_key.decrypt(decoded[2]) == 2

    def test_scored_item_with_state(self, keypair, dj, rng):
        factory = EhlPlusFactory(keypair.public_key, b"k" * 32, n_hashes=2, rng=rng)
        item = ScoredItem(
            ehl=factory.encode("obj"),
            worst=keypair.public_key.encrypt(3, rng),
            best=keypair.public_key.encrypt(9, rng),
            list_scores=[keypair.public_key.encrypt(1, rng)],
            seen_bits=[dj.encrypt(1, rng)],
            record=keypair.public_key.encrypt(5, rng),
            uid=17,
        )
        back = _roundtrip(item)
        assert type(back.ehl) is type(item.ehl)
        assert [c.value for c in back.ehl.cells] == [c.value for c in item.ehl.cells]
        assert keypair.secret_key.decrypt(back.worst) == 3
        assert keypair.secret_key.decrypt(back.best) == 9
        assert back.uid == 17
        assert dj.decrypt(back.seen_bits[0], keypair) == 1

    def test_joined_tuple(self, keypair, rng):
        jt = JoinedTuple(
            score=keypair.public_key.encrypt(4, rng),
            attributes=[keypair.public_key.encrypt(8, rng)],
        )
        back = _roundtrip(jt)
        assert keypair.secret_key.decrypt(back.score) == 4
        assert keypair.secret_key.decrypt(back.attributes[0]) == 8

    def test_unserializable_rejected(self):
        with pytest.raises(ProtocolError):
            _roundtrip(object())

    def test_encoding_is_size_faithful(self, keypair, rng):
        """Framing overhead stays small next to the accounted payload."""
        cts = [keypair.public_key.encrypt(i, rng) for i in range(8)]
        out = bytearray()
        WireCodec().encode_value(cts, out)
        payload = measure_size(cts)
        assert payload <= len(out) <= payload + 128


class TestMessageEnvelopes:
    def test_registry_is_bijective(self):
        retired = [i for i, cls in enumerate(MESSAGE_TYPES) if cls is None]
        assert retired == [12, 13]
        for cls in MESSAGE_TYPES:
            if cls is None:
                continue
            assert message_class(message_type_id(cls)) is cls
            assert message_fields(cls)[0] == "protocol"
        for type_id in retired + [len(MESSAGE_TYPES)]:
            with pytest.raises(ProtocolError):
                message_class(type_id)

    def test_envelope_roundtrip(self, keypair, dj, rng):
        msgs = [
            ZeroTestBatch(protocol="SecWorst", cts=[keypair.public_key.encrypt(0, rng)]),
            StripLayerBatch(protocol="RecoverEnc", cts=[dj.encrypt(1, rng)]),
            DedupBatch(
                protocol="SecDedup",
                matrix=[],
                items=[],
                companions=[],
                ranks=[0, 1],
                own_public=keypair.public_key,
                sentinel=-(1 << 40),
                eliminate=True,
            ),
        ]
        codec_out, codec_in = WireCodec(), WireCodec()
        back = codec_in.decode_envelope(codec_out.encode_envelope(msgs))
        assert [type(m) for m in back] == [type(m) for m in msgs]
        assert back[0].protocol == "SecWorst"
        assert back[0].cts[0].value == msgs[0].cts[0].value
        assert back[2].ranks == [0, 1]
        assert back[2].sentinel == -(1 << 40)
        assert back[2].eliminate is True
        assert back[2].own_public == keypair.public_key

    def test_dedup_sort_is_appended_at_id_15(self, keypair, rng):
        """The fused check-depth operation takes the next free id; ids
        0–14 keep their classes, and the id past it is refused."""
        assert message_type_id(DedupSort) == 15 == len(MESSAGE_TYPES) - 1
        assert message_type_id(BlindedSelect) == 14
        with pytest.raises(ProtocolError):
            message_class(16)
        pk = keypair.public_key
        msg = DedupSort(
            protocol="SecDupElim",
            matrix=[pk.encrypt(3, rng)],
            items=[],
            keys=[pk.encrypt(5, rng), pk.encrypt(7, rng)],
            companions=[],
            ranks=[0, 1],
            own_public=pk,
            sentinel=-(1 << 40),
            eliminate=False,
        )
        frame = WireCodec().encode_envelope([msg])
        assert frame[1] == 15  # count varint, then the type id
        (back,) = WireCodec().decode_envelope(frame)
        assert type(back) is DedupSort
        assert [ct.value for ct in back.keys] == [ct.value for ct in msg.keys]
        assert [ct.value for ct in back.matrix] == [msg.matrix[0].value]
        assert (back.ranks, back.sentinel, back.eliminate) == ([0, 1], -(1 << 40), False)
        assert back.own_public == pk
        assert msg.request_payload() == (
            msg.matrix, msg.items, msg.keys, msg.companions, msg.ranks
        )

    def test_request_payload_excludes_metadata(self, keypair, rng):
        msg = DedupBatch(
            protocol="SecDedup",
            matrix=[keypair.public_key.encrypt(0, rng)],
            items=[],
            companions=[],
            ranks=[0],
            own_public=keypair.public_key,
            sentinel=-5,
            eliminate=False,
        )
        payload = msg.request_payload()
        assert payload == (msg.matrix, msg.items, msg.companions, msg.ranks)


class TestRoundBatcher:
    def _parties(self, keypair, seed=5):
        from repro.crypto.rng import SecureRandom
        from repro.protocols.base import make_parties

        return make_parties(keypair, rng=SecureRandom(seed))

    def test_single_call_is_one_round(self, keypair, rng):
        ctx = self._parties(keypair)
        ct = ctx.public_key.encrypt(0, ctx.rng)
        bits = ctx.call(ZeroTestBatch(protocol="P", cts=[ct]))
        assert len(bits) == 1
        assert ctx.channel.stats.rounds == 1
        assert ctx.channel.stats.per_protocol_rounds["P"] == 1
        assert ctx.channel.stats.per_protocol_bytes["P"] > 0

    def test_coalesced_flows_share_one_round(self, keypair):
        ctx = self._parties(keypair)
        msgs = [
            ZeroTestBatch(protocol="P", cts=[ctx.public_key.encrypt(i, ctx.rng)])
            for i in range(4)
        ]
        replies = ctx.run_flows([single_message_flow(m) for m in msgs])
        assert len(replies) == 4
        assert ctx.channel.stats.rounds == 1
        assert ctx.channel.stats.per_protocol_rounds["P"] == 1

    def test_mixed_length_flows(self, keypair):
        """Flows of different stage counts coalesce stage by stage."""
        ctx = self._parties(keypair)

        def two_stage():
            first = yield ZeroTestBatch(
                protocol="A", cts=[ctx.public_key.encrypt(0, ctx.rng)]
            )
            second = yield ZeroTestBatch(
                protocol="A", cts=[ctx.public_key.encrypt(1, ctx.rng)]
            )
            return (first, second)

        def no_stage():
            return "done"
            yield  # pragma: no cover

        results = ctx.run_flows(
            [
                two_stage(),
                single_message_flow(
                    ZeroTestBatch(
                        protocol="B", cts=[ctx.public_key.encrypt(2, ctx.rng)]
                    )
                ),
                no_stage(),
            ]
        )
        assert results[2] == "done"
        assert len(results[0]) == 2
        # Stage 1 carried A+B coalesced; stage 2 carried A alone.
        assert ctx.channel.stats.rounds == 2
        assert ctx.channel.stats.per_protocol_rounds["A"] == 2
        assert ctx.channel.stats.per_protocol_rounds["B"] == 1

    def test_transport_close_is_idempotent(self, keypair):
        from repro.net.socket_transport import SocketTransport, disconnect_all
        from repro.protocols.base import make_parties
        from repro.server import S2Service

        service = S2Service("tcp://127.0.0.1:0")
        address = service.start()
        try:
            ctx = make_parties(keypair, transport=address)
            assert isinstance(ctx.transport, SocketTransport)
            ctx.close()
            ctx.close()
            assert service.stats()["sessions_active"] == 0
            with pytest.raises(ProtocolError, match="session transport is closed"):
                ctx.call(ZeroTestBatch(protocol="P", cts=[]))
        finally:
            disconnect_all()
            service.close()


class TestListPrefix:
    def test_view_semantics(self):
        backing = list(range(10))
        view = ListPrefix(backing, 4)
        assert len(view) == 4
        assert view[0] == 0
        assert view[-1] == 3
        assert list(view) == [0, 1, 2, 3]
        with pytest.raises(IndexError):
            view[4]
        with pytest.raises(IndexError):
            view[-5]
        with pytest.raises(TypeError):
            view[1:2]

    def test_dispatcher_rejects_unknown_message(self, keypair):
        from repro.protocols.base import make_parties

        ctx = make_parties(keypair)
        assert isinstance(ctx.transport, InProcessTransport)
        with pytest.raises(ProtocolError):
            ctx.transport.dispatcher.dispatch(object())

# ---------------------------------------------------------------------------
# Ciphertext runs: one slice, the element loop's bytes.
# ---------------------------------------------------------------------------


def _varint(value: int) -> bytes:
    out = bytearray()
    wire._write_varint(out, value)
    return bytes(out)


def _elementwise(codec: WireCodec, value) -> bytes:
    """``value`` written container by container with every element
    encoded on its own — no run can form — by a codec whose registry
    moves as the stream's would."""
    out = bytearray()
    if type(value) is list:
        out += bytes([wire._LIST]) + _varint(len(value))
        for entry in value:
            out += _elementwise(codec, entry)
    elif isinstance(value, EncryptedHashList):
        out += bytes([wire._EHL, wire._EHL_CLASSES.index(type(value))])
        out += _varint(len(value.cells))
        for cell in value.cells:
            out += _elementwise(codec, cell)
    elif isinstance(value, ScoredItem):
        out.append(wire._SCORED)
        for name in ("ehl", "worst", "best", "list_scores", "seen_bits", "record"):
            out += _elementwise(codec, getattr(value, name))
        wire._write_signed(out, value.uid)
    else:
        codec.encode_value(value, out)
    return bytes(out)


def _plain(value):
    """Decoded structures as comparable data (values and key identity
    by modulus)."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Ciphertext):
        return ("ct", value.value, value.public_key.n)
    if isinstance(value, LayeredCiphertext):
        return ("lc", value.value, value.scheme.n, value.scheme.s)
    if isinstance(value, EncryptedHashList):
        return (type(value).__name__, _plain(value.cells))
    if isinstance(value, ScoredItem):
        return ("scored", [_plain(v) for v in vars(value).values()])
    return value


class TestCiphertextRuns:
    @pytest.fixture()
    def material(self, keypair, own_keypair, dj, rng):
        pk, other = keypair.public_key, own_keypair.public_key
        cts = pk.encrypt_batch(list(range(300)), rng)
        lcs = dj.encrypt_batch([i % 2 for i in range(300)], rng)
        foreign = other.encrypt_batch([1, 2, 3], rng)

        def scored(i, full):
            return ScoredItem(
                ehl=EhlPlus(cts[i : i + 3]),
                worst=cts[i + 3],
                best=cts[i + 4],
                list_scores=cts[i + 5 : i + 8] if full else None,
                seen_bits=lcs[i : i + 3] if full else None,
                record=cts[i + 8] if full else None,
                uid=i - 1,
            )

        return {
            "empty": [],
            "run-1": cts[:1],
            "run-2": cts[:2],
            "run-300": cts,
            "layered-1": lcs[:1],
            "layered-2": lcs[:2],
            "layered-300": lcs,
            "mixed-keys": [cts[0], foreign[0], cts[1]],
            "mixed-kinds": [cts[0], lcs[0], None, 7],
            "nested": [cts[:3], lcs[:3], [], [cts[:2]]],
            "ehl": Ehl(cts[10:15]),
            "ehl-plus": EhlPlus(cts[20:23]),
            "ehl-mixed-keys": EhlPlus([cts[0], foreign[1]]),
            "scored-full": [scored(30, True), scored(50, True)],
            "scored-bare": [scored(70, False)],
        }

    @staticmethod
    def _warm(codec, keypair, own_keypair, dj):
        """Register the three keys the way a session's first frames do."""
        out = bytearray()
        for key in (dj.encrypt(0), own_keypair.public_key):
            codec.encode_value(key, out)
        return bytes(out)

    def test_same_bytes_as_the_element_loop(self, material, keypair, own_keypair, dj):
        for name, value in material.items():
            codec, reference = WireCodec(), WireCodec()
            warm = self._warm(codec, keypair, own_keypair, dj)
            self._warm(reference, keypair, own_keypair, dj)
            out = bytearray()
            codec.encode_value(value, out)
            assert bytes(out) == _elementwise(reference, value), name
            decoder = WireCodec()
            reader = _Reader(warm)
            decoder.decode_value(reader), decoder.decode_value(reader)
            assert _plain(decoder.decode_value(_Reader(bytes(out)))) == _plain(value), name

    def test_first_element_registers_its_key(self, material):
        """Nothing registered yet: the first element introduces the key
        (``_CT_NEWKEY`` / ``_LC_NEWSCHEME``), the rest reference it."""
        for name in ("run-2", "run-300", "layered-300", "scored-full"):
            codec, reference, decoder = WireCodec(), WireCodec(), WireCodec()
            out = bytearray()
            codec.encode_value(material[name], out)
            assert bytes(out) == _elementwise(reference, material[name]), name
            assert _plain(decoder.decode_value(_Reader(bytes(out)))) == _plain(
                material[name]
            )
            # Second time round the same list is one run.
            again = bytearray()
            codec.encode_value(material[name], again)
            assert bytes(again) == _elementwise(reference, material[name]), name
            assert _plain(decoder.decode_value(_Reader(bytes(again)))) == _plain(
                material[name]
            )

    def test_two_byte_index_takes_the_element_loop(self, rng):
        codec, reference, decoder = WireCodec(), WireCodec(), WireCodec()
        keys = [
            PaillierKeypair.generate(32, SecureRandom(900 + i)).public_key
            for i in range(130)
        ]
        out = bytearray()
        codec.encode_value(keys, out)
        assert bytes(out) == _elementwise(reference, keys)
        decoder.decode_value(_Reader(bytes(out)))
        for key in (keys[127], keys[128], keys[129]):
            cts = key.encrypt_batch([1, 2, 3], rng)
            out = bytearray()
            codec.encode_value(cts, out)
            assert bytes(out) == _elementwise(reference, cts)
            assert _plain(decoder.decode_value(_Reader(bytes(out)))) == _plain(cts)

    def test_every_strict_prefix_is_rejected(self, material, keypair, own_keypair, dj):
        for name, value in material.items():
            codec = WireCodec()
            warm = self._warm(codec, keypair, own_keypair, dj)
            out = bytearray()
            codec.encode_value(value, out)
            frame = bytes(out)
            cuts = range(len(frame))
            if len(frame) > 2000:  # the long runs: a spread plus both ends
                cuts = sorted({*range(0, len(frame), 97), *range(80), *range(len(frame) - 80, len(frame))})
            for cut in cuts:
                decoder = WireCodec()
                reader = _Reader(warm)
                decoder.decode_value(reader), decoder.decode_value(reader)
                with pytest.raises(ProtocolError):
                    decoder.decode_value(_Reader(frame[:cut]))

    def test_a_run_shaped_list_of_other_things_still_decodes(self, keypair, rng):
        """The run reader only fires when *every* stride position holds
        the first element's tag and index; anything else goes through the
        element loop unchanged."""
        pk = keypair.public_key
        ct = pk.encrypt(1, rng)
        # An int whose zigzag varint happens to look like a tag byte.
        for value in ([ct, 4, ct], [ct, b"\x08\x00" * 40, ct], [[ct], ct]):
            assert _plain(_roundtrip(value)) == _plain(value)


class TestHostileIntegers:
    """The decoder bounds what it reads off the wire before acting on it."""

    @staticmethod
    def _scheme_header(n: int, s: int) -> bytes:
        raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
        return bytes([wire._LC_NEWSCHEME]) + _varint(len(raw)) + raw + _varint(s)

    @pytest.mark.parametrize("s", [0, 9, 20000, 2 * 10**6])
    def test_dj_degree_is_bounded_before_any_big_int_work(
        self, keypair, monkeypatch, s
    ):
        built = []
        monkeypatch.setattr(
            wire, "DamgardJurik", lambda *args, **kw: built.append(args) or 1 / 0
        )
        frame = self._scheme_header(keypair.public_key.n, s) + b"\x00" * 24
        codec = WireCodec()
        with pytest.raises(ProtocolError, match="degree"):
            codec.decode_value(_Reader(frame))
        assert not built
        assert not codec._keys and not codec._schemes

    @pytest.mark.parametrize("tag", ["_CT", "_LC", "_PK"])
    @pytest.mark.parametrize("index", [0, 1, 127, 128, 2**40])
    def test_unregistered_index_is_a_protocol_error(self, tag, index):
        frame = bytes([getattr(wire, tag)]) + _varint(index) + b"\x00" * 64
        with pytest.raises(ProtocolError, match="unregistered"):
            WireCodec().decode_value(_Reader(frame))
        # ... also as the element of a list, where the run reader looks first.
        listed = bytes([wire._LIST, 2]) + frame
        with pytest.raises(ProtocolError):
            WireCodec().decode_value(_Reader(listed))

    def test_ehl_header_is_checked(self, keypair, rng):
        codec = WireCodec()
        out = bytearray()
        codec.encode_value(keypair.public_key.encrypt(1, rng), out)
        decoder = WireCodec()
        decoder.decode_value(_Reader(bytes(out)))
        cell = bytes([wire._CT, 0]) + bytes(out[-keypair.public_key.ciphertext_bytes:])
        for header in (bytes([wire._EHL, 2, 1]), bytes([wire._EHL, 0, 0])):
            with pytest.raises(ProtocolError):
                decoder.decode_value(_Reader(header + cell))


class TestSharedKeyObjects:
    def test_a_decoded_modulus_is_the_process_object(self, keypair, dj, rng):
        """Two codecs (two sessions) decoding one modulus hand out one
        key object — the one the encoder held, when the process saw it
        first there — so pools outlive a codec and guards pass on ``is``."""
        stream = bytearray()
        WireCodec().encode_value([dj.encrypt(1, rng), keypair.public_key.encrypt(2, rng)], stream)
        first = WireCodec().decode_value(_Reader(bytes(stream)))
        second = WireCodec().decode_value(_Reader(bytes(stream)))
        assert first[0].scheme is second[0].scheme
        assert first[1].public_key is second[1].public_key
        assert first[0].scheme is wire.shared_scheme(dj.n, dj.s)
        assert first[1].public_key is wire.shared_key(keypair.public_key.n)
        assert first[0].scheme == dj and first[1].public_key == keypair.public_key

    def test_the_table_is_bounded(self):
        for i in range(wire._SHARED_LIMIT + 10):
            wire.shared_key(10**6 + 2 * i + 1)
        assert len(wire._SHARED) <= wire._SHARED_LIMIT
