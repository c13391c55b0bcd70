"""Unit tests for the wire codec, typed messages and S1's round loop."""

from __future__ import annotations

import pytest

from repro.crypto.damgard_jurik import DamgardJurik
from repro.crypto.paillier import Ciphertext, PaillierKeypair
from repro.crypto.rng import SecureRandom
from repro.crypto.vector import CtVector
from repro.exceptions import ProtocolError
from repro.net.channel import measure_size
from repro.net.dispatch import S2Dispatcher
from repro.net.messages import (
    MESSAGE_TYPES,
    BlindedSelect,
    BlindedSign,
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
from repro.structures.ehl import Ehl
from repro.structures.ehl_plus import EhlPlus, EhlPlusFactory
from repro.structures.items import ItemBatch, JoinedTuple, ListPrefix, ScoredItem


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
        """Two single values under two keys cross side by side; one list
        of them is refused (a list of ciphertexts is one vector, under
        one key)."""
        a = keypair.public_key.encrypt(1, rng)
        b = own_keypair.public_key.encrypt(2, rng)
        back_a, back_b = _roundtrip((a, b))
        assert keypair.secret_key.decrypt(back_a) == 1
        assert own_keypair.secret_key.decrypt(back_b) == 2
        with pytest.raises(ProtocolError):
            _roundtrip([a, b])

    def test_layered_ciphertext(self, keypair, dj, rng):
        """``E2`` values cross as a vector under their scheme; a single
        one has no wire form of its own."""
        lc = dj.encrypt(7, rng)
        (back,) = _roundtrip(CtVector.pack([lc])).ciphertexts()
        assert back.value == lc.value
        assert dj.decrypt(back, keypair) == 7
        with pytest.raises(ProtocolError):
            _roundtrip(lc)

    def test_layered_first_keeps_registries_in_sync(
        self, keypair, own_keypair, dj, rng
    ):
        """An ``E2`` vector introducing a key must register it on both
        endpoints identically, or later index-based ciphertext references
        resolve to different keys (regression: encoder skipped the
        registration the decoder performed)."""
        encoder, decoder = WireCodec(), WireCodec()
        stream = [
            CtVector.pack([dj.encrypt(3, rng)]),      # introduces keypair's n
            own_keypair.public_key.encrypt(1, rng),   # second key
            keypair.public_key.encrypt(2, rng),       # back-reference first key
        ]
        out = bytearray()
        for value in stream:
            encoder.encode_value(value, out)
        reader = _Reader(bytes(out))
        decoded = [decoder.decode_value(reader) for _ in stream]
        assert dj.decrypt_batch(decoded[0], keypair) == [3]
        assert own_keypair.secret_key.decrypt(decoded[1]) == 1
        assert keypair.secret_key.decrypt(decoded[2]) == 2

    def test_scored_item_with_state(self, keypair, rng):
        """An item with every field crosses as a one-item batch: its
        fields come back, its uid (an S1-local handle) does not."""
        factory = EhlPlusFactory(keypair.public_key, b"k" * 32, n_hashes=2, rng=rng)
        item = ScoredItem(
            ehl=factory.encode("obj"),
            worst=keypair.public_key.encrypt(3, rng),
            best=keypair.public_key.encrypt(9, rng),
            list_scores=[keypair.public_key.encrypt(1, rng)],
            seen_bits=[keypair.public_key.encrypt(1, rng)],
            record=keypair.public_key.encrypt(5, rng),
            uid=17,
        )
        (back,) = _roundtrip(ItemBatch.pack(keypair.public_key, [item])).unpack()
        assert type(back.ehl) is type(item.ehl)
        assert [c.value for c in back.ehl.cells] == [c.value for c in item.ehl.cells]
        assert keypair.secret_key.decrypt(back.worst) == 3
        assert keypair.secret_key.decrypt(back.best) == 9
        assert keypair.secret_key.decrypt(back.list_scores[0]) == 1
        assert keypair.secret_key.decrypt(back.seen_bits[0]) == 1
        assert keypair.secret_key.decrypt(back.record) == 5
        assert back.uid == -1

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
        assert retired == [12, 13, 15]
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

    def test_dedup_sort_is_appended_at_id_16(self, keypair, rng):
        """The counts form of the check-depth operation takes the next
        free id; ids 0–14 keep their classes, the matrix form's id 15 is
        retired, and so are the ids past the end."""
        assert message_type_id(DedupSort) == 16 == len(MESSAGE_TYPES) - 1
        assert message_type_id(BlindedSelect) == 14
        for retired in (15, 17):
            with pytest.raises(ProtocolError):
                message_class(retired)
        pk = keypair.public_key
        msg = DedupSort(
            protocol="SecDupElim",
            counts=[pk.encrypt(3, rng)],
            items=[],
            keys=[pk.encrypt(5, rng), pk.encrypt(7, rng)],
            companions=[],
            ranks=[0, 1],
            own_public=pk,
            sentinel=-(1 << 40),
            eliminate=False,
        )
        frame = WireCodec().encode_envelope([msg])
        assert frame[1] == 16  # count varint, then the type id
        (back,) = WireCodec().decode_envelope(frame)
        assert type(back) is DedupSort
        assert [ct.value for ct in back.keys] == [ct.value for ct in msg.keys]
        assert [ct.value for ct in back.counts] == [msg.counts[0].value]
        assert (back.ranks, back.sentinel, back.eliminate) == ([0, 1], -(1 << 40), False)
        assert back.own_public == pk
        assert msg.request_payload() == (
            msg.counts, msg.items, msg.keys, msg.companions, msg.ranks
        )
        # A frame of the matrix form (id 15) is refused, whichever side
        # still speaks it.
        with pytest.raises(ProtocolError):
            WireCodec().decode_envelope(frame[:1] + bytes([15]) + frame[2:])

    def test_a_single_ciphertext_field_is_refused(self, keypair, rng):
        """Every ciphertext field crosses as a vector: a bare ``_CT``
        where one belongs is refused, not packed into a vector of one."""
        out = bytearray()
        wire._write_varint(out, 1)
        wire._write_varint(out, message_type_id(BlindedSign))
        codec = WireCodec()
        codec.encode_value("p", out)
        codec.encode_value(keypair.public_key.encrypt(3, rng), out)
        with pytest.raises(ProtocolError, match="ciphertext vector"):
            WireCodec().decode_envelope(bytes(out))

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


def single_message_flow(msg):
    """A flow that performs exactly one request/reply exchange."""
    reply = yield msg
    return reply


class TestRoundBatcher:
    """``S1Context.call`` / ``run_flows``: one coalesced round per stage."""

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
# Ciphertext vectors: a tag, the key, the count and the buffer, one slice.
# ---------------------------------------------------------------------------


def _varint(value: int) -> bytes:
    out = bytearray()
    wire._write_varint(out, value)
    return bytes(out)


def _plain(value):
    """Decoded structures as comparable data (values and key identity
    by modulus)."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, CtVector):
        key = value.key
        return ("vec", key.n, getattr(key, "s", 1), value.values())
    if isinstance(value, Ciphertext):
        return ("ct", value.value, value.public_key.n)
    if isinstance(value, ItemBatch):
        return ("batch", value.public_key.n, value.shapes, value.buffer)
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
                seen_bits=cts[i + 9 : i + 12] if full else None,
                record=cts[i + 8] if full else None,
                uid=i - 1,
            )

        return {
            "empty": CtVector.of(pk, []),
            "vec-1": CtVector.pack(cts[:1]),
            "vec-2": CtVector.pack(cts[:2]),
            "vec-300": CtVector.pack(cts),
            "layered-1": CtVector.pack(lcs[:1]),
            "layered-2": CtVector.pack(lcs[:2]),
            "layered-300": CtVector.pack(lcs),
            "foreign": CtVector.pack(foreign),
            "nested": [CtVector.pack(cts[:3]), (CtVector.pack(lcs[:3]), []), None, 7],
            "batch-full": ItemBatch.pack(pk, [scored(30, True), scored(50, True)]),
            "batch-bare": ItemBatch.pack(pk, [scored(70, False)]),
            "batch-empty": ItemBatch.pack(pk, []),
        }

    @staticmethod
    def _warm(codec, keypair, own_keypair, dj):
        """Register the three keys the way a session's first frames do."""
        out = bytearray()
        for key in (CtVector.of(dj, [1]), own_keypair.public_key):
            codec.encode_value(key, out)
        return bytes(out)

    def test_same_bytes_as_the_layout(self, material, keypair, own_keypair, dj):
        """A vector is ``_VEC``, its key's reference, its count and its
        buffer as it is, and decodes to the same values under the
        process's key object."""
        for name, value in material.items():
            codec, reference = WireCodec(), WireCodec()
            warm = self._warm(codec, keypair, own_keypair, dj)
            self._warm(reference, keypair, own_keypair, dj)
            out = bytearray()
            codec.encode_value(value, out)
            if type(value) is CtVector:
                key = bytearray()
                if type(value.key) is DamgardJurik:
                    reference._encode_scheme(value.key, key)
                else:
                    reference._encode_key(value.key, key)
                layout = bytes([wire._VEC]) + key + _varint(len(value)) + value.buffer
                assert bytes(out) == layout, name
            decoder = WireCodec()
            reader = _Reader(warm)
            decoder.decode_value(reader), decoder.decode_value(reader)
            assert _plain(decoder.decode_value(_Reader(bytes(out)))) == _plain(value), name

    def test_first_element_registers_its_key(self, material):
        """Nothing registered yet: the vector introduces its key
        (``_PK_NEW``, or ``_DJ_NEW`` and the key under it); the second
        time round the same vector references it by index."""
        for name in ("vec-2", "vec-300", "layered-300", "batch-full"):
            codec, decoder = WireCodec(), WireCodec()
            out = bytearray()
            codec.encode_value(material[name], out)
            assert _plain(decoder.decode_value(_Reader(bytes(out)))) == _plain(
                material[name]
            )
            again = bytearray()
            codec.encode_value(material[name], again)
            assert len(again) < len(out), name
            assert _plain(decoder.decode_value(_Reader(bytes(again)))) == _plain(
                material[name]
            )
            assert (list(codec._key_index), list(codec._scheme_index)) == (
                [key.n for key in decoder._keys],
                [(scheme.n, scheme.s) for scheme in decoder._schemes],
            )

    def test_two_byte_key_index_round_trips(self, rng):
        """A key registered past index 127 (a two-byte varint)."""
        codec, decoder = WireCodec(), WireCodec()
        keys = [
            PaillierKeypair.generate(32, SecureRandom(900 + i)).public_key
            for i in range(130)
        ]
        out = bytearray()
        codec.encode_value(keys, out)
        decoder.decode_value(_Reader(bytes(out)))
        for key in (keys[127], keys[128], keys[129]):
            vector = CtVector.pack(key.encrypt_batch([1, 2, 3], rng))
            out = bytearray()
            codec.encode_value(vector, out)
            assert _plain(decoder.decode_value(_Reader(bytes(out)))) == _plain(vector)

    def test_every_strict_prefix_is_rejected(self, material, keypair, own_keypair, dj):
        for name, value in material.items():
            codec = WireCodec()
            warm = self._warm(codec, keypair, own_keypair, dj)
            out = bytearray()
            codec.encode_value(value, out)
            frame = bytes(out)
            cuts = range(len(frame))
            if len(frame) > 2000:  # the long vectors: a spread plus both ends
                cuts = sorted({*range(0, len(frame), 97), *range(80), *range(len(frame) - 80, len(frame))})
            for cut in cuts:
                decoder = WireCodec()
                reader = _Reader(warm)
                decoder.decode_value(reader), decoder.decode_value(reader)
                with pytest.raises(ProtocolError):
                    decoder.decode_value(_Reader(frame[:cut]))

    def test_a_run_shaped_list_of_other_things_still_decodes(self, keypair, rng):
        """A list of plain values that looks like a vector body decodes as
        the list it is; a list of ciphertexts is written as the vector it
        packs to; a ciphertext among other values in a list is refused."""
        pk = keypair.public_key
        ct = pk.encrypt(1, rng)
        for value in ([wire._PK, 0, 2, b"\x08\x00" * 40], [[4], (ct,)]):
            assert _plain(_roundtrip(value)) == _plain(value)
        assert _plain(_roundtrip([ct, ct])) == _plain(CtVector.pack([ct, ct]))
        for mixed in ([ct, 4, ct], [4, ct], [[ct], ct]):
            with pytest.raises(ProtocolError):
                _roundtrip(mixed)
        # The reader refuses the per-value form the writer never makes.
        single = bytearray()
        WireCodec().encode_value(ct, single)
        for count in (1, 2):
            listed = bytes([wire._LIST, count]) + bytes(single) * count
            with pytest.raises(ProtocolError, match="ciphertext vector"):
                WireCodec().decode_value(_Reader(listed))

    def test_values_outside_the_modulus_are_refused(self, keypair, dj, rng):
        """The reader refuses a vector, a batch body or a single value
        holding 0 or a value at or past its modulus, once per vector."""
        pk = keypair.public_key
        for key, modulus in ((pk, pk.n_squared), (dj, dj.n_s1)):
            stride = CtVector.of(key, [1]).stride
            for bad in (0, modulus, (1 << 8 * stride) - 1):
                vector = CtVector(
                    key, 2, (1).to_bytes(stride, "little") + bad.to_bytes(stride, "little")
                )
                with pytest.raises(ProtocolError, match="outside"):
                    _roundtrip(vector)
        batch = ItemBatch.pack(pk, [ScoredItem(ehl=Ehl(pk.encrypt_batch([1], rng)), worst=None)])
        batch.vector.buffer = bytes(len(batch.buffer))
        with pytest.raises(ProtocolError, match="outside"):
            _roundtrip(batch)
        for bad in (0, pk.n_squared):
            with pytest.raises(ProtocolError, match="outside"):
                _roundtrip(Ciphertext(bad, pk))


class TestHostileIntegers:
    """The decoder bounds what it reads off the wire before acting on it."""

    @staticmethod
    def _scheme_header(n: int, s: int) -> bytes:
        raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
        return bytes([wire._VEC, wire._DJ_NEW]) + _varint(len(raw)) + raw + _varint(s)

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

    # "_LC": a layered (E2) vector's scheme reference.
    @pytest.mark.parametrize("tag", ["_CT", "_LC", "_PK"])
    @pytest.mark.parametrize("index", [0, 1, 127, 128, 2**40])
    def test_unregistered_index_is_a_protocol_error(self, tag, index):
        head = {"_CT": [wire._CT], "_LC": [wire._VEC, wire._DJ], "_PK": [wire._PK]}[tag]
        frame = bytes(head) + _varint(index) + b"\x00" * 64
        with pytest.raises(ProtocolError, match="unregistered"):
            WireCodec().decode_value(_Reader(frame))
        # ... also as the element of a list.
        listed = bytes([wire._LIST, 2]) + frame
        with pytest.raises(ProtocolError):
            WireCodec().decode_value(_Reader(listed))

    @pytest.mark.parametrize("case", ["int-score", "none", "list", "foreign-key", "e2"])
    def test_a_joined_tuple_is_checked_in_the_codec(self, case, keypair, own_keypair, rng):
        """A ``_JOINED`` value is a ciphertext and a vector under its key;
        anything else is a ProtocolError, not an error of the tuple's
        own constructor."""
        pk = keypair.public_key
        codec = WireCodec()
        score = bytearray()
        codec.encode_value(pk.encrypt(5, rng), score)
        attributes = bytearray()
        if case == "foreign-key":
            codec.encode_value(CtVector.encrypt(own_keypair.public_key, [1], rng), attributes)
        elif case == "e2":
            codec.encode_value(CtVector.encrypt(DamgardJurik(pk, 2), [1], rng), attributes)
        frame = {
            "int-score": bytes([wire._JOINED, wire._INT, 0, wire._LIST, 0]),
            "none": bytes([wire._JOINED]) + score + bytes([wire._NONE]),
            "list": bytes([wire._JOINED]) + score + bytes([wire._LIST, 0]),
        }.get(case, bytes([wire._JOINED]) + score + attributes)
        with pytest.raises(ProtocolError, match="joined tuple"):
            WireCodec().decode_value(_Reader(frame))

    def test_ehl_header_is_checked(self, keypair, rng):
        """A batch item's EHL class index and cell count are checked
        before its buffer is cut."""
        pk = keypair.public_key
        decoder = WireCodec()
        out = bytearray()
        WireCodec().encode_value(pk, out)
        decoder.decode_value(_Reader(bytes(out)))
        body = bytes([wire._PK, 0, 1]) + CtVector.of(pk, [1]).buffer
        good = bytes([wire._BATCH, 1, 0, 1, 0, 0, 0]) + body
        assert decoder.decode_value(_Reader(good)).shapes[0].ehl is Ehl
        for cls, cells in ((2, 1), (0, 0)):
            header = bytes([wire._BATCH, 1, cls, cells, 0, 0, 0])
            with pytest.raises(ProtocolError):
                decoder.decode_value(_Reader(header + body))


class TestPlainValues:
    """``decode_plain`` — a control payload — reads ints, bytes, strs and
    tuples and nothing else, and never reaches a key table."""

    def test_round_trip(self):
        value = ("id", -5, 2**300, b"\x00k", ("", (7,)))
        out = bytearray()
        WireCodec().encode_value(value, out)
        assert wire.decode_plain(bytes(out)) == value

    @pytest.mark.parametrize(
        "case", ["key", "ciphertext", "list", "none", "deep", "utf8", "trailing", "truncated"],
    )
    def test_refusals_touch_no_key_table(self, case, keypair, monkeypatch):
        payloads = {
            "key": keypair.public_key,
            "ciphertext": keypair.public_key.encrypt(1),
            "list": ["x", 1],
            "none": ("x", None),
        }
        if case in payloads:
            monkeypatch.setattr(wire, "_SHARED", wire.collections.OrderedDict())
            out = bytearray()
            WireCodec().encode_value(payloads[case], out)
            payload = bytes(out)
        else:
            payload = {
                "deep": bytes([wire._TUPLE, 1]) * 2000 + bytes([wire._INT, 0]),
                "utf8": bytes([wire._STR, 1, 0xFF]),
                "trailing": bytes([wire._INT, 2, wire._INT]),
                "truncated": bytes([wire._BYTES, 5]) + b"abc",
            }[case]
        monkeypatch.setattr(wire, "_SHARED", wire.collections.OrderedDict())
        with pytest.raises(ProtocolError):
            wire.decode_plain(payload)
        assert not wire._SHARED


class TestSharedKeyObjects:
    def test_a_decoded_modulus_is_the_process_object(self, keypair, dj, rng):
        """Two codecs (two sessions) decoding one modulus hand out one
        key object — the one the encoder held, when the process saw it
        first there — so pools outlive a codec and guards pass on ``is``."""
        stream = bytearray()
        WireCodec().encode_value(
            (CtVector.pack([dj.encrypt(1, rng)]), keypair.public_key.encrypt(2, rng)), stream
        )
        first = WireCodec().decode_value(_Reader(bytes(stream)))
        second = WireCodec().decode_value(_Reader(bytes(stream)))
        assert first[0].key is second[0].key
        assert first[1].public_key is second[1].public_key
        assert first[0].key is wire.shared_scheme(dj.n, dj.s)
        assert first[1].public_key is wire.shared_key(keypair.public_key.n)
        assert first[0].key == dj and first[1].public_key == keypair.public_key

    def test_the_table_is_bounded(self):
        for i in range(wire._SHARED_LIMIT + 10):
            wire.shared_key(10**6 + 2 * i + 1)
        assert len(wire._SHARED) <= wire._SHARED_LIMIT
