"""A blinded round's items as one packed batch.

:class:`~repro.structures.items.ItemBatch` carries a round's items from
S1's blind through S2's re-blind to S1's unblind.  Here:

* packing and unpacking give the items back, field for field, and whole
  item slices (:meth:`select`, :meth:`concat`) keep every component;
* a batch's size is the size of the items it holds;
* on the wire a batch is its key reference, its item shapes and its
  buffer byte for byte — with the key registered, registered past a
  one-byte index, or not yet registered — and decodes into a batch with
  the same buffer, shapes and key object (uids never cross: ``-1``);
* a frame whose batch is short, names an unregistered key or no key,
  or has a bad EHL class, an empty EHL, unknown flag bits or more
  shapes than the frame holds is refused with ``ProtocolError``, on a
  codec and on a daemon session, and the session answers its next round
  as if it had never arrived.
"""

from __future__ import annotations

import collections

import pytest

from repro.core.params import SystemParams
from repro.core.scheme import SecTopK
from repro.crypto.damgard_jurik import DamgardJurik
from repro.crypto.paillier import Ciphertext, PaillierKeypair, PaillierPublicKey
from repro.crypto.rng import SecureRandom
from repro.crypto.vector import CtVector
from repro.exceptions import ProtocolError, RemoteS2Error
from repro.net import messages, wire
from repro.net.channel import measure_size
from repro.net.wire import WireCodec, _Reader
from repro.protocols.sec_dedup import _prepare
from repro.structures.ehl import Ehl
from repro.structures.ehl_plus import EhlPlus
from repro.structures.items import ItemBatch, ScoredItem


@pytest.fixture(scope="module")
def keys():
    keypair = PaillierKeypair.generate(128, SecureRandom(61))
    other = PaillierKeypair.generate(128, SecureRandom(62)).public_key
    return keypair.public_key, DamgardJurik(keypair.public_key, s=2), other


def _items(pk: PaillierPublicKey, dj: DamgardJurik, rng: SecureRandom) -> list:
    """Every shape a round carries: each field present or absent, empty
    payloads, seen bits with and without a record, both EHL classes."""
    enc = lambda count: pk.encrypt_batch(  # noqa: E731
        [rng.randint_below(pk.n) for _ in range(count)], rng
    )
    return [
        ScoredItem(ehl=Ehl(enc(3)), worst=enc(1)[0], seen_bits=enc(3), record=enc(1)[0], uid=4),
        ScoredItem(ehl=EhlPlus(enc(2)), worst=enc(1)[0], best=enc(1)[0], list_scores=enc(2)),
        ScoredItem(ehl=Ehl(enc(1)), worst=None, list_scores=[], seen_bits=[], uid=-7),
        ScoredItem(ehl=Ehl(enc(2)), worst=enc(1)[0], seen_bits=enc(2)),
        ScoredItem(ehl=EhlPlus(enc(4)), worst=enc(1)[0], best=enc(1)[0], uid=2**40),
    ]


def _fields(item: ScoredItem) -> tuple:
    """An item as comparable data: EHL class, then every field's values
    (``None`` for an absent field), then its uid."""

    def values(cts):
        return None if cts is None else [(type(c).__name__, c.value) for c in cts]

    return (
        type(item.ehl).__name__,
        values(item.ehl.cells),
        values(None if item.worst is None else [item.worst]),
        values(None if item.best is None else [item.best]),
        values(item.list_scores),
        values(item.seen_bits),
        values(None if item.record is None else [item.record]),
        item.uid,
    )


class TestPacking:
    def test_unpack_gives_back_the_items(self, keys):
        pk, dj, _ = keys
        items = _items(pk, dj, SecureRandom(63))
        batch = ItemBatch.pack(pk, items)
        assert len(batch) == len(items)
        assert [_fields(i) for i in batch.unpack()] == [_fields(i) for i in items]
        assert ItemBatch.pack(pk, []).unpack() == []

    def test_slices_keep_whole_items(self, keys):
        pk, dj, _ = keys
        items = _items(pk, dj, SecureRandom(64))
        batch = ItemBatch.pack(pk, items)
        order = [3, 0, 4, 4, 1]
        picked = batch.select(order)
        assert [_fields(i) for i in picked.unpack()] == [_fields(items[i]) for i in order]
        joined = ItemBatch.concat([batch.select([2]), picked, batch.select([])])
        assert [_fields(i) for i in joined.unpack()] == [_fields(items[i]) for i in [2] + order]

    def test_size_is_the_items_size(self, keys):
        pk, dj, _ = keys
        items = _items(pk, dj, SecureRandom(65))
        for chosen in (items, items[:1], items[3:4], []):
            batch = ItemBatch.pack(pk, chosen)
            assert batch.serialized_size() == measure_size(chosen)
            assert measure_size(batch) == measure_size(chosen)

    def test_seen_bits_of_two_kinds_are_refused(self, keys):
        """Every component is a Paillier ciphertext: an ``E2`` seen bit,
        beside a Paillier one or alone, is refused."""
        pk, dj, _ = keys
        rng = SecureRandom(66)
        e2 = dj.encrypt(1, rng)
        for bits in ([pk.encrypt(1, rng), e2], [e2]):
            refused = ScoredItem(ehl=Ehl(pk.encrypt_batch([1], rng)), worst=None, seen_bits=bits)
            with pytest.raises(ProtocolError, match="Paillier"):
                ItemBatch.pack(pk, [refused])


def _warm(codec: WireCodec, pk: PaillierPublicKey, dj: DamgardJurik, before: int = 0):
    """Register ``before`` throwaway keys, then ``pk`` and ``dj``'s scheme
    the way a session's first frames do; returns the bytes written."""
    out = bytearray()
    for i in range(before):
        codec.encode_value(PaillierPublicKey(2 * i + 3), out)
    codec.encode_value(Ciphertext(1, pk), out)
    codec.encode_value(CtVector.of(dj, [1]), out)
    return bytes(out)


class TestWire:
    @pytest.mark.parametrize("before", [None, 0, 0x80], ids=["cold", "warm", "wide-index"])
    def test_same_bytes_as_the_items(self, keys, before, monkeypatch):
        """Key unregistered (the batch registers it), registered at a
        one-byte index, or registered at index 0x80 (a two-byte varint):
        the shapes come first, then the vector body (the key, the
        component count); the frame ends with the items' packed bytes as
        they are, and
        decodes into a batch with the same buffer and shapes, under the
        process's object for the key, every uid ``-1``.  (The throwaway keys go to a table of the
        process's key objects of this test's own.)"""
        monkeypatch.setattr(wire, "_SHARED", collections.OrderedDict())
        pk, dj, _ = keys
        items = _items(pk, dj, SecureRandom(67))
        batch = ItemBatch.pack(pk, items)
        codec = WireCodec()
        warm = b"" if before is None else _warm(codec, pk, dj, before)
        out = bytearray()
        codec.encode_value(batch, out)
        frame = bytes(out)
        assert frame[:2] == bytes((wire._BATCH, len(items)))
        key_at = 2 + 5 * len(items)
        assert frame[key_at] == (wire._PK_NEW if before is None else wire._PK)
        assert frame.endswith(batch.buffer)
        decoder = WireCodec()
        reader = _Reader(warm + frame)
        while reader.pos < len(warm):
            decoder.decode_value(reader)
        back = decoder.decode_value(reader)
        assert reader.pos == len(warm + frame)
        assert type(back) is ItemBatch
        assert back.public_key == pk
        assert back.public_key is wire.shared_key(pk.n)
        assert back.shapes == batch.shapes
        assert back.buffer == batch.buffer
        assert back.uids == [-1] * len(items)
        assert [_fields(i)[:-1] for i in back.unpack()] == [_fields(i)[:-1] for i in items]
        assert back.serialized_size() == batch.serialized_size()

    def test_round_trip_of_a_real_round(self, keys):
        """A ``DedupSort`` request as S1 builds it crosses a codec and
        comes back byte for byte when re-encoded."""
        pk, dj, _ = keys
        scheme = SecTopK(SystemParams.tiny(), seed=68)
        ctx = scheme._make_context()
        try:
            relation = scheme.encrypt([[3, 1], [2, 2], [1, 3]])
            entries = next(iter(relation.lists.values()))
            items = [
                ScoredItem(ehl=e.ehl, worst=e.score, seen_bits=[e.score], record=e.record)
                for e in entries
            ]
            counts = scheme.public_key.encrypt_batch([0, 1], ctx.rng)
            own = scheme._s1_keypair
            _, fields = _prepare(ctx, items, [0, 1, 2], own, None, counts)
        finally:
            ctx.close()
        msg = messages.DedupSort(
            protocol="SecDupElim", own_public=own.public_key, sentinel=-5,
            eliminate=True, **fields,
        )
        frame = WireCodec().encode_envelope([msg])
        (back,) = WireCodec().decode_envelope(frame)
        assert type(back.items) is ItemBatch
        assert back.items.buffer == msg.items.buffer
        assert WireCodec().encode_envelope([back]) == frame


def test_an_empty_round_is_the_empty_batch(ctx, own_keypair):
    """An empty round's items are the empty batch: every S2 handler
    answers with the empty batch, which is a count of 0, its key and a
    count of 0 on the wire, and nothing after them."""
    own = own_keypair.public_key
    empty = ItemBatch.pack(ctx.public_key, [])
    none, mine = CtVector.of(ctx.public_key, []), CtVector.of(own, [])
    rounds = [
        messages.DedupBatch(protocol="SecDedup", matrix=none, items=empty, companions=mine,
                            ranks=[], own_public=own, sentinel=-5, eliminate=False),
        messages.DedupSort(protocol="SecDupElim", counts=none, items=empty, keys=none,
                           companions=mine, ranks=[], own_public=own, sentinel=-5,
                           eliminate=True),
        messages.SortAffine(protocol="EncSort", keys=none, items=empty, companions=mine,
                            own_public=own, descending=True),
    ]
    for msg in rounds:
        reply = ctx.call(msg)
        items_out = reply[-2]
        assert type(items_out) is ItemBatch and len(items_out) == 0
        assert len(reply[-1]) == 0
        codec, out = WireCodec(), bytearray()
        codec.encode_value(ctx.public_key, bytearray())  # the key at index 0
        codec.encode_value(items_out, out)
        assert bytes(out) == bytes((wire._BATCH, 0, wire._PK, 0, 0))
    assert ctx.call(
        messages.SortGateBatch(protocol="EncSort", gates=[], own_public=own, descending=True)
    ) == []


# ----------------------------------------------------------------------
# Hostile batches.
# ----------------------------------------------------------------------


def hostile_batches(frame: bytes) -> dict[str, tuple[bytes, bool]]:
    """Per refusal: ``frame`` — the bytes of a batch of at least two
    items, each shape five bytes, its key at a one-byte index and its
    component count a one-byte varint — edited into a batch that must
    not decode, and whether the bytes after it in a message may follow
    (``False``: the frame ends there)."""
    assert frame[0] == wire._BATCH
    count = frame[1]
    assert 2 <= count < 0x80
    key_at = 2 + 5 * count
    assert frame[key_at] == wire._PK
    body = key_at + 3  # _PK, key index, component count
    stride = (len(frame) - body) // frame[key_at + 2]

    def edit(at: int, value: int) -> bytes:
        out = bytearray(frame)
        out[at] = value
        return bytes(out)

    def component(value: bytes) -> bytes:
        return frame[:body] + value + frame[body + stride :]

    # _BATCH, count, then per item: class, cells, flags, payload count +
    # 1, seen count + 1; then _PK, key index, component count, buffer.
    return {
        "short": (frame[:-9], False),
        "unregistered-key": (edit(key_at + 1, 0x7E), True),
        "not-a-key": (edit(key_at, wire._CT), True),
        "bad-ehl-class": (edit(2, len(wire._EHL_CLASSES)), True),
        "empty-ehl": (edit(3, 0), True),
        "unknown-flags": (edit(4, frame[4] | 0x08), True),
        "shapes-past-frame": (frame[:1] + bytes((0x7F,)) + frame[2:key_at], False),
        "count-off-shapes": (edit(key_at + 2, frame[key_at + 2] - 1), True),
        # A word value at or past N^2, and a value of 0: outside 0 < c < N^2.
        "word-past-modulus": (component(b"\xff" * stride), True),
        "zero-component": (component(bytes(stride)), True),
    }


def with_items(codec: WireCodec, msg, items: bytes, rest: bool = True) -> bytes:
    """``msg``'s envelope with ``items`` in place of its batch (and,
    without ``rest``, ending there)."""
    out = bytearray([1, messages.message_type_id(type(msg))])
    for name in messages.message_fields(type(msg)):
        if name == "items":
            out += items
            if not rest:
                break
        else:
            codec.encode_value(getattr(msg, name), out)
    return bytes(out)


HOSTILE = [
    "short", "unregistered-key", "not-a-key", "bad-ehl-class", "empty-ehl",
    "unknown-flags", "shapes-past-frame", "count-off-shapes", "word-past-modulus",
    "zero-component",
]


@pytest.mark.parametrize("case", HOSTILE)
def test_codec_refuses_a_hostile_batch(keys, case):
    """The decoder refuses the batch with ``ProtocolError`` and its
    registries keep the keys they had."""
    pk, dj, other = keys
    encoder, decoder = WireCodec(), WireCodec()
    warm = _warm(encoder, pk, dj) + _warm(encoder, other, DamgardJurik(other, s=2))
    reader = _Reader(warm)
    while reader.pos < len(warm):
        decoder.decode_value(reader)
    rng = SecureRandom(69)
    good = ScoredItem(ehl=Ehl(pk.encrypt_batch([1, 2], rng)), worst=pk.encrypt(3, rng))
    out = bytearray()
    encoder.encode_value(ItemBatch.pack(pk, [good, good]), out)
    frame, _ = hostile_batches(bytes(out))[case]
    registered = (list(decoder._keys), list(decoder._schemes))
    with pytest.raises(ProtocolError):
        decoder.decode_value(_Reader(frame))
    assert (list(decoder._keys), list(decoder._schemes)) == registered


def test_daemon_refuses_a_hostile_batch_and_keeps_the_session(tcp_daemon):
    """Each hostile ``DedupSort`` frame — its batch refused by the codec
    (every case of :func:`hostile_batches`), or named under S1's own key
    instead of the main key — comes back as a typed ``ProtocolError``;
    the session then answers its next round, and logs its leakage,
    exactly as an identically seeded session that never saw one."""

    def session():
        scheme = SecTopK(SystemParams.tiny(), seed=70)
        relation = scheme.encrypt([[5, 1, 2], [4, 4, 1], [3, 2, 5], [1, 5, 3]])
        return scheme, relation, scheme._make_context(transport=tcp_daemon)

    def dedup_sort(scheme, relation, ctx):
        entries = next(iter(relation.lists.values()))[:3]
        items = [
            ScoredItem(ehl=e.ehl, worst=e.score, seen_bits=[e.score], record=e.record)
            for e in entries
        ]
        counts = scheme.public_key.encrypt_batch([0, 0], ctx.rng)
        own = scheme._s1_keypair
        _, fields = _prepare(ctx, items, [0, 1, 2], own, None, counts)
        return messages.DedupSort(
            protocol="SecDupElim", own_public=own.public_key,
            sentinel=-ctx.encoder.sentinel, eliminate=True, **fields,
        )

    def seen(reply) -> tuple:
        items, comps = reply
        return (
            type(items).__name__,
            [_fields(i) for i in items.unpack()],
            comps.values(),
        )

    victim, twin = session(), session()
    try:
        scheme, relation, ctx = victim
        # The twin is served the very messages the victim is: a first
        # round registers every key on both ends of both sessions.
        first, second = dedup_sort(*victim), dedup_sort(*victim)
        replies = [[seen(d[2].call(first))] for d in (victim, twin)]
        transport = ctx.transport
        codec, client = transport._codec, transport._client
        good = bytearray()
        codec.encode_value(second.items, good)
        cases = hostile_batches(bytes(good))
        own_key = bytearray(good)
        own_key[2 + 5 * len(second.items) + 1] = codec._key_index[
            scheme._s1_keypair.public_key.n
        ]
        cases["own-key"] = (bytes(own_key), True)
        for items, rest in cases.values():
            client.request_begin(transport.session_id, with_items(codec, second, items, rest))
            with pytest.raises(RemoteS2Error) as excinfo:
                client.request_finish(transport.session_id)
            assert excinfo.value.kind == "ProtocolError"
        for reply, d in zip(replies, (victim, twin)):
            reply.append(seen(d[2].call(second)))
        assert replies[0] == replies[1]
        assert replies[0][1][0] == "ItemBatch"
        events = [
            [(e.observer, e.protocol, e.kind, repr(e.payload)) for e in d[2].leakage.events]
            for d in (victim, twin)
        ]
        assert events[0] == events[1]
    finally:
        victim[2].close()
        twin[2].close()
