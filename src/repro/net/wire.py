"""Binary wire encoding for everything that crosses the S1 <-> S2 link.

The transport layer serializes typed protocol messages into self-
describing byte streams: container/metadata values use a small tag +
varint framing, and ciphertexts travel in the limb format the kernel
reads (:func:`repro.crypto.backend.pack_ints`: little-endian 64-bit
words, ``words_for(modulus)`` of them per value).  The codec is
*stateful*: key material (Paillier public keys, Damgård–Jurik
instances) is registered on first appearance in the stream and
referenced by index afterwards, so both endpoints rebuild identical
registries simply by processing the same bytes in the same order — no
out-of-band key exchange is needed.

A :class:`~repro.crypto.vector.CtVector` travels as its buffer:
``_VEC``, its key's reference (``_PK`` / ``_PK_NEW`` for a Paillier key,
``_DJ`` / ``_DJ_NEW`` for a Damgård–Jurik instance), the count, then
``vector.buffer`` as it is; it decodes as one slice.  A round's
:class:`~repro.structures.items.ItemBatch` is ``_BATCH``, the item
count, each item's :class:`~repro.structures.items.ItemShape` (EHL class
index, cell count, a worst/best/record flags byte, then the payload and
seen counts, 0 for an absent field) and the vector body of its
components; uids are S1-local handles and never cross.  A single
Paillier ciphertext is ``_CT`` and its key's index (``_CT_NEWKEY`` and
the modulus the first time), never an entry of a ``_LIST``.  The reader refuses, as a
:class:`ProtocolError`, every ciphertext value outside ``0 < c <
modulus`` — once per vector.

Note on accounting: the paper's bandwidth numbers (Table 3, Fig. 13)
count ciphertext payload bytes, so the channel statistics keep using
``measure_size`` over the payload objects; the framing overhead this
codec adds (tags, varints, key registrations) is transport detail and is
deliberately excluded from those statistics.
"""

from __future__ import annotations

import collections
import os
import threading

from repro.crypto.backend import unpack_ints
from repro.crypto.damgard_jurik import DamgardJurik, LayeredCiphertext
from repro.crypto.paillier import Ciphertext, PaillierPublicKey
from repro.crypto.vector import CtVector, modulus_of
from repro.exceptions import ProtocolError
from repro.structures.ehl import Ehl
from repro.structures.ehl_plus import EhlPlus
from repro.structures.items import ItemBatch, ItemShape, JoinedTuple

# Value tags.
_NONE = 0
_FALSE = 1
_TRUE = 2
_INT = 3
_BYTES = 4
_STR = 5
_LIST = 6
_TUPLE = 7
_CT = 8          # Ciphertext under an already-registered key
_CT_NEWKEY = 9   # Ciphertext introducing a new key
_JOINED = 14
_PK = 15         # PaillierPublicKey reference
_PK_NEW = 16
_BATCH = 18      # an ItemBatch: item shapes, then a vector body
_VEC = 19        # a CtVector: key reference, count, buffer
_DJ = 20         # DamgardJurik reference
_DJ_NEW = 21
# 10, 11, 12, 13 and 17 (single E2 value, EHL, scored item, sorted-list
# entry) are retired: never reuse them.

_EHL_CLASSES = (Ehl, EhlPlus)
# An item shape's flags byte: which of worst, best and record it carries.
_WORST, _BEST, _RECORD = 1, 2, 4

#: Largest Damgård–Jurik degree a frame may name (the schemes use 2): a
#: decoder that believed any ``s`` would compute ``n ** (s + 1)`` on a
#: peer's say-so.
_MAX_DJ_DEGREE = 8

# -- the process's key objects ------------------------------------------
#
# A modulus decoded from the wire resolves to ONE key object per process,
# so what a key object caches (its randomizer pool above all) lives as
# long as the process and not as long as one session's codec — and a
# ciphertext decoded under a registered modulus carries the very object
# its consumer holds, so key guards pass on identity.  Bounded, least
# recently used first out; an evicted modulus simply gets a new object.

_SHARED_LIMIT = 64
_SHARED: collections.OrderedDict = collections.OrderedDict()
_SHARED_LOCK = threading.Lock()


def _shared(ident, make):
    with _SHARED_LOCK:
        obj = _SHARED.get(ident)
        if obj is None:
            obj = _SHARED[ident] = make()
            if len(_SHARED) > _SHARED_LIMIT:
                _SHARED.popitem(last=False)
        else:
            _SHARED.move_to_end(ident)
    return obj


def shared_key(n: int, pk: PaillierPublicKey | None = None) -> PaillierPublicKey:
    """The process's public-key object for modulus ``n`` — ``pk`` (or a
    new key) when this is the first the process sees of ``n``."""
    return _shared(n, lambda: PaillierPublicKey(n) if pk is None else pk)


def shared_scheme(n: int, s: int, dj: DamgardJurik | None = None) -> DamgardJurik:
    """The process's Damgård–Jurik instance for ``(n, s)``, likewise."""
    key = shared_key(n, None if dj is None else dj.public_key)
    return _shared((n, s), lambda: DamgardJurik(key, s) if dj is None else dj)


def _reset_after_fork() -> None:
    # A lock some other parent thread held at fork time would never be
    # released in the child, and the table it guarded may be mid-update:
    # the child starts with both new (its inherited keys re-enter the
    # table, pools and all, the first time they cross a codec).
    global _SHARED, _SHARED_LOCK
    _SHARED, _SHARED_LOCK = collections.OrderedDict(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_signed(out: bytearray, value: int) -> None:
    # ZigZag so small negative ints stay small on the wire.
    _write_varint(out, ((-value) << 1) - 1 if value < 0 else value << 1)


def _zigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ProtocolError("truncated wire message")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        try:
            value = self.data[self.pos]
        except IndexError:
            raise ProtocolError("truncated wire message") from None
        self.pos += 1
        return value

    def varint(self) -> int:
        data, pos = self.data, self.pos
        try:
            byte = data[pos]
            pos += 1
            value = byte & 0x7F
            shift = 7
            while byte & 0x80:
                byte = data[pos]
                pos += 1
                value |= (byte & 0x7F) << shift
                shift += 7
        except IndexError:
            raise ProtocolError("truncated wire message") from None
        self.pos = pos
        return value

    def signed(self) -> int:
        return _zigzag(self.varint())


def _plain(reader: _Reader):
    tag = reader.byte()
    if tag == _INT:
        return reader.signed()
    if tag == _BYTES:
        return bytes(reader.take(reader.varint()))
    if tag == _STR:
        return reader.take(reader.varint()).decode("utf-8")
    if tag == _TUPLE:
        return tuple(_plain(reader) for _ in range(reader.varint()))
    raise ProtocolError(f"wire tag {tag} in a plain value")


def decode_plain(data: bytes):
    """One codec value built of ints, bytes, strs and tuples alone — a
    control payload — and nothing after it.  No codec is involved: any
    other tag is refused before its body is read, so a payload reaches
    no key registry and no process key table."""
    reader = _Reader(data)
    try:
        value = _plain(reader)
    except (RecursionError, UnicodeDecodeError):
        raise ProtocolError("malformed plain value") from None
    if reader.pos != len(data):
        raise ProtocolError("trailing bytes after a plain value")
    return value


def _entry(registry: list, index: int, what: str):
    if index >= len(registry):
        raise ProtocolError(f"wire message names unregistered {what} {index}")
    return registry[index]


def _check_range(vector: CtVector) -> CtVector:
    """``vector`` when every value lies in ``0 < c < modulus``; a
    :class:`ProtocolError` otherwise."""
    if vector.count:
        values = unpack_ints(vector.buffer, vector.stride >> 3, vector.count)
        if min(values) < 1 or max(values) >= modulus_of(vector.key):
            raise ProtocolError("a ciphertext value lies outside 0 < c < modulus")
    return vector


class WireCodec:
    """Stateful encoder/decoder for protocol messages and replies.

    One codec instance serves one endpoint of one transport; its key
    registry grows as the stream introduces new key material.  Both
    endpoints stay in sync because registration order is fully determined
    by the byte stream itself.  The registry holds the *process's* object
    for each modulus (:func:`shared_key` / :func:`shared_scheme`).
    """

    def __init__(self):
        self._keys: list[PaillierPublicKey] = []
        self._key_index: dict[int, int] = {}       # n -> index
        self._schemes: list[DamgardJurik] = []
        self._scheme_index: dict[tuple[int, int], int] = {}  # (n, s) -> index

    # -- key registries --------------------------------------------------

    def _register_key(self, n: int, pk: PaillierPublicKey | None = None):
        """Register modulus ``n`` (a no-op when the stream already did);
        returns the registry's key object for it."""
        idx = self._key_index.get(n)
        if idx is None:
            idx = self._key_index[n] = len(self._keys)
            self._keys.append(shared_key(n, pk))
        return self._keys[idx]

    def _register_scheme(self, n: int, s: int, dj: DamgardJurik | None = None):
        """The scheme twin of :meth:`_register_key`; registers the key
        too, on both endpoints alike."""
        idx = self._scheme_index.get((n, s))
        if idx is None:
            self._register_key(n, None if dj is None else dj.public_key)
            idx = self._scheme_index[(n, s)] = len(self._schemes)
            self._schemes.append(shared_scheme(n, s, dj))
        return self._schemes[idx]

    # -- value encoding --------------------------------------------------

    def encode_value(self, value, out: bytearray) -> None:
        """Append the tagged encoding of ``value`` to ``out``."""
        # What a round is made of goes by exact type, ahead of the
        # general isinstance chain (which still catches subclasses).
        encode = _ENCODE_EXACT.get(type(value))
        if encode is not None:
            encode(self, value, out)
        elif value is None:
            out.append(_NONE)
        elif value is True:
            out.append(_TRUE)
        elif value is False:
            out.append(_FALSE)
        elif isinstance(value, int):
            out.append(_INT)
            _write_signed(out, value)
        elif isinstance(value, bytes):
            out.append(_BYTES)
            _write_varint(out, len(value))
            out.extend(value)
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(_STR)
            _write_varint(out, len(raw))
            out.extend(raw)
        elif isinstance(value, list):
            self._encode_list(value, out)
        elif isinstance(value, tuple):
            out.append(_TUPLE)
            _write_varint(out, len(value))
            for entry in value:
                self.encode_value(entry, out)
        elif isinstance(value, JoinedTuple):
            out.append(_JOINED)
            self.encode_value(value.score, out)
            self.encode_value(value.attributes, out)
        elif isinstance(value, PaillierPublicKey):
            self._encode_key(value, out)
        else:
            raise ProtocolError(f"cannot serialize {type(value).__name__} on the wire")

    def _encode_list(self, items: list, out: bytearray) -> None:
        """A list of ciphertext objects goes as the vector it packs to
        (one kind, one key: ``perfbench/probes.py``'s wire probe encodes
        its ``E2`` replies so); a ciphertext among other values is
        refused, by the reader too."""
        if items and type(items[0]) in _CIPHERTEXTS:
            self._encode_vector(CtVector.pack(items), out)
            return
        out.append(_LIST)
        _write_varint(out, len(items))
        for entry in items:
            if type(entry) in _CIPHERTEXTS:
                raise ProtocolError("a list holding a ciphertext must be a ciphertext vector")
            self.encode_value(entry, out)

    def _encode_vector(self, vector: CtVector, out: bytearray) -> None:
        out.append(_VEC)
        self._encode_body(vector, out)

    def _encode_body(self, vector: CtVector, out: bytearray) -> None:
        """A vector's key reference, count and buffer."""
        key = vector.key
        if type(key) is PaillierPublicKey:
            self._encode_key(key, out)
        else:
            self._encode_scheme(key, out)
        _write_varint(out, vector.count)
        out += vector.buffer

    def _encode_batch(self, batch: ItemBatch, out: bytearray) -> None:
        out.append(_BATCH)
        _write_varint(out, len(batch))
        for shape in batch.shapes:
            out.append(_EHL_CLASSES.index(shape.ehl))
            _write_varint(out, shape.cells)
            out.append(shape.worst * _WORST | shape.best * _BEST | shape.record * _RECORD)
            _write_varint(out, 0 if shape.scores is None else shape.scores + 1)
            _write_varint(out, 0 if shape.seen is None else shape.seen + 1)
        self._encode_body(batch.vector, out)

    def _encode_key(
        self, pk: PaillierPublicKey, out: bytearray, known: int = _PK, new: int = _PK_NEW
    ) -> None:
        """A reference to ``pk``: ``known`` and its index, or ``new`` and
        its modulus the first time the stream names it."""
        idx = self._key_index.get(pk.n)
        if idx is None:
            self._register_key(pk.n, pk)
            raw = pk.n.to_bytes((pk.n.bit_length() + 7) // 8, "big")
            out.append(new)
            _write_varint(out, len(raw))
            out.extend(raw)
        else:
            out.append(known)
            _write_varint(out, idx)

    def _encode_scheme(self, scheme: DamgardJurik, out: bytearray) -> None:
        """The scheme twin of :meth:`_encode_key` (``_DJ`` / ``_DJ_NEW``,
        the modulus and the degree)."""
        idx = self._scheme_index.get((scheme.n, scheme.s))
        if idx is None:
            self._register_scheme(scheme.n, scheme.s, scheme)
            raw = scheme.n.to_bytes((scheme.n.bit_length() + 7) // 8, "big")
            out.append(_DJ_NEW)
            _write_varint(out, len(raw))
            out.extend(raw)
            _write_varint(out, scheme.s)
        else:
            out.append(_DJ)
            _write_varint(out, idx)

    def _encode_ciphertext(self, ct: Ciphertext, out: bytearray) -> None:
        pk = ct.public_key
        self._encode_key(pk, out, _CT, _CT_NEWKEY)
        out.extend(ct.value.to_bytes(pk.ciphertext_bytes, "big"))

    # -- value decoding --------------------------------------------------

    def decode_value(self, reader: _Reader):
        """Decode one tagged value from ``reader``; a malformed value —
        nested past the interpreter's recursion limit or a string that is
        not UTF-8 included — is a :class:`ProtocolError`."""
        try:
            return self._decode(reader)
        except (RecursionError, UnicodeDecodeError):
            raise ProtocolError("malformed wire value") from None

    def _decode(self, reader: _Reader):
        tag = reader.byte()
        if tag == _VEC:
            return self._decode_body(reader)
        if tag == _CT or tag == _CT_NEWKEY:
            return self._decode_ciphertext(tag, reader)
        if tag == _LIST:
            items = [self._decode(reader) for _ in range(reader.varint())]
            if any(type(entry) is Ciphertext for entry in items):
                raise ProtocolError("a list holding a ciphertext must be a ciphertext vector")
            return items
        if tag == _BATCH:
            return self._decode_batch(reader)
        if tag == _NONE:
            return None
        if tag == _INT:
            return reader.signed()
        if tag == _TRUE:
            return True
        if tag == _FALSE:
            return False
        if tag == _BYTES:
            return bytes(reader.take(reader.varint()))
        if tag == _STR:
            return reader.take(reader.varint()).decode("utf-8")
        if tag == _TUPLE:
            return tuple(self._decode(reader) for _ in range(reader.varint()))
        if tag == _JOINED:
            score, attributes = self._decode(reader), self._decode(reader)
            if type(score) is not Ciphertext or type(attributes) is not CtVector or (
                attributes.key is not score.public_key
            ):
                raise ProtocolError("a joined tuple is a ciphertext and a vector under its key")
            return JoinedTuple(score, attributes)
        if tag == _PK or tag == _PK_NEW:
            return self._decode_key(tag, reader)
        raise ProtocolError(f"unknown wire tag {tag}")

    def _decode_body(self, reader: _Reader) -> CtVector:
        """The inverse of :meth:`_encode_body`: the key, the count, then
        the buffer as one range-checked slice."""
        tag = reader.byte()
        if tag == _PK or tag == _PK_NEW:
            key = self._decode_key(tag, reader)
        elif tag == _DJ or tag == _DJ_NEW:
            key = self._decode_scheme(tag, reader)
        else:
            raise ProtocolError("a ciphertext vector opens with its key")
        count = reader.varint()
        vector = CtVector(key, count, b"")
        vector.buffer = bytes(reader.take(count * vector.stride))
        return _check_range(vector)

    def _decode_batch(self, reader: _Reader) -> ItemBatch:
        """The inverse of :meth:`_encode_batch`: every shape checked, then
        a Paillier vector of the size the shapes give."""
        count = reader.varint()
        shapes = []
        for _ in range(count):
            index, cells, flags = reader.byte(), reader.varint(), reader.byte()
            scores, seen = reader.varint(), reader.varint()
            if index >= len(_EHL_CLASSES):
                raise ProtocolError(f"unknown EHL class {index}")
            if not cells:
                raise ProtocolError("an item's EHL has no cells")
            if flags & ~(_WORST | _BEST | _RECORD):
                raise ProtocolError(f"unknown item flags {flags:#x}")
            shapes.append(ItemShape(
                _EHL_CLASSES[index], cells, bool(flags & _WORST), bool(flags & _BEST),
                scores - 1 if scores else None, seen - 1 if seen else None,
                bool(flags & _RECORD),
            ))
        vector = self._decode_body(reader)
        if type(vector.key) is not PaillierPublicKey or len(vector) != sum(
            shape.count() for shape in shapes
        ):
            raise ProtocolError("an item batch's body does not fit its shapes")
        return ItemBatch(shapes, [-1] * count, vector)

    def _decode_key(self, tag: int, reader: _Reader) -> PaillierPublicKey:
        """The key a ``_PK`` / ``_CT`` index or a ``_PK_NEW`` /
        ``_CT_NEWKEY`` modulus names."""
        if tag == _PK_NEW or tag == _CT_NEWKEY:
            return self._register_key(int.from_bytes(reader.take(reader.varint()), "big"))
        return _entry(self._keys, reader.varint(), "key")

    def _decode_scheme(self, tag: int, reader: _Reader) -> DamgardJurik:
        """The scheme a ``_DJ`` index or a ``_DJ_NEW`` modulus and degree
        names."""
        if tag == _DJ:
            return _entry(self._schemes, reader.varint(), "scheme")
        n = int.from_bytes(reader.take(reader.varint()), "big")
        s = reader.varint()
        if not 1 <= s <= _MAX_DJ_DEGREE:
            raise ProtocolError(f"Damgård–Jurik degree {s} out of range")
        return self._register_scheme(n, s)

    def _decode_ciphertext(self, tag: int, reader: _Reader) -> Ciphertext:
        pk = self._decode_key(tag, reader)
        value = int.from_bytes(reader.take(pk.ciphertext_bytes), "big")
        if not 0 < value < pk.n_squared:
            raise ProtocolError("a ciphertext value lies outside 0 < c < modulus")
        return Ciphertext(value, pk)

    # -- message envelopes ----------------------------------------------

    def encode_envelope(self, messages: list) -> bytes:
        """Serialize a batch of request messages (one coalesced round)."""
        from repro.net.messages import message_fields, message_type_id

        out = bytearray()
        _write_varint(out, len(messages))
        for msg in messages:
            _write_varint(out, message_type_id(type(msg)))
            for name in message_fields(type(msg)):
                self.encode_value(getattr(msg, name), out)
        return bytes(out)

    def decode_envelope(self, data: bytes) -> list:
        """Inverse of :meth:`encode_envelope`.  A field holding a single
        ``_CT`` is refused: every ciphertext field is a vector, and the
        message would pack the value into one."""
        from repro.net.messages import message_class, message_fields

        reader = _Reader(data)
        messages = []
        for _ in range(reader.varint()):
            cls = message_class(reader.varint())
            values = [self.decode_value(reader) for _ in message_fields(cls)]
            if any(type(value) is Ciphertext for value in values):
                raise ProtocolError("a message's ciphertext field must be a ciphertext vector")
            messages.append(cls(*values))
        return messages

    def encode_replies(self, replies: list) -> bytes:
        """Serialize the per-message responses of one coalesced round."""
        out = bytearray()
        _write_varint(out, len(replies))
        for reply in replies:
            self.encode_value(reply, out)
        return bytes(out)

    def decode_replies(self, data: bytes) -> list:
        """Inverse of :meth:`encode_replies`."""
        reader = _Reader(data)
        return [self.decode_value(reader) for _ in range(reader.varint())]


_CIPHERTEXTS = (Ciphertext, LayeredCiphertext)

_ENCODE_EXACT = {
    CtVector: WireCodec._encode_vector,
    Ciphertext: WireCodec._encode_ciphertext,
    list: WireCodec._encode_list,
    ItemBatch: WireCodec._encode_batch,
}
