"""Typed request messages of the S1 -> S2 protocol.

Every interaction with the crypto cloud is expressed as one of the
message types below; S1-side protocol code never holds an S2 object —
it submits messages through its transport and the S2 dispatcher
(:mod:`repro.net.dispatch`) services them.

Every ciphertext list a message carries is one
:class:`~repro.crypto.vector.CtVector` (one value: a vector of one); a
list of ciphertext objects given for such a field is packed into one
when the message is built.

Each message declares

* ``protocol`` — the sub-protocol label the traffic is attributed to in
  the :class:`~repro.net.channel.ChannelStats` breakdown, and
* :meth:`Message.request_payload` — exactly the objects whose serialized
  size counts as S1 -> S2 bytes (matching what the paper's accounting
  ships: ciphertexts and clear metadata, not setup key material).

The reply of each message is the corresponding S2 response object; its
``measure_size`` counts as S2 -> S1 bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.crypto.damgard_jurik import LayeredCiphertext
from repro.crypto.paillier import Ciphertext
from repro.crypto.vector import CtVector
from repro.exceptions import ProtocolError
from repro.structures.items import ItemBatch

_CIPHERTEXTS = (Ciphertext, LayeredCiphertext)


@dataclass(frozen=True)
class Message:
    """Base class: one S1 -> S2 request."""

    protocol: str

    def __post_init__(self):
        # A ciphertext, or a list of them, given for a field: one vector.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(value) in _CIPHERTEXTS:
                value = [value]
            if type(value) is list and value and type(value[0]) in _CIPHERTEXTS:
                object.__setattr__(self, f.name, CtVector.pack(value))

    def request_payload(self):
        """The objects whose wire size is accounted as S1 -> S2 traffic.

        Default: every field except ``protocol`` and fields listed in
        ``_unmeasured`` (protocol metadata and setup key material that the
        paper's bandwidth accounting does not count per-message).
        """
        skip = set(getattr(self, "_unmeasured", ())) | {"protocol"}
        values = tuple(
            getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in skip
        )
        return values[0] if len(values) == 1 else values


@dataclass(frozen=True)
class ZeroTestBatch(Message):
    """Algorithms 4/6/9: decrypt each ``Enc(b)``, reply ``E2(b == 0)``."""

    cts: CtVector


@dataclass(frozen=True)
class StripLayerBatch(Message):
    """Algorithm 5 (``RecoverEnc``): strip the outer DJ layer of each item."""

    cts: CtVector


@dataclass(frozen=True)
class BlindedSign(Message):
    """Blinded ``EncCompare``: reply with the sign of the blinded value."""

    ct: CtVector


@dataclass(frozen=True)
class DecryptMaskedBit(Message):
    """Decrypt a ciphertext known to hold a coin-masked bit."""

    ct: CtVector


@dataclass(frozen=True)
class DgkDecompose(Message):
    """DGK step 1: decrypt blinded ``c`` and return its encrypted bits."""

    ct: CtVector
    ell: int

    _unmeasured = ("ell",)


@dataclass(frozen=True)
class DgkAnyZero(Message):
    """DGK step 2: does any of the randomized terms decrypt to zero?"""

    cts: CtVector


@dataclass(frozen=True)
class SquareBlinded(Message):
    """SkNN baseline: decrypt a blinded value, reply ``Enc(value²)``."""

    ct: CtVector


@dataclass(frozen=True)
class RecordShipment(Message):
    """A one-way bulk shipment (e.g. SkNN candidate records); no reply."""

    objects: CtVector


@dataclass(frozen=True)
class SortAffine(Message):
    """``EncSort`` (affine construction): sort blinded keys, re-blind items
    (one :class:`~repro.structures.items.ItemBatch`)."""

    keys: CtVector
    items: ItemBatch
    companions: CtVector
    own_public: object
    descending: bool

    _unmeasured = ("own_public", "descending")


@dataclass(frozen=True)
class SortGateBatch(Message):
    """``EncSort`` (network construction): one layer of compare-exchange gates.

    ``gates`` is a list of ``(pair_keys, pair_items, pair_companions)``
    triples, the keys and companions two-value vectors and ``pair_items``
    a two-item :class:`~repro.structures.items.ItemBatch`; the reply is
    the per-gate ordered, re-blinded triples, each item's two
    companions ``(H_a, H_b)`` flat in one vector.
    """

    gates: list
    own_public: object
    descending: bool

    _unmeasured = ("own_public", "descending")


@dataclass(frozen=True)
class DedupBatch(Message):
    """Algorithm 7 / Section 10.1: bury or drop duplicate-group members
    of ``items`` (one :class:`~repro.structures.items.ItemBatch`)."""

    matrix: CtVector
    items: ItemBatch
    companions: CtVector
    ranks: list
    own_public: object
    sentinel: int
    eliminate: bool

    _unmeasured = ("own_public", "sentinel", "eliminate")


@dataclass(frozen=True)
class DedupSort(Message):
    """The eager engine's check depth: S2 keeps every rank-0 item and
    every new item (rank ≥ 1) whose ``counts`` entry — ``Enc(c)``, ``c``
    its earlier copies, one per new item in item order — decrypts to 0,
    orders the survivors by ``keys`` (one-way, noisily affine-blinded
    worst scores, descending), places new junk last and returns items
    (one :class:`~repro.structures.items.ItemBatch`, as they came) and
    companions only, each item's ``(H_a, H_b)`` flat in one vector."""

    counts: CtVector
    items: ItemBatch
    keys: CtVector
    companions: CtVector
    ranks: list
    own_public: object
    sentinel: int
    eliminate: bool

    _unmeasured = ("own_public", "sentinel", "eliminate")


@dataclass(frozen=True)
class BlindedSelect(Message):
    """S2 applies the bit it decrypts: slot ``i``'s ``cts[i]`` decrypts to
    a bit ``t`` — ``value == 0`` for an equality test, the value itself
    for a coin-masked bit (``bit_mode``) — and the reply is
    ``t ? rerand(values[groups[i]]) : Enc(0)`` and ``Enc(t)`` per slot,
    as two vectors of fresh ciphertexts."""

    cts: CtVector
    values: CtVector
    groups: list
    bit_mode: bool

    _unmeasured = ("bit_mode",)


@dataclass(frozen=True)
class FilterBatch(Message):
    """Algorithm 12 (``SecFilter``): drop zero-score tuples, re-blind rest."""

    tuples: list
    material: list
    own_public: object

    _unmeasured = ("own_public",)


#: Stable wire ids (appended-only; never reorder).  A retired id keeps
#: its slot as ``None`` so later ids do not move; decoding refuses it.
MESSAGE_TYPES: list[type | None] = [
    ZeroTestBatch,
    StripLayerBatch,
    BlindedSign,
    DecryptMaskedBit,
    DgkDecompose,
    DgkAnyZero,
    SquareBlinded,
    RecordShipment,
    SortAffine,
    SortGateBatch,
    DedupBatch,
    FilterBatch,
    None,  # 12: retired
    None,  # 13: retired
    BlindedSelect,
    None,  # 15: retired (DedupSort with a pair matrix)
    DedupSort,
]

_TYPE_IDS = {cls: idx for idx, cls in enumerate(MESSAGE_TYPES) if cls is not None}


def message_type_id(cls: type) -> int:
    """Wire id of a message class."""
    return _TYPE_IDS[cls]


def message_class(type_id: int) -> type:
    """Message class for a wire id; unknown and retired ids are refused."""
    cls = MESSAGE_TYPES[type_id] if type_id < len(MESSAGE_TYPES) else None
    if cls is None:
        raise ProtocolError(f"unknown or retired message type id {type_id}")
    return cls


def message_fields(cls: type) -> list[str]:
    """Ordered field names of a message class (wire field order)."""
    return [f.name for f in dataclasses.fields(cls)]
