"""``CtVector``: one packed form for every ciphertext list on the link.

What a vector holds and how it is built (the same values and sizes as
the objects it replaces), and that S2 —
its handlers, the ``s2_*`` functions and, over a daemon, the decode of
what it is sent — builds no ciphertext object over a seeded eager and a
seeded literal query.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto.damgard_jurik import DamgardJurik, LayeredCiphertext
from repro.crypto.paillier import Ciphertext
from repro.crypto.rng import SecureRandom
from repro.crypto.vector import CtVector, vector_of
from repro.exceptions import KeyMismatchError, ProtocolError
from repro.net.channel import measure_size
from repro.net.dispatch import S2Dispatcher
from repro.server import s2_service

ROWS = [[(7 * i + 3 * a) % 23 for a in range(3)] for i in range(10)]


class TestVector:
    def test_holds_what_the_objects_held(self, keypair):
        pk, rng = keypair.public_key, SecureRandom(1)
        cts = pk.encrypt_batch([3, 1, 4, 1, 5], rng)
        vector = CtVector.pack(cts)
        assert (len(vector), vector.key) == (5, pk)
        assert vector.values() == [c.value for c in cts]
        assert [c.value for c in vector.ciphertexts()] == vector.values()
        assert vector.serialized_size() == measure_size(cts) == 5 * pk.ciphertext_bytes
        assert len(vector.buffer) == 5 * vector.stride
        assert vector.select([4, 0]).values() == [cts[4].value, cts[0].value]
        assert vector[1:3].values() == vector.values()[1:3]
        assert vector[-1].value == cts[-1].value
        assert CtVector.concat([vector[:2], vector[2:]]).values() == vector.values()

    def test_pack_and_key_checks(self, keypair, own_keypair):
        pk, rng = keypair.public_key, SecureRandom(5)
        a, b = pk.encrypt(1, rng), own_keypair.public_key.encrypt(1, rng)
        for bad in ([], [a, b], [a, 1], [a, DamgardJurik(pk).encrypt(1, rng)]):
            with pytest.raises(ProtocolError):
                CtVector.pack(bad)
        with pytest.raises(ProtocolError):
            vector_of([a], pk)
        with pytest.raises(KeyMismatchError):
            vector_of(CtVector.pack([b]), pk)
        assert vector_of(CtVector.pack([a]), pk).values() == [a.value]


@pytest.fixture()
def s2_constructions(monkeypatch):
    """Ciphertext / LayeredCiphertext objects built on S2: inside a
    dispatch (handlers and ``s2_*`` functions) or a daemon session's
    round (its decode, dispatch and encode), on the thread running it."""
    inside: set[int] = set()
    built: list[str] = []

    def scoped(real):
        def wrapper(*args, **kwargs):
            inside.add(threading.get_ident())
            try:
                return real(*args, **kwargs)
            finally:
                inside.discard(threading.get_ident())
        return wrapper

    monkeypatch.setattr(S2Dispatcher, "dispatch", scoped(S2Dispatcher.dispatch))
    monkeypatch.setattr(s2_service._Session, "_round", scoped(s2_service._Session._round))
    for cls in (Ciphertext, LayeredCiphertext):
        real_init = cls.__init__

        def init(self, value, key, _real=real_init, _name=cls.__name__):
            if threading.get_ident() in inside:
                built.append(_name)
            _real(self, value, key)

        monkeypatch.setattr(cls, "__init__", init)
    return built


@pytest.mark.parametrize("transport", ["inprocess", "tcp"])
@pytest.mark.parametrize("engine", ["eager", "literal"])
def test_s2_builds_no_ciphertext_object(request, s2_constructions, transport, engine):
    address = request.getfixturevalue("tcp_daemon") if transport == "tcp" else transport
    scheme = SecTopK(SystemParams.tiny(), seed=73)
    relation = scheme.encrypt(ROWS)
    ctx = scheme._make_context(transport=address)
    try:
        result = scheme.query(
            relation, scheme.token([0, 1, 2], k=3), QueryConfig(engine=engine), ctx=ctx
        )
    finally:
        ctx.close()
    assert result.stats.rounds > 0
    assert s2_constructions == []
