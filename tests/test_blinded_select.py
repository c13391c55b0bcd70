"""``BlindedSelect``: S2 applies the bit it decrypts, S1 unblinds at N².

What S1 gets back (``Enc(t·x)`` and ``Enc(t)`` per slot, in both
modes), what S2 records, that the unblinding exponent stays short, and
that the message only appends a wire id.
"""

import pytest

from repro.core import engine
from repro.crypto import backend
from repro.crypto.paillier import Ciphertext
from repro.crypto.rng import SecureRandom
from repro.exceptions import ProtocolError
from repro.net.messages import MESSAGE_TYPES, BlindedSelect, message_type_id
from repro.protocols.base import make_parties
from repro.protocols.blinded_select import blinded_select_reply_flow


def _select(ctx, tests, values, groups, bit_mode):
    """One round, unblinded the way the engine does it: one run of its
    ``BOUNDS`` program, one unflipped slot per target over ``acc = 1``.
    Returns ``(Enc(t_i · x_{groups[i]}), Enc(t_i))``."""
    pk = ctx.public_key
    selected, bits, blinds = ctx.run_flows(
        [blinded_select_reply_flow(ctx, tests, values, groups, bit_mode, "P")]
    )[0]
    ones = [1] * len(bits)
    (products,) = backend.run(engine.BOUNDS, [
        pk.n_squared, selected.buffer, bits.buffer, blinds, ones, ones, bytes(len(bits)),
        [1], [0] * len(bits),
    ])
    return [Ciphertext(v, pk) for v in products], bits.ciphertexts()


@pytest.fixture(params=["inprocess", "tcp"])
def parties(request, keypair):
    transport = request.param
    if transport == "tcp":
        transport = request.getfixturevalue("tcp_daemon")
    ctx = make_parties(keypair, rng=SecureRandom(42), transport=transport)
    yield ctx
    ctx.close()


class TestBlindedSelect:
    def test_equality_tests_select_the_score(self, parties, keypair):
        ctx, sk = parties, keypair.secret_key
        tests = ctx.public_key.encrypt_batch([0, 5, 0, 9], ctx.rng)
        products, bits = _select(ctx, tests, [ctx.encrypt(37)], [0] * 4, False)
        assert sk.decrypt_batch(products) == [37, 0, 37, 0]
        assert sk.decrypt_batch(bits) == [1, 0, 1, 0]
        (event,) = ctx.leakage.by_kind("eq_bits")
        assert event.payload == [1, 0, 1, 0]
        assert ctx.channel.stats.rounds == 1

    def test_masked_bits_select_their_group(self, parties, keypair):
        ctx, sk = parties, keypair.secret_key
        tests = ctx.public_key.encrypt_batch([1, 0, 1, 1], ctx.rng)
        values = [ctx.encrypt(3), ctx.encrypt(11)]
        products, bits = _select(ctx, tests, values, [0, 1, 1, 0], True)
        assert sk.decrypt_batch(products) == [3, 0, 11, 3]
        assert sk.decrypt_batch(bits) == [1, 0, 1, 1]
        (event,) = ctx.leakage.by_kind("masked_bit")
        assert event.payload == [1, 0, 1, 1]
        assert not ctx.leakage.by_kind("eq_bits")

    def test_non_bit_in_bit_mode_is_refused(self, keypair):
        ctx = make_parties(keypair, rng=SecureRandom(3))
        tests = ctx.public_key.encrypt_batch([1, 2], ctx.rng)
        with pytest.raises(ProtocolError, match="non-bit"):
            _select(ctx, tests, [ctx.encrypt(3)], [0, 0], True)
        assert ctx.leakage.events == []

    def test_unblinding_exponent_is_short(self, keypair, monkeypatch):
        """``(Enc(t)^r)^(−1)``, never ``Enc(t)^(N − r)``: every exponent
        S1 raises to has the blind's width, not the modulus's."""
        ctx = make_parties(keypair, rng=SecureRandom(5))
        width = ctx.encoder.score_bits + ctx.encoder.blind_bits + 128
        exps = []
        real = backend.run

        def run(program, registers):
            if program is engine.BOUNDS:
                exps.extend(registers[3])
            return real(program, registers)

        monkeypatch.setattr(backend, "run", run)
        tests = ctx.public_key.encrypt_batch([0] * 8, ctx.rng)
        _select(ctx, tests, [ctx.encrypt(1)], [0] * 8, False)
        assert len(exps) == 8 and max(e.bit_length() for e in exps) <= width

    def test_appends_one_wire_id(self):
        # Id 14 since it was appended; DedupSort came after it (id 16;
        # its matrix form's id 15 is retired).
        assert message_type_id(BlindedSelect) == 14 < len(MESSAGE_TYPES) - 1
        assert BlindedSelect(
            protocol="P", cts=[], values=[], groups=[], bit_mode=True
        ).request_payload() == ([], [], [])
