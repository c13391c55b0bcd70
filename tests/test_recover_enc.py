"""Tests for RecoverEnc (Algorithm 5)."""

import pytest

from repro.crypto import backend
from repro.crypto.damgard_jurik import layered_select_batch
from repro.protocols.recover_enc import (
    recover_enc_batch,
    select_recover_batch,
)


class TestRecoverEnc:
    def test_single_roundtrip(self, ctx, keypair):
        inner = ctx.public_key.encrypt(123, ctx.rng)
        layered = ctx.dj.encrypt_ciphertext(inner, ctx.rng)
        recovered = recover_enc_batch(ctx, [layered])[0]
        assert keypair.secret_key.decrypt(recovered) == 123

    def test_batch_roundtrip(self, ctx, keypair):
        values = [0, 1, 7, 10**6, ctx.public_key.n - 1]
        layered = [
            ctx.dj.encrypt_ciphertext(ctx.public_key.encrypt(v, ctx.rng), ctx.rng)
            for v in values
        ]
        recovered = recover_enc_batch(ctx, layered)
        assert [keypair.secret_key.decrypt(c) for c in recovered] == values

    def test_empty_batch(self, ctx):
        assert recover_enc_batch(ctx, []) == []

    def test_one_round_per_batch(self, ctx):
        layered = [
            ctx.dj.encrypt_ciphertext(ctx.public_key.encrypt(v, ctx.rng), ctx.rng)
            for v in range(5)
        ]
        before = ctx.channel.stats.rounds
        recover_enc_batch(ctx, layered)
        assert ctx.channel.stats.rounds == before + 1

    def test_output_differs_from_input(self, ctx, keypair):
        """The recovered ciphertext is a fresh-looking encryption."""
        inner = ctx.public_key.encrypt(5, ctx.rng)
        layered = ctx.dj.encrypt_ciphertext(inner, ctx.rng)
        recovered = recover_enc_batch(ctx, [layered])[0]
        assert recovered.value != inner.value
        assert keypair.secret_key.decrypt(recovered) == 5

    def test_s2_sees_only_blinded(self, ctx, keypair):
        """S2's view during RecoverEnc must be the blinded inner value,
        never the true plaintext (checked via the leakage log kinds)."""
        inner = ctx.public_key.encrypt(99, ctx.rng)
        recover_enc_batch(ctx, [ctx.dj.encrypt_ciphertext(inner, ctx.rng)])
        kinds = {e.kind for e in ctx.leakage.events}
        assert kinds == {"recover_batch"}

    def test_works_after_layered_arithmetic(self, ctx, keypair):
        """RecoverEnc composes with the layered homomorphism."""
        a = ctx.public_key.encrypt(10, ctx.rng)
        b = ctx.public_key.encrypt(32, ctx.rng)
        layered = ctx.dj.encrypt_ciphertext(a, ctx.rng).scalar_ct(b)
        recovered = recover_enc_batch(ctx, [layered])[0]
        assert keypair.secret_key.decrypt(recovered) == 42


class TestSelectRecover:
    """The fused flow against what it replaced — ``layered_select_batch``
    then ``recover_enc_batch`` — compared on decrypted values (the two
    spend the rng differently, so ciphertexts differ by design)."""

    @staticmethod
    def _selections(ctx):
        pk, dj, rng = ctx.public_key, ctx.dj, ctx.rng
        enc = lambda v: pk.encrypt(v, rng)  # noqa: E731
        bit = lambda t: dj.encrypt(t, rng)  # noqa: E731
        return [
            ([bit(1)], [enc(11)], enc(22)),  # t = 1 -> the option
            ([bit(0)], [enc(11)], enc(22)),  # t = 0 -> the default
            ([bit(0), bit(1), bit(0)], [enc(5), enc(6), enc(7)], enc(8)),  # one-hot
            ([bit(0), bit(0), bit(0)], [enc(5), enc(6), enc(7)], enc(8)),  # all zero
            ([bit(1)], [enc(pk.n - 1)], enc(0)),
            ([], [], enc(9)),  # no bits: the default alone
        ]

    def test_matches_select_then_recover(self, ctx, keypair):
        selections = self._selections(ctx)
        decrypt = keypair.secret_key.decrypt_batch
        unfused = recover_enc_batch(
            ctx, layered_select_batch(ctx.dj, selections, ctx.rng)
        )
        fused = select_recover_batch(ctx, selections)
        expected = [11, 22, 6, 8, ctx.public_key.n - 1, 9]
        assert decrypt(fused) == decrypt(unfused) == expected

    def test_empty_batch_costs_no_round(self, ctx):
        before = ctx.channel.stats.rounds
        assert select_recover_batch(ctx, []) == []
        assert ctx.channel.stats.rounds == before

    def test_one_round_and_recover_leakage_only(self, ctx):
        before = ctx.channel.stats.rounds
        select_recover_batch(ctx, self._selections(ctx), "SecWorst")
        assert ctx.channel.stats.rounds == before + 1
        assert [(e.protocol, e.kind, e.payload) for e in ctx.leakage.events] == [
            ("SecWorst", "recover_batch", 6)
        ]

    def test_one_wide_exponentiation_per_selection_bit(self, ctx, monkeypatch):
        """The saving itself: the whole batch is ONE ``powmod_products``
        call under ``N^3`` carrying one exponent per selection bit — none
        for the blinding."""
        selections = self._selections(ctx)
        calls = []
        real = backend.powmod_products

        def spy(accs, bases, exps, counts, mod):
            calls.append((counts, mod))
            return real(accs, bases, exps, counts, mod)

        monkeypatch.setattr(backend, "powmod_products", spy)
        monkeypatch.setattr(backend, "powmod_pairs", None)  # and no other
        select_recover_batch(ctx, selections)
        assert calls == [([len(sel[0]) for sel in selections], ctx.dj.n_s1)]
