"""S2 decrypts on one CRT half: pinned against the full-CRT decode.

Every protocol value S2 decrypts is a zero test, a coin-masked bit or a
blinded value within the encoder's plaintext bound, so S2 reads ``m mod
p`` alone (``CryptoCloud._residues`` / ``_centred``).  These tests run
seeded queries twice — as shipped, and with S2's decryption swapped for
the full-CRT decode it replaced (both CRT halves, ``m mod N``, signed
values centred mod ``N``) — and require the same revealed answer,
halting depth, rounds, bytes and leakage.  Inside the swap every batch
also checks the full decode, reduced mod ``p``, against the ``p`` half.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto import backend
from repro.crypto.paillier import to_signed
from repro.crypto.rng import SecureRandom
from repro.join import SecTopKJoin
from repro.protocols.base import CryptoCloud

PRESETS = ["tiny", "paper"]

CONFIGS = [
    pytest.param(QueryConfig(variant="elim", engine="eager"), id="eager-elim"),
    pytest.param(QueryConfig(variant="full", engine="eager"), id="eager-full"),
    pytest.param(
        QueryConfig(variant="batch", engine="eager", batch_p=3), id="eager-batch"
    ),
    pytest.param(QueryConfig(variant="elim", engine="literal"), id="literal-elim"),
    pytest.param(QueryConfig(variant="full", engine="literal"), id="literal-full"),
    pytest.param(
        QueryConfig(
            variant="elim",
            engine="eager",
            compare_method="dgk",
            sort_method="network",
            max_depth=3,
        ),
        id="dgk-network",
    ),
]


def _rows(seed: int, n: int, m: int) -> list[list[int]]:
    rng = SecureRandom(seed)
    return [[rng.randint_below(40) for _ in range(m)] for _ in range(n)]


def _full_crt_decode(monkeypatch) -> list[int]:
    """Swap S2's decryption for the full-CRT decode; returns the sizes of
    the batches the swap served."""
    p_half = CryptoCloud._residues
    batches: list[int] = []

    def residues(self, cts):
        sk = self._keypair.secret_key
        full = sk.decrypt_batch(cts)
        assert [m % sk.p for m in full] == p_half(self, cts)
        batches.append(len(full))
        return full

    def centred(self, cts):
        return to_signed(self.public_key.n, residues(self, cts))

    monkeypatch.setattr(CryptoCloud, "_residues", residues)
    monkeypatch.setattr(CryptoCloud, "_centred", centred)
    return batches


def _observed(ctx, calls: list, n: int) -> tuple:
    """What a run shows, and whether S2 ran a full-CRT decryption under
    the main key (every such call before S1's reveal is S2's)."""
    events = ctx.leakage.events
    return (
        ctx.channel.snapshot(),
        Counter((e.observer, e.protocol, e.kind) for e in events),
        [(e.observer, e.protocol, e.kind, repr(e.payload)) for e in events],
    ), (n, False) in calls


def _topk(preset: str, config: QueryConfig, calls: list) -> tuple:
    scheme = SecTopK(getattr(SystemParams, preset)(), seed=41)
    encrypted = scheme.encrypt(_rows(42, n=12, m=3))
    token = scheme.token([0, 1, 2], k=3)
    ctx = scheme._make_context()
    try:
        result = scheme.query(encrypted, token, config, ctx=ctx)
        observed, full_crt = _observed(ctx, calls, scheme.public_key.n)
    finally:
        ctx.close()
    return full_crt, (scheme.reveal(result), result.halting_depth, *observed)


def _join(preset: str, calls: list) -> tuple:
    scheme = SecTopKJoin(getattr(SystemParams, preset)(), seed=43)
    rng = SecureRandom(44)
    left = [[rng.randint_below(3), rng.randint_below(60)] for _ in range(6)]
    right = [[rng.randint_below(3), rng.randint_below(60)] for _ in range(5)]
    er1, er2 = scheme.encrypt("L", left), scheme.encrypt("R", right)
    token = scheme.token("L", "R", join_on=(0, 0), order_by=(1, 1), k=3)
    ctx = scheme.make_clouds()
    try:
        result = scheme.join_query(er1, er2, token, ctx=ctx)
        observed, full_crt = _observed(ctx, calls, scheme.public_key.n)
    finally:
        ctx.close()
    return full_crt, (scheme.reveal(result), result.join_cardinality, *observed)


@pytest.fixture()
def decrypt_calls(monkeypatch) -> list[tuple[int, bool]]:
    """``(N, below_p)`` of every ``backend.paillier_decrypt`` call."""
    calls: list[tuple[int, bool]] = []
    real = backend.paillier_decrypt

    def spy(crt, values, below_p=False):
        calls.append((crt.n, below_p))
        return real(crt, values, below_p)

    monkeypatch.setattr(backend, "paillier_decrypt", spy)
    return calls


def _assert_same(shipped: tuple, parent: tuple, names: tuple) -> None:
    for name, got, want in zip(names, shipped, parent):
        assert got == want, f"{name} differ from the full-CRT decode"


OBSERVED = ("rounds and bytes", "leakage counts", "leakage events")


class TestModPMatchesFullCrt:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("preset", PRESETS)
    def test_topk(self, preset, config, decrypt_calls, monkeypatch):
        full_crt, shipped = _topk(preset, config, decrypt_calls)
        assert not full_crt, "S2 ran a full-CRT decryption under the main key"
        batches = _full_crt_decode(monkeypatch)
        _, parent = _topk(preset, config, decrypt_calls)
        assert batches, "the swapped decode served no batch"
        _assert_same(shipped, parent, ("revealed top-k", "halting depth", *OBSERVED))

    @pytest.mark.parametrize("preset", PRESETS)
    def test_join(self, preset, decrypt_calls, monkeypatch):
        full_crt, shipped = _join(preset, decrypt_calls)
        assert not full_crt, "S2 ran a full-CRT decryption under the main key"
        batches = _full_crt_decode(monkeypatch)
        _, parent = _join(preset, decrypt_calls)
        assert batches, "the swapped decode served no batch"
        _assert_same(shipped, parent, ("revealed join", "join cardinality", *OBSERVED))
