"""Known gaps between what the blinded sort and dedup rounds are meant to
hide and what the clouds can compute from them (ROADMAP item 7).

Each property is written as a test of the *secure* behaviour.  Where
the tree does not have it yet, the test is a strict ``xfail`` naming the
ROADMAP item, so the day a fix lands it turns into a pass that must drop
its marker.

(a) S1 must not map a round's outputs back to its inputs.  Every
    seed-companion round forwards S1's own ``Enc_pk'(seed)`` untouched,
    so S1 decrypts its seed and finds the input slot it blinded with it.
(b) S2 must not learn S1's affine scale ``r`` from a sort's keys.  One
    map per ``SortAffine`` makes the gcd of the key differences ``r``;
    ``DedupSort``'s per-key noise closes it on the eager path.
(c) S2 must not read the affine map off a full-variant junk item's key,
    ``r·(−sentinel) + s``, in either engine.
"""

import importlib
import math

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.net.dispatch import S2Dispatcher
from repro.net.messages import DedupBatch, DedupSort, SortAffine, SortGateBatch
from repro.protocols.base import CryptoCloud
from repro.protocols.blinding import ItemBlinder
from repro.protocols.enc_sort import enc_sort
from repro.protocols.sec_dedup import sec_dedup
from repro.structures.ehl_plus import EhlPlusFactory
from repro.structures.items import ScoredItem

#: The module (``repro.protocols.enc_sort`` the attribute is the function).
ENC_SORT = importlib.import_module("repro.protocols.enc_sort")


def _gap(item: str, what: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 7({item}): {what}")


def _spy(monkeypatch, types) -> list:
    """``(message, reply)`` of every request of ``types`` S2 serves."""
    served = []
    real = S2Dispatcher.dispatch

    def dispatch(self, msg):
        reply = real(self, msg)
        if isinstance(msg, types):
            served.append((msg, reply))
        return reply

    monkeypatch.setattr(S2Dispatcher, "dispatch", dispatch)
    return served


def _spy_scales(monkeypatch) -> list[int]:
    """S1's affine scale ``r`` of every map it draws, in order."""
    scales = []
    real = ENC_SORT._affine_params

    def affine_params(ctx):
        r, s = real(ctx)
        scales.append(r)
        return r, s

    monkeypatch.setattr(ENC_SORT, "_affine_params", affine_params)
    return scales


# ----------------------------------------------------------------------
# (a) companions link outputs to inputs
# ----------------------------------------------------------------------


def _companion_flow(msg, reply):
    """S1's companions in, and the companion tuples out, of one round."""
    if isinstance(msg, SortGateBatch):
        sent = [h for _, _, comps in msg.gates for h in comps]
        return sent, [comp for _, _, comps in reply for comp in comps]
    return msg.companions, reply[-1]


ROUNDS = {
    "DedupBatch": lambda ctx, items, own: sec_dedup(ctx, items, own),
    "SortAffine": lambda ctx, items, own: enc_sort(ctx, items, own),
    "SortGateBatch": lambda ctx, items, own: enc_sort(ctx, items, own, method="network"),
    # The four items as new entries; the second "a" counts one copy.
    "DedupSort": lambda ctx, items, own: sec_dedup(
        ctx, items, own, counts=ctx.public_key.encrypt_batch([0, 0, 1, 0], ctx.rng)
    ),
}


@pytest.mark.parametrize(
    "operation",
    [
        pytest.param(name, marks=_gap("a", "S2 forwards S1's companion untouched"))
        for name in ROUNDS
    ],
)
def test_s1_cannot_map_outputs_to_input_slots(ctx, own_keypair, monkeypatch, operation):
    factory = EhlPlusFactory(ctx.public_key, b"g" * 32, n_hashes=2, rng=ctx.rng)
    items = [
        ScoredItem(ehl=factory.encode(obj), worst=ctx.encrypt(worst), record=ctx.encrypt(i))
        for i, (obj, worst) in enumerate([("a", 9), ("b", 4), ("a", 9), ("c", 6)])
    ]
    served = _spy(monkeypatch, (DedupBatch, SortAffine, SortGateBatch, DedupSort))
    ROUNDS[operation](ctx, items, own_keypair)
    assert served
    blinder = ItemBlinder(ctx.public_key)
    for msg, reply in served:
        sent, returned = _companion_flow(msg, reply)
        mine = set(blinder.decrypt_seeds(own_keypair, sent))
        back = blinder.decrypt_seeds(own_keypair, [h for comp in returned for h in comp])
        assert not mine & set(back)


# ----------------------------------------------------------------------
# (b), (c) what S2 reads off the sort keys of a query
# ----------------------------------------------------------------------

#: 12 rows over 3 lists whose heads overlap: duplicates at every check
#: depth, so the full variant carries junk into later sorts.
ROWS = [[(97 * i + 31 * a * a + 7) % 64 + 4 * (12 - i) for a in range(3)] for i in range(12)]

SORTS = {"eager": DedupSort, "literal": SortAffine}


def _sort_keys(monkeypatch, engine, variant):
    """``(scale r, key values S2 decrypted)`` of every sort round of one
    query (a DedupSort decrypts its survivors' keys only)."""
    scales = _spy_scales(monkeypatch)
    views = []
    real = CryptoCloud.decrypt_signed_batch_for_protocol

    def decrypt(self, cts, protocol, kind):
        values = real(self, cts, protocol, kind)
        if kind == "sort_key_blinded":
            views.append(values)
        return values

    monkeypatch.setattr(CryptoCloud, "decrypt_signed_batch_for_protocol", decrypt)
    served = _spy(monkeypatch, SORTS[engine])
    scheme = SecTopK(SystemParams.tiny(), seed=5)
    relation = scheme.encrypt(ROWS)
    scheme.query(
        relation,
        scheme.token([0, 1, 2], k=2),
        QueryConfig(engine=engine, variant=variant),
    )
    assert len(served) == len(scales) == len(views) >= 3
    return scheme, list(zip(scales, views))


def _shares_r(r, keys) -> bool:
    return len(keys) > 2 and math.gcd(*(key - keys[0] for key in keys[1:])) == r


@pytest.mark.parametrize(
    "engine",
    [
        "eager",
        pytest.param("literal", marks=_gap("b", "one affine map per SortAffine")),
    ],
)
def test_key_differences_hide_the_scale(monkeypatch, engine):
    _, sorts = _sort_keys(monkeypatch, engine, "elim")
    assert any(len(keys) > 2 for _, keys in sorts)
    assert not any(_shares_r(r, keys) for r, keys in sorts)


def _junk_scales(scheme, sorts):
    """``(true r, r S2 reads off a junk key)`` for every junk key sorted."""
    bound = scheme.encoder.sentinel
    return [(r, -(key // bound)) for r, keys in sorts for key in keys if key < -bound // 2]


@pytest.mark.parametrize("engine", sorted(SORTS))
def test_full_queries_sort_junk(monkeypatch, engine):
    """The set-up of (c) is real: junk keys reach S2's sorts."""
    assert _junk_scales(*_sort_keys(monkeypatch, engine, "full"))


@pytest.mark.parametrize(
    "engine",
    [
        pytest.param(name, marks=_gap("c", "a junk key is r·(−sentinel) + s"))
        for name in sorted(SORTS)
    ],
)
def test_junk_keys_hide_the_map(monkeypatch, engine):
    leaked = _junk_scales(*_sort_keys(monkeypatch, engine, "full"))
    assert not any(r == guess for r, guess in leaked)
