"""``DedupSort`` settles a check depth on the absorb's own equality bits.

Every new entry of a check window was ⊖-tested against every entry
before it when it was absorbed, and S2 decrypted those bits then.  Their
sum ``c_j`` — the entry's earlier copies — is all ``DedupSort`` needs:
S2 keeps the carried candidates and every entry with ``c_j = 0``.

* The counts S2 decrypts at a settle are, entry by entry in rank order,
  the sums of the ``eq_bits`` S2 recorded for the absorbs since the last
  settle — a function of what it already saw.
* The settle keeps what the pair-matrix settle it replaced kept: the
  reference below (the matrix form, kept here only as the reference)
  gives the same top-k, halting depth, rounds and ``dedup_groups``.
* The literal engine's transcript is untouched (pinned digests).
* A daemon refuses a ``DedupSort`` whose counts do not match its new
  items, and the refusal costs a sibling session nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass

import pytest

from repro.core.engine import EagerEngine
from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto import backend, paillier
from repro.crypto.damgard_jurik import LayeredCiphertext
from repro.crypto.paillier import Ciphertext, PaillierPublicKey
from repro.crypto.rng import SecureRandom
from repro.exceptions import RemoteS2Error
from repro.net.dispatch import S2Dispatcher
from repro.net.messages import DedupSort, Message
from repro.protocols.base import CryptoCloud
from repro.protocols.blinding import ItemBlinder
from repro.protocols.enc_sort import one_way_keys, s2_order
from repro.protocols.sec_dedup import _prepare, _s2_keepers, _s2_release
from repro.structures.ehl import EncryptedHashList
from repro.structures.items import ScoredItem

_RNG = random.Random(47)
#: Correlated heads (duplicates at every check depth, several candidates
#: carried between them) and tie-free partial sums, so one top-k and one
#: halting depth are right whatever order S1's permutations pick.
ROWS = [[1500 * (12 - i) + _RNG.randrange(16000) for _ in range(3)] for i in range(12)]

PARAMS = {"tiny": SystemParams.tiny, "paper": SystemParams.paper}
EAGER = {
    "elim": QueryConfig(variant="elim"),
    "full": QueryConfig(variant="full"),
    "batch": QueryConfig(variant="batch", batch_p=2),
}


def _query(params: str, config: QueryConfig, seed: int = 17):
    """One seeded in-process query: ``(revealed ids, depth, rounds, log)``."""
    scheme = SecTopK(PARAMS[params](), seed=seed)
    relation = scheme.encrypt(ROWS)
    ctx = scheme._make_context()
    try:
        result = scheme.query(relation, scheme.token([0, 1, 2], k=3), config, ctx=ctx)
        return (
            [o for o, _ in scheme.reveal(result)],
            result.halting_depth,
            ctx.channel.stats.rounds,
            ctx.leakage,
        )
    finally:
        ctx.close()


# ----------------------------------------------------------------------
# The reference: the pair-matrix settle the counts replaced.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _MatrixDedupSort(Message):
    """``DedupSort`` as it was: a pair matrix where the counts are."""

    matrix: list
    items: list
    keys: list
    companions: list
    ranks: list
    own_public: object
    sentinel: int
    eliminate: bool

    _unmeasured = ("own_public", "sentinel", "eliminate")


def _s2_matrix_dedup_sort(dispatcher, msg):
    """S2: group by the matrix, keep each group's lowest rank, sort the
    keepers by key, append new junk."""
    s2 = dispatcher.cloud
    keepers = _s2_keepers(s2, msg.matrix, msg.ranks, msg.protocol)
    ordered = s2_order(s2, [msg.keys[i] for i in keepers], keepers, True, "EncSort")
    return _s2_release(
        s2, msg.own_public, msg.items, msg.companions, [i for _, i in ordered],
        msg.sentinel, msg.eliminate, msg.protocol,
    )


def _matrix_settle(self, t_list, counts, known, always_sort=False):
    """S1: the window's every pair ⊖-tested afresh into the matrix, next
    to the one-way keys and the blinded items, all under one ``π``."""
    ctx = self.ctx
    if len(t_list) <= 1:
        return list(t_list), True
    carried = len(t_list) - len(counts)
    ranks = [0] * carried + list(range(1, len(counts) + 1))
    eliminate = self.config.variant != "full"
    protocol = "SecDupElim" if eliminate else "SecDedup"
    own = self.own_keypair
    blinder = ItemBlinder(ctx.public_key, ctx.dj)
    order = ctx.rng.permutation(len(t_list))
    permuted = [t_list[i] for i in order]
    matrix = EncryptedHashList.minus_matrix([item.ehl for item in permuted], ctx.rng)
    keys = one_way_keys(ctx, [item.worst for item in permuted])
    items, companions = blinder.blind_fresh(permuted, own.public_key, ctx.rng)
    with ctx.channel.protocol("SecQuery"):
        items_out, comps_out = ctx.call(
            _MatrixDedupSort(
                protocol=protocol,
                matrix=matrix,
                items=items,
                keys=keys,
                companions=companions,
                ranks=[ranks[i] for i in order],
                own_public=own.public_key,
                sentinel=-ctx.encoder.sentinel,
                eliminate=eliminate,
            )
        )
    if eliminate:
        ctx.leakage.record("S1", protocol, "unique_count", len(items_out))
    return blinder.unblind_companions(own, items_out, comps_out), True


def _use_matrix_settle(monkeypatch) -> None:
    """Route every eager check depth through the reference settle."""
    monkeypatch.setattr(EagerEngine, "_settle", _matrix_settle)
    monkeypatch.setitem(S2Dispatcher._HANDLERS, _MatrixDedupSort, _s2_matrix_dedup_sort)


# ----------------------------------------------------------------------
# The counts are the absorbs' equality bits, and settle as the matrix did.
# ----------------------------------------------------------------------


def _spy_settles(monkeypatch) -> list:
    """Per ``DedupSort`` S2 serves: ``(events logged before it, ranks,
    the counts it decrypted)``."""
    settles = []
    real_dispatch = S2Dispatcher.dispatch
    real_decrypt = CryptoCloud.decrypt_batch_for_protocol

    def dispatch(self, msg):
        if type(msg) is DedupSort:
            settles.append((len(self.cloud.leakage.events), list(msg.ranks), []))
        return real_dispatch(self, msg)

    def decrypt(self, cts, protocol, kind):
        values = real_decrypt(self, cts, protocol, kind)
        if kind == "dedup_count":
            settles[-1][2].extend(values)
        return values

    monkeypatch.setattr(S2Dispatcher, "dispatch", dispatch)
    monkeypatch.setattr(CryptoCloud, "decrypt_batch_for_protocol", decrypt)
    return settles


@pytest.mark.parametrize("variant", sorted(EAGER))
@pytest.mark.parametrize("params", sorted(PARAMS))
class TestCountsAreTheAbsorbsBits:
    def test_counts_are_sums_of_recorded_eq_bits(self, monkeypatch, params, variant):
        settles = _spy_settles(monkeypatch)
        *_, log = _query(params, EAGER[variant])
        assert len(settles) >= 3
        first = 0
        for settle, (mark, ranks, counts) in enumerate(settles):
            absorbs = [
                sum(e.payload)
                for e in log.events[first:mark]
                if e.kind == "eq_bits" and e.observer == "S2"
            ]
            new = sorted(rank for rank in ranks if rank)
            assert new == list(range(1, len(new) + 1))
            # Only the query's very first entry is tested against nothing.
            expected = [0] * (len(new) - len(absorbs)) + absorbs
            assert len(expected) - len(absorbs) == (1 if settle == 0 else 0)
            by_rank = dict(zip([rank for rank in ranks if rank], counts))
            assert [by_rank[rank] for rank in new] == expected
            first = mark
        assert any(sum(counts) for _, _, counts in settles)
        kinds = {e.kind for e in log.events}
        assert "dedup_count" in kinds
        assert not kinds & {"dedup_matrix", "dedup_sort_link"}

    def test_settles_as_the_matrix_did(self, monkeypatch, params, variant):
        answer, depth, rounds, log = _query(params, EAGER[variant])
        with monkeypatch.context() as patch:
            _use_matrix_settle(patch)
            ref_answer, ref_depth, ref_rounds, ref_log = _query(params, EAGER[variant])
        assert ref_log.by_kind("dedup_matrix") and not ref_log.by_kind("dedup_count")
        assert (answer, depth, rounds) == (ref_answer, ref_depth, ref_rounds)
        assert set(answer) == set(sorted(range(len(ROWS)), key=lambda o: -sum(ROWS[o]))[:3])
        groups = [e.payload for e in log.by_kind("dedup_groups")]
        assert groups == [e.payload for e in ref_log.by_kind("dedup_groups")]
        assert any(size > 1 for sizes in groups for size in sizes)


# ----------------------------------------------------------------------
# The literal engine's transcript is the one it always was.
# ----------------------------------------------------------------------


def _seeded_pool(n, exponent, modulus, size, picks):
    """``paillier.fresh_pool`` from a stream seeded by the modulus, so a
    seeded run's ciphertexts are a function of its seed alone."""
    rng = SecureRandom(b"pool:" + modulus.to_bytes((modulus.bit_length() + 7) // 8, "big"))
    values = [pow(rng.rand_unit(n), exponent, modulus) for _ in range(size)]
    return backend.RandomizerPool(values, modulus, picks)


def _canonical(value):
    """A wire-order, type-tagged rendering of a message or reply."""
    if isinstance(value, (Ciphertext, LayeredCiphertext)):
        return ("ct", value.value)
    if isinstance(value, PaillierPublicKey):
        return ("pk", value.n)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            [(f.name, _canonical(getattr(value, f.name))) for f in dataclasses.fields(value)],
        )
    slots = [s for cls in type(value).__mro__ for s in getattr(cls, "__slots__", ())]
    if slots:
        return (type(value).__name__, [_canonical(getattr(value, s)) for s in slots])
    return value


def literal_transcript(variant: str, monkeypatch) -> tuple[int, int, str]:
    """``(bytes, rounds, sha256)`` of one seeded literal query: every
    request and reply S2 served, in order, then every leakage event."""
    monkeypatch.setattr(paillier, "fresh_pool", _seeded_pool)
    served = []
    real = S2Dispatcher.dispatch

    def dispatch(self, msg):
        reply = real(self, msg)
        served.append((msg, reply))
        return reply

    monkeypatch.setattr(S2Dispatcher, "dispatch", dispatch)
    scheme = SecTopK(SystemParams.tiny(), seed=29)
    relation = scheme.encrypt(ROWS)
    ctx = scheme._make_context()
    try:
        scheme.query(
            relation,
            scheme.token([0, 1, 2], k=3),
            QueryConfig(engine="literal", variant=variant),
            ctx=ctx,
        )
    finally:
        ctx.close()
    digest = hashlib.sha256()
    for msg, reply in served:
        digest.update(repr((_canonical(msg), _canonical(reply))).encode())
    for e in ctx.leakage.events:
        digest.update(repr((e.observer, e.protocol, e.kind, e.payload)).encode())
    stats = ctx.channel.stats
    return stats.total_bytes, stats.rounds, digest.hexdigest()


#: ``literal_transcript`` as recorded before the eager settle moved to
#: counts (the same on the kernel and the pure backend).
LITERAL = {
    "elim": (176480, 74, "f753b4adff7adc1dde0f9307e622280c792c3ecac077e50f07e1f6d53b52b900"),
    "full": (309921, 74, "51895a61614ae4d8fe1e92521f55c226c7ba133f97ee6ed2f27081693bcbbb77"),
}


@pytest.mark.parametrize("variant", sorted(LITERAL))
def test_literal_transcript_is_unchanged(monkeypatch, variant):
    assert literal_transcript(variant, monkeypatch) == LITERAL[variant]


# ----------------------------------------------------------------------
# Hostile counts over a real daemon.
# ----------------------------------------------------------------------


def _dedup_sort(ctx, scheme, relation) -> DedupSort:
    """A well-formed ``DedupSort`` of three list entries: one carried,
    two new, the second a copy of the first."""
    entries = next(iter(relation.lists.values()))[:2]
    items = [
        ScoredItem(ehl=e.ehl, worst=e.score, seen_bits=[e.score], record=e.record)
        for e in entries + entries[:1]
    ]
    pk = scheme.public_key
    counts = [pk.encrypt(0, ctx.rng), pk.encrypt(1, ctx.rng)]
    own = scheme._s1_keypair
    _, fields = _prepare(ctx, items, [0, 1, 2], own, None, counts)
    return DedupSort(
        protocol="SecDupElim",
        own_public=own.public_key,
        sentinel=-ctx.encoder.sentinel,
        eliminate=True,
        **fields,
    )


def test_hostile_counts_are_refused_and_spare_a_sibling(tcp_daemon):
    """Counts one short, or one extra for the rank-0 item: each comes
    back as a typed ``ProtocolError``; a sibling session on the daemon
    then answers its next round exactly as an identically seeded session
    that shared the daemon with no hostile peer does."""

    def deployment():
        scheme = SecTopK(SystemParams.tiny(), seed=55)
        relation = scheme.encrypt(ROWS)
        victim = scheme._make_context(transport=tcp_daemon)
        sibling = scheme._make_context(transport=tcp_daemon)
        return scheme, relation, victim, sibling

    scheme, relation, victim, sibling = deployment()
    _, _, quiet, twin = deployment()
    try:
        msg = _dedup_sort(victim, scheme, relation)
        (spare,) = scheme.public_key.encrypt_batch([0], victim.rng)
        for counts in (msg.counts[:-1], msg.counts + [spare]):
            with pytest.raises(RemoteS2Error) as excinfo:
                victim.call(dataclasses.replace(msg, counts=counts))
            assert excinfo.value.kind == "ProtocolError"
            assert "malformed dedup batch" in str(excinfo.value)
        replies = [ctx.call(msg) for ctx in (sibling, twin)]
        assert _canonical(replies[0]) == _canonical(replies[1])
        # The copy is dropped: the carried item and the new one survive.
        assert len(replies[0][0]) == 2
    finally:
        for ctx in (victim, sibling, quiet, twin):
            ctx.close()
