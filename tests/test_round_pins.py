"""Byte and digest pins of the blinded rounds.

``DedupSort``, ``DedupBatch``, ``SortAffine`` and ``SortGateBatch`` carry
a round's items between S1's blind, S2's re-blind and S1's unblind.  The
values below were recorded with the randomizer pools seeded, so a change
to how a round holds its items must leave:

* every request and reply frame of the four messages byte-identical
  (sha256 of each message type's frames, in the order S2 served them;
  recorded with each batch written as its buffer);
* every query's revealed items and their ciphertexts, its
  ``ChannelStats`` and its ordered leakage identical (one digest per
  engine and variant, recorded while items still travelled as lists of
  :class:`~repro.structures.items.ScoredItem`).

Both hold on the kernel and on the pure backend.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.crypto import backend, paillier
from repro.crypto.rng import SecureRandom
from repro.net import messages
from repro.net.dispatch import S2Dispatcher
from repro.net.wire import WireCodec

#: Correlated heads: duplicates at every check depth, so the full
#: variants bury copies as junk.
ROWS = [[(97 * i + 31 * a * a + 7) % 64 + 4 * (12 - i) for a in range(3)] for i in range(12)]

CONFIGS = {
    "eager/elim": QueryConfig(),
    "eager/full": QueryConfig(variant="full"),
    "eager/network": QueryConfig(variant="full", sort_method="network"),
    "literal/full": QueryConfig(engine="literal", variant="full"),
}


def _seeded_pool(n, exponent, modulus, size, picks):
    """``paillier.fresh_pool`` from a stream seeded by the modulus."""
    rng = SecureRandom(b"pool:" + modulus.to_bytes((modulus.bit_length() + 7) // 8, "big"))
    values = [pow(rng.rand_unit(n), exponent, modulus) for _ in range(size)]
    return backend.RandomizerPool(values, modulus, picks)


def _values(item) -> tuple:
    """Every ciphertext value of a result item, field by field."""
    return (
        [c.value for c in item.ehl.cells],
        [c.value for c in (item.worst, item.best) if c is not None],
        [c.value for c in item.list_scores or ()],
        [c.value for c in item.seen_bits or ()],
        item.record.value if item.record is not None else None,
    )


def _run(config_name: str, monkeypatch):
    """One seeded in-process query: ``(query digest, served rounds,
    leakage events)``."""
    monkeypatch.setattr(paillier, "fresh_pool", _seeded_pool)
    served = []
    real = S2Dispatcher.dispatch

    def dispatch(self, msg):
        reply = real(self, msg)
        served.append((msg, reply))
        return reply

    monkeypatch.setattr(S2Dispatcher, "dispatch", dispatch)
    scheme = SecTopK(SystemParams.tiny(), seed=31)
    relation = scheme.encrypt(ROWS)
    ctx = scheme._make_context()
    try:
        result = scheme.query(
            relation, scheme.token([0, 1, 2], k=3), CONFIGS[config_name], ctx=ctx
        )
    finally:
        ctx.close()
    stats = result.channel_stats
    rendered = (
        scheme.reveal(result),
        result.halting_depth,
        [_values(item) for item in result.items],
        (stats.bytes_s1_to_s2, stats.bytes_s2_to_s1, stats.rounds),
        sorted(stats.per_protocol_bytes.items()),
        sorted(stats.per_protocol_rounds.items()),
        [(e.observer, e.protocol, e.kind, repr(e.payload)) for e in result.leakage_events],
    )
    digest = hashlib.sha256(repr(rendered).encode()).hexdigest()
    return digest, served, result.leakage_events


def _frames(served, message_type) -> tuple[int, str, str]:
    """``(rounds, sha256 of the request frames, of the reply frames)`` of
    every ``message_type`` round S2 served, each pair encoded by a fresh
    codec (request first: one registry serves both directions)."""
    requests, replies = hashlib.sha256(), hashlib.sha256()
    rounds = 0
    for msg, reply in served:
        if type(msg) is message_type:
            codec = WireCodec()
            requests.update(codec.encode_envelope([msg]))
            replies.update(codec.encode_replies([reply]))
            rounds += 1
    return rounds, requests.hexdigest(), replies.hexdigest()


#: The query digests, recorded before items travelled as one packed batch.
QUERIES = {
    "eager/elim": "edac15cf0c96514df4c2ed7480f74af3025d4c5f7a745573a6878112744f40cf",
    "eager/full": "55473bc86726107bbe2981ef5450b3befd5e6d68150ad799545336a9cc4a5fb0",
    "eager/network": "b38b192d135bb77f449a6640be371680157c4d291e90182c17c962e002653236",
    "literal/full": "94171a6609509b52fbe360b5de0a0ab89be9a1576bcc9718bfb8f961eaffc0dd",
}

#: Per message type: the query whose rounds are pinned, and their
#: ``(rounds, request sha256, reply sha256)``, recorded once every
#: ciphertext list became one vector on the wire (each served message
#: and reply decodes to the values the earlier frames carried).
FRAMES = {
    messages.DedupSort: (
        "eager/full",
        (
            8,
            "05d62a1bc1b384f9ccbcefa62c2aad53deb437a4600538dc8163fdebf62f911e",
            "068c6c9602fb79dc7081b2964a0dbc7639cbeb068490538aba64d7e5b03d416b",
        ),
    ),
    messages.DedupBatch: (
        "literal/full",
        (
            20,
            "7fc0b601f3be8b43dc4e92ca3b87350f2a85b8a51c757359f956262c8cf48414",
            "b1ad957496505b27d5af628fecc6a7aeab1b1807d720c0ea1147c7a28006bea7",
        ),
    ),
    messages.SortAffine: (
        "literal/full",
        (
            10,
            "b86a66f1dc363673df2cb8e081c3d755073e877ce8570530c17ff52638238fe2",
            "30a75c04bfde75a57ff012f4223e12f16212812dd5deba93deb0ac340af640c4",
        ),
    ),
    messages.SortGateBatch: (
        "eager/network",
        (
            83,
            "3903b53f9a7f9c7e18492321139536f587a07b31e296e385f4a8c6e58f5f3ed7",
            "9ae1896f2d3e7a5894568ad024ca514cc71cb80006bc7f7eaf775f0656048641",
        ),
    ),
}


@pytest.mark.parametrize("backend_name", ["pure", "auto"])
@pytest.mark.parametrize("config_name", sorted(QUERIES))
def test_query_digest_is_unchanged(monkeypatch, config_name, backend_name):
    previous = backend.set_backend(backend_name)
    try:
        digest, _, _ = _run(config_name, monkeypatch)
    finally:
        backend.set_backend(previous)
    assert digest == QUERIES[config_name]


@pytest.mark.parametrize(
    "message_type", list(FRAMES), ids=[cls.__name__ for cls in FRAMES]
)
def test_round_frames_are_unchanged(monkeypatch, message_type):
    config_name, expected = FRAMES[message_type]
    _, served, _ = _run(config_name, monkeypatch)
    assert _frames(served, message_type) == expected


def test_full_variant_rounds_carry_junk(monkeypatch):
    """The pinned full-variant rounds do bury copies: S2 finds a
    duplicate group, so its reply carries a junk replacement."""
    for config_name in ("eager/full", "literal/full"):
        _, _, events = _run(config_name, monkeypatch)
        groups = [e.payload for e in events if e.kind == "dedup_groups"]
        assert any(max(sizes) > 1 for sizes in groups)
