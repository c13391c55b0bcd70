"""The secure top-k join scheme (Section 12).

Differences from the single-relation scheme:

* there is no global object identifier shared across relations, so the
  *attribute values* themselves are EHL-encoded (Algorithm 10) — the join
  condition compares values, not ids;
* every attribute of every tuple is stored as
  ``E(s_k) = ⟨EHL(x_k), Enc(x_k)⟩`` and attribute positions are permuted
  per relation with the PRP;
* queries are equi-joins ``R1.A = R2.B ORDER BY R1.C + R2.D STOP AFTER k``
  (Section 12.3's token shape), executed by ``SecJoin`` → ``SecFilter`` →
  ``EncSort``.

The operator is *oblivious*: both clouds learn only the number of tuples
that satisfied the join condition (Section 12.4's declared leakage; the
paper notes this too can be padded away with SecDedup-style dummies).
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass

from repro.crypto.damgard_jurik import DamgardJurik
from repro.crypto.encoding import SignedEncoder
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.prf import random_key
from repro.crypto.prp import Prp
from repro.crypto.rng import SecureRandom
from repro.exceptions import DataError, QueryError
from repro.protocols.base import S1Context, _wire_clouds
from repro.protocols.enc_sort import enc_sort
from repro.protocols.sec_filter import JoinedTuple, sec_filter
from repro.protocols.sec_join import SCORE_OFFSET, sec_join
from repro.core.params import SystemParams
from repro.structures.ehl_plus import EhlPlus, EhlPlusFactory
from repro.structures.items import ScoredItem


@dataclass
class EncryptedJoinRelation:
    """One relation encrypted for joining (Algorithm 10)."""

    tuples: list[dict]
    """Per tuple: ``{"ehl": [EHL(x_k)], "scores": [Enc(x_k)], "record": Enc(row)}``
    with attribute positions permuted by the relation's PRP."""

    n_tuples: int
    n_attributes: int

    def serialized_size(self) -> int:
        """Total encrypted size in bytes."""
        total = 0
        for t in self.tuples:
            total += sum(e.serialized_size() for e in t["ehl"])
            total += sum(c.serialized_size() for c in t["scores"])
            total += t["record"].serialized_size()
        return total


@dataclass(frozen=True)
class JoinToken:
    """``SELECT * FROM ER1, ER2 WHERE ER1.t1 = ER2.t2 ORDER BY
    ER1.t3 + ER2.t4 STOP AFTER k`` (Section 12.3)."""

    t1: int
    t2: int
    t3: int
    t4: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise QueryError("k must be >= 1")


@dataclass
class JoinResult:
    """Outcome of one secure top-k join."""

    tuples: list[JoinedTuple]
    join_cardinality: int
    channel_stats: object


class SecTopKJoin:
    """Data-owner/client API for secure top-k joins."""

    def __init__(self, params: SystemParams | None = None, seed: int | None = None):
        self.params = params or SystemParams.paper()
        self._rng = SecureRandom(seed)
        self.keypair = PaillierKeypair.generate(
            self.params.key_bits, self._rng.spawn("keygen")
        )
        self.public_key = self.keypair.public_key
        self.dj = DamgardJurik(self.public_key, s=2)
        self.encoder = SignedEncoder(
            self.public_key.n,
            score_bits=self.params.score_bits,
            blind_bits=self.params.blind_bits,
        )
        self._ehl_master = random_key(self._rng.spawn("ehl-master"))
        self._prp_keys: dict[str, bytes] = {}
        self._widths: dict[str, int] = {}
        # S1's own keypair (Algorithm 7's pk').  Besides seeds it carries
        # SecFilter's combined unblinding values (products and sums of
        # residues mod N), so it is oversized to keep them from wrapping.
        self._s1_keypair = PaillierKeypair.generate(
            2 * self.params.key_bits + 16, self._rng.spawn("s1-own")
        )
        # Monotonic salt so every context draws independent randomness.
        self._ctx_counter = itertools.count()

    # ------------------------------------------------------------------

    def encrypt(self, name: str, rows: list[list[int]]) -> EncryptedJoinRelation:
        """Encrypt one relation for joining (Algorithm 10)."""
        if not rows:
            raise DataError("relation is empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DataError("ragged relation")
        rng = self._rng.spawn(f"enc-{name}")
        factory = EhlPlusFactory(
            self.public_key,
            self._ehl_master,
            n_hashes=self.params.ehl_hashes,
            rng=rng,
        )
        key = self._prp_keys.setdefault(name, self._rng.spawn(f"prp-{name}").randbytes(32))
        self._widths[name] = width
        prp = Prp(key, width)
        inverse = [prp.inverse(p) for p in range(width)]

        tuples = []
        for row_id, row in enumerate(rows):
            for value in row:
                self.encoder.check_score(value)
            permuted = [row[inverse[p]] for p in range(width)]
            tuples.append(
                {
                    "ehl": [factory.encode(v) for v in permuted],
                    "scores": [self.public_key.encrypt(v, rng) for v in permuted],
                    "record": self.public_key.encrypt(row_id, rng),
                }
            )
        return EncryptedJoinRelation(
            tuples=tuples, n_tuples=len(rows), n_attributes=width
        )

    def token(
        self, left_name: str, right_name: str, join_on: tuple[int, int],
        order_by: tuple[int, int], k: int,
    ) -> JoinToken:
        """Permute the query's attribute indices into a join token."""
        left_prp = Prp(self._prp_keys[left_name], self._widths[left_name])
        right_prp = Prp(self._prp_keys[right_name], self._widths[right_name])
        return JoinToken(
            t1=left_prp.forward(join_on[0]),
            t2=right_prp.forward(join_on[1]),
            t3=left_prp.forward(order_by[0]),
            t4=right_prp.forward(order_by[1]),
            k=k,
        )

    # ------------------------------------------------------------------

    def make_clouds(self, transport: str = "inprocess") -> S1Context:
        """Wire up a fresh S1 context and S2 crypto cloud."""
        salt = f"#{next(self._ctx_counter)}"
        return _wire_clouds(
            self.keypair,
            self.dj,
            self.encoder,
            transport,
            self._rng.spawn("s1" + salt),
            self._rng.spawn("s2" + salt),
        )

    def join_query(
        self,
        left: EncryptedJoinRelation,
        right: EncryptedJoinRelation,
        token: JoinToken,
        ctx: S1Context | None = None,
    ) -> JoinResult:
        """Execute ``⋈_sec``: SecJoin → SecFilter → EncSort → top-k."""
        owns_ctx = ctx is None
        ctx = ctx or self.make_clouds()
        try:
            return self._join_query(left, right, token, ctx)
        finally:
            if owns_ctx:
                ctx.close()

    def _join_query(
        self,
        left: EncryptedJoinRelation,
        right: EncryptedJoinRelation,
        token: JoinToken,
        ctx: S1Context,
    ) -> JoinResult:
        combined = sec_join(
            ctx,
            left.tuples,
            right.tuples,
            join_attrs=(token.t1, token.t2),
            score_attrs=(token.t3, token.t4),
        )
        survivors = sec_filter(ctx, combined, self._s1_keypair)
        cardinality = len(survivors)

        # Remove the zero-guard offset from the surviving scores.
        for t in survivors:
            t.score = t.score - SCORE_OFFSET

        # Rank with EncSort: wrap tuples as sortable items (worst = score).
        wrapped = [
            ScoredItem(
                ehl=EhlPlus([self.public_key.encrypt(0, ctx.rng)]),
                worst=t.score,
                list_scores=t.attributes.ciphertexts(),
            )
            for t in survivors
        ]
        ranked = enc_sort(
            ctx,
            wrapped,
            self._s1_keypair,
            descending=True,
            method=self.params.sort_method,
            protocol="SecJoinSort",
        )
        top = [
            JoinedTuple(score=item.worst, attributes=item.list_scores or [])
            for item in ranked[: token.k]
        ]
        return JoinResult(
            tuples=top,
            join_cardinality=cardinality,
            channel_stats=ctx.channel.snapshot(),
        )

    def reveal(self, result: JoinResult) -> list[tuple[int, list[int]]]:
        """Decrypt the winners into ``(score, attribute values)`` tuples."""
        out = []
        for t in result.tuples:
            score = self.keypair.secret_key.decrypt_signed(t.score)
            attrs = [
                self.keypair.secret_key.decrypt_signed(a) for a in t.attributes.ciphertexts()
            ]
            out.append((score, attrs))
        return out
