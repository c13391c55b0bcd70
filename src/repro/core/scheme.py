"""``SecTopK = (Enc, Token, SecQuery)`` — the top-level scheme
(Definition 4.1).

A :class:`SecTopK` instance plays the *data owner* (it generates and keeps
all keys) and mints the artifacts for the other parties:

* :meth:`encrypt` — Algorithm 2: sort each attribute column, encrypt every
  entry as ``⟨EHL(o), Enc(x), Enc(o)⟩`` and permute the list names with
  the PRP ``P_K``.  The result is what S1 stores.
* :meth:`token` — Section 7: map the queried attribute indices through
  ``P_K``.
* :meth:`query` — Algorithm 3: spin up the two-cloud machinery (S1
  context, S2 crypto cloud, accounting channel) and run the oblivious NRA
  engine.  In a deployment the two sides run on different providers; the
  in-process simulation routes every exchanged byte through the
  accounting channel so the communication results stay exact.
* :meth:`reveal` — client-side decryption of the winners (the paper's
  clients fetch the decryption keys from the data owner).
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.crypto.damgard_jurik import DamgardJurik
from repro.crypto.encoding import SignedEncoder
from repro.crypto.paillier import PaillierKeypair
from repro.crypto.prf import random_key
from repro.crypto.prp import Prp
from repro.crypto.rng import SecureRandom
from repro.exceptions import DataError, QueryError
from repro.obs.metrics import REGISTRY
from repro.protocols.base import S1Context, _wire_clouds, owned_context
from repro.protocols.blinding import seed_key_bits
from repro.core.engine import build_engine
from repro.core.params import SystemParams
from repro.core.relation import EncryptedRelation
from repro.core.results import QueryConfig, QueryResult
from repro.core.token import Token
from repro.structures.ehl import EhlFactory
from repro.structures.ehl_plus import EhlPlusFactory
from repro.structures.items import EncryptedItem, weight_entries


# Per-engine query cost instruments (observation only — recorded after
# the engine run, off every protocol path).
_QUERY_SECONDS = REGISTRY.histogram(
    "repro_query_seconds",
    "End-to-end engine-run wall-clock per query.",
    labelnames=("engine",),
)
_QUERY_ROUNDS = REGISTRY.histogram(
    "repro_query_rounds",
    "Physical round-trips per query.",
    labelnames=("engine",),
    buckets=(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000),
)


class SecTopK:
    """The secure top-k query scheme."""

    def __init__(self, params: SystemParams | None = None, seed: int | None = None):
        self.params = params or SystemParams.paper()
        self._rng = SecureRandom(seed)
        self.keypair = PaillierKeypair.generate(self.params.key_bits, self._rng.spawn("keygen"))
        self.public_key = self.keypair.public_key
        self.dj = DamgardJurik(self.public_key, s=2)
        self.encoder = SignedEncoder(
            self.public_key.n,
            score_bits=self.params.score_bits,
            blind_bits=self.params.blind_bits,
        )
        self._ehl_master = random_key(self._rng.spawn("ehl-master"))
        self._prp_key = self._rng.spawn("prp").randbytes(32)
        # S1's own keypair for blinding-seed transport (Algorithm 7's pk');
        # generated once and reused across protocol invocations.  It
        # carries nothing but seeds, so it is sized by the seed bound.
        self._s1_keypair = PaillierKeypair.generate(
            seed_key_bits(self.params.key_bits), self._rng.spawn("s1-own")
        )
        self._query_history: set[str] = set()
        # Query-pattern state is deliberately cross-query (it IS the L1
        # leakage), but concurrent server sessions must update it safely.
        self._history_lock = threading.Lock()
        # Monotonic salt for context randomness streams: every context
        # this scheme wires up draws independent randomness, no matter
        # how many servers/sessions share the scheme.
        self._ctx_counter = itertools.count()

    # ------------------------------------------------------------------
    # Pickling (process-mode execute_many ships the scheme to workers).
    # ------------------------------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_history_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._history_lock = threading.Lock()

    def query_pattern_snapshot(self) -> frozenset:
        """A frozen copy of the query-pattern history (fingerprints)."""
        with self._history_lock:
            return frozenset(self._query_history)

    def reset_query_history(self, patterns) -> None:
        """Replace the history wholesale.

        Process-mode workers install each request's sequential-equivalent
        prior before querying; their scheme copies are per-task scratch.
        """
        with self._history_lock:
            self._query_history = set(patterns)

    def observe_query_pattern(self, token) -> bool:
        """Fold one token into the query-pattern history; return whether
        it was a repeat.

        This is the L1 ``QP`` observation a fresh run of the token would
        have recorded — the server calls it when it answers without
        running the query in this process (a cache hit, prefix hits
        included; a hand-off to a worker process), so the leakage it
        reports stays exactly what a fresh run would leak.
        """
        fingerprint = token.fingerprint()
        with self._history_lock:
            repeated = fingerprint in self._query_history
            self._query_history.add(fingerprint)
        return repeated

    def context_namespace(self) -> str:
        """Reserve a scheme-wide unique namespace for caller-built salts.

        Servers prefix their per-request salts with one of these so two
        servers sharing a scheme never reuse a randomness stream.  Drawn
        from the same counter as the contexts' automatic salts, so
        the two schemes of uniqueness can never collide either.
        """
        return f"ns{next(self._ctx_counter)}"

    # ------------------------------------------------------------------
    # Enc (Algorithm 2)
    # ------------------------------------------------------------------

    def _ehl_factory(self, rng: SecureRandom):
        if self.params.ehl_variant == "plus":
            return EhlPlusFactory(
                self.public_key,
                self._ehl_master,
                n_hashes=self.params.ehl_hashes,
                rng=rng,
            )
        return EhlFactory(
            self.public_key,
            self._ehl_master,
            table_size=self.params.ehl_table_size,
            n_hashes=self.params.ehl_hashes,
            rng=rng,
        )

    def encrypt(
        self,
        rows: list[list[int]],
        object_ids: list[int] | None = None,
        version: int = 0,
        stream: str = "enc",
    ) -> EncryptedRelation:
        """Encrypt a relation into ``ER`` (Algorithm 2).

        ``object_ids`` names each row explicitly (default: the row
        index).  The mutation layer relies on this: a relation grown by
        inserts carries monotonic object ids that are *not* dense row
        indices, and rebuilding it from scratch with the same ids must
        reproduce the same sorted order — ties break by object id on
        both paths.  ``version`` seeds the relation's mutation counter.

        ``stream`` labels the randomness stream this encryption draws
        (deterministic schemes only; see :meth:`SecureRandom.spawn`).
        The default ``"enc"`` is the data owner's one-time upload
        stream.  Callers that encrypt *more than one plaintext relation*
        under one scheme — the sliding-window watch path — MUST pass a
        label that is unique per plaintext content: reusing one stream
        across different plaintexts reuses Paillier randomness at
        aligned positions, letting S1 divide ciphertexts pairwise and
        brute-force score deltas.  A content-derived label keeps the
        complementary property that re-encrypting identical content
        yields identical ciphertexts.
        """
        if not rows:
            raise DataError("relation is empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DataError("ragged relation")
        if object_ids is None:
            object_ids = list(range(len(rows)))
        elif len(object_ids) != len(rows):
            raise DataError("object_ids/rows length mismatch")
        elif len(set(object_ids)) != len(object_ids):
            raise DataError("duplicate object id")
        for row in rows:
            for value in row:
                self.encoder.check_score(value)

        rng = self._rng.spawn(stream)
        factory = self._ehl_factory(rng)
        prp = Prp(self._prp_key, width)
        self._attribute_width = width

        lists: dict[int, list[EncryptedItem]] = {}
        for attribute in range(width):
            ranked = sorted(
                range(len(rows)),
                key=lambda o: (-rows[o][attribute], object_ids[o]),
            )
            # One batch per list, read from the stream in the order of
            # per-entry encode / encrypt calls: each entry's EHL cells,
            # its score, its record.
            plain = []
            for o in ranked:
                plain += factory.vector(object_ids[o])
                plain += (rows[o][attribute], object_ids[o])
            cts = iter(self.public_key.encrypt_batch(plain, rng))
            cells = len(plain) // len(ranked) - 2
            entries = [
                EncryptedItem(
                    ehl=factory.structure([next(cts) for _ in range(cells)]),
                    score=next(cts),
                    record=next(cts),
                )
                for _ in ranked
            ]
            lists[prp.forward(attribute)] = entries
        return EncryptedRelation(
            lists=lists,
            n_objects=len(rows),
            n_attributes=width,
            ehl_variant=self.params.ehl_variant,
            version=version,
        )

    def attribute_list_names(self) -> list[int]:
        """Permuted list name ``P_K(i)`` of every attribute, in order.

        The mutation layer maintains the encrypted sorted lists
        incrementally and needs to know which permuted name holds which
        attribute — knowledge only the data owner (this scheme) has.
        """
        width = getattr(self, "_attribute_width", None)
        if width is None:
            raise QueryError("encrypt a relation before resolving list names")
        prp = Prp(self._prp_key, width)
        return [prp.forward(a) for a in range(width)]

    # ------------------------------------------------------------------
    # Token (Section 7)
    # ------------------------------------------------------------------

    def token(
        self, attributes: list[int], k: int, weights: list[int] | None = None
    ) -> Token:
        """Build a query token for the client (Section 7).

        The PRP domain is the attribute width of the most recently
        encrypted relation (the client learns it together with the key
        material).
        """
        if not attributes:
            raise QueryError("query selects no attributes")
        width = getattr(self, "_attribute_width", None)
        if width is None:
            raise QueryError("encrypt a relation before generating tokens")
        for a in attributes:
            if not 0 <= a < width:
                raise QueryError(f"attribute {a} out of range")
        prp = Prp(self._prp_key, width)
        return Token(
            permuted_lists=tuple(prp.forward(a) for a in attributes),
            k=k,
            weights=tuple(weights) if weights else (),
        )

    # ------------------------------------------------------------------
    # SecQuery (Algorithm 3)
    # ------------------------------------------------------------------

    def _make_context(
        self,
        transport: str = "inprocess",
        label: str = "",
        salt: str | None = None,
        on_event=None,
        control=None,
        session_label: str | None = None,
    ) -> S1Context:
        """Wire up a fresh S1 context and S2 crypto cloud.

        ``transport`` is ``"inprocess"`` (a local crypto cloud) or
        names a remote S2 daemon
        (``"tcp://host:port"`` / ``"unix:///path"``): the remote path
        opens a daemon session provisioned with this
        scheme's key material and the same spawned S2 randomness stream
        a local cloud would hold, so remote queries replay local ones
        bit-for-bit.  Each context's randomness streams are salted
        with a scheme-wide monotonic counter (plus the optional
        ``label``), so contexts created from one scheme — by however
        many servers or sessions share it — never repeat blinding or
        permutation draws.  Still deterministic for a seeded scheme:
        the N-th context of an identically-seeded scheme draws the same
        stream.

        An explicit ``salt`` bypasses the counter and is used verbatim —
        the caller then guarantees uniqueness.  This is what lets the
        server's ``execute_many`` assign each request a deterministic
        stream regardless of which worker thread or *process* serves it
        (the counter lives in this process and cannot coordinate forks).

        ``on_event`` / ``control`` become the context's progress and
        job-control hooks (observations only — a context with hooks is
        transcript-identical to one without).
        """
        if salt is None:
            salt = f"{label}#{next(self._ctx_counter)}"
        return _wire_clouds(
            self.keypair,
            self.dj,
            self.encoder,
            transport,
            self._rng.spawn("s1" + salt),
            self._rng.spawn("s2" + salt),
            session_label=session_label if session_label is not None else salt,
            on_event=on_event,
            control=control,
        )

    def query(
        self,
        relation: EncryptedRelation,
        token: Token,
        config: QueryConfig | None = None,
        ctx: S1Context | None = None,
    ) -> QueryResult:
        """Process a top-k query on the encrypted relation.

        A caller-provided ``ctx`` stays open (the caller owns its
        transport); a default one is closed before returning.  When the
        query itself fails, a dead transport's secondary close error is
        suppressed so the original failure surfaces undisturbed.
        """
        config = config or QueryConfig()
        if ctx is not None:
            return self._query(relation, token, config, ctx)
        with owned_context(self._make_context()) as ctx:
            return self._query(relation, token, config, ctx)

    def _query(
        self,
        relation: EncryptedRelation,
        token: Token,
        config: QueryConfig,
        ctx: S1Context,
    ) -> QueryResult:
        # Every aggregate must stay below the sentinel magnitude that
        # EncCompare, BlindedSelect and the affine EncSort assume; past it
        # the blinded comparisons wrap and reveal a wrong top-k.
        encoder = self.encoder
        if sum(token.effective_weights()) * encoder.max_score >= encoder.sentinel:
            raise QueryError(
                "token weights too large: the weighted aggregate of "
                f"{self.params.score_bits}-bit scores could reach 2**"
                f"{self.params.score_bits + self.params.blind_bits}"
            )
        # This query's slice of the (possibly shared, session-long)
        # leakage log and channel accounting starts here; S2 events land
        # in-position during the engine run on every transport, and the
        # result's channel_stats is the per-query delta so a session's
        # second query does not report cumulative traffic.
        events_start = len(ctx.leakage.events)
        stats_start = ctx.channel.snapshot()
        # L1 leakage: query pattern + (later) halting depth.
        fingerprint = token.fingerprint()
        with self._history_lock:
            repeated = fingerprint in self._query_history
            self._query_history.add(fingerprint)
        ctx.leakage.record("S1", "SecQuery", "query_pattern", repeated)

        shard_view = None
        if config.effective_shards() >= 2:
            # Sharded scan: the query lists are split into contiguous
            # depth slices; the engine consumes the fan-in merged
            # windows.  Value-identical items in scan order keep the
            # S2-visible transcript bit-identical to the unsharded path
            # below.  (Function-level import: the sharding layer lives
            # with the server, which imports this module.)
            from repro.server.sharding import ShardedQueryLists

            shard_view = ShardedQueryLists(
                relation,
                token,
                config.effective_shards(),
                window=config.check_every(),
            )
            enc_lists = shard_view
        else:
            # weight_entries is shared with the shard workers, so the
            # two paths can never drift apart on the weighting.
            enc_lists = [
                weight_entries(relation.list_for(name), weight)
                for name, weight in zip(
                    token.permuted_lists, token.effective_weights()
                )
            ]

        engine = build_engine(
            ctx,
            self._s1_keypair,
            enc_lists,
            token.k,
            config,
            config.compare_method or self.params.compare_method,
            config.sort_method or self.params.sort_method,
        )
        run_start = time.perf_counter()
        items, halting_depth = engine.run()
        ctx.leakage.record("S1", "SecQuery", "halting_depth", halting_depth)
        channel_stats = ctx.channel.snapshot().delta(stats_start)
        _QUERY_SECONDS.labels(engine=config.engine).observe(
            time.perf_counter() - run_start
        )
        _QUERY_ROUNDS.labels(engine=config.engine).observe(channel_stats.rounds)
        return QueryResult(
            items=items,
            halting_depth=halting_depth,
            channel_stats=channel_stats,
            depth_seconds=engine.depth_seconds,
            config=config,
            leakage_events=list(ctx.leakage.events[events_start:]),
            shard_stats=shard_view.shard_stats() if shard_view is not None else None,
        )

    # ------------------------------------------------------------------
    # Client-side reveal
    # ------------------------------------------------------------------

    def reveal(self, result: QueryResult) -> list[tuple[int, int]]:
        """Decrypt the winners into ``(object_id, score)`` pairs.

        The client obtains the decryption key from the data owner
        (Section 3.1); this method plays both roles.
        """
        out = []
        for item in result.items:
            if item.record is None:
                raise QueryError("result items carry no record ciphertexts")
            object_id = self.keypair.secret_key.decrypt(item.record)
            score = self.keypair.secret_key.decrypt_signed(item.worst)
            out.append((object_id, score))
        return out
