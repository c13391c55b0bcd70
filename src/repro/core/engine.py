"""S1's oblivious NRA engine — ``SecQuery`` (Algorithm 3).

Two engines implement the same functionality:

* :class:`EagerEngine` maintains, for every candidate, a running worst
  score ``Enc(W)`` — every match credited into it as it is absorbed —
  and the per-query-list seen-indicators ``Enc(seen_j)``.  S2 already
  decrypts every equality bit it is sent, so it applies the bit itself
  (:mod:`repro.protocols.blinded_select`): one round per depth absorbs
  all ``m`` items, and no credit costs an ``N^3`` exponentiation.  At
  every *check point* the engine deduplicates, sorts by ``W`` with
  ``EncSort`` and evaluates the halting rule with ``EncCompare``; the
  best score ``W + Σ_j (1 - seen_j)·bottom_j`` is derived only for the
  candidates the rule compares (``t[k:]``, or ``t[k]`` under the
  paper's rule), from coin-masked seen bits, in the round of the rule's
  first stage.  This engine reproduces textbook NRA exactly (same
  halting depth as the plaintext oracle) and powers all three query
  variants; the batching variant Qry_Ba simply spaces out the check
  points.  It never uses the Damgård–Jurik layer.

* :class:`LiteralEngine` follows Algorithm 3 line by line: per depth it
  runs ``SecWorst`` (Algorithm 4) and ``SecBest`` (Algorithm 6) — the
  paper's layered selects and ``RecoverEnc`` — for the depth's items,
  deduplicates the depth batch, merges it into ``T`` with
  ``SecUpdate`` (Algorithm 9), then sorts and checks halting.  Candidates
  untouched at the current depth keep stale (conservative) upper bounds,
  so halting can come later than plaintext NRA — but the reported top-k
  set is still correct (DESIGN.md §3).

Round coalescing: every independent S2 interaction of one depth is a
*flow* (see :mod:`repro.net.batching`), and the engines run a depth's
flows lock-step so each stage crosses the link as ONE round-trip.  A
depth therefore costs O(1) rounds regardless of the number of query
lists ``m`` or the candidate-list size — the per-depth round complexity
the paper's Table 3 assumes — where the uncoalesced formulation paid
O(m) (eager absorption, literal SecWorst/SecBest) or O(|T|) (strict
halting) rounds.

Neither engine ever sees a plaintext: every decision flows through the
sub-protocols, and S1's only observations are the declared ``L1`` leakage
(query pattern, halting depth, and — in the elim variants — the
uniqueness pattern).
"""

from __future__ import annotations

import time

from repro.crypto import backend
from repro.crypto.paillier import Ciphertext, PaillierKeypair
from repro.events import CandidateFinalized, DepthAdvanced
from repro.exceptions import QueryError
from repro.protocols.base import S1Context
from repro.protocols.blinded_select import blinded_select_flow
from repro.protocols.enc_compare import enc_compare_flow
from repro.protocols.enc_sort import enc_sort
from repro.protocols.sec_best import sec_best_flow
from repro.protocols.sec_dedup import sec_dedup
from repro.protocols.sec_dup_elim import sec_dup_elim
from repro.protocols.sec_update import sec_update
from repro.protocols.sec_worst import sec_worst_flow
from repro.core.results import QueryConfig
from repro.structures.ehl import KnownPairs
from repro.structures.items import EncryptedItem, ListPrefix, ScoredItem

PROTOCOL = "SecQuery"


class _EngineBase:
    """Shared plumbing: sorting, halting rule, per-depth timing."""

    def __init__(
        self,
        ctx: S1Context,
        own_keypair: PaillierKeypair,
        enc_lists: list[list[EncryptedItem]],
        k: int,
        config: QueryConfig,
        compare_method: str,
        sort_method: str,
    ):
        if not enc_lists:
            raise QueryError("query selects no lists")
        lengths = {len(lst) for lst in enc_lists}
        if len(lengths) != 1:
            raise QueryError("sorted lists have inconsistent lengths")
        self.ctx = ctx
        self.own_keypair = own_keypair
        self.lists = enc_lists
        self.n = lengths.pop()
        self.m = len(enc_lists)
        self.k = k
        if k > self.n:
            raise QueryError(f"k={k} exceeds relation size n={self.n}")
        self.config = config
        self.compare_method = compare_method
        self.sort_method = sort_method
        self.depth_seconds: list[float] = []
        # Sharded relations (repro.server.sharding) expose a prefetch
        # hook: announcing each depth boundary lets the shards assemble
        # and fan-in the check window before its rounds are built.
        # Plain lists have no hook and cost nothing.
        self._prefetch_window = getattr(enc_lists, "prefetch", None)

    def _begin_depth(self, depth: int) -> None:
        """Make ``depth``'s items servable (shard-window fan-in point)."""
        if self._prefetch_window is not None:
            self._prefetch_window(depth)

    # -- unseen-object bound ---------------------------------------------

    def _unseen_bound(self, depth: int) -> Ciphertext:
        """``Enc(Σ_j bottom_j)`` at ``depth`` — the NRA unseen-object bound.

        Computed on demand, once per check depth: the halting rule's
        stage 1 is its only consumer.
        """
        total = self.lists[0][depth].score
        for j in range(1, self.m):
            total = total + self.lists[j][depth].score
        return total

    # -- halting ---------------------------------------------------------

    def _halting_check(
        self, t_sorted: list[ScoredItem], depth: int
    ) -> bool:
        """Evaluate the halting rule on the sorted candidate list.

        Two stages, each one coalesced round for the blinded construction
        (three for DGK): the unseen-object bound first — preserving the
        cheap early-out on the common non-halting path — then all
        remaining per-candidate comparisons together, regardless of the
        candidate-list size (the uncoalesced strict rule paid one round
        per candidate).  Whatever the engine must still compute to know
        the compared candidates' best bounds (:meth:`_best_flow`) rides
        stage 1's first round.
        """
        if len(t_sorted) < self.k:
            return False
        last_depth = depth == self.n - 1
        if last_depth:
            return True
        w_k = t_sorted[self.k - 1].worst
        ctx = self.ctx
        if self.config.halting == "paper":
            candidates = t_sorted[self.k : self.k + 1]
        else:
            # strict: every candidate outside the top-k must be dominated.
            candidates = t_sorted[self.k :]

        # Stage 1 — unseen-object bound: B(unseen) = sum of bottom scores.
        stage_1 = enc_compare_flow(
            ctx,
            self._unseen_bound(depth),
            w_k,
            method=self.compare_method,
            protocol=PROTOCOL,
        )
        unseen_dominated, bests = ctx.run_flows(
            [stage_1, self._best_flow(candidates, depth)]
        )
        if not unseen_dominated:
            return False

        # Stage 2 — candidate bounds, coalesced into one round.
        flows = [
            enc_compare_flow(
                ctx, best, w_k, method=self.compare_method, protocol=PROTOCOL
            )
            for best in bests
        ]
        return all(ctx.run_flows(flows))

    def _best_flow(self, candidates: list[ScoredItem], depth: int):
        """Flow returning the ``candidates``' best bounds; the literal
        engine keeps them on the items, so it needs no round."""
        yield from ()
        return [item.best for item in candidates]

    def _sort(self, items: list[ScoredItem]) -> list[ScoredItem]:
        with self.ctx.channel.protocol(PROTOCOL):
            return enc_sort(
                self.ctx,
                items,
                self.own_keypair,
                descending=True,
                method=self.sort_method,
                key="worst",
            )

    def _dedup(
        self,
        items: list[ScoredItem],
        ranks: list[int],
        known: KnownPairs | None = None,
    ) -> list[ScoredItem]:
        with self.ctx.channel.protocol(PROTOCOL):
            if self.config.variant == "full":
                return sec_dedup(self.ctx, items, self.own_keypair, ranks, known=known)
            return sec_dup_elim(self.ctx, items, self.own_keypair, ranks, known=known)

    def _is_check_depth(self, depth: int) -> bool:
        return (depth + 1) % self.config.check_every() == 0 or depth == self.n - 1

    def _max_depth(self) -> int:
        if self.config.max_depth is None:
            return self.n
        return min(self.n, self.config.max_depth)

    # -- progress streaming ----------------------------------------------

    def _notify_depth(self, depth: int, candidates: int) -> None:
        """One depth scanned (1-based); pure observation, no protocol."""
        self.ctx.notify(DepthAdvanced(depth=depth, candidates=candidates))

    def _notify_final(self, winners: list[ScoredItem], depth: int) -> None:
        """The halting rule fixed the top-k: one event per rank."""
        for rank in range(len(winners)):
            self.ctx.notify(CandidateFinalized(rank=rank + 1, depth=depth))


class EagerEngine(_EngineBase):
    """Stateful engine: exact NRA bounds wherever the halting rule reads
    them (every candidate's worst; the compared candidates' best)."""

    def run(self) -> tuple[list[ScoredItem], int]:
        """Execute the query; returns (top-k items, 1-based halting depth)."""
        t_list: list[ScoredItem] = []
        # Every pair of candidates is either two survivors of the last
        # deduplication or was ⊖-tested when the later one was absorbed:
        # the next deduplication's matrix recomputes neither.
        known = KnownPairs()
        # Whether t_list is this depth's deduplicated, sorted list.
        settled = False
        for depth in range(self._max_depth()):
            started = time.perf_counter()
            self.ctx.checkpoint()
            self._begin_depth(depth)
            t_list = self._absorb_depth(t_list, depth, known)
            settled = False
            if self._is_check_depth(depth):
                t_list = self._dedup(t_list, list(range(len(t_list))), known)
                if len(t_list) >= self.k:
                    t_list = self._sort(t_list)
                    settled = True
                    if self._halting_check(t_list, depth):
                        self.depth_seconds.append(time.perf_counter() - started)
                        self._notify_depth(depth + 1, len(t_list))
                        self._notify_final(t_list[: self.k], depth + 1)
                        return t_list[: self.k], depth + 1
                # The survivors are pairwise distinct (a sort only
                # permutes them) and re-encrypted: start over from that.
                known = KnownPairs()
                known.distinct([t_item.ehl for t_item in t_list])
            self.depth_seconds.append(time.perf_counter() - started)
            self._notify_depth(depth + 1, len(t_list))
        # Budget exhausted (max_depth cap): best-effort answer by worst
        # score — already at hand when the capped depth was a check depth.
        if not settled:
            t_list = self._dedup(t_list, list(range(len(t_list))), known)
            t_list = self._sort(t_list)
        self._notify_final(t_list[: self.k], self._max_depth())
        return t_list[: self.k], self._max_depth()

    # -- coalesced per-depth absorption ----------------------------------

    def _absorb_depth(
        self, t_list: list[ScoredItem], depth: int, known: KnownPairs
    ) -> list[ScoredItem]:
        """Fold all ``m`` sorted-access items of one depth into the state.

        The per-list absorptions are independent up to candidate-identity
        bookkeeping (an item only needs the *identities* — EHLs — of the
        candidates before it, which are known at depth start), and S2
        answers each equality test with the credit itself, so all ``m``
        absorptions share one round-trip per depth.
        """
        items = [self.lists[j][depth] for j in range(self.m)]
        shared = list(t_list)
        base = len(shared)
        self.ctx.run_flows(
            [self._absorb_flow(shared, base, j, items, known) for j in range(self.m)]
        )
        return shared

    def _absorb_flow(
        self,
        shared: list[ScoredItem],
        base: int,
        list_slot: int,
        items: list[EncryptedItem],
        known: KnownPairs,
    ):
        """One list's absorption at the current depth (flow form).

        Tests the item for equality against every candidate known before
        it (earlier depths' candidates plus this depth's earlier list
        items) in one blinded select: per candidate S2 returns
        ``Enc(t·x)``, credited into the candidate's running worst, and
        ``Enc(t)``, added to its seen bit for ``list_slot``.  The item
        then becomes a new candidate entry, neutralized homomorphically
        when its object was already known (S1 cannot branch on ``t``):
        worst ``Enc(x) − Σ credits``, seen bit ``Enc(1) − Σ Enc(t)``.

        Husks: until a check depth's deduplication clears them, an
        object's neutralized entries carry its EHL too, so a later item
        of the object matches *every* entry of it and ``Σ t`` exceeds 1
        (``tests/test_eager_state.py::TestHusks`` builds the case).  The
        object's first entry still gets exactly one credit per list —
        each object is in each list once — while the extra credits land
        on husks, whose worst and seen bits stop being a score and bits
        (``x − 2x``, ``1 − 2``).  Deduplication keeps the lowest-ranked,
        i.e. first, member of each group, and the best bounds are only
        derived after it, so no husk state is ever read and every bit S2
        decrypts on the best path is a bit.

        Flows are advanced in list order, so by the time this flow
        resumes, every earlier list's entry for this depth exists in
        ``shared``.  The equality ciphertexts are recorded in ``known``
        against the two EHLs they compare, for the next deduplication's
        matrix.
        """
        ctx = self.ctx
        item = items[list_slot]
        n_candidates = base + list_slot
        credits: list[Ciphertext] = []
        bits: list[Ciphertext] = []
        if n_candidates:
            ehls = [shared[i].ehl for i in range(base)] + [
                items[i].ehl for i in range(list_slot)
            ]
            # Permute before shipping so S2's equality-pattern view is the
            # declared EP_d leakage (pattern up to a random permutation).
            order = ctx.rng.permutation(n_candidates)
            others = [ehls[i] for i in order]
            eq_cts = item.ehl.minus_many(others, ctx.rng)
            known.tested(item.ehl, others, eq_cts)
            permuted_credits, permuted_bits = yield from blinded_select_flow(
                ctx, eq_cts, [item.score], [0] * n_candidates,
                bit_mode=False, protocol=PROTOCOL,
            )
            credits = [None] * n_candidates
            bits = [None] * n_candidates
            for slot, i in enumerate(order):
                credits[i] = permuted_credits[slot]
                bits[i] = permuted_bits[slot]

        if len(shared) != base + list_slot:
            raise QueryError(
                "absorption order violated: earlier lists' entries must be "
                "appended before this flow resumes"
            )
        for candidate, credit, bit in zip(shared, credits, bits):
            candidate.worst = candidate.worst + credit
            candidate.seen_bits[list_slot] = candidate.seen_bits[list_slot] + bit
        worst = item.score
        seen_bits = ctx.public_key.encrypt_batch(
            [int(j == list_slot) for j in range(self.m)], ctx.rng
        )
        if credits:
            worst = worst - sum(credits[1:], credits[0])
            seen_bits[list_slot] = seen_bits[list_slot] - sum(bits[1:], bits[0])
        shared.append(
            ScoredItem(ehl=item.ehl, worst=worst, seen_bits=seen_bits, record=item.record)
        )

    # -- best bounds for the halting rule ----------------------------------

    def _best_flow(self, candidates: list[ScoredItem], depth: int):
        """``worst + Σ_j (1 − seen_j)·bottom_j`` for exactly the
        candidates the halting rule compares, as one bit-mode blinded
        select that rides the rule's first-stage round.

        Per candidate and list S1 ships ``Enc(u ⊕ c)``, ``u = 1 − seen_j``
        masked by a fresh coin ``c``, so S2 decrypts a uniform bit ``t``
        and applies it to ``bottom_j``: ``Enc(u·bottom_j)`` is the reply
        itself when ``c = 0`` and ``Enc(bottom_j) − Enc(t·bottom_j)`` when
        ``c = 1``.  The bounds go straight to the comparison; no
        candidate carries one onward."""
        if not candidates:
            return []
        ctx = self.ctx
        pk = ctx.public_key
        n2, m = pk.n_squared, self.m
        bottoms = [self.lists[j][depth].score for j in range(m)]
        seen = [t_item.seen_bits[j] for t_item in candidates for j in range(m)]
        coins = ctx.rng.randbits(len(seen))
        flips = [(coins >> slot) & 1 for slot in range(len(seen))]
        # Enc(u ⊕ c): Enc(1 − seen_j) for c = 0, Enc(seen_j) for c = 1.
        negated = iter(
            backend.invert_vec([s.value for s, c in zip(seen, flips) if not c], n2)
        )
        tests = pk.rerandomize_batch(
            [s if c else Ciphertext(next(negated), pk) + 1 for s, c in zip(seen, flips)],
            ctx.rng,
        )
        selected, _ = yield from blinded_select_flow(
            ctx, tests, bottoms, list(range(m)) * len(candidates),
            bit_mode=True, protocol=PROTOCOL,
        )
        negated = iter(
            backend.invert_vec([s.value for s, c in zip(selected, flips) if c], n2)
        )
        unseen = [
            bottoms[slot % m] + Ciphertext(next(negated), pk) if c else s
            for slot, (s, c) in enumerate(zip(selected, flips))
        ]
        return [
            sum(unseen[i * m : (i + 1) * m], t_item.worst)
            for i, t_item in enumerate(candidates)
        ]


class LiteralEngine(_EngineBase):
    """Algorithm 3 verbatim: SecWorst/SecBest/SecDedup/SecUpdate per depth."""

    def run(self) -> tuple[list[ScoredItem], int]:
        """Execute the query; returns (top-k items, 1-based halting depth)."""
        ctx = self.ctx
        t_list: list[ScoredItem] = []
        for depth in range(self._max_depth()):
            started = time.perf_counter()
            ctx.checkpoint()
            self._begin_depth(depth)
            depth_items = [self.lists[j][depth] for j in range(self.m)]
            # Zero-copy prefix views (the bottom item is prefix[-1]).
            prefixes = [ListPrefix(self.lists[j], depth + 1) for j in range(self.m)]

            # All SecWorst/SecBest runs of a depth are independent:
            # coalesce their equality stage and their recover stage into
            # one round-trip each.  SecWorst ⊖-tests every pair of the
            # depth's items, whose EHLs Γ carries: Γ's deduplication
            # matrix recomputes none of them.
            tested = KnownPairs()
            flows = []
            for idx, item in enumerate(depth_items):
                others = depth_items[:idx] + depth_items[idx + 1 :]
                flows.append(sec_worst_flow(ctx, item, others, known=tested))
                flows.append(
                    sec_best_flow(
                        ctx,
                        item,
                        [prefixes[j] for j in range(self.m) if j != idx],
                    )
                )
            bounds = ctx.run_flows(flows)

            gammas: list[ScoredItem] = []
            with ctx.channel.protocol(PROTOCOL):
                for idx, item in enumerate(depth_items):
                    gammas.append(
                        ScoredItem(
                            ehl=item.ehl,
                            worst=bounds[2 * idx],
                            best=bounds[2 * idx + 1],
                            record=item.record,
                        )
                    )
                if len(gammas) > 1:
                    gammas = self._dedup(gammas, [0] * len(gammas), tested)
                # Both lists are deduplication outputs (T possibly sorted
                # since): SecUpdate's closing pass only needs Γ × T, which
                # it tests itself.
                known = KnownPairs()
                known.distinct([t_item.ehl for t_item in t_list])
                known.distinct([g_item.ehl for g_item in gammas])
                t_list = sec_update(
                    ctx,
                    t_list,
                    gammas,
                    self.own_keypair,
                    eliminate=self.config.variant != "full",
                    known=known,
                )

            if self._is_check_depth(depth) and len(t_list) >= self.k:
                t_list = self._sort(t_list)
                if self._halting_check(t_list, depth):
                    self.depth_seconds.append(time.perf_counter() - started)
                    self._notify_depth(depth + 1, len(t_list))
                    self._notify_final(t_list[: self.k], depth + 1)
                    return t_list[: self.k], depth + 1
            self.depth_seconds.append(time.perf_counter() - started)
            self._notify_depth(depth + 1, len(t_list))

        t_list = self._sort(t_list)
        self._notify_final(t_list[: self.k], self._max_depth())
        return t_list[: self.k], self._max_depth()


#: ``QueryConfig(engine=...)`` name -> engine class.
ENGINES = {"eager": EagerEngine, "literal": LiteralEngine}


def build_engine(
    ctx: S1Context,
    own_keypair: PaillierKeypair,
    enc_lists: list[list[EncryptedItem]],
    k: int,
    config: QueryConfig,
    compare_method: str,
    sort_method: str,
):
    """Instantiate the engine the config asks for."""
    cls = ENGINES[config.engine]
    return cls(ctx, own_keypair, enc_lists, k, config, compare_method, sort_method)
