"""Seeded inputs for the four workloads.

The program receives only what this module generates: a plaintext
relation, a stream of query tokens and (for ``reuse_mutate``) mutations.
Everything is a pure function of ``(workload, seed, scale)``.

A secure query's cost is close to linear in its *scan work* — the size of
the candidate list summed over the depths NRA scans before it halts — and
the scan work a relation's queries need varies a lot from seed to seed.
So tokens are *stratified*: every workload fixes a profile of ``(config,
m, work)`` slots, and the seed decides which attributes, weights and ``k``
fill each slot, using a plaintext model of the scan.  Two seeds then run
different data and different queries that cost about the same, which is
what lets a later change be judged on a seed it was not developed on.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass, field

from repro.core.params import SystemParams
from repro.data import correlated_relation

#: Query configurations by name (keyword arguments of ``QueryConfig``).
CONFIGS = {
    "eager/elim": {},
    "eager/full": {"variant": "full"},
    "eager/batch": {"variant": "batch", "batch_p": 4},
    "literal/elim": {"engine": "literal"},
    "literal/full": {"engine": "literal", "variant": "full"},
}

WORKLOADS = ("fresh_inproc", "fresh_tcp", "variants_tcp_c2", "reuse_mutate")

MAX_WEIGHT = 6


@dataclass(frozen=True)
class Scale:
    """How big the run is: the paper's key size, or a smoke-test size."""

    name: str
    params: str
    n_objects: int
    n_attributes: int
    correlation: float
    fresh_blocks: int
    variant_blocks: int
    windows: int
    probe_batch: int

    def system_params(self) -> SystemParams:
        return getattr(SystemParams, self.params)()


FULL = Scale("full", "paper", n_objects=256, n_attributes=6, correlation=0.95,
             fresh_blocks=16, variant_blocks=24, windows=64, probe_batch=256)
TINY = Scale("tiny", "tiny", n_objects=16, n_attributes=6, correlation=0.95,
             fresh_blocks=3, variant_blocks=3, windows=8, probe_batch=16)


@dataclass(frozen=True)
class Slot:
    """What one position of a workload's token stream must look like.

    ``k`` is left to the seed (any of ``ks``): a token's scan deepens
    with ``k``, and that freedom is what lets every seed's relation offer
    every amount of work the profile asks for.
    """

    config: str
    m: int
    work: int
    ks: tuple = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class TokenSpec:
    attributes: tuple
    weights: tuple
    k: int
    config: str
    predicted_work: int
    prefix_of: int | None = None
    """Index of the hot token whose cached result serves this one as a
    ``k' < k`` prefix (``reuse_mutate`` only)."""


@dataclass(frozen=True)
class Op:
    kind: str  # "query" | "insert" | "update" | "delete"
    token: int = -1
    object_id: int = -1
    row: tuple = ()


@dataclass
class WorkloadSpec:
    name: str
    transport: str  # "inprocess" | "tcp"
    clients: int
    mutable: bool
    rows: list
    tokens: list
    ops: list
    scale: Scale
    sizes: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Plaintext scan model (sizing aid, not the correctness gate).
# ----------------------------------------------------------------------


def full_work(m: int, depth: int) -> int:
    """Scan work of the ``full`` variant: nothing is eliminated, so the
    candidate list grows by ``m`` per depth whatever the data."""
    return m * depth * (depth + 1) // 2


class ScanPredictor:
    """Plaintext model of where the secure engines halt, and after how
    much work.

    ``stale_best=False`` is textbook NRA (the eager engine); ``True``
    models the literal engine, where a candidate's upper bound is only
    refreshed at depths where the object resurfaces.  ``check_every``
    spaces the halting checks like the batch variant does.
    """

    def __init__(self, rows, object_ids):
        self.n = len(rows)
        # A positive weight never reorders a column, so sort each once.
        self.columns = [
            sorted(((row[a], oid) for row, oid in zip(rows, object_ids)),
                   key=lambda entry: (-entry[0], entry[1]))
            for a in range(len(rows[0]))
        ]

    def scan(self, attributes, weights, k, stale_best=False, check_every=1,
             limit: int | None = None) -> tuple[int, int]:
        """``(halting depth, scan work)``: the 1-based depth, and the
        number of distinct objects seen so far summed over the scanned
        depths.  Depth ``limit + 1`` means the scan goes past ``limit``
        (callers looking for cheap queries stop paying there)."""
        n, m = self.n, len(attributes)
        limit = n if limit is None else min(limit, n)
        columns = [self.columns[a] for a in attributes]
        seen: dict[int, list] = {}
        worst: dict[int, int] = {}
        stale: dict[int, int] = {}
        work = 0

        def upper(oid, bottoms):
            return sum(b if s is None else s for s, b in zip(seen[oid], bottoms))

        for d in range(limit):
            bottoms = []
            touched = []
            for j, (column, weight) in enumerate(zip(columns, weights)):
                score, oid = column[d]
                score *= weight
                bottoms.append(score)
                seen.setdefault(oid, [None] * m)[j] = score
                worst[oid] = worst.get(oid, 0) + score
                touched.append(oid)
            work += len(seen)
            if stale_best:
                for oid in touched:
                    stale[oid] = upper(oid, bottoms)
            last = d == n - 1
            if ((d + 1) % check_every and not last) or len(seen) < k:
                continue
            if last:
                return n, work
            ranked = sorted(worst, key=lambda oid: (-worst[oid], oid))
            w_k = worst[ranked[k - 1]]
            if sum(bottoms) > w_k:
                continue
            if all(
                (stale[oid] if stale_best else upper(oid, bottoms)) <= w_k
                for oid in ranked[k:]
            ):
                return d + 1, work
        return limit + 1, work

    def scan_for(self, attributes, weights, k, config: str, limit=None):
        """``(halting depth, scan work)`` under a named configuration."""
        options = CONFIGS[config]
        depth, work = self.scan(
            attributes, weights, k,
            stale_best=options.get("engine") == "literal",
            check_every=options["batch_p"] if options.get("variant") == "batch" else 1,
            limit=limit,
        )
        if options.get("variant") == "full":
            work = full_work(len(attributes), depth)
        return depth, work


#: Candidates examined per value of ``m`` before open slots settle for
#: nearby work; bounds token selection to about a second.
MAX_CANDIDATES = 1200
#: How far a token's predicted work may sit from its slot's and still
#: count as filling it exactly.
WORK_TOLERANCE = 1
#: No slot of any profile scans deeper than this; the model stops there.
DEPTH_LIMIT = 14


def fill_slots(rows, slots, rng: random.Random) -> list[TokenSpec]:
    """One token per slot, pairwise distinct in ``(attributes, weights)``.

    Candidates are visited in seeded random order; a candidate takes an
    open slot whose work it is predicted to hit (within
    ``WORK_TOLERANCE``) under one of the slot's ``k`` values.  A relation
    does not offer every amount of work, so slots still open after that
    take a nearby one, chosen so the running sum of predicted work tracks
    the profile's.
    """
    predictor = ScanPredictor(rows, list(range(len(rows))))
    n_attributes = len(rows[0])
    chosen: list[TokenSpec | None] = [None] * len(slots)

    for m in sorted({slot.m for slot in slots}):
        # (config, k) -> indices of the slots that accept that pair.
        wanted: dict[tuple, list[int]] = {}
        for index, slot in enumerate(slots):
            if slot.m == m:
                for k in slot.ks:
                    wanted.setdefault((slot.config, k), []).append(index)
        spare: dict[tuple, list] = {key: [] for key in wanted}
        candidates = [
            (attrs, weights)
            for attrs in itertools.combinations(range(n_attributes), m)
            for weights in itertools.product(range(1, MAX_WEIGHT + 1), repeat=m)
        ]
        rng.shuffle(candidates)
        keys = sorted(wanted)
        for turn, (attrs, weights) in enumerate(candidates[:MAX_CANDIDATES]):
            if not keys:
                break
            # Rotate the starting key so no config or k hoards candidates.
            for key in keys[turn % len(keys):] + keys[:turn % len(keys)]:
                config, k = key
                depth, work = predictor.scan_for(attrs, weights, k, config, DEPTH_LIMIT)
                if depth > DEPTH_LIMIT:
                    continue
                fits = [i for i in wanted[key] if chosen[i] is None
                        and abs(slots[i].work - work) <= WORK_TOLERANCE]
                if fits:
                    best = min(fits, key=lambda i: (abs(slots[i].work - work), i))
                    chosen[best] = TokenSpec(attrs, weights, k, config, work)
                    # Keys whose slots are all taken stop costing scans.
                    keys = [key for key in keys
                            if any(chosen[i] is None for i in wanted[key])]
                    break
                spare[key].append((work, attrs, weights))
        used = {(t.attributes, t.weights) for t in chosen if t is not None}
        carry: dict[str, int] = {}
        for index, slot in enumerate(slots):
            if slot.m != m or chosen[index] is not None:
                continue
            pool = [
                (work, k, attrs, weights)
                for k in slot.ks
                for work, attrs, weights in spare[(slot.config, k)]
                if (attrs, weights) not in used
            ]
            if not pool:
                raise ValueError(f"no candidate left for slot {slot}")
            nearest = min(abs(entry[0] - slot.work) for entry in pool)
            owed = carry.get(slot.config, 0) - slot.work
            work, k, attrs, weights = min(
                (entry for entry in pool if abs(entry[0] - slot.work) <= nearest + 2),
                key=lambda entry: (abs(owed + entry[0]), entry),
            )
            carry[slot.config] = owed + work
            chosen[index] = TokenSpec(attrs, weights, k, slot.config, work)
            used.add((attrs, weights))
    return chosen


# ----------------------------------------------------------------------
# Slot profiles.  The patterns are constants of the benchmark; only the
# tokens that fill them depend on the seed.
# ----------------------------------------------------------------------

# Every block has three cost classes — light, middle, heavy — sized so
# that a run's median falls inside the middle class and its p80 inside the
# heavy one: a percentile that sits where costs are dense barely moves
# when one query more or less fits into the run, one that sits in a gap
# between classes jumps by the width of the gap.

# A unit of work costs about 5.2 ms with two lists and 7.0 ms with three,
# so (2, 34) ~ (3, 26) ~ 180 ms and (2, 44) ~ (3, 34) ~ 235 ms.
_FRESH_BLOCK = [
    Slot("eager/elim", m=m, work=work)
    for m, work in ((2, 34), (3, 14), (2, 44), (3, 26), (2, 20),
                    (3, 34), (2, 34), (3, 33), (2, 26), (3, 26))
]

# The full variants' work is a function of depth alone (20, 30, 42 at
# depths 4, 5, 6 with two lists); the batch grid only halts on multiples
# of 4, so its targets sit at depths 4 and 8.  With two clients the two
# light slots cost ~210 ms, the three middle ones ~330 ms and the three
# heavy ones ~520 ms, so the median (4th-5th dearest of 8) and the p80
# (6th-7th) both sit inside a class.  The literal engine's halting depths
# are lumpy per relation (some seeds offer no depth-6 scan at all), so its
# slots are the ones most often filled with the nearest work on offer.
_VARIANT_BLOCK = [
    Slot("eager/full", m=2, work=full_work(2, 4)),    # light
    Slot("literal/elim", m=2, work=27),               # middle
    Slot("eager/batch", m=3, work=17),                # light
    Slot("literal/full", m=2, work=full_work(2, 5)),  # middle
    Slot("eager/full", m=2, work=full_work(2, 6)),    # heavy
    Slot("literal/elim", m=3, work=26),               # heavy
    Slot("eager/batch", m=2, work=50),                # middle
    Slot("literal/full", m=2, work=full_work(2, 6)),  # heavy
]

#: The hot set of ``reuse_mutate``: nine base tokens and three ``k'=1``
#: prefixes of them, listed in Zipf-rank order.  Every base token asks for
#: about the same cost (a unit of work is dearer with three lists than with
#: two), so a miss costs the same whichever token the seed made hottest.
_HOT_BASE = [
    Slot("eager/elim", m=2 + i % 2, work=(34, 26)[i % 2], ks=(2, 3, 4, 5)) for i in range(9)
]
_HOT_RANKS = ("b0", "b1", "p0", "b2", "b3", "p1", "b4", "b5", "p3", "b6", "b7", "b8")
_ZIPF_S = 1.1
_WINDOW_QUERIES = 7
_WINDOW_MISSES = 4
_MUTATION_CYCLE = ("insert", "update", "insert", "delete")


def _relation(seed: int, scale: Scale):
    return correlated_relation(
        n_objects=scale.n_objects, n_attributes=scale.n_attributes,
        correlation=scale.correlation, seed=seed,
    ).rows


def _fresh(name: str, transport: str, seed: int, scale: Scale) -> WorkloadSpec:
    # Both fresh workloads draw from the same stream, so fresh_tcp runs
    # exactly the tokens of fresh_inproc.
    rng = random.Random(f"fresh:{seed}")
    rows = _relation(seed, scale)
    tokens = fill_slots(rows, _FRESH_BLOCK * scale.fresh_blocks, rng)
    ops = [Op("query", token=i) for i in range(len(tokens))]
    return WorkloadSpec(name, transport, clients=1, mutable=False, rows=rows,
                        tokens=tokens, ops=ops, scale=scale)


def _variants(seed: int, scale: Scale) -> WorkloadSpec:
    rng = random.Random(f"variants:{seed}")
    rows = _relation(seed, scale)
    tokens = fill_slots(rows, _VARIANT_BLOCK * scale.variant_blocks, rng)
    ops = [Op("query", token=i) for i in range(len(tokens))]
    return WorkloadSpec("variants_tcp_c2", "tcp", clients=2, mutable=False, rows=rows,
                        tokens=tokens, ops=ops, scale=scale)


def _window(rng: random.Random, hot: list[TokenSpec], weights) -> list[int]:
    """Seven Zipf draws over the hot set with exactly four cache misses,
    none of them a ``k'=1`` prefix token.

    A mutation empties the cache, so hits happen only inside a window;
    conditioning on the miss count keeps the share of real protocol runs
    the same for every seed while the seed still picks which tokens
    repeat.  A prefix token is only ever drawn after its base, so it
    always exercises the prefix-hit path (its own scan would cost an
    amount no slot controls).
    """
    while True:
        draws = rng.choices(range(len(hot)), weights=weights, k=_WINDOW_QUERIES)
        cached: dict[tuple, set] = {}
        misses = 0
        for index in draws:
            token = hot[index]
            ks = cached.setdefault((token.attributes, token.weights), set())
            if not any(k0 >= token.k for k0 in ks):
                if token.prefix_of is not None:
                    break
                misses += 1
                ks.add(token.k)
        else:
            if misses == _WINDOW_MISSES:
                return draws


#: Mutations stay out of the first ``_GUARD`` positions of every sorted
#: list: the hot tokens scan a handful of depths, so every window's
#: queries keep the work their slots asked for, and what a mutation
#: costs is the prefix it re-encrypts.
_GUARD = 32


def _reuse(seed: int, scale: Scale) -> WorkloadSpec:
    rng = random.Random(f"reuse:{seed}")
    rows = _relation(seed, scale)
    base = fill_slots(rows, _HOT_BASE, rng)
    hot = []
    for rank in _HOT_RANKS:
        index = int(rank[1:])
        if rank[0] == "b":
            hot.append(base[index])
        else:
            source = base[index]
            hot.append(dataclasses.replace(
                source, k=1, prefix_of=_HOT_RANKS.index(f"b{index}")))
    zipf = [1.0 / (rank + 1) ** _ZIPF_S for rank in range(len(hot))]

    guard = min(_GUARD, len(rows) // 2)
    columns = ScanPredictor(rows, list(range(len(rows)))).columns
    ceilings = [column[guard - 1][0] for column in columns]
    protected = {oid for column in columns for _, oid in column[:guard]}
    # Fresh rows come from the relation's own generator; those that would
    # land inside the guarded region are passed over.
    generated = correlated_relation(
        n_objects=4 * scale.windows, n_attributes=scale.n_attributes,
        correlation=scale.correlation, seed=seed + 1_000_003,
    ).rows
    below = [row for row in generated
             if all(value < ceiling for value, ceiling in zip(row, ceilings))]
    # A smoke-test relation is too small to keep a guarded region.
    spare = iter(below if len(below) >= scale.windows else generated)
    live = [oid for oid in range(len(rows)) if oid not in protected]
    next_id = len(rows)
    ops: list[Op] = []
    for window in range(scale.windows):
        ops += [Op("query", token=i) for i in _window(rng, hot, zipf)]
        kind = _MUTATION_CYCLE[window % len(_MUTATION_CYCLE)]
        if kind == "insert":
            ops.append(Op("insert", object_id=next_id, row=tuple(next(spare))))
            live.append(next_id)
            next_id += 1
        elif kind == "update":
            ops.append(Op("update", object_id=rng.choice(live), row=tuple(next(spare))))
        else:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(Op("delete", object_id=victim))
    return WorkloadSpec("reuse_mutate", "inprocess", clients=1, mutable=True, rows=rows,
                        tokens=hot, ops=ops, scale=scale)


def build(name: str, seed: int, scale: Scale) -> WorkloadSpec:
    """The inputs of one workload run."""
    if name == "fresh_inproc":
        spec = _fresh(name, "inprocess", seed, scale)
    elif name == "fresh_tcp":
        spec = _fresh(name, "tcp", seed, scale)
    elif name == "variants_tcp_c2":
        spec = _variants(seed, scale)
    elif name == "reuse_mutate":
        spec = _reuse(seed, scale)
    else:
        raise ValueError(f"unknown workload: {name!r}")
    spec.sizes = {
        "n_objects": scale.n_objects,
        "n_attributes": scale.n_attributes,
        "key_bits": scale.system_params().key_bits,
        "tokens": len(spec.tokens),
        "ops": len(spec.ops),
        "clients": spec.clients,
    }
    return spec


# ----------------------------------------------------------------------
# Correctness oracle helpers (exact aggregate scores over a snapshot).
# ----------------------------------------------------------------------


def exact_scores(snapshot: dict, token: TokenSpec) -> dict:
    """``object_id -> exact weighted aggregate`` over ``{oid: row}``."""
    return {
        oid: sum(w * row[a] for a, w in zip(token.attributes, token.weights))
        for oid, row in snapshot.items()
    }


def is_topk(snapshot: dict, token: TokenSpec, object_ids, k: int) -> bool:
    """Whether ``object_ids`` is a correct top-``k`` set, ties by score."""
    ids = list(object_ids)
    if len(ids) != min(k, len(snapshot)) or len(set(ids)) != len(ids):
        return False
    scores = exact_scores(snapshot, token)
    if any(oid not in scores for oid in ids):
        return False
    rest = [s for oid, s in scores.items() if oid not in set(ids)]
    return not rest or min(scores[oid] for oid in ids) >= max(rest)
