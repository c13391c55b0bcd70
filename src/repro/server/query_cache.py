"""Leakage-aware cross-query result cache (see ARCHITECTURE.md,
"Result cache").

The paper's L1 leakage profile already makes query repeats public: S1
records ``query_pattern`` (token-fingerprint repeats) and
``halting_depth`` for every query (``core/scheme.py``, Section 9's
``QP``/``HD`` leakage functions).  A server that remembers the
*result* of a query and serves the repeat without touching S2 therefore
reveals nothing beyond the declared leakage — S1 already knew the two
queries were identical, and the adversary model lets S1 see (encrypted)
results.  That is what makes this cache "free": a hit costs zero S2
round-trips and zero modexps and leaks exactly the ``query_pattern``
repeat the fresh run would have leaked anyway.

The cache is **per-server**, bounded LRU, keyed by
``(relation_id, token.fingerprint(), config.cache_key())``:

* ``relation_id`` — the relation's content fingerprint, so a mutated
  relation can never serve its predecessor's results (the server drops
  the predecessor's entries on every mutation as well);
* ``token.fingerprint()`` — exactly the query-pattern leakage handle,
  so the key itself introduces no new leakage;
* ``config.cache_key()`` — every knob that can change the result or its
  transcript (engine, variant, halting rule, …); operational knobs such
  as ``shards`` are excluded because they are transcript-invisible (a
  hit reports ``stats.shards == ()`` whatever ``shards`` asked for).

**Prefix serving.**  A second index keyed by the token's
``scan_fingerprint()`` — the token *minus* ``k`` — lets a ``k' < k``
repeat be served as the first ``k'`` items of a cached ``k`` result: the
winners are revealed best-first, and under ties any ``k'`` of the
best-scoring objects is a correct top-``k'``, so the slice is exact.
Both fingerprints derive from the same S1-visible token, so prefix hits
introduce no leakage beyond the declared query pattern either.

An entry is a :class:`CachedResult`, a slim snapshot of a finished
query: its winners, halting depth and config — no leakage log, trace or
channel stats, which a hit replaces anyway.  Its items are copied on the
way in and again on every hit, so callers can never mutate each other's
results — or the cache — through it.  A copy is new item shells, lists
and ciphertext wrappers around the same integers and key objects: no
key, integer or ciphertext is ever cloned deeper than its wrapper.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.paillier import Ciphertext
from repro.obs.metrics import REGISTRY
from repro.structures.items import ScoredItem

# Process-wide cache instruments; the per-instance counters below stay
# the source of `TopKServer.stats` — both tick together, so /metrics
# and stats can only ever differ by which caches they aggregate.
_HITS = REGISTRY.counter("repro_cache_hits_total", "Result-cache hits.")
_MISSES = REGISTRY.counter("repro_cache_misses_total", "Result-cache misses.")
_PREFIX_HITS = REGISTRY.counter(
    "repro_cache_prefix_hits_total",
    "Result-cache hits served as a k' < k prefix slice.",
)
_EVICTIONS = REGISTRY.counter(
    "repro_cache_evictions_total", "Result-cache LRU evictions."
)
_INVALIDATIONS = REGISTRY.counter(
    "repro_cache_invalidations_total",
    "Result-cache entries dropped by invalidation.",
)


@dataclass(frozen=True)
class CachedResult:
    """What a hit is served from: the winners of one finished query
    (best first, still encrypted), its halting depth and its config.

    :attr:`items` is never handed out; :meth:`copy_items` is.  Every copy
    shares the key objects its ciphertexts reference.
    """

    items: list
    halting_depth: int
    config: object

    @classmethod
    def of(cls, result) -> "CachedResult":
        """A snapshot of ``result``."""
        return cls(_copy(result.items), result.halting_depth, result.config)

    def copy_items(self, k: int | None = None) -> list:
        """The caller's own copy of the first ``k`` items (all of them
        when ``k`` is ``None``)."""
        return _copy(self.items[:k])


def _copy(items: list[ScoredItem]) -> list[ScoredItem]:
    return [_copy_scored(item) for item in items]


def _copy_scored(item: ScoredItem) -> ScoredItem:
    """A new :class:`ScoredItem` whose EHL, lists and ciphertexts are new
    objects over the same integers and key objects."""
    return ScoredItem(
        ehl=type(item.ehl)([_wrapper(cell) for cell in item.ehl.cells]),
        worst=_wrapper(item.worst),
        best=_wrapper(item.best),
        list_scores=_wrappers(item.list_scores),
        seen_bits=_wrappers(item.seen_bits),
        record=_wrapper(item.record),
        uid=item.uid,
    )


def _wrapper(ct):
    """A new wrapper around ``ct``'s integer and key (``None`` stays)."""
    if type(ct) is Ciphertext:
        return Ciphertext(ct.value, ct.public_key)
    return copy.copy(ct)


def _wrappers(cts: list | None) -> list | None:
    return None if cts is None else [_wrapper(ct) for ct in cts]


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`QueryCache` (frozen snapshot)."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int
    capacity: int
    prefix_hits: int = 0
    """Subset of ``hits`` that were served as a ``k' < k`` slice."""


class QueryCache:
    """Bounded, thread-safe LRU of :class:`CachedResult` snapshots."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CachedResult] = OrderedDict()
        # scan key -> {stored k -> full cache key}; `_scan_of` is the
        # reverse map so evictions/invalidations can clean the index.
        self._scan_index: dict[tuple, dict[int, tuple]] = {}
        self._scan_of: dict[tuple, tuple[tuple, int]] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._prefix_hits = 0
        self._evictions = 0
        self._invalidations = 0

    @staticmethod
    def key(relation_id: str, fingerprint: str, config) -> tuple:
        """The cache key for one query (see module docstring)."""
        return (relation_id, fingerprint, config.cache_key())

    @staticmethod
    def scan_key(relation_id: str, scan_fingerprint: str, config) -> tuple:
        """The ``k``-independent index key for prefix serving."""
        return (relation_id, scan_fingerprint, config.cache_key())

    def lookup(self, key: tuple, scan_key: tuple | None = None,
               k: int | None = None):
        """Exact-or-prefix lookup: ``(entry, sliced)``.

        Tries ``key`` exactly first; on a miss, when ``scan_key``/``k``
        are given, looks for a stored result of the *same scan* with a
        larger ``k`` (smallest such).  Returns ``(entry, False)`` on an
        exact hit, ``(entry, True)`` when the caller must serve only the
        first ``k`` items, or ``(None, False)``.  The caller takes its
        items through :meth:`CachedResult.copy_items`.  Counts exactly
        one hit or miss per call.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                _HITS.inc()
                sliced = False
            else:
                full_key = None
                if scan_key is not None and k is not None:
                    by_k = self._scan_index.get(scan_key)
                    if by_k:
                        bigger = [k0 for k0 in by_k if k0 > k]
                        if bigger:
                            full_key = by_k[min(bigger)]
                if full_key is None:
                    self._misses += 1
                    _MISSES.inc()
                    return None, False
                entry = self._entries[full_key]
                self._entries.move_to_end(full_key)
                self._hits += 1
                self._prefix_hits += 1
                _HITS.inc()
                _PREFIX_HITS.inc()
                sliced = True
        return entry, sliced

    def put(self, key: tuple, result: CachedResult, scan_key: tuple | None = None,
            k: int | None = None) -> None:
        """Store a snapshot, evicting the LRU tail if full.

        ``scan_key``/``k`` additionally index the entry for prefix
        serving (see module docstring).
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            if scan_key is not None and k is not None:
                self._scan_index.setdefault(scan_key, {})[k] = key
                self._scan_of[key] = (scan_key, k)
            while len(self._entries) > self.capacity:
                victim, _ = self._entries.popitem(last=False)
                self._unindex_locked(victim)
                self._evictions += 1
                _EVICTIONS.inc()

    def _unindex_locked(self, key: tuple) -> None:
        """Drop one entry's prefix-index registration (lock held)."""
        ref = self._scan_of.pop(key, None)
        if ref is None:
            return
        scan_key, k = ref
        by_k = self._scan_index.get(scan_key)
        if by_k is not None and by_k.get(k) == key:
            del by_k[k]
            if not by_k:
                del self._scan_index[scan_key]

    def invalidate_relation(self, relation_id: str) -> int:
        """Drop every entry of one relation (mutation hook)."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == relation_id]
            for k in stale:
                del self._entries[k]
                self._unindex_locked(k)
            self._invalidations += len(stale)
        _INVALIDATIONS.inc(len(stale))
        return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """Frozen snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                capacity=self.capacity,
                prefix_hits=self._prefix_hits,
            )
