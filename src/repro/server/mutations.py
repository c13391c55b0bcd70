"""Mutable encrypted relations: insert / update / delete against ``ER``.

The paper's ``Enc`` (Algorithm 2) is a one-shot bulk encryption; this
module grows it into a mutation subsystem.  A :class:`MutableRelation`
wraps a scheme-encrypted relation together with the data owner's
plaintext mirror and maintains the per-attribute sorted lists
*incrementally*:

* the owner knows where each new/old ``(score, object_id)`` key lands in
  every sorted list (binary search over a plaintext order mirror), so a
  mutation splices exactly one position per list;
* only the **touched prefix** of each list — everything at or above the
  splice point — is re-encrypted (EHL re-randomized, score/record
  ciphertexts re-randomized); the untouched suffix is *shared by
  reference* with the predecessor relation.  Re-randomizing the prefix
  hides which single entry moved: S1 sees "the first ``p`` entries of
  list ``P_K(i)`` changed", nothing finer.  That per-list prefix length
  is this layer's declared leakage — the **mutation pattern** ``MP``,
  recorded with the same :class:`~repro.protocols.base.LeakageEvent`
  discipline as the query-side ``QP``/``HD`` events;
* every mutation produces a *successor* :class:`EncryptedRelation` with
  ``version + 1``.  The version is folded into ``relation_id()``, so all
  machinery keyed by relation id (the relation store, the query cache)
  misses cleanly instead of aliasing stale ciphertexts.

Equivalence invariant (pinned by ``tests/test_mutations.py``): after any
interleaving of mutations, the grown relation holds *exactly* the same
plaintext content in the same sorted order as a relation rebuilt from
scratch at the final state with the same object ids — ties break by
``(-score, object_id)`` on both paths.  Since queries depend only on
plaintext content and order (EHL equality is content-based, ciphertext
serialization is fixed-width, protocol randomness comes from the query
context), query transcripts over the two are bit-identical.

Object ids are monotonic and never reused: ``insert`` allocates
``max(existing) + 1``-and-counting, so a delete followed by an insert
can never resurrect an old id with new content.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass

from repro.core.relation import EncryptedRelation
from repro.exceptions import MutationError
from repro.protocols.base import LeakageEvent
from repro.structures.items import EncryptedItem


@dataclass(frozen=True)
class MutationResult:
    """What one applied mutation exposes to the caller.

    ``touched`` is the declared S1-visible effect: for every permuted
    list name, how long the re-encrypted prefix was.  ``leakage_events``
    wraps the same observation as a ``mutation_pattern`` event so audits
    can fold mutations into the query-side leakage ledger.
    """

    op: str
    object_id: int
    version: int
    relation_id: str
    touched: tuple
    """``((permuted_name, prefix_len), ...)`` sorted by list name."""

    leakage_events: tuple
    """:class:`~repro.protocols.base.LeakageEvent` tuple for this op."""


class MutableRelation:
    """An encrypted relation that supports insert / update / delete.

    Construction encrypts ``rows`` exactly like ``scheme.encrypt`` (it
    delegates to it), then keeps the plaintext mirror needed to maintain
    the sorted lists incrementally.  Thread-safe: mutations serialize on
    an internal lock; :attr:`relation` is replaced atomically, so
    concurrent readers always see a complete (possibly slightly stale)
    relation.
    """

    def __init__(self, scheme, rows, object_ids=None):
        relation = scheme.encrypt(rows, object_ids=object_ids)
        if object_ids is None:
            object_ids = list(range(len(rows)))
        self.scheme = scheme
        self._names = scheme.attribute_list_names()
        self._rows = {
            oid: tuple(row) for oid, row in zip(object_ids, rows)
        }
        self._next_oid = max(object_ids) + 1
        self._orders: dict[int, list[tuple[int, int]]] = {}
        for attribute, name in enumerate(self._names):
            self._orders[name] = sorted(
                (-row[attribute], oid) for oid, row in self._rows.items()
            )
        self._insert_order = list(object_ids)
        self._lock = threading.RLock()
        self.relation = relation

    # ------------------------------------------------------------------
    # Pickling (restart persistence: ciphertext randomness is not
    # replayable, so a deployment that wants the same relation id after
    # a restart must reload the pickled relation, not re-encrypt).
    # ------------------------------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Version of the current successor relation."""
        return self.relation.version

    @property
    def n_objects(self) -> int:
        with self._lock:
            return len(self._rows)

    def snapshot(self) -> tuple[list[list[int]], list[int]]:
        """Current plaintext rows + object ids, in object-id order.

        Exactly what rebuilding from scratch needs:
        ``scheme.encrypt(rows, object_ids=oids)`` on another identically
        seeded scheme reproduces this relation's content and order.
        """
        with self._lock:
            oids = sorted(self._rows)
            return [list(self._rows[o]) for o in oids], oids

    def window_rows(self, window: int) -> tuple[list[list[int]], list[int]]:
        """The sliding insert window: the last ``window`` live rows in
        insertion order (deleted rows drop out, updates keep position)."""
        if window < 1:
            raise MutationError("window must be >= 1")
        with self._lock:
            oids = self._insert_order[-window:]
            return [list(self._rows[o]) for o in oids], list(oids)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(self, row) -> MutationResult:
        """Insert a new row; allocates and returns a fresh object id."""
        with self._lock:
            row = self._check_row(row)
            oid = self._next_oid
            self._next_oid += 1
            version = self.relation.version + 1
            rng, factory, pk = self._mutation_crypto(version)
            vector = factory.vector(oid)
            new_lists: dict[int, list[EncryptedItem]] = {}
            touched = []
            for attribute, name in enumerate(self._names):
                order = self._orders[name]
                entries = self.relation.lists[name]
                key = (-row[attribute], oid)
                pos = bisect.bisect_left(order, key)
                order.insert(pos, key)
                *cells, score, record = pk.encrypt_batch(vector + [row[attribute], oid], rng)
                fresh = EncryptedItem(ehl=factory.structure(cells), score=score, record=record)
                new_lists[name] = (
                    self._rerandomized(entries[:pos], rng) + [fresh] + entries[pos:]
                )
                touched.append((name, pos + 1))
            self._rows[oid] = row
            self._insert_order.append(oid)
            return self._commit("insert", oid, version, new_lists, touched, n_delta=1)

    def update(self, object_id: int, row) -> MutationResult:
        """Replace an existing row's scores in place (same object id)."""
        with self._lock:
            old_row = self._rows.get(object_id)
            if old_row is None:
                raise MutationError(f"unknown object id {object_id}")
            row = self._check_row(row)
            version = self.relation.version + 1
            rng, factory, pk = self._mutation_crypto(version)
            vector = factory.vector(object_id)
            new_lists: dict[int, list[EncryptedItem]] = {}
            touched = []
            for attribute, name in enumerate(self._names):
                order = self._orders[name]
                entries = self.relation.lists[name]
                old_key = (-old_row[attribute], object_id)
                pos_old = bisect.bisect_left(order, old_key)
                del order[pos_old]
                work = entries[:pos_old] + entries[pos_old + 1 :]
                new_key = (-row[attribute], object_id)
                pos_new = bisect.bisect_left(order, new_key)
                order.insert(pos_new, new_key)
                *cells, score, record = pk.encrypt_batch(
                    vector + [row[attribute], object_id], rng
                )
                fresh = EncryptedItem(ehl=factory.structure(cells), score=score, record=record)
                assembled = work[:pos_new] + [fresh] + work[pos_new:]
                # Re-encrypt down to wherever the entry left *or* landed,
                # so S1 cannot tell the two positions apart within the
                # prefix (>= pos_new + 1, so the fresh entry is inside).
                prefix_len = max(pos_old, pos_new + 1)
                prefix = self._rerandomized(
                    assembled[:pos_new] + assembled[pos_new + 1 : prefix_len], rng
                )
                new_lists[name] = (
                    prefix[:pos_new] + [fresh] + prefix[pos_new:] + assembled[prefix_len:]
                )
                touched.append((name, prefix_len))
            self._rows[object_id] = row
            return self._commit("update", object_id, version, new_lists, touched,
                                n_delta=0)

    def delete(self, object_id: int) -> MutationResult:
        """Remove a row.  The last remaining row cannot be deleted (the
        scheme has no encrypted representation of an empty relation)."""
        with self._lock:
            row = self._rows.get(object_id)
            if row is None:
                raise MutationError(f"unknown object id {object_id}")
            if len(self._rows) == 1:
                raise MutationError("cannot delete the last object")
            version = self.relation.version + 1
            rng, _factory, _pk = self._mutation_crypto(version)
            new_lists: dict[int, list[EncryptedItem]] = {}
            touched = []
            for attribute, name in enumerate(self._names):
                order = self._orders[name]
                entries = self.relation.lists[name]
                key = (-row[attribute], object_id)
                pos = bisect.bisect_left(order, key)
                del order[pos]
                new_lists[name] = (
                    self._rerandomized(entries[:pos], rng) + entries[pos + 1 :]
                )
                touched.append((name, pos))
            del self._rows[object_id]
            self._insert_order.remove(object_id)
            return self._commit("delete", object_id, version, new_lists, touched,
                                n_delta=-1)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_row(self, row) -> tuple:
        row = tuple(row)
        if len(row) != self.relation.n_attributes:
            raise MutationError(
                f"row has {len(row)} attributes, relation has "
                f"{self.relation.n_attributes}"
            )
        for value in row:
            self.scheme.encoder.check_score(value)
        return row

    def _mutation_crypto(self, version: int):
        """Fresh randomness for one mutation.

        ``spawn`` is a pure function of the scheme key and the label, so
        drawing mutation randomness never perturbs the encryption or
        query streams — a load-bearing property for the
        mutate-vs-rebuild transcript equivalence.
        """
        rng = self.scheme._rng.spawn(f"mutate-v{version}")
        return rng, self.scheme._ehl_factory(rng), self.scheme.public_key

    @staticmethod
    def _rerandomized(entries: list[EncryptedItem], rng) -> list[EncryptedItem]:
        """Fresh-looking copies of a touched prefix: every ciphertext of
        every entry rerandomized as one batch."""
        if not entries:
            return []
        flat = []
        for entry in entries:
            flat.extend(entry.ehl.cells)
            flat.append(entry.score)
            if entry.record is not None:
                flat.append(entry.record)
        fresh = iter(entries[0].score.public_key.rerandomize_batch(flat, rng))
        return [
            EncryptedItem(
                ehl=type(entry.ehl)([next(fresh) for _ in entry.ehl.cells]),
                score=next(fresh),
                record=next(fresh) if entry.record is not None else None,
            )
            for entry in entries
        ]

    def _commit(self, op, object_id, version, new_lists, touched,
                n_delta) -> MutationResult:
        relation = EncryptedRelation(
            lists=new_lists,
            n_objects=self.relation.n_objects + n_delta,
            n_attributes=self.relation.n_attributes,
            ehl_variant=self.relation.ehl_variant,
            version=version,
        )
        self.relation = relation
        touched = tuple(sorted(touched))
        events = (
            LeakageEvent(
                observer="S1",
                protocol="SecMutate",
                kind="mutation_pattern",
                payload=(op, touched),
            ),
        )
        return MutationResult(
            op=op,
            object_id=object_id,
            version=version,
            relation_id=relation.relation_id(),
            touched=touched,
            leakage_events=events,
        )
