"""The encrypted relation ``ER`` produced by ``Enc`` (Algorithm 2).

``ER`` is a set of per-attribute sorted lists whose entries are
``E(I^d) = ⟨EHL(o^d), Enc(x^d), Enc(o^d)⟩`` — the encrypted-hash-list of
the object id, the Paillier-encrypted local score, and the encrypted
record id that lets the client decrypt the winners.  Lists are stored
under their *permuted* names ``P_K(i)``, so an S1 holding ``ER`` learns
only the relation size and attribute count (Theorem 6.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.exceptions import QueryError
from repro.structures.items import EncryptedItem


@dataclass
class EncryptedRelation:
    """``ER`` — what the data owner uploads to S1."""

    lists: dict[int, list[EncryptedItem]]
    """Permuted list name -> entries in descending local-score order."""

    n_objects: int
    n_attributes: int
    ehl_variant: str

    version: int = 0
    """Monotonic mutation counter.  ``Enc`` emits version 0; every
    insert/update/delete through :class:`~repro.server.mutations.MutableRelation`
    produces a successor relation with ``version + 1``.  Folded into
    :meth:`relation_id`, so every mutation re-keys the process-wide
    relation store and the query cache — stale consumers miss rather
    than alias."""

    _relation_id: str | None = field(default=None, repr=False, compare=False)

    def relation_id(self) -> str:
        """A stable fingerprint identifying this encrypted relation.

        Keys everything S1-side that depends on *content*: the result
        cache and the relation store query-worker pools bind to.  (Not
        the S2 daemon: it holds key material, registered under an id of
        the key alone.)  Derived from
        the shape, the mutation :attr:`version` and one ciphertext per
        list — encryption randomness makes that distinguishing — so the
        same ``ER`` object, pickled copies of it, and re-loads of it all
        agree, while any two versions of one relation never collide.
        """
        if self._relation_id is None:
            digest = hashlib.sha256(b"repro-relation:")
            digest.update(
                f"{self.n_objects}:{self.n_attributes}:"
                f"{self.ehl_variant}:v{self.version}".encode()
            )
            for name in sorted(self.lists):
                entries = self.lists[name]
                digest.update(name.to_bytes(8, "big", signed=True))
                if entries:
                    digest.update(entries[0].score.to_bytes())
            self._relation_id = digest.hexdigest()[:32]
        return self._relation_id

    def list_for(self, permuted_name: int) -> list[EncryptedItem]:
        """Sorted list stored under a permuted name."""
        if permuted_name not in self.lists:
            raise QueryError(f"no list named {permuted_name}")
        return self.lists[permuted_name]

    def serialized_size(self) -> int:
        """Total size of ``ER`` in bytes (Fig. 7b / 8b series)."""
        return sum(
            item.serialized_size() for lst in self.lists.values() for item in lst
        )

    def size_mb(self) -> float:
        """Total size in megabytes."""
        return self.serialized_size() / 1_000_000
