"""Keyed pseudo-random permutations over small integer domains.

``Token`` (Section 7) permutes the *attribute indices* of the relation with
a PRP ``P_K`` so that the query token reveals only permuted list names to
the data cloud.  Domains here are tiny (the number of attributes, or the
number of sorted lists), so :class:`Prp` is a keyed Fisher–Yates-style
ranking: sort the domain by PRF value, which yields a permutation
computationally indistinguishable from uniform for a PRF, for any domain
size.
"""

from __future__ import annotations

from repro.crypto.prf import Prf


class Prp:
    """A pseudo-random permutation of ``range(domain_size)``.

    >>> p = Prp(b"k" * 32, 5)
    >>> sorted(p.forward(i) for i in range(5))
    [0, 1, 2, 3, 4]
    >>> all(p.inverse(p.forward(i)) == i for i in range(5))
    True
    """

    def __init__(self, key: bytes, domain_size: int):
        if domain_size < 1:
            raise ValueError("domain must be non-empty")
        self.domain_size = domain_size
        self._prf = Prf(key)
        # Rank elements by PRF output; ties broken by the element itself
        # (tie probability is negligible for 256-bit outputs).
        ranked = sorted(
            range(domain_size),
            key=lambda i: (self._prf.to_int(i.to_bytes(8, "big")), i),
        )
        # ranked[j] = element at permuted position j  =>  forward maps
        # element -> its position.
        self._forward = [0] * domain_size
        for position, element in enumerate(ranked):
            self._forward[element] = position
        self._inverse = ranked

    def forward(self, i: int) -> int:
        """``P_K(i)`` — the permuted index of ``i``."""
        return self._forward[i]

    def inverse(self, j: int) -> int:
        """``P_K^{-1}(j)``."""
        return self._inverse[j]
