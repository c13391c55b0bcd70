"""Plaintext top-k algorithms (Section 3.4) and baselines.

* :mod:`repro.nra.items` — sorted-access data model (``I_i^d = (o, x)``).
* :mod:`repro.nra.nra` — Fagin–Lotem–Naor No-Random-Access algorithm
  (Algorithm 1), the algorithm ``SecQuery`` executes obliviously.  Used as
  the differential-testing oracle for the secure engine.
* :mod:`repro.nra.naive` — full-scan top-k, the ground-truth oracle.
"""

from repro.nra.items import DataItem, SortedLists
from repro.nra.nra import NraResult, nra_topk
from repro.nra.naive import naive_topk

__all__ = [
    "DataItem",
    "SortedLists",
    "NraResult",
    "nra_topk",
    "naive_topk",
]
