"""Synthetic stand-ins for the paper's evaluation datasets.

The paper evaluates on three UCI Machine Learning Repository datasets plus
one synthetic dataset (Section 11):

===========  ========  ===========  =========================================
dataset      objects   attributes   character
===========  ========  ===========  =========================================
insurance      5 822       13       customer/product counts, small skewed ints
diabetes     101 767       10       hospital visit counts, heavy-tailed
PAMAP        376 416       15       physical-activity sensor readings
synthetic  1 000 000       10       Gaussian
===========  ========  ===========  =========================================

This environment has no network access, so each loader generates a
synthetic relation with the *same schema shape* and a plausible value
distribution (substitution documented in ARCHITECTURE.md, "Protocol
substitutions and declared leakage": NRA behaviour depends
on score distributions and duplicate structure, which the generators
control; absolute row counts are scaled by ``scale`` and every benchmark
prints the scale it ran at).
"""

from __future__ import annotations

from repro.crypto.rng import SecureRandom
from repro.data.synthetic import (
    Relation,
    correlated_relation,
    gaussian_relation,
    uniform_relation,
)
from repro.exceptions import DataError

#: Paper row counts, used to derive scaled sizes.
PAPER_SIZES = {
    "insurance": (5822, 13),
    "diabetes": (101767, 10),
    "PAMAP": (376416, 15),
    "synthetic": (1_000_000, 10),
}


def _scaled(n: int, scale: float) -> int:
    if not 0 < scale <= 1:
        raise DataError("scale must be in (0, 1]")
    return max(8, int(round(n * scale)))


def insurance(scale: float = 1.0, seed: int = 1) -> Relation:
    """The CoIL/insurance benchmark stand-in: small skewed integers with
    many duplicates (categorical-count columns)."""
    n, m = PAPER_SIZES["insurance"]
    n = _scaled(n, scale)
    rng = SecureRandom(("insurance", seed).__repr__().encode())
    rows = []
    for _ in range(n):
        row = []
        for a in range(m):
            # Zipf-ish counts in [0, 9] with attribute-dependent skew.
            r = rng.randint_below(1 << 20) / (1 << 20)
            value = int(10 * (r ** (1.5 + 0.1 * a)))
            row.append(min(value, 9))
        rows.append(row)
    return Relation(name="insurance", rows=rows)


def diabetes(scale: float = 1.0, seed: int = 2) -> Relation:
    """Hospital readmission stand-in: heavy-tailed visit/medication
    counts — a mix of near-constant and widely-spread columns."""
    n, m = PAPER_SIZES["diabetes"]
    n = _scaled(n, scale)
    rng = SecureRandom(("diabetes", seed).__repr__().encode())
    rows = []
    for _ in range(n):
        row = []
        for a in range(m):
            r = rng.randint_below(1 << 20) / (1 << 20)
            if a % 3 == 0:
                value = int(120 * r * r)          # lab procedures etc.
            elif a % 3 == 1:
                value = int(25 * r ** 3)          # medication counts
            else:
                value = int(10 * r)               # visit counts
            row.append(value)
        rows.append(row)
    return Relation(name="diabetes", rows=rows)


def pamap(scale: float = 1.0, seed: int = 3) -> Relation:
    """Physical-activity-monitoring stand-in: correlated sensor channels
    (heart rate / accelerometers move together within an activity)."""
    n, m = PAPER_SIZES["PAMAP"]
    n = _scaled(n, scale)
    base = correlated_relation(
        n, m, seed=seed, correlation=0.7, max_value=500, name="PAMAP"
    )
    return base


def synthetic_1m(scale: float = 1.0, seed: int = 4) -> Relation:
    """The paper's 1M-row Gaussian synthetic dataset."""
    n, m = PAPER_SIZES["synthetic"]
    n = _scaled(n, scale)
    return gaussian_relation(n, m, seed=seed, name="synthetic")


def paper_datasets(scale: float, seed: int = 0) -> list[Relation]:
    """All four evaluation datasets at a common scale (bench helper)."""
    return [
        insurance(scale, seed + 1),
        diabetes(scale, seed + 2),
        pamap(scale, seed + 3),
        synthetic_1m(scale, seed + 4),
    ]
