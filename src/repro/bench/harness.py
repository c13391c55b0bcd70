"""Shared benchmark machinery.

Benchmarks run at laptop scale: pure-Python big-int crypto over
scaled-down datasets.  Absolute times are therefore not comparable to
the paper's C++/24-core numbers, but every *series shape* — who wins,
how costs scale with ``k``, ``m``, ``p``, ``n`` — is, and that is what
the series under ``benchmarks/results/`` record.  Every report prints
the dataset scale used so the substitution stays visible.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field

from repro.core.params import SystemParams
from repro.core.results import QueryConfig
from repro.core.scheme import SecTopK
from repro.data.synthetic import Relation
from repro.net.channel import LinkModel

#: Where bench modules append their measured series.
RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


@dataclass
class QueryMetrics:
    """Everything a query run yields for the figures."""

    dataset: str
    variant: str
    m: int
    k: int
    time_per_depth: float
    halting_depth: int
    total_seconds: float
    bytes_total: int
    bytes_per_depth: float
    rounds: int
    latency_modeled: float

    def row(self) -> list:
        return [
            self.dataset,
            self.variant,
            self.m,
            self.k,
            f"{self.time_per_depth * 1000:.1f}",
            self.halting_depth,
            f"{self.bytes_per_depth / 1000:.1f}",
            f"{self.bytes_total / 1_000_000:.3f}",
            f"{self.latency_modeled:.3f}",
        ]

    HEADER = [
        "dataset",
        "variant",
        "m",
        "k",
        "ms/depth",
        "depth",
        "KB/depth",
        "MB total",
        "latency(s)@50Mbps",
    ]


class BenchContext:
    """Caches schemes and encrypted relations across benchmark cases.

    Encrypting a relation dominates setup time, so each (params, dataset)
    pair is encrypted once per session.
    """

    def __init__(self, params: SystemParams | None = None, seed: int = 2024):
        self.params = params or SystemParams.tiny()
        self.seed = seed
        self._schemes: dict[str, SecTopK] = {}
        self._relations: dict[str, object] = {}

    def scheme_for(self, relation: Relation) -> SecTopK:
        if relation.name not in self._schemes:
            self._schemes[relation.name] = SecTopK(self.params, seed=self.seed)
        return self._schemes[relation.name]

    def encrypted(self, relation: Relation):
        if relation.name not in self._relations:
            scheme = self.scheme_for(relation)
            self._relations[relation.name] = scheme.encrypt(relation.rows)
        return self._relations[relation.name]


def measure_query(
    bench_ctx: BenchContext,
    relation: Relation,
    attributes: list[int],
    k: int,
    config: QueryConfig,
    variant_label: str | None = None,
) -> QueryMetrics:
    """Run one secure query and collect the figure metrics."""
    scheme = bench_ctx.scheme_for(relation)
    encrypted = bench_ctx.encrypted(relation)
    token = scheme.token(attributes, k)
    started = time.perf_counter()
    result = scheme.query(encrypted, token, config)
    elapsed = time.perf_counter() - started
    depths = max(result.halting_depth, 1)
    stats = result.channel_stats
    return QueryMetrics(
        dataset=relation.name,
        variant=variant_label or config.variant,
        m=len(attributes),
        k=k,
        time_per_depth=elapsed / depths,
        halting_depth=result.halting_depth,
        total_seconds=elapsed,
        bytes_total=stats.total_bytes,
        bytes_per_depth=stats.total_bytes / depths,
        rounds=stats.rounds,
        latency_modeled=LinkModel(bandwidth_mbps=50).latency_seconds(stats),
    )


def oracle_halting_depth(relation: Relation, attributes: list[int], k: int) -> int:
    """True NRA halting depth for a query (plaintext, cheap).

    The eager engine halts at exactly this depth when uncapped, so
    benches that cap the scan use it to extrapolate full-query totals.
    """
    from repro.nra import SortedLists, nra_topk

    return nra_topk(
        SortedLists(relation.rows, attributes), k, halting="paper"
    ).halting_depth


@dataclass
class SeriesReport:
    """A paper-style series: header + rows, printed and persisted."""

    title: str
    header: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, row: list) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [
            max(len(str(self.header[i])), *(len(str(r[i])) for r in self.rows))
            if self.rows
            else len(str(self.header[i]))
            for i in range(len(self.header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.header, widths)))
        for row in self.rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def emit(self, filename: str) -> str:
        """Print the series and append it to ``benchmarks/results/``."""
        text = self.render()
        print("\n" + text)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / filename
        with open(path, "a") as handle:
            handle.write(text + "\n\n")
        return text
