"""Experiment harness regenerating the paper's tables and figures.

:mod:`repro.bench.harness` provides the shared machinery — cached
scheme/relation construction, single-query measurement, and paper-style
series printers.  The legacy scripts under ``benchmarks/`` define one
runner per table/figure on top of it and append their series to
``benchmarks/results/``.
"""

from repro.bench.harness import (
    BenchContext,
    QueryMetrics,
    SeriesReport,
    measure_query,
)

__all__ = ["BenchContext", "QueryMetrics", "SeriesReport", "measure_query"]
