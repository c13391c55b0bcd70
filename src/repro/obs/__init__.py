"""Observability layer: metrics registry, Prometheus exporter, traces.

See ARCHITECTURE.md ("Observability layer") for the metric name table
and how the pieces mount on the server/daemon.
"""

from repro.obs.exporter import HealthState, MetricsExporter
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import JobTrace, Span, trace_phases

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "HealthState",
    "JobTrace",
    "MetricsExporter",
    "MetricsRegistry",
    "Span",
    "trace_phases",
]
