"""Dependency-free metrics core: counters, gauges, fixed-bucket
histograms in a process-wide registry.

Instrumentation is **observation only** by construction: instruments
touch their own locks and integers/floats, never protocol state, so
results, rounds, bytes and leakage never depend on them.

The surface mirrors the Prometheus client conventions without the
dependency:

* a :class:`MetricsRegistry` owns named *families*
  (``registry.counter(name, help, labelnames=())``); re-registering the
  same name returns the existing family (so module-level instrument
  definitions can run in any import order), while a name re-registered
  with a different type or label set fails loudly;
* a family with label names hands out children via
  ``family.labels(engine="eager")``; unlabeled families are used
  directly;
* label cardinality is bounded: past :data:`MAX_LABEL_SETS` distinct
  label combinations a family folds further combinations into one
  shared ``overflow="1"`` child instead of growing without bound (and
  never raises from a hot path);
* :meth:`MetricsRegistry.render` emits Prometheus text exposition
  format 0.0.4; :meth:`MetricsRegistry.snapshot` returns a consistent
  point-in-time value map taken under the registry lock.

Histograms use fixed upper-bound buckets; :meth:`Histogram.quantile`
returns the upper bound of the bucket containing the target rank
(``ceil(q * count)``, clamped to at least 1) — exact with respect to the
bucket resolution, pinned by tests.
"""

from __future__ import annotations

import math
import threading

#: Default histogram buckets (seconds): micro-benchmark to multi-minute.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Distinct label combinations a family accepts before folding the rest
#: into one overflow child.
MAX_LABEL_SETS = 64

def _quote_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_quote_label(v)}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depths, in-flight counts)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with exact bucket-resolution quantiles.

    ``buckets`` are the finite upper bounds, ascending; an implicit
    ``+Inf`` bucket catches the rest.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets=DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or bounds[-1] == float("inf"):
            raise ValueError("buckets must be finite, ascending upper bounds")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # [-1] is the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ``+Inf`` last."""
        with self._lock:
            counts = list(self._counts)
        out, running = [], 0
        for bound, count in zip(self.buckets + (float("inf"),), counts):
            running += count
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> float:
        """The upper bound of the bucket holding the ``q``-quantile.

        The target rank is ``ceil(q * count)`` clamped to at least 1;
        with no observations the quantile is 0.0.  Exact with respect to
        the bucket resolution (the true value lies at or below the
        returned bound), pinned by ``tests/test_obs.py``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        cumulative = self.bucket_counts()
        total = cumulative[-1][1]
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        for bound, running in cumulative:
            if running >= rank:
                return bound
        return float("inf")  # unreachable: +Inf bucket holds `total`


class _Family:
    """One named metric family: an unlabeled instrument or a labeled
    map of children, created on first :meth:`labels` use."""

    def __init__(self, name, help_text, kind, labelnames, make):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._make = make
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}
        self._bare = make() if not self.labelnames else None

    def __getattr__(self, attr):
        # An unlabeled family *is* its single instrument: proxy
        # inc/dec/set/observe/value/... so call sites hold the family
        # directly.  Labeled families must go through labels().
        bare = self.__dict__.get("_bare")
        if bare is None:
            raise AttributeError(
                f"metric {self.__dict__.get('name')} is labeled by "
                f"{self.__dict__.get('labelnames')} — use .labels(...)"
            )
        return getattr(bare, attr)

    def labels(self, **labelvalues):
        """The child instrument for one label combination.

        Unknown/missing label names fail loudly (a wiring bug); label
        *cardinality* overflow does not — past :data:`MAX_LABEL_SETS`
        combinations every new combination shares one overflow child, so
        an unbounded label value (a hostile relation id, say) can never
        blow up memory or crash a hot path.
        """
        if tuple(sorted(labelvalues)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= MAX_LABEL_SETS:
                    key = ("__overflow__",) * len(self.labelnames)
                    child = self._children.get(key)
                    if child is None:
                        child = self._children[key] = self._make()
                else:
                    child = self._children[key] = self._make()
            return child

    def _series(self):
        """``(label_pairs, instrument)`` rows, sorted by label values."""
        if self._bare is not None:
            return [((), self._bare)]
        with self._lock:
            items = sorted(self._children.items())
        return [
            (tuple(zip(self.labelnames, key)), child) for key, child in items
        ]


class MetricsRegistry:
    """A process- or instance-scoped collection of metric families."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, name, help_text, kind, labelnames, make) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name} already registered as {family.kind} "
                        f"with labels {family.labelnames}"
                    )
                return family
            family = _Family(name, help_text, kind, labelnames, make)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str, labelnames=()) -> _Family:
        return self._register(name, help_text, "counter", labelnames, Counter)

    def gauge(self, name: str, help_text: str, labelnames=()) -> _Family:
        return self._register(name, help_text, "gauge", labelnames, Gauge)

    def histogram(
        self, name: str, help_text: str, labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> _Family:
        return self._register(
            name, help_text, "histogram", labelnames,
            lambda: Histogram(buckets),
        )

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> dict:
        """A consistent point-in-time map ``series-name -> value``.

        Histograms contribute ``<name>_count`` and ``<name>_sum``
        entries.  Taken under the registry lock so concurrent
        registrations cannot tear the family list; each instrument's
        value is read under its own lock.
        """
        with self._lock:
            families = list(self._families.values())
        out = {}
        for family in families:
            for labels, inst in family._series():
                suffix = _label_suffix(labels)
                if family.kind == "histogram":
                    out[f"{family.name}_count{suffix}"] = inst.count
                    out[f"{family.name}_sum{suffix}"] = inst.sum
                else:
                    out[f"{family.name}{suffix}"] = inst.value
        return out

    def render(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        lines = []
        for family in families:
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, inst in family._series():
                if family.kind == "histogram":
                    for bound, running in inst.bucket_counts():
                        le = labels + (("le", _format_value(bound)),)
                        lines.append(
                            f"{family.name}_bucket{_label_suffix(le)} {running}"
                        )
                    suffix = _label_suffix(labels)
                    lines.append(
                        f"{family.name}_sum{suffix} {_format_value(inst.sum)}"
                    )
                    lines.append(f"{family.name}_count{suffix} {inst.count}")
                else:
                    lines.append(
                        f"{family.name}{_label_suffix(labels)} "
                        f"{_format_value(inst.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""


#: The process-wide registry module-level instrumentation records into.
REGISTRY = MetricsRegistry()
