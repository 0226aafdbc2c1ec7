"""Prometheus-model metric primitives.

The paper's Accelerators Registry consumes Device Manager metrics "from a
Prometheus service"; this module reproduces the relevant slice of the
Prometheus data model: counters, gauges and histograms with label sets,
collected in a registry that can be scraped (see
:mod:`repro.metrics.scraper`) and rendered in the text exposition format.
"""

from __future__ import annotations

import math
import sys
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

LabelValues = Tuple[str, ...]

#: A collector: the ``(label values, value)`` samples of a family, read
#: from the object that owns them at collection time.
Collector = Callable[[], Iterable[Tuple[LabelValues, float]]]

#: Default histogram buckets (seconds), as in the Prometheus client.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.25, 0.5,
    0.75, 1.0, 2.5, 5.0, 7.5, 10.0, float("inf"),
)

_VALID_METRIC_TYPES = ("counter", "gauge", "histogram")


class MetricError(ValueError):
    """Raised on metric misuse (bad labels, decreasing counter, ...)."""


def label_key(pairs: Iterable[Tuple[str, str]]) -> LabelValues:
    """The sorted ``"key=value"`` tuple of a label set.

    The strings are interned, so the same label (``le="0.005"``,
    ``type="write"``) is one string in every family and series that
    holds it; an interned string is freed with its last holder.
    """
    return tuple(sys.intern(f"{key}={value}") for key, value in sorted(pairs))


class _Child:
    """A single labelled time series within a metric family.

    A child of a collector-backed family holds no sample: its value is
    read from the collector.
    """

    __slots__ = ("_family", "_labels", "_value", "_sum", "_count",
                 "_bucket_counts")

    def __init__(self, family: "MetricFamily", labels: LabelValues):
        self._family = family
        self._labels = labels
        self._value = 0.0
        # Histogram-only state; buckets are stored non-cumulatively.
        self._sum = 0.0
        self._count = 0
        self._bucket_counts: Optional[List[int]] = (
            [0] * len(family.buckets) if family.type == "histogram" else None)

    @property
    def value(self) -> float:
        family = self._family
        if family.type == "histogram":
            raise MetricError("histograms have no scalar value; use sum/count")
        if family._collect is not None:
            for labels, value in family._collect():
                if labels == self._labels:
                    return value
            return 0.0
        return self._value

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    # -- counter ---------------------------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        family = self._family
        if family.type == "counter" and amount < 0:
            raise MetricError("counters can only increase")
        if family.type == "histogram":
            raise MetricError("use observe() on histograms")
        if family._collect is not None:
            raise MetricError(f"{family.name} is read from its collector")
        self._value += amount
        family._version += 1

    # -- gauge -----------------------------------------------------------
    def set(self, value: float) -> None:
        family = self._family
        if family.type != "gauge":
            raise MetricError("set() is only valid on gauges")
        if family._collect is not None:
            raise MetricError(f"{family.name} is read from its collector")
        self._value = float(value)
        family._version += 1

    # -- histogram ---------------------------------------------------------
    def observe(self, value: float) -> None:
        if self._family.type != "histogram":
            raise MetricError("observe() is only valid on histograms")
        assert self._bucket_counts is not None
        self._sum += value
        self._count += 1
        self._family._version += 1
        for index, bound in enumerate(self._family.buckets):
            if value <= bound:
                self._bucket_counts[index] += 1
                break

    def quantile(self, q: float) -> float:
        """Estimate quantile ``q`` from the cumulative bucket counts.

        Uses the same linear interpolation as Prometheus'
        ``histogram_quantile``.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q} outside [0, 1]")
        assert self._bucket_counts is not None
        if self._count == 0:
            return math.nan
        rank = q * self._count
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self._family.buckets):
            previous = cumulative
            cumulative += self._bucket_counts[index]
            if cumulative >= rank and self._bucket_counts[index] > 0:
                if math.isinf(bound):
                    return lower
                fraction = (rank - previous) / self._bucket_counts[index]
                return lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
            lower = bound if not math.isinf(bound) else lower
        return lower


class MetricFamily:
    """A named metric with a fixed label schema and many label children.

    Its *rows* are its samples in exposition order: one per label set,
    sorted by label values (a histogram has one per bucket, then its sum
    and count).  Label sets are never removed, so the rows only grow, and
    an existing row moves only when a new label set sorts before it.
    """

    __slots__ = ("name", "help", "type", "labelnames", "buckets",
                 "_collect", "_unlabelled", "_children", "_positions",
                 "_version", "_values_version", "_values")

    def __init__(
        self,
        name: str,
        help: str,
        type: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        collect: Optional[Collector] = None,
    ):
        if type not in _VALID_METRIC_TYPES:
            raise MetricError(f"unknown metric type {type!r}")
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise MetricError(f"invalid metric name {name!r}")
        self.name = sys.intern(name)
        self.help = help
        self.type = type
        self.labelnames = tuple(labelnames)
        #: Upper bounds of a histogram's buckets; empty for other types.
        self.buckets: Tuple[float, ...] = ()
        if type == "histogram":
            buckets = tuple(sorted(set(float(b) for b in buckets)))
            if not buckets or not math.isinf(buckets[-1]):
                buckets = buckets + (float("inf"),)
            self.buckets = buckets
        #: Set for a family made with ``collect=``: the samples are then
        #: read from their owner at each collection, never stored here.
        self._collect = collect
        #: The one child of an unlabelled metric; a collected family makes
        #: it on first use, as it holds no sample.
        self._unlabelled: Optional[_Child] = None
        #: A labelled pushed family's children, by label values.
        self._children: Optional[Dict[LabelValues, _Child]] = None
        #: A labelled collected family's label sets, in row order, each
        #: mapped to its row.
        self._positions: Optional[Dict[LabelValues, int]] = None
        #: A pushed family's row values, rebuilt when ``_version`` (bumped
        #: on every sample mutation and child creation) has moved.
        self._version = 1
        self._values_version = 0
        self._values: Optional[List[float]] = None
        if self.labelnames:
            if collect is None:
                self._children = {}
            else:
                self._positions = {}
        elif collect is None:
            # Unlabelled metrics are exposed immediately (at zero), like the
            # Prometheus client library does.
            self._unlabelled = _Child(self, ())

    def labels(self, *values: str, **kwvalues: str) -> _Child:
        """Get (creating if needed) the child for a label-value combination."""
        if kwvalues:
            if values:
                raise MetricError("pass labels positionally or by name, not both")
            try:
                values = tuple(str(kwvalues[name]) for name in self.labelnames)
            except KeyError as exc:
                raise MetricError(f"missing label {exc.args[0]!r}") from None
            if len(kwvalues) != len(self.labelnames):
                raise MetricError("unexpected label names")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, got {values}"
            )
        if not values:
            return self._default
        if self._positions is not None:
            if values not in self._positions:
                self._add_label_set(values)
            return _Child(self, values)
        children = self._children
        child = children.get(values)
        if child is None:
            child = children[values] = _Child(self, values)
            self._version += 1
        return child

    def _add_label_set(self, values: LabelValues) -> None:
        """Give a collected family's new label set its row."""
        if len(values) != len(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, got {values}"
            )
        self._positions = {
            labels: row for row, labels
            in enumerate(sorted([*self._positions, values]))
        }

    @property
    def _default(self) -> _Child:
        child = self._unlabelled
        if child is None:
            if self.labelnames:
                raise MetricError(f"{self.name} requires labels()")
            child = self._unlabelled = _Child(self, ())
        return child

    # Convenience passthroughs for unlabelled metrics -----------------------
    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    @property
    def value(self) -> float:
        return self._default.value

    def _label_sets(self) -> List[LabelValues]:
        """The family's label sets, in row order."""
        if not self.labelnames:
            return [()]
        if self._positions is not None:
            return list(self._positions)
        return sorted(self._children)

    def row_count(self) -> int:
        """How many rows the family has."""
        label_sets = 1 if not self.labelnames else len(
            self._children if self._positions is None else self._positions)
        if self.type == "histogram":
            return label_sets * (len(self.buckets) + 2)
        return label_sets

    def row_values(self) -> List[float]:
        """The value of each row, in row order.

        A collected family reads its owner now; a label set the collector
        returns for the first time gets its row.  A label set it stops
        returning reads 0.0, so a collector returns every label set it
        has returned before, as an owner's accumulators do.  A pushed
        family's list is rebuilt only after a change, and is shared until
        the next one: callers must not modify it.
        """
        collect = self._collect
        if collect is not None:
            positions = self._positions
            if positions is None:
                value = 0.0
                for _labels, value in collect():
                    pass
                return [value]
            values = [0.0] * len(positions)
            for labels, value in collect():
                row = positions.get(labels)
                if row is None:
                    self._add_label_set(labels)
                    return self.row_values()
                values[row] = value
            return values
        if self._values_version != self._version:
            if self._children is None:
                children = [self._unlabelled]
            else:
                children = [self._children[labels]
                            for labels in self._label_sets()]
            values = []
            if self.type == "histogram":
                for child in children:
                    cumulative, value = 0, 0.0
                    for count in child._bucket_counts:
                        if count:  # unmoved buckets share one float
                            cumulative += count
                            value = float(cumulative)
                        values.append(value)
                    values.append(child._sum)
                    values.append(float(child._count))
            else:
                values = [child._value for child in children]
            self._values = values
            self._values_version = self._version
        return self._values

    def row_labels(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...]]]:
        """``(sample_name, label pairs)`` of each row, in row order; the
        pairs follow ``labelnames``, then ``le`` for a bucket.

        Call it after :meth:`row_values`, which may add a row.
        """
        name, labelnames = self.name, self.labelnames
        rows = []
        if self.type == "histogram":
            bucket_name = sys.intern(f"{name}_bucket")
            sum_name = sys.intern(f"{name}_sum")
            count_name = sys.intern(f"{name}_count")
            bounds = [("le", "+Inf" if math.isinf(bound) else repr(bound))
                      for bound in self.buckets]
            for values in self._label_sets():
                pairs = tuple(zip(labelnames, values))
                rows.extend((bucket_name, pairs + (le,)) for le in bounds)
                rows.append((sum_name, pairs))
                rows.append((count_name, pairs))
        else:
            rows = [(name, tuple(zip(labelnames, values)))
                    for values in self._label_sets()]
        return rows

    def collect_rows(self) -> list:
        """``(sample_name, labels, label_key, value)`` rows, in row order.

        ``labels`` is the label dict and ``label_key`` the sorted
        ``"key=value"`` tuple :meth:`MetricsRegistry.collect` keys
        samples by.  The rows are built at each call.
        """
        values = self.row_values()
        return [(sample_name, dict(pairs), label_key(pairs), value)
                for (sample_name, pairs), value
                in zip(self.row_labels(), values)]

    def samples(self) -> Iterable[Tuple[str, Mapping[str, str], float]]:
        """Yield ``(sample_name, labels, value)`` triples, Prometheus-style."""
        for sample_name, labels, _key, value in self.collect_rows():
            yield sample_name, labels, value


class MetricsRegistry:
    """A collection of metric families exposed by one component."""

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._families: Dict[str, MetricFamily] = {}

    def _full_name(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _register(self, family: MetricFamily) -> MetricFamily:
        if family.name in self._families:
            raise MetricError(f"duplicate metric {family.name!r}")
        self._families[family.name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
        collect: Optional[Collector] = None,
    ) -> MetricFamily:
        """A counter; with ``collect``, one read from its owner.

        ``collect`` makes the family collector-backed (a Prometheus
        custom collector): at every collection it returns the
        ``(label values, value)`` samples the owning object already
        keeps, so there is one source of truth and no metric call per
        count, and ``inc()`` is refused.  A label set appears at the
        first collection after it is first returned, at the value
        returned then.  Values must be floats, as pushed ones are.
        """
        return self._register(MetricFamily(
            self._full_name(name), help, "counter", labelnames,
            collect=collect))

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
        collect: Optional[Collector] = None,
    ) -> MetricFamily:
        """A gauge; ``collect`` reads it from its owner, as for
        :meth:`counter` (and refuses ``set()``)."""
        return self._register(MetricFamily(
            self._full_name(name), help, "gauge", labelnames,
            collect=collect))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._register(
            MetricFamily(self._full_name(name), help, "histogram", labelnames, buckets)
        )

    def get(self, name: str) -> MetricFamily:
        return self._families[self._full_name(name)]

    def __contains__(self, name: str) -> bool:
        return self._full_name(name) in self._families

    def families(self) -> Iterable[MetricFamily]:
        return self._families.values()

    def collect(self) -> Dict[str, Dict[LabelValues, float]]:
        """Snapshot all scalar samples as ``{name: {labelvalues: value}}``."""
        snapshot: Dict[str, Dict[LabelValues, float]] = {}
        for family in self._families.values():
            for sample_name, _labels, key, value in family.collect_rows():
                snapshot.setdefault(sample_name, {})[key] = value
        return snapshot

    def render_text(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self._families.values():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for sample_name, labels, _key, value in family.collect_rows():
                if labels:
                    rendered = ",".join(
                        f'{key}="{val}"' for key, val in labels.items()
                    )
                    lines.append(f"{sample_name}{{{rendered}}} {value}")
                else:
                    lines.append(f"{sample_name} {value}")
        return "\n".join(lines) + "\n"
