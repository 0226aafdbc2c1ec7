"""Prometheus-model metric primitives.

The paper's Accelerators Registry consumes Device Manager metrics "from a
Prometheus service"; this module reproduces the relevant slice of the
Prometheus data model: counters, gauges and histograms with label sets,
collected in a registry that can be scraped (see
:mod:`repro.metrics.scraper`) and rendered in the text exposition format.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    Iterable,
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


class _Child:
    """A single labelled time series within a metric family."""

    def __init__(self, family: "MetricFamily", labels: LabelValues):
        self._family = family
        self._labels = labels
        self._value = 0.0
        # Render caches, fixed at creation: the label dict and the sorted
        # "key=value" tuple used by collect()/scrapes.
        self._label_dict = dict(zip(family.labelnames, labels))
        self._label_key = tuple(
            f"{k}={v}" for k, v in sorted(self._label_dict.items())
        )
        # Histogram-only state:
        self._sum = 0.0
        self._count = 0
        self._bucket_counts: Optional[list[int]] = None
        self._bucket_label_dicts: Optional[list[dict]] = None
        self._bucket_label_keys: Optional[list[LabelValues]] = None
        if family.type == "histogram":
            self._bucket_counts = [0] * len(family.buckets)
            self._bucket_label_dicts = []
            self._bucket_label_keys = []
            for bound in family.buckets:
                le = "+Inf" if math.isinf(bound) else repr(bound)
                bucket_labels = {**self._label_dict, "le": le}
                self._bucket_label_dicts.append(bucket_labels)
                self._bucket_label_keys.append(tuple(
                    f"{k}={v}" for k, v in sorted(bucket_labels.items())
                ))

    @property
    def value(self) -> float:
        family = self._family
        if family.type == "histogram":
            raise MetricError("histograms have no scalar value; use sum/count")
        if family._collect is not None:
            family._sync()
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
        # Buckets are stored non-cumulatively; samples() cumulates on render.
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
    """A named metric with a fixed label schema and many label children."""

    def __init__(
        self,
        name: str,
        help: str,
        type: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        if type not in _VALID_METRIC_TYPES:
            raise MetricError(f"unknown metric type {type!r}")
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
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
        self._children: Dict[LabelValues, _Child] = {}
        #: Bumped on every sample mutation and child creation; the caches
        #: below remember the version they were computed at, so unchanged
        #: families are never re-sorted or re-rendered (scrapes only pay
        #: for dirty families).
        self._version = 1
        #: Bumped on child creation only — the sorted ordering of children
        #: (and of each child's labels) cannot change otherwise.
        self._children_version = 1
        self._sorted_version = 0
        self._sorted_cache: list = []
        self._rows_version = 0
        self._rows_cache: list = []
        self._text_version = 0
        self._text_cache = ""
        #: Set for a family made with ``collect=``: the samples are then
        #: read from their owner at collection, never written.
        self._collect: Optional[Collector] = None
        #: The one child of an unlabelled metric, for the passthroughs.
        self._unlabelled: Optional[_Child] = None
        if not self.labelnames:
            # Unlabelled metrics are exposed immediately (at zero), like the
            # Prometheus client library does.
            self._unlabelled = self.labels()

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
        child = self._children.get(values)
        if child is None:
            child = _Child(self, values)
            self._children[values] = child
            self._children_version += 1
            self._version += 1
        return child

    def _sync(self) -> None:
        """Read a collector-backed family's samples from their owner.

        A label set seen for the first time gets its child now, as
        :meth:`labels` would have made it when the owner first counted
        it; only a changed sample dirties the family's caches.
        """
        children = self._children
        for values, value in self._collect():
            child = children.get(values)
            if child is None:
                child = self.labels(*values)
            if child._value != value:
                child._value = value
                self._version += 1

    def _sorted_children(self) -> list:
        # Invalidated on child creation only (sample mutations cannot
        # reorder a fixed label set).
        if self._sorted_version != self._children_version:
            self._sorted_cache = sorted(self._children.items())
            self._sorted_version = self._children_version
        return self._sorted_cache

    @property
    def _default(self) -> _Child:
        child = self._unlabelled
        if child is None:
            raise MetricError(f"{self.name} requires labels()")
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

    def collect_rows(self) -> list:
        """Cached ``(sample_name, labels, label_key, value)`` rows.

        ``label_key`` is the sorted ``"key=value"`` tuple collect()/scrapes
        key children by.  Rows are recomputed only when the family changed
        since the last call (dirty-family tracking): a scrape re-renders
        only the families that were touched since the previous scrape.
        """
        if self._collect is not None:
            self._sync()
        if self._rows_version == self._version:
            return self._rows_cache
        rows: list = []
        name = self.name
        if self.type == "histogram":
            bucket_name = f"{name}_bucket"
            sum_name = f"{name}_sum"
            count_name = f"{name}_count"
            for _labelvalues, child in self._sorted_children():
                cumulative = 0
                assert child._bucket_counts is not None
                for index, bucket_count in enumerate(child._bucket_counts):
                    cumulative += bucket_count
                    rows.append((
                        bucket_name,
                        child._bucket_label_dicts[index],
                        child._bucket_label_keys[index],
                        float(cumulative),
                    ))
                rows.append((sum_name, child._label_dict,
                             child._label_key, child._sum))
                rows.append((count_name, child._label_dict,
                             child._label_key, float(child._count)))
        else:
            for _labelvalues, child in self._sorted_children():
                rows.append((name, child._label_dict,
                             child._label_key, child._value))
        self._rows_cache = rows
        self._rows_version = self._version
        return rows

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

    def _register(self, family: MetricFamily,
                  collect: Optional[Collector] = None) -> MetricFamily:
        if family.name in self._families:
            raise MetricError(f"duplicate metric {family.name!r}")
        family._collect = collect
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
        return self._register(
            MetricFamily(self._full_name(name), help, "counter", labelnames),
            collect,
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = (),
        collect: Optional[Collector] = None,
    ) -> MetricFamily:
        """A gauge; ``collect`` reads it from its owner, as for
        :meth:`counter` (and refuses ``set()``)."""
        return self._register(
            MetricFamily(self._full_name(name), help, "gauge", labelnames),
            collect,
        )

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
        """Render the registry in the Prometheus text exposition format.

        Per-family text blocks are cached and re-rendered only for
        families touched since the previous render.
        """
        blocks: list[str] = []
        for family in self._families.values():
            rows = family.collect_rows()
            if family._text_version != family._version:
                lines = [
                    f"# HELP {family.name} {family.help}",
                    f"# TYPE {family.name} {family.type}",
                ]
                for sample_name, labels, _key, value in rows:
                    if labels:
                        rendered = ",".join(
                            f'{key}="{val}"' for key, val in labels.items()
                        )
                        lines.append(f"{sample_name}{{{rendered}}} {value}")
                    else:
                        lines.append(f"{sample_name} {value}")
                family._text_cache = "\n".join(lines)
                family._text_version = family._version
            blocks.append(family._text_cache)
        return "\n".join(blocks) + "\n"
