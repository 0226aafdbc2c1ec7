"""Ways the tests read the metrics layer that the program itself never
needs: registry snapshots, histogram quantiles and series lookups."""

import math


def collect(registry):
    """Every scalar sample as ``{sample_name: {label_key: value}}``."""
    snapshot = {}
    for family in registry.families():
        for sample_name, _labels, key, value in family.collect_rows():
            snapshot.setdefault(sample_name, {})[key] = value
    return snapshot


def samples(family):
    """``(sample_name, labels, value)`` triples, Prometheus-style."""
    return [(name, labels, value)
            for name, labels, _key, value in family.collect_rows()]


def quantile(child, q):
    """Quantile ``q`` of a histogram child, interpolated in its buckets
    as Prometheus' ``histogram_quantile`` does."""
    rank = q * child._count
    cumulative = 0
    lower = 0.0
    for index, bound in enumerate(child._family.buckets):
        previous = cumulative
        cumulative += child._bucket_counts[index]
        if cumulative >= rank and child._bucket_counts[index] > 0:
            if math.isinf(bound):
                return lower
            fraction = (rank - previous) / child._bucket_counts[index]
            return lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
        lower = bound if not math.isinf(bound) else lower
    return lower


def lookup(database, name, labels=()):
    """The series of ``name`` with exactly ``labels``, or None."""
    return database._names.get(name, {}).get(tuple(labels))


def select(database, name):
    """Every series of ``name``, in insertion order."""
    return list(database._names.get(name, {}).values())


def latest_time(series):
    """The timestamp of a series' newest sample."""
    return series._times[series._start + len(series._values) - 1]
