"""Unified metrics registry: counters, gauges, and mergeable histograms.

The one sink for a run's runtime signals: model forward counters
(:meth:`~repro.models.base.TextClassifier.record_forward`), delta-scoring
units, ``ScoreCache`` hit/miss/eviction accounting,
:class:`~repro.eval.progress.Heartbeat` vitals, and the phase spans of
:class:`~repro.obs.spans.PhaseProfiler`.  Everything is plain-data and
picklable, and :meth:`MetricsRegistry.merge` folds a worker's
:meth:`MetricsRegistry.snapshot` into a parent registry — which is how
the :class:`~repro.eval.parallel.ParallelAttackRunner` ships worker
metrics back to the parent.

Histograms use fixed log-spaced buckets (1 µs .. 1000 s by default, four
buckets per decade) so merging is exact bucket-count addition and
quantiles (p50/p95 for BENCH trajectories and run reports) are estimated
by linear interpolation within a bucket, clamped to the observed
min/max.
"""

from __future__ import annotations

import bisect
import math
import time
from contextlib import contextmanager

__all__ = ["Histogram", "MetricsRegistry", "default_latency_bounds"]


def default_latency_bounds() -> list[float]:
    """Log-spaced bucket bounds: 1e-6 .. 1e3, four buckets per decade."""
    return [10.0 ** (e / 4.0) for e in range(-24, 13)]


class Histogram:
    """Fixed-bound histogram: mergeable, picklable, quantile-queryable.

    Bucket ``i`` counts observations ``v`` with
    ``bounds[i-1] < v <= bounds[i]``; one overflow bucket catches values
    above the last bound.  Exact sum/count/min/max ride along so means
    and range are exact even though quantiles are interpolated.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: list[float] | None = None) -> None:
        self.bounds = sorted(bounds) if bounds is not None else default_latency_bounds()
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate, clamped to the observed range."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cumulative + c >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (target - cumulative) / c
                estimate = lo + fraction * (hi - lo)
                return min(max(estimate, self.min), self.max)
            cumulative += c
        return self.max

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Histogram":
        hist = cls(bounds=snapshot["bounds"])
        return hist.merge(snapshot)

    def merge(self, other: "dict | Histogram") -> "Histogram":
        if isinstance(other, Histogram):
            other = other.snapshot()
        if list(other["bounds"]) != self.bounds:
            raise ValueError("cannot merge histograms with different bucket bounds")
        for i, c in enumerate(other["counts"]):
            self.counts[i] += int(c)
        self.count += int(other["count"])
        self.total += float(other["total"])
        if other["min"] is not None:
            self.min = min(self.min, float(other["min"]))
        if other["max"] is not None:
            self.max = max(self.max, float(other["max"]))
        return self

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "max": 0.0 if self.count == 0 else self.max,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms under one mergeable namespace.

    Naming convention (slash-separated namespaces, ``_seconds``/``_calls``
    suffixes for timings):

    - ``attack/*``   — per-document outcome accounting (docs, successes,
      n_queries, cache_hits, cache_evictions, wall-time histogram);
    - ``forward/*``  — model forward-batch counters, latency histogram and
      ``forward/padded/<len>/*`` per-padded-length counters;
    - ``delta/*``    — delta-scoring candidates and FLOP-equivalent units;
    - ``phase/*``    — :class:`~repro.obs.spans.PhaseProfiler` span totals;
    - ``run/*``      — heartbeat gauges (done, total, failures, docs/s).

    Merge semantics: counters add, histograms add bucket-wise, gauges are
    last-write-wins (they are point-in-time readings, not totals).
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording ----------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float, bounds: list[float] | None = None) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms.setdefault(name, Histogram(bounds=bounds))
        hist.observe(value)

    @contextmanager
    def timer(self, name: str):
        """Observe wall-time into the ``name`` histogram."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reading ------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def histogram(self, name: str) -> Histogram | None:
        return self.histograms.get(name)

    # -- cross-process merging ----------------------------------------------
    def snapshot(self) -> dict:
        """Serializable (picklable, JSON-safe) copy of every series."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: h.snapshot() for name, h in self.histograms.items()},
        }

    def merge(self, other: "dict | MetricsRegistry") -> "MetricsRegistry":
        """Fold a :meth:`snapshot` (or another registry) into this one."""
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        for name, amount in other.get("counters", {}).items():
            self.inc(name, amount)
        for name, value in other.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, snap in other.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                self.histograms[name] = Histogram.from_snapshot(snap)
            else:
                hist.merge(snap)
        return self

    def summary(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: h.summary() for name, h in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
