"""Hierarchical metrics registry: counters, gauges, histograms.

Metric names are dotted paths (``unsync.cb.full_stalls``,
``core0.l1d.misses``) so summaries can roll up by prefix. There is one
backend, :class:`MetricsRegistry`; a run with telemetry off has no
registry at all, and instrumented code tests for that (the systems'
``DualCoreSystem._observe`` and the ``if sink is not None`` idiom from
``core/pipeline.py``).

Everything here is plain integer/float arithmetic — deterministic and
order-independent for integral counters, which is what lets the campaign
layer merge per-trial metrics without breaking its byte-identical
serial == parallel guarantee.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-written value (occupancies, watermarks)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram (cumulative-style bucket counts).

    ``buckets[i]`` counts observations ``<= bounds[i]``; the final bucket
    is the implicit +inf overflow. Every histogram shares one set of
    bounds, so two histograms of the same metric are always mergeable.
    """

    __slots__ = ("name", "buckets", "count", "total")

    #: bucket upper bounds (cycles), sorted; chosen to resolve both
    #: single-digit stall episodes and multi-thousand-cycle recoveries.
    bounds: Tuple[float, ...] = (
        1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        return {"count": self.count, "sum": self.total, "mean": self.mean,
                "bounds": list(self.bounds), "buckets": list(self.buckets)}


class MetricsRegistry:
    """Name -> instrument registry with dotted hierarchical names."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) -------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # -- bulk ---------------------------------------------------------------
    def merge_counters(self, flat: Dict[str, float]) -> None:
        """Add a flat name -> value dict into the counters (result rollups)."""
        for name, value in flat.items():
            self.counter(name).value += value

    def snapshot(self) -> Dict:
        """Everything, JSON-ready, sorted for deterministic serialisation."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.to_dict()
                           for n, h in sorted(self._histograms.items())},
        }
