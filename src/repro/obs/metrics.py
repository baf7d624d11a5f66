"""Metrics registry: counters and histograms.

One :class:`MetricsRegistry` per executing context — the service process
owns one, each worker owns one.  Registries never talk to each other
directly; the service reads a worker's registry :meth:`summary` through
that worker's live stats when asked.  That keeps the hot path free of
cross-process coordination: recording a metric is a dict lookup plus an
increment under one registry lock.

Histograms keep exact count/total/min/max plus a bounded sample
reservoir for percentile estimates — enough for the p50/p95 per-stage
latency rollups the sweep artifacts report, without unbounded memory on
million-job services.
"""

from __future__ import annotations

import threading

import numpy as np


def percentile(values, q: float) -> float | None:
    """The ``q``-th percentile of ``values`` (None when empty)."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        return None
    return float(np.percentile(values, q))


def summarize_values(values) -> dict:
    """Rollup of a latency sample: count/total/mean/p50/p95/max.

    The shared shape for per-stage aggregates on sweep artifacts and
    histogram summaries — plain floats, JSON-ready.
    """
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        return {"count": 0, "total": 0.0, "mean": None, "p50": None,
                "p95": None, "max": None}
    return {
        "count": int(values.size),
        "total": float(values.sum()),
        "mean": float(values.mean()),
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
        "max": float(values.max()),
    }


class Counter:
    """Monotonic event count."""

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Histogram:
    """Latency distribution: exact count/total/min/max + sample reservoir."""

    #: Cap on stored samples (exact stats stay exact beyond it).
    MAX_SAMPLES = 4096

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self.samples) < self.MAX_SAMPLES:
                self.samples.append(value)

    def percentile(self, q: float) -> float | None:
        with self._lock:
            return percentile(self.samples, q)

    def summary(self) -> dict:
        with self._lock:
            out = summarize_values(self.samples)
            # count/total/max are tracked exactly; the reservoir only
            # approximates the percentiles once it saturates.
            out["count"] = self.count
            out["total"] = self.total
            out["mean"] = self.total / self.count if self.count else None
            out["max"] = self.max
        return out


class MetricsRegistry:
    """Named counters and histograms for one executing context."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments (get-or-create) ----------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(self._lock))
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name,
                                                Histogram(self._lock))
        return h

    def summary(self) -> dict:
        """This registry's state with histograms as p50/p95 rollups."""
        with self._lock:
            counters = {k: c.value for k, c in self._counters.items()}
            hists = list(self._histograms.items())
        return {"counters": counters,
                "histograms": {k: h.summary() for k, h in hists}}
