"""Gauges and mergeable fixed-bucket latency histograms.

The registry is the *data* half of the observability layer (the tracer in
:mod:`repro.obs.tracing` is the *event* half): every span name doubles as
a latency histogram, so ``stats()`` can answer "what is the p99 of a
worker transaction" without anyone keeping raw samples around.

Histograms use one fixed exponential bucket layout (powers of two from
1µs to ~67s) so two histograms of the same name — one per partition
worker — can be **merged by adding bucket counts**.  A snapshot is plain
JSON (counts, sum, min/max, interpolated p50/p95/p99), which is exactly
what crosses the worker RPC: the coordinator merges worker snapshots
into one logical histogram without any shared memory.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, Optional

#: Upper bounds (µs) of the fixed histogram buckets: 2^0 .. 2^26, plus an
#: implicit overflow bucket.  Every histogram in the system shares this
#: layout — that is what makes cross-process merging a vector add.
BUCKET_BOUNDS_US: tuple[int, ...] = tuple(2 ** i for i in range(27))

_NUM_BUCKETS = len(BUCKET_BOUNDS_US) + 1  # + overflow


class LatencyHistogram:
    """A fixed-bucket latency histogram over microseconds.

    ``observe()`` is the hot path: one bisect into the shared bound
    table, four attribute updates.  Percentiles are computed on demand by
    linear interpolation inside the covering bucket, clamped to the
    observed min/max so a single sample reports itself exactly.
    """

    __slots__ = ("counts", "count", "sum_us", "min_us", "max_us")

    def __init__(self) -> None:
        self.counts = [0] * _NUM_BUCKETS
        self.count = 0
        self.sum_us = 0.0
        self.min_us: Optional[float] = None
        self.max_us: Optional[float] = None

    def observe(self, us: float) -> None:
        if us < 0:
            us = 0.0
        self.counts[bisect_left(BUCKET_BOUNDS_US, us)] += 1
        self.count += 1
        self.sum_us += us
        if self.min_us is None or us < self.min_us:
            self.min_us = us
        if self.max_us is None or us > self.max_us:
            self.max_us = us

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q <= 1``) in µs; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            lo = 0.0 if i == 0 else float(BUCKET_BOUNDS_US[i - 1])
            hi = float(BUCKET_BOUNDS_US[i]) if i < len(BUCKET_BOUNDS_US) else float(
                self.max_us if self.max_us is not None else BUCKET_BOUNDS_US[-1]
            )
            if cum + n >= target:
                frac = (target - cum) / n
                value = lo + (hi - lo) * frac
                break
            cum += n
        else:  # pragma: no cover - count > 0 guarantees a covering bucket
            value = float(self.max_us or 0.0)
        if self.min_us is not None:
            value = max(value, self.min_us)
        if self.max_us is not None:
            value = min(value, self.max_us)
        return value

    @property
    def mean_us(self) -> float:
        return self.sum_us / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe, *mergeable* snapshot (see :meth:`merge`)."""
        return {
            "count": self.count,
            "sum_us": self.sum_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
            "mean_us": self.mean_us,
            "p50_us": self.percentile(0.50),
            "p95_us": self.percentile(0.95),
            "p99_us": self.percentile(0.99),
            "buckets": list(self.counts),
        }

    def merge(self, snap: dict[str, Any]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Bucket layouts are fixed and shared, so the merge is exact for
        counts/sum/min/max and as precise as the buckets allow for the
        re-derived percentiles — this is how per-partition-worker
        histograms combine coordinator-side.
        """
        buckets = snap.get("buckets") or []
        if len(buckets) != _NUM_BUCKETS:
            raise ValueError(
                f"histogram snapshot has {len(buckets)} buckets, "
                f"expected {_NUM_BUCKETS} (mismatched bucket layout)"
            )
        for i, n in enumerate(buckets):
            self.counts[i] += n
        self.count += snap.get("count", 0)
        self.sum_us += snap.get("sum_us", 0.0)
        for bound, pick in (("min_us", min), ("max_us", max)):
            other = snap.get(bound)
            if other is None:
                continue
            mine = getattr(self, bound)
            setattr(self, bound, other if mine is None else pick(mine, other))

    @classmethod
    def from_snapshot(cls, snap: dict[str, Any]) -> "LatencyHistogram":
        hist = cls()
        hist.merge(snap)
        return hist

    @classmethod
    def merged(cls, snaps: Iterable[dict[str, Any]]) -> "LatencyHistogram":
        hist = cls()
        for snap in snaps:
            hist.merge(snap)
        return hist

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LatencyHistogram(count={self.count}, p99_us={self.percentile(0.99):.1f})"


class MetricsRegistry:
    """Named gauges and :class:`LatencyHistogram` families (event counts
    live in the engine's ledger, ``stats()["events"]``).

    * **gauges** — point-in-time values, either set directly or backed by
      a callable evaluated at snapshot time;
    * **histograms** — created on first :meth:`observe`/:meth:`histogram`
      of a name; every histogram shares the fixed bucket layout.

    :meth:`snapshot` is JSON-safe; :meth:`merge_snapshots` combines the
    snapshots of several registries (numeric gauges add, histograms
    bucket-merge) — the coordinator uses it to present N
    partition workers as one logical registry.
    """

    __slots__ = ("_gauges", "_histograms")

    def __init__(self) -> None:
        self._gauges: dict[str, Any] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def gauge(self, name: str, value: Any) -> None:
        """Set a gauge; a callable is re-evaluated at every snapshot."""
        self._gauges[name] = value

    def histogram(self, name: str) -> LatencyHistogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = LatencyHistogram()
        return hist

    def observe(self, name: str, us: float) -> None:
        self.histogram(name).observe(us)

    def snapshot(self) -> dict[str, Any]:
        gauges: dict[str, Any] = {}
        for name, value in self._gauges.items():
            gauges[name] = value() if callable(value) else value
        return {
            "gauges": gauges,
            "histograms": {
                name: hist.snapshot() for name, hist in sorted(self._histograms.items())
            },
        }

    @staticmethod
    def merge_snapshots(snaps: Iterable[dict[str, Any]]) -> dict[str, Any]:
        gauges: dict[str, Any] = {}
        hists: dict[str, LatencyHistogram] = {}
        for snap in snaps:
            if not snap:
                continue
            for name, value in (snap.get("gauges") or {}).items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    gauges[name] = value  # non-numeric: last writer wins
                else:
                    gauges[name] = gauges.get(name, 0) + value
            for name, hsnap in (snap.get("histograms") or {}).items():
                hists.setdefault(name, LatencyHistogram()).merge(hsnap)
        return {
            "gauges": gauges,
            "histograms": {name: h.snapshot() for name, h in sorted(hists.items())},
        }


#: callback signature used by the tracer to feed finished span durations
#: into a registry without importing it
ObserveFn = Callable[[str, float], None]
