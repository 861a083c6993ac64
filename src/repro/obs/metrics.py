"""In-process metrics registry: counters, gauges and quantile histograms.

STORM's progressive answers are only trustworthy when the work behind
them is visible — samples drawn, blocks touched, messages exchanged.
This module is the zero-dependency substrate those signals land on:

* instruments are named and carry sorted ``key=value`` labels
  (``dataset``, ``sampler``, ``worker`` ...), so one registry can hold
  every layer's tallies side by side;
* :class:`Histogram` is a deterministic log-bucketed quantile sketch:
  the exact aggregates (count/sum/min/max) of the old four-field
  summary are kept, and bucket counts additionally give p50/p90/p99
  within a fixed ~19% relative bucket width, plus a sliding
  time-window view ("latency right now" vs "this whole session");
* :meth:`MetricsRegistry.snapshot` renders a deterministic, plain-dict
  view (sorted names, sorted labels) so tests and the JSONL exporter
  see stable output;
* :class:`NullRegistry` is the opt-out: every instrument it hands back
  is a shared no-op, and ``registry.enabled`` lets hot paths skip even
  the instrument lookup, so untraced runs pay a single attribute read.

The registry is thread-safe so background threads (the sampling
profiler, the service's /metrics route, watch-mode dashboards) can
publish and read concurrently: instrument get-or-create takes a single
lock (with a lock-free hit path), while the hot-path mutators —
``Counter.inc``, ``Gauge.set``/``add``, ``Histogram.observe`` — stay
lock-free; under CPython each is a handful of GIL-atomic operations on
one instrument.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullRegistry", "NULL_REGISTRY", "metric_key",
           "escape_label_value"]


def escape_label_value(value: object) -> str:
    """One label value, escaped for use inside a metric key.

    ``,`` and ``=`` are the key's own structure and ``}`` closes it, so
    raw occurrences in a *value* would collide distinct instruments
    (``{a=1,b=2}`` vs ``{a=1\\,b=2}``).  Backslash-escaping keeps every
    distinct (name, labels) pair a distinct key.
    """
    text = str(value)
    if ("\\" in text or "," in text or "=" in text or "}" in text
            or "{" in text):
        text = (text.replace("\\", "\\\\").replace(",", "\\,")
                .replace("=", "\\=").replace("{", "\\{")
                .replace("}", "\\}"))
    return text


def metric_key(name: str, labels: dict[str, object]) -> str:
    """Canonical ``name{k=v,...}`` identity of one instrument."""
    if not labels:
        return name
    inner = ",".join(f"{k}={escape_label_value(labels[k])}"
                     for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A value that can move both ways (sizes, heights, balances)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


# -- log-bucketed histogram --------------------------------------------

#: Bucket boundaries grow geometrically: 4 buckets per doubling keeps
#: any reported quantile within ~19% of the true order statistic.
_GROWTH = 2.0 ** 0.25
_LOG_GROWTH = math.log(_GROWTH)

#: Sliding-window bookkeeping: observations land in fixed wall-clock
#: slices; a window view merges the slices that cover the asked-for
#: horizon.  12 retained slices of 5s cover the default 60s window.
WINDOW_SLICE_SECONDS = 5.0
WINDOW_SLICES = 12
DEFAULT_WINDOW_SECONDS = WINDOW_SLICE_SECONDS * WINDOW_SLICES


def bucket_index(value: float) -> int:
    """Deterministic bucket for a positive value (upper bound
    ``_GROWTH ** index``); same float always lands in the same bucket."""
    i = math.ceil(math.log(value) / _LOG_GROWTH)
    # Guard the boundary: float log noise must not push an exact power
    # into the bucket above (whose range it does not belong to).
    if _GROWTH ** (i - 1) >= value:
        i -= 1
    return i


def bucket_upper_bound(index: int) -> float:
    """Inclusive upper bound of a bucket index."""
    return _GROWTH ** index


class _Slice:
    """One time slice of observations (for the sliding window)."""

    __slots__ = ("slice_id", "count", "total", "min", "max", "buckets",
                 "non_positive")

    def __init__(self, slice_id: int) -> None:
        self.slice_id = slice_id
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[int, int] = {}
        self.non_positive = 0


def _quantile(q: float, count: int, non_positive: int,
              buckets: dict[int, int], lo: float, hi: float) -> float:
    """The q-quantile from bucket counts, clamped to [lo, hi].

    Deterministic: walk buckets in bound order and report the first
    bucket whose cumulative count reaches ``q * count``; the bucket's
    upper bound (clamped to the exact min/max) is the estimate.
    """
    rank = q * count
    seen = non_positive
    if seen >= rank and seen:
        return max(lo, min(0.0, hi))
    for index in sorted(buckets):
        seen += buckets[index]
        if seen >= rank:
            return max(lo, min(bucket_upper_bound(index), hi))
    return hi


class Histogram:
    """Streaming summary: exact aggregates plus quantile buckets.

    The four running aggregates (count/sum/min/max) are exact and
    O(1), as before; observations additionally land in deterministic
    log-spaced buckets (see :func:`bucket_index`) so p50/p90/p99 are
    available without storing samples, and in per-time-slice buckets
    so :meth:`window_summary` can answer "latency over the last minute"
    separately from the whole-session view.
    """

    __slots__ = ("count", "total", "min", "max", "buckets",
                 "non_positive", "clock", "_slices")

    def __init__(self, clock: Callable[[], float] = time.monotonic
                 ) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: bucket index -> observation count (positive values only).
        self.buckets: dict[int, int] = {}
        #: observations <= 0 (durations normally; kept out of the log).
        self.non_positive = 0
        self.clock = clock
        self._slices: deque[_Slice] = deque(maxlen=WINDOW_SLICES)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            index = bucket_index(value)
            buckets = self.buckets
            buckets[index] = buckets.get(index, 0) + 1
        else:
            index = None
            self.non_positive += 1
        # Window bookkeeping: append-only per slice; readers tolerate
        # the (benign, GIL-serialised) race of two threads appending
        # the same slice id — window merges filter by id, not position.
        slice_id = int(self.clock() / WINDOW_SLICE_SECONDS)
        slices = self._slices
        cur = slices[-1] if slices else None
        if cur is None or cur.slice_id != slice_id:
            cur = _Slice(slice_id)
            slices.append(cur)
        cur.count += 1
        cur.total += value
        if value < cur.min:
            cur.min = value
        if value > cur.max:
            cur.max = value
        if index is None:
            cur.non_positive += 1
        else:
            cur.buckets[index] = cur.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic q-quantile estimate over the whole session
        (within one log bucket, ~19%, of the true order statistic)."""
        if not self.count:
            return 0.0
        return _quantile(q, self.count, self.non_positive,
                         self.buckets, self.min, self.max)

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Sorted (upper_bound, count) pairs (non-positive under 0.0)."""
        out: list[tuple[float, int]] = []
        if self.non_positive:
            out.append((0.0, self.non_positive))
        out.extend((bucket_upper_bound(i), self.buckets[i])
                   for i in sorted(self.buckets))
        return out

    def summary(self) -> dict[str, object]:
        """Plain-dict view (min/max/quantiles omitted while empty)."""
        out: dict[str, object] = {"count": self.count,
                                  "sum": self.total}
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            out["mean"] = self.mean
            out["p50"] = self.quantile(0.50)
            out["p90"] = self.quantile(0.90)
            out["p99"] = self.quantile(0.99)
            out["buckets"] = [[le, n] for le, n in self.bucket_counts()]
        return out

    def window_summary(self, seconds: float = DEFAULT_WINDOW_SECONDS
                       ) -> dict[str, object]:
        """Same shape as :meth:`summary`, over the trailing window.

        Merges the retained slices whose id falls inside the asked-for
        horizon ("latency right now"); an idle window reports count 0.
        """
        oldest = int((self.clock() - seconds) / WINDOW_SLICE_SECONDS)
        count = 0
        total = 0.0
        lo, hi = float("inf"), float("-inf")
        non_positive = 0
        buckets: dict[int, int] = {}
        for sl in list(self._slices):
            if sl.slice_id < oldest:
                continue
            count += sl.count
            total += sl.total
            lo = min(lo, sl.min)
            hi = max(hi, sl.max)
            non_positive += sl.non_positive
            for index, n in sl.buckets.items():
                buckets[index] = buckets.get(index, 0) + n
        out: dict[str, object] = {"count": count, "sum": total}
        if count:
            out["min"] = lo
            out["max"] = hi
            out["mean"] = total / count
            for name, q in (("p50", 0.50), ("p90", 0.90),
                            ("p99", 0.99)):
                out[name] = _quantile(q, count, non_positive, buckets,
                                      lo, hi)
        return out


class MetricsRegistry:
    """Named, labelled instruments with a deterministic snapshot.

    Get-or-create is serialised by one lock (the hit path reads the
    dict lock-free first); increments on the returned instruments are
    lock-free.  ``instruments()`` exposes the structured
    (kind, name, labels) view the Prometheus renderer needs.
    """

    #: Hot paths test this before even fetching an instrument.
    enabled = True

    def __init__(self, clock: Callable[[], float] = time.monotonic
                 ) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: key -> (name, labels) for every instrument ever created.
        self._meta: dict[str, tuple[str, dict[str, str]]] = {}

    # -- instrument lookup (get-or-create) ----------------------------

    def _get(self, store: dict, factory, name: str,
             labels: dict[str, object]):
        key = metric_key(name, labels)
        inst = store.get(key)
        if inst is None:
            with self._lock:
                inst = store.get(key)
                if inst is None:
                    inst = store[key] = factory()
                    self._meta[key] = (name, {
                        k: str(labels[k]) for k in sorted(labels)})
        return inst

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(self._histograms,
                         lambda: Histogram(clock=self.clock),
                         name, labels)

    # -- snapshot / structured iteration / reset ----------------------

    def snapshot(self) -> dict[str, dict]:
        """Deterministic plain-dict view of every instrument.

        Safe to call from any thread: keys are copied under the GIL
        and values read through ``get`` so a concurrent get-or-create
        never trips the iteration.
        """
        counters = self._counters
        gauges = self._gauges
        histograms = self._histograms
        return {
            "counters": {k: counters[k].value
                         for k in sorted(counters)},
            "gauges": {k: gauges[k].value for k in sorted(gauges)},
            "histograms": {k: histograms[k].summary()
                           for k in sorted(histograms)},
        }

    def instruments(self):
        """Yield (kind, name, labels, instrument), sorted by key.

        The structured companion to :meth:`snapshot`, used by the
        Prometheus text renderer (which needs labels un-flattened).
        """
        for kind, store in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            for key in sorted(store):
                name, labels = self._meta[key]
                yield kind, name, labels, store[key]

    def window_snapshot(self, seconds: float = DEFAULT_WINDOW_SECONDS
                        ) -> dict[str, dict]:
        """Histogram window views only ("latency right now")."""
        histograms = self._histograms
        return {k: histograms[k].window_summary(seconds)
                for k in sorted(histograms)}

    def reset(self) -> None:
        """Drop every instrument (a fresh registry, same identity)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._meta.clear()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """The default: accepts every call, records nothing."""

    enabled = False

    def counter(self, name: str, **labels: object) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **labels: object) -> Histogram:
        return _NULL_HISTOGRAM


NULL_REGISTRY = NullRegistry()
