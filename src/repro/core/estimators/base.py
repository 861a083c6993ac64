"""Online estimator protocol and shared running statistics.

An online estimator consumes records one at a time (as the sampler emits
them) and can produce a current :class:`Estimate` — value, standard error
and confidence interval — at any moment.  The query/analytics evaluator
drives this loop; users build *customised* estimators by implementing the
same two methods, which is the extension point the paper's demo highlights.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.estimators.intervals import ConfidenceInterval
from repro.core.records import Record
from repro.errors import EstimatorError

__all__ = ["Estimate", "OnlineEstimator", "RunningStats"]


@dataclass(frozen=True, slots=True)
class Estimate:
    """A progressive estimate at some point during query execution.

    ``exact`` is set when the estimate is no longer an approximation —
    either every in-range point was consumed (k = q) or the quantity is
    computed exactly from index metadata (e.g. COUNT).
    """

    value: Any
    std_error: float | None
    interval: ConfidenceInterval | None
    k: int
    q: int | None
    exact: bool = False

    def __repr__(self) -> str:
        tail = " exact" if self.exact else ""
        ci = f" ±{self.interval.half_width:.4g}" if self.interval else ""
        return (f"Estimate({self.value!r}{ci} k={self.k}"
                f" q={self.q}{tail})")


class OnlineEstimator(ABC):
    """Base class for estimators fed by the spatial online sampler.

    Subclasses implement :meth:`update` (absorb one sampled record) and
    :meth:`estimate` (current value + interval).  ``population_size`` is
    set by the evaluator once q is known; estimators use it for finite
    population corrections, SUM scaling and exactness detection.
    """

    def __init__(self) -> None:
        self.k = 0
        self.population_size: int | None = None
        # Set by the session when the sampler runs in with-replacement
        # mode: disables the finite population correction and the
        # "k = q is exact" collapse (repeats make both invalid).
        self.sampling_with_replacement = False

    def set_population_size(self, q: int) -> None:
        if q < 0:
            raise EstimatorError("population size cannot be negative")
        self.population_size = q

    @property
    def fpc_population(self) -> int | None:
        """Population size for variance corrections — ``None`` when the
        correction does not apply (with-replacement sampling)."""
        if self.sampling_with_replacement:
            return None
        return self.population_size

    def absorb(self, record: Record) -> None:
        """Feed one sampled record (bookkeeping + subclass update)."""
        self.k += 1
        self.update(record)

    def absorb_batch(self, records: "Sequence[Record]") -> None:
        """Feed a batch of sampled records in one call.

        Semantically identical to calling :meth:`absorb` per record;
        sessions use it with :meth:`SpatialSampler.draw_batch` to keep
        the per-sample hot loop inside one method frame.  Subclasses
        with vectorisable state may override.
        """
        for record in records:
            self.k += 1
            self.update(record)

    #: Whether :meth:`absorb_columns` may succeed for this estimator.
    #: Subclasses that can consume coordinate columns directly (AVG over
    #: lon/lat/t, unfiltered COUNT, the KDE) override this — possibly as
    #: a property, since it can depend on configuration.
    supports_columns: bool = False

    def absorb_columns(self, lons: "Sequence[float]",
                       lats: "Sequence[float]",
                       ts: "Sequence[float] | None") -> bool:
        """Absorb a batch given as parallel coordinate columns.

        The columnar fast path: a sampler batch arrives as three
        parallel sequences (``ts`` is ``None`` on 2-d indexes) and the
        estimator folds them in without any :class:`Record` being
        built.  Returns ``True`` when the batch was absorbed — the
        implementation must then have advanced ``self.k`` by the batch
        length — or ``False`` to make the caller fall back to the
        per-record path.
        """
        return False

    def absorb_entry_batch(self, entries, lookup) -> None:
        """Absorb a batch of raw index entries.

        ``entries`` are index ``Entry`` objects (``item_id`` + point
        key); ``lookup`` maps an item id to its :class:`Record`.  When
        the estimator consumes only coordinates, the columns are read
        straight off the entry points and no Record is materialised;
        otherwise every entry is resolved through ``lookup`` and fed to
        :meth:`absorb_batch` — identical semantics either way.
        """
        if not entries:
            return
        if self.supports_columns:
            points = [e.point for e in entries]
            lons = [p[0] for p in points]
            lats = [p[1] for p in points]
            ts = [p[2] for p in points] if len(points[0]) > 2 else None
            if self.absorb_columns(lons, lats, ts):
                return
        self.absorb_batch([lookup(e.item_id) for e in entries])

    @abstractmethod
    def update(self, record: Record) -> None:
        """Absorb one record's contribution."""

    @abstractmethod
    def estimate(self, level: float = 0.95) -> Estimate:
        """Current estimate with a confidence interval at ``level``."""

    @property
    def is_exact(self) -> bool:
        """True once every in-range point was consumed (k = q)."""
        if self.sampling_with_replacement:
            return False
        return (self.population_size is not None
                and self.k >= self.population_size)

    def reset(self) -> None:
        self.k = 0


class RunningStats:
    """Welford's online mean/variance accumulator (numerically stable)."""

    __slots__ = ("n", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        """Absorb one value."""
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def add_many(self, values: "Sequence[float]") -> None:
        """Absorb a batch of values in one call.

        The batch's moments are computed vectorised and folded in with
        one Chan et al. merge step (exactly :meth:`merge` against a
        throwaway accumulator, so the result matches the
        parallel-aggregation path bit-for-bit in structure); tiny
        batches take the Welford loop.
        """
        n = len(values)
        if n == 0:
            return
        if n >= 16:
            arr = np.asarray(values, dtype=np.float64)
            bmean = float(arr.mean())
            bm2 = float(((arr - bmean) ** 2).sum())
            total = self.n + n
            delta = bmean - self.mean
            self.mean += delta * n / total
            self._m2 += bm2 + delta * delta * self.n * n / total
            self.n = total
            bmin = float(arr.min())
            bmax = float(arr.max())
            if bmin < self.min:
                self.min = bmin
            if bmax > self.max:
                self.max = bmax
            return
        for x in values:
            self.add(x)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 when n < 2)."""
        if self.n < 2:
            return 0.0
        return self._m2 / (self.n - 1)

    @property
    def population_variance(self) -> float:
        """Biased (n denominator) variance."""
        if self.n < 1:
            return 0.0
        return self._m2 / self.n

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two accumulators (parallel aggregation; Chan et al.)."""
        merged = RunningStats()
        merged.n = self.n + other.n
        if merged.n == 0:
            return merged
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.n / merged.n
        merged._m2 = (self._m2 + other._m2
                      + delta * delta * self.n * other.n / merged.n)
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def __repr__(self) -> str:
        return (f"RunningStats(n={self.n}, mean={self.mean:.6g}, "
                f"std={self.std:.6g})")
