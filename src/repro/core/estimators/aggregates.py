"""Online estimators for the standard spatio-temporal aggregates.

These are the paper's "basic spatio-temporal aggregations": COUNT, SUM,
AVG, VAR/STD, proportions under a predicate, and quantiles.  Each consumes
the sampler's stream and reports an unbiased value with an interval that
tightens as k grows — and collapses to exact once k = q.

Knowing q exactly (from index counts) is what turns AVG estimates into SUM
estimates: ``SUM = q · AVG`` with the interval scaled by q.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable

from repro.core.estimators.base import Estimate, OnlineEstimator, \
    RunningStats
from repro.core.estimators.intervals import (ConfidenceInterval,
                                             check_level,
                                             mean_interval,
                                             proportion_interval,
                                             quantile)
from repro.core.records import AttributeAccessor, Record
from repro.errors import EstimatorError

__all__ = [
    "AvgEstimator",
    "CountEstimator",
    "ProportionEstimator",
    "QuantileEstimator",
    "SumEstimator",
    "VarianceEstimator",
]


class AvgEstimator(OnlineEstimator):
    """Sample mean of an attribute — unbiased for the population mean."""

    def __init__(self, attribute: AttributeAccessor):
        super().__init__()
        self.attribute = attribute
        # Accessors built by `attribute_getter` advertise their source
        # attribute; coordinate-backed ones unlock the columnar path.
        self._column = getattr(attribute, "attribute_name", None)
        self.stats = RunningStats()

    @property
    def supports_columns(self) -> bool:  # type: ignore[override]
        return self._column in ("lon", "lat", "t")

    def absorb_columns(self, lons, lats, ts) -> bool:
        if self._column == "lon":
            values = lons
        elif self._column == "lat":
            values = lats
        elif self._column == "t" and ts is not None:
            values = ts
        else:
            return False
        self.stats.add_many(values)
        self.k += len(values)
        return True

    def update(self, record: Record) -> None:
        self.stats.add(self.attribute(record))

    def estimate(self, level: float = 0.95) -> Estimate:
        if self.k == 0:
            raise EstimatorError("no samples absorbed yet")
        interval = mean_interval(self.stats.mean, self.stats.variance,
                                 self.k, level, q=self.fpc_population)
        return Estimate(value=self.stats.mean,
                        std_error=self.stats.std / math.sqrt(self.k),
                        interval=interval, k=self.k,
                        q=self.population_size, exact=self.is_exact)

    def reset(self) -> None:
        super().reset()
        self.stats = RunningStats()


class SumEstimator(OnlineEstimator):
    """``SUM = q · mean`` — needs the exact q the index provides."""

    def __init__(self, attribute: AttributeAccessor):
        super().__init__()
        self._avg = AvgEstimator(attribute)

    def set_population_size(self, q: int) -> None:
        super().set_population_size(q)
        self._avg.set_population_size(q)

    @property
    def supports_columns(self) -> bool:  # type: ignore[override]
        return self._avg.supports_columns

    def absorb_columns(self, lons, lats, ts) -> bool:
        self._avg.k = self.k
        if not self._avg.absorb_columns(lons, lats, ts):
            return False
        self.k = self._avg.k
        return True

    def update(self, record: Record) -> None:
        self._avg.k = self.k
        self._avg.update(record)

    def estimate(self, level: float = 0.95) -> Estimate:
        if self.population_size is None:
            raise EstimatorError(
                "SUM estimation needs the population size q")
        self._avg.k = self.k
        self._avg.sampling_with_replacement = \
            self.sampling_with_replacement
        inner = self._avg.estimate(level)
        q = self.population_size
        interval = ConfidenceInterval(inner.interval.lo * q,
                                      inner.interval.hi * q, level)
        se = None if inner.std_error is None else inner.std_error * q
        return Estimate(value=inner.value * q, std_error=se,
                        interval=interval, k=self.k, q=q,
                        exact=self.is_exact)

    def reset(self) -> None:
        super().reset()
        self._avg.reset()


class CountEstimator(OnlineEstimator):
    """COUNT(*) over the range — exact from index metadata.

    With a ``predicate`` it becomes COUNT(*) WHERE pred, estimated as
    ``q × proportion`` of samples satisfying the predicate.
    """

    def __init__(self, predicate: Callable[[Record], bool] | None = None):
        super().__init__()
        self.predicate = predicate
        self.hits = 0

    @property
    def supports_columns(self) -> bool:  # type: ignore[override]
        return self.predicate is None

    def absorb_columns(self, lons, lats, ts) -> bool:
        if self.predicate is not None:
            return False
        n = len(lons)
        self.hits += n
        self.k += n
        return True

    def update(self, record: Record) -> None:
        if self.predicate is None or self.predicate(record):
            self.hits += 1

    def estimate(self, level: float = 0.95) -> Estimate:
        q = self.population_size
        if q is None:
            raise EstimatorError("COUNT estimation needs q from the index")
        if self.predicate is None:
            interval = ConfidenceInterval(float(q), float(q), level)
            return Estimate(value=q, std_error=0.0, interval=interval,
                            k=self.k, q=q, exact=True)
        if self.k == 0:
            raise EstimatorError("no samples absorbed yet")
        prop = proportion_interval(self.hits, self.k, level,
                                   q=self.fpc_population)
        value = q * self.hits / self.k
        interval = ConfidenceInterval(prop.lo * q, prop.hi * q, level)
        p = self.hits / self.k
        se = q * math.sqrt(max(p * (1 - p), 0.0) / self.k)
        return Estimate(value=value, std_error=se, interval=interval,
                        k=self.k, q=q, exact=self.is_exact)

    def reset(self) -> None:
        super().reset()
        self.hits = 0


class ProportionEstimator(OnlineEstimator):
    """Fraction of in-range records satisfying a predicate (Wilson CI)."""

    def __init__(self, predicate: Callable[[Record], bool]):
        super().__init__()
        self.predicate = predicate
        self.hits = 0

    def update(self, record: Record) -> None:
        if self.predicate(record):
            self.hits += 1

    def estimate(self, level: float = 0.95) -> Estimate:
        if self.k == 0:
            raise EstimatorError("no samples absorbed yet")
        interval = proportion_interval(self.hits, self.k, level,
                                       q=self.fpc_population)
        p = self.hits / self.k
        return Estimate(value=p,
                        std_error=math.sqrt(max(p * (1 - p), 0.0) / self.k),
                        interval=interval, k=self.k,
                        q=self.population_size, exact=self.is_exact)

    def reset(self) -> None:
        super().reset()
        self.hits = 0


class VarianceEstimator(OnlineEstimator):
    """Population variance of an attribute (unbiased sample variance).

    The interval uses the chi-square pivot under approximate normality —
    wide but informative; ``std=True`` reports the standard deviation
    (square-rooted endpoints).
    """

    def __init__(self, attribute: AttributeAccessor, std: bool = False):
        super().__init__()
        self.attribute = attribute
        self.report_std = std
        self.stats = RunningStats()

    def update(self, record: Record) -> None:
        self.stats.add(self.attribute(record))

    def estimate(self, level: float = 0.95) -> Estimate:
        if self.k < 2:
            raise EstimatorError("variance needs at least two samples")
        check_level(level)
        s2 = self.stats.variance
        df = self.k - 1
        alpha = 1.0 - level
        lo = df * s2 / quantile("chi2", 1 - alpha / 2, df)
        hi = df * s2 / quantile("chi2", alpha / 2, df)
        value = s2
        if self.report_std:
            value = math.sqrt(s2)
            lo, hi = math.sqrt(lo), math.sqrt(hi)
        interval = ConfidenceInterval(lo, hi, level)
        return Estimate(value=value, std_error=None, interval=interval,
                        k=self.k, q=self.population_size,
                        exact=self.is_exact)

    def reset(self) -> None:
        super().reset()
        self.stats = RunningStats()


class QuantileEstimator(OnlineEstimator):
    """Sample quantile with a distribution-free order-statistic interval.

    Keeps the samples sorted (bisect insertion); the interval picks order
    statistics whose binomial coverage reaches the requested level.
    """

    def __init__(self, attribute: AttributeAccessor, quantile: float = 0.5):
        super().__init__()
        if not 0.0 < quantile < 1.0:
            raise EstimatorError("quantile must be in (0, 1)")
        self.attribute = attribute
        self.quantile = quantile
        self.values: list[float] = []

    def update(self, record: Record) -> None:
        bisect.insort(self.values, self.attribute(record))

    def estimate(self, level: float = 0.95) -> Estimate:
        k = len(self.values)
        if k == 0:
            raise EstimatorError("no samples absorbed yet")
        check_level(level)
        idx = min(k - 1, max(0, math.ceil(self.quantile * k) - 1))
        value = self.values[idx]
        # Binomial bracket: indices [l, u) covering the quantile w.p. level.
        lo_idx = int(quantile("binom", (1 - level) / 2, k, self.quantile))
        hi_idx = int(quantile("binom", (1 + level) / 2, k, self.quantile))
        lo_idx = max(0, min(lo_idx, k - 1))
        hi_idx = max(0, min(hi_idx, k - 1))
        interval = ConfidenceInterval(self.values[lo_idx],
                                      self.values[hi_idx], level)
        return Estimate(value=value, std_error=None, interval=interval,
                        k=k, q=self.population_size, exact=self.is_exact)

    def reset(self) -> None:
        super().reset()
        self.values = []
