"""Confidence interval machinery for online estimators.

The statistical backbone of online aggregation (Hellerstein et al., Haas):
the sample mean of k uniform samples is unbiased for the population mean,
and by the CLT ``x̄ − µ → Normal(0, σ²/k)``.  Because STORM samples
*without replacement* and knows the population size ``q`` exactly (from
index counts), the variance gets the finite population correction
``(q − k)/(q − 1)`` — estimates become *exact* (zero-width intervals) as
``k → q``.

Small samples use the Student-t quantile rather than the normal one.  For
attributes with known bounds, :func:`hoeffding_interval` offers a
conservative distribution-free alternative.

Every distribution quantile an estimator needs — normal and Student-t
critical values, the chi-square pivot of VAR/STD, the binomial order
statistics of a quantile estimate, the KDE's per-cell t — comes from
:func:`quantile`, the only ``scipy.stats`` caller in ``repro.core``.  It
memoises on the distribution and its exact arguments (at most
:data:`QUANTILE_CACHE_SIZE` entries).  Progressive streams report at the
same sample counts, so a frame's (level, df) quantile costs a scipy call
only the first time any stream reaches that k.  Callers validate the confidence level with :func:`check_level`
before the lookup, so a bad level raises on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from scipy import stats as _stats

from repro.errors import EstimatorError

__all__ = [
    "ConfidenceInterval",
    "finite_population_correction",
    "QUANTILE_CACHE_SIZE",
    "check_level",
    "mean_interval",
    "hoeffding_interval",
    "proportion_interval",
    "quantile",
    "required_sample_size",
]

#: Bound on :func:`quantile`'s memo.  Keys grow with the distinct sample
#: counts frames report at, not with the number of streams.
QUANTILE_CACHE_SIZE = 4096

_DISTRIBUTIONS = {
    "norm": _stats.norm,
    "t": _stats.t,
    "chi2": _stats.chi2,
    "binom": _stats.binom,
}


@functools.lru_cache(maxsize=QUANTILE_CACHE_SIZE)
def quantile(dist: str, p: float, *params: float) -> float:
    """``scipy.stats.<dist>.ppf(p, *params)`` as a float, memoised.

    ``dist`` is one of ``norm``, ``t`` (params: df), ``chi2`` (df) or
    ``binom`` (n, prob).  The value is exactly scipy's; only repeated
    lookups of the same key are skipped.
    """
    return float(_DISTRIBUTIONS[dist].ppf(p, *params))


def check_level(level: float) -> None:
    """Raise :class:`EstimatorError` unless ``0 < level < 1``."""
    if not 0.0 < level < 1.0:
        raise EstimatorError(f"confidence level must be in (0,1): {level}")


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A two-sided interval ``[lo, hi]`` holding with probability
    ``level`` (e.g. 0.95)."""

    lo: float
    hi: float
    level: float

    @property
    def width(self) -> float:
        """hi - lo."""
        return self.hi - self.lo

    @property
    def half_width(self) -> float:
        """Half of the interval width (the +/- margin)."""
        return (self.hi - self.lo) / 2.0

    @property
    def center(self) -> float:
        """Interval midpoint."""
        return (self.lo + self.hi) / 2.0

    def contains(self, value: float) -> bool:
        """Whether a value lies inside the closed interval."""
        return self.lo <= value <= self.hi

    def relative_half_width(self) -> float:
        """Half-width relative to the center (the paper's "error x%")."""
        center = abs(self.center)
        if center == 0.0:
            return math.inf if self.width > 0 else 0.0
        return self.half_width / center

    def __repr__(self) -> str:
        return (f"CI[{self.lo:.6g}, {self.hi:.6g}] "
                f"@{self.level:.0%}")


def finite_population_correction(k: int, q: int | None) -> float:
    """Variance shrink factor for sampling k of q without replacement."""
    if q is None or q <= 1:
        return 1.0
    if k >= q:
        return 0.0
    return (q - k) / (q - 1)


def _critical_value(level: float, k: int, use_t: bool) -> float:
    check_level(level)
    tail = (1.0 + level) / 2.0
    if use_t and k >= 2:
        return quantile("t", tail, k - 1)
    return quantile("norm", tail)


def mean_interval(mean: float, sample_variance: float, k: int,
                  level: float = 0.95, q: int | None = None,
                  use_t: bool = True) -> ConfidenceInterval:
    """CLT interval for a population mean from k without-replacement
    samples.

    ``sample_variance`` is the unbiased (k−1 denominator) sample variance.
    ``q`` enables the finite population correction; ``use_t`` switches to
    Student-t quantiles (recommended, matters for small k).
    """
    if k < 1:
        raise EstimatorError("need at least one sample for an interval")
    if sample_variance < 0:
        raise EstimatorError("variance cannot be negative")
    if k == 1:
        check_level(level)
        # No variance information at all: the honest answer is "unbounded".
        return ConfidenceInterval(-math.inf, math.inf, level)
    fpc = finite_population_correction(k, q)
    se = math.sqrt(sample_variance / k * fpc)
    z = _critical_value(level, k, use_t)
    return ConfidenceInterval(mean - z * se, mean + z * se, level)


def hoeffding_interval(mean: float, k: int, lo: float, hi: float,
                       level: float = 0.95) -> ConfidenceInterval:
    """Distribution-free interval for the mean of a [lo, hi]-bounded
    attribute (Hoeffding's inequality).  Conservative but valid at any k."""
    if k < 1:
        raise EstimatorError("need at least one sample for an interval")
    if hi < lo:
        raise EstimatorError("attribute bounds are inverted")
    check_level(level)
    span = hi - lo
    eps = span * math.sqrt(math.log(2.0 / (1.0 - level)) / (2.0 * k))
    return ConfidenceInterval(mean - eps, mean + eps, level)


def proportion_interval(successes: int, k: int, level: float = 0.95,
                        q: int | None = None) -> ConfidenceInterval:
    """Wilson score interval for a population proportion, with FPC."""
    if k < 1:
        raise EstimatorError("need at least one sample for an interval")
    if not 0 <= successes <= k:
        raise EstimatorError("successes must be within [0, k]")
    z = _critical_value(level, k, use_t=False)
    z *= math.sqrt(finite_population_correction(k, q))
    p = successes / k
    denom = 1.0 + z * z / k
    center = (p + z * z / (2 * k)) / denom
    margin = (z / denom) * math.sqrt(p * (1 - p) / k
                                     + z * z / (4 * k * k))
    return ConfidenceInterval(max(0.0, center - margin),
                              min(1.0, center + margin), level)


def required_sample_size(sample_variance: float, target_half_width: float,
                         level: float = 0.95, q: int | None = None) -> int:
    """Samples needed so the mean interval shrinks to the target
    half-width (planning helper for accuracy-bounded queries)."""
    if target_half_width <= 0:
        raise EstimatorError("target half-width must be positive")
    if sample_variance <= 0:
        return 1
    z = _critical_value(level, 10**9, use_t=False)
    k = (z * z * sample_variance) / (target_half_width ** 2)
    if q is not None and q > 1:
        # Solve k with the FPC folded in: k' = k / (1 + (k-1)/q).
        k = k / (1.0 + (k - 1.0) / q)
        k = min(k, q)
    return max(1, math.ceil(k))
