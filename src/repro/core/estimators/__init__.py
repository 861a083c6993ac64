"""The feature module: online estimators over spatial sample streams.

The paper's design (Section 3.2): any population aggregate can be estimated
from a uniform sample, with accuracy characterised by confidence intervals
that tighten as the sample grows.  STORM ships a set of built-in estimators
and exposes the same machinery for customised ones.

``intervals``
    Confidence interval calculations: CLT/Student-t with the finite
    population correction (the samplers draw without replacement and q is
    known exactly from index counts), plus conservative Hoeffding bounds
    for bounded attributes.
``aggregates``
    COUNT / SUM / AVG / VAR / STD / proportion / quantile estimators.
``kde``
    Online kernel density estimation over a grid with per-cell intervals
    (the paper's population-density demo, Figure 5).
``clustering``
    Online k-means over the sample (the "clustering on samples" analytic).
``trajectory``
    Online approximate trajectory reconstruction (Figure 6a).
``text``
    Online short-text understanding: term frequencies with intervals
    (Figure 6b, the Atlanta snowstorm example).
"""

from repro.core.estimators.aggregates import (AvgEstimator, CountEstimator,
                                              ProportionEstimator,
                                              QuantileEstimator,
                                              SumEstimator,
                                              VarianceEstimator)
from repro.core.estimators.base import Estimate, OnlineEstimator
from repro.core.estimators.bootstrap import (BootstrapEstimator,
                                             bootstrap_interval)
from repro.core.estimators.clustering import OnlineKMeans
from repro.core.estimators.groupby import GroupByEstimator, GroupResult
from repro.core.estimators.intervals import (ConfidenceInterval,
                                             hoeffding_interval,
                                             mean_interval)
from repro.core.estimators.kde import GridSpec, OnlineKDE
from repro.core.estimators.text import ShortTextEstimator, TermStat
from repro.core.estimators.timeseries import TimeHistogramEstimator
from repro.core.estimators.trajectory import TrajectoryEstimator

__all__ = [
    "AvgEstimator",
    "BootstrapEstimator",
    "ConfidenceInterval",
    "bootstrap_interval",
    "CountEstimator",
    "Estimate",
    "GridSpec",
    "GroupByEstimator",
    "GroupResult",
    "OnlineEstimator",
    "OnlineKDE",
    "OnlineKMeans",
    "ProportionEstimator",
    "QuantileEstimator",
    "ShortTextEstimator",
    "SumEstimator",
    "TermStat",
    "TimeHistogramEstimator",
    "TrajectoryEstimator",
    "VarianceEstimator",
    "hoeffding_interval",
    "mean_interval",
]
