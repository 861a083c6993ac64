"""Unit tests for the aggregate estimators."""

import math
import random

import pytest

from repro.core.estimators.aggregates import (AvgEstimator, CountEstimator,
                                              ProportionEstimator,
                                              QuantileEstimator,
                                              SumEstimator,
                                              VarianceEstimator)
from repro.core.estimators.base import RunningStats
from repro.core.estimators.kde import GridSpec, OnlineKDE
from repro.core.records import Record, attribute_getter
from repro.errors import EstimatorError


def make_records(values, attr="x"):
    return [Record(record_id=i, lon=0.0, lat=0.0, t=0.0,
                   attrs={attr: v}) for i, v in enumerate(values)]


class TestRunningStats:
    def test_matches_direct_computation(self):
        rng = random.Random(1)
        xs = [rng.gauss(10, 3) for _ in range(500)]
        stats = RunningStats()
        for x in xs:
            stats.add(x)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert stats.mean == pytest.approx(mean)
        assert stats.variance == pytest.approx(var)
        assert stats.min == min(xs)
        assert stats.max == max(xs)

    def test_merge(self):
        rng = random.Random(2)
        xs = [rng.gauss(0, 1) for _ in range(300)]
        a, b, whole = RunningStats(), RunningStats(), RunningStats()
        for x in xs[:100]:
            a.add(x)
        for x in xs[100:]:
            b.add(x)
        for x in xs:
            whole.add(x)
        merged = a.merge(b)
        assert merged.n == whole.n
        assert merged.mean == pytest.approx(whole.mean)
        assert merged.variance == pytest.approx(whole.variance)

    def test_merge_empty(self):
        a = RunningStats()
        b = RunningStats()
        b.add(5.0)
        assert a.merge(b).mean == 5.0

    def test_variance_of_single(self):
        s = RunningStats()
        s.add(3.0)
        assert s.variance == 0.0


class TestAvgEstimator:
    def test_value_is_sample_mean(self):
        est = AvgEstimator(attribute_getter("x"))
        for r in make_records([1.0, 2.0, 3.0, 4.0]):
            est.absorb(r)
        e = est.estimate()
        assert e.value == pytest.approx(2.5)
        assert e.k == 4

    def test_interval_contains_truth_usually(self):
        rng = random.Random(3)
        values = [rng.gauss(100, 15) for _ in range(2000)]
        truth = sum(values) / len(values)
        est = AvgEstimator(attribute_getter("x"))
        est.set_population_size(len(values))
        records = make_records(values)
        hits = 0
        for trial in range(100):
            est.reset()
            for r in random.Random(trial).sample(records, 50):
                est.absorb(r)
            if est.estimate().interval.contains(truth):
                hits += 1
        assert hits > 85

    def test_exact_when_all_consumed(self):
        est = AvgEstimator(attribute_getter("x"))
        est.set_population_size(3)
        for r in make_records([1.0, 2.0, 3.0]):
            est.absorb(r)
        e = est.estimate()
        assert e.exact
        assert e.interval.width == pytest.approx(0.0)

    def test_raises_with_no_samples(self):
        est = AvgEstimator(attribute_getter("x"))
        with pytest.raises(EstimatorError):
            est.estimate()

    def test_missing_attribute_raises(self):
        est = AvgEstimator(attribute_getter("missing"))
        with pytest.raises(KeyError):
            est.absorb(make_records([1.0])[0])

    def test_builtin_coordinates_accessible(self):
        est = AvgEstimator(attribute_getter("lat"))
        est.absorb(Record(0, lon=1.0, lat=7.0))
        assert est.estimate().value == 7.0


class TestSumEstimator:
    def test_scales_mean_by_q(self):
        est = SumEstimator(attribute_getter("x"))
        est.set_population_size(100)
        for r in make_records([2.0, 4.0]):
            est.absorb(r)
        assert est.estimate().value == pytest.approx(300.0)

    def test_requires_q(self):
        est = SumEstimator(attribute_getter("x"))
        for r in make_records([2.0, 4.0]):
            est.absorb(r)
        with pytest.raises(EstimatorError):
            est.estimate()

    def test_interval_scaled(self):
        est = SumEstimator(attribute_getter("x"))
        est.set_population_size(10)
        for r in make_records([1.0, 2.0, 3.0]):
            est.absorb(r)
        e = est.estimate()
        assert e.interval.contains(e.value)

    def test_reset(self):
        est = SumEstimator(attribute_getter("x"))
        est.set_population_size(10)
        for r in make_records([1.0, 2.0]):
            est.absorb(r)
        est.reset()
        assert est.k == 0


class TestCountEstimator:
    def test_unfiltered_exact(self):
        est = CountEstimator()
        est.set_population_size(1234)
        e = est.estimate()
        assert e.value == 1234
        assert e.exact

    def test_predicate_estimation(self):
        est = CountEstimator(lambda r: r.attrs["x"] > 0)
        est.set_population_size(1000)
        values = [1.0] * 30 + [-1.0] * 70
        for r in make_records(values):
            est.absorb(r)
        e = est.estimate()
        assert e.value == pytest.approx(300.0)
        assert e.interval.lo <= 300.0 <= e.interval.hi

    def test_requires_q(self):
        est = CountEstimator()
        with pytest.raises(EstimatorError):
            est.estimate()

    def test_predicate_requires_samples(self):
        est = CountEstimator(lambda r: True)
        est.set_population_size(10)
        with pytest.raises(EstimatorError):
            est.estimate()


class TestProportionEstimator:
    def test_basic(self):
        est = ProportionEstimator(lambda r: r.attrs["x"] >= 5)
        for r in make_records([1.0, 6.0, 7.0, 2.0]):
            est.absorb(r)
        e = est.estimate()
        assert e.value == pytest.approx(0.5)
        assert 0.0 <= e.interval.lo <= 0.5 <= e.interval.hi <= 1.0


class TestVarianceEstimator:
    def test_estimates_variance(self):
        rng = random.Random(5)
        values = [rng.gauss(0, 3) for _ in range(400)]
        est = VarianceEstimator(attribute_getter("x"))
        for r in make_records(values):
            est.absorb(r)
        e = est.estimate()
        assert e.value == pytest.approx(9.0, rel=0.3)
        assert e.interval.lo < e.value < e.interval.hi

    def test_std_mode(self):
        est = VarianceEstimator(attribute_getter("x"), std=True)
        for r in make_records([0.0, 2.0, 4.0, 6.0]):
            est.absorb(r)
        e = est.estimate()
        assert e.value == pytest.approx(math.sqrt(
            est.stats.variance))

    def test_needs_two_samples(self):
        est = VarianceEstimator(attribute_getter("x"))
        est.absorb(make_records([1.0])[0])
        with pytest.raises(EstimatorError):
            est.estimate()


class TestQuantileEstimator:
    def test_median_of_known_data(self):
        est = QuantileEstimator(attribute_getter("x"), 0.5)
        for r in make_records(list(range(1, 102))):  # 1..101
            est.absorb(r)
        e = est.estimate()
        assert e.value == 51

    def test_interval_brackets_quantile(self):
        rng = random.Random(6)
        values = [rng.uniform(0, 100) for _ in range(500)]
        est = QuantileEstimator(attribute_getter("x"), 0.9)
        for r in make_records(values):
            est.absorb(r)
        e = est.estimate()
        truth = sorted(values)[int(0.9 * len(values))]
        assert e.interval.lo <= truth <= e.interval.hi

    def test_rejects_bad_quantile(self):
        with pytest.raises(EstimatorError):
            QuantileEstimator(attribute_getter("x"), 1.5)

    def test_empty_raises(self):
        est = QuantileEstimator(attribute_getter("x"))
        with pytest.raises(EstimatorError):
            est.estimate()


_LEVEL_CASES = {
    "avg": (lambda: AvgEstimator(attribute_getter("x")), "estimate"),
    "sum": (lambda: SumEstimator(attribute_getter("x")), "estimate"),
    "count-pred": (lambda: CountEstimator(lambda r: r.attrs["x"] > 4),
                   "estimate"),
    "var": (lambda: VarianceEstimator(attribute_getter("x")), "estimate"),
    "std": (lambda: VarianceEstimator(attribute_getter("x"), std=True),
            "estimate"),
    "quantile": (lambda: QuantileEstimator(attribute_getter("x")),
                 "estimate"),
    "kde": (lambda: OnlineKDE(GridSpec(-1, -1, 1, 1, nx=4, ny=4)),
            "cell_intervals"),
}


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
@pytest.mark.parametrize("name", sorted(_LEVEL_CASES))
def test_out_of_range_level_raises(name, level):
    """A level outside (0, 1) is an EstimatorError on every estimator —
    not a ZeroDivisionError, a NaN interval or a scipy ValueError."""
    factory, method = _LEVEL_CASES[name]
    est = factory()
    est.set_population_size(100)
    est.absorb_batch(make_records([float(v) for v in range(10)]))
    getattr(est, method)(0.95)  # the same state is fine at a valid level
    with pytest.raises(EstimatorError, match="confidence level"):
        getattr(est, method)(level)
