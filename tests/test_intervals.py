"""Unit tests for confidence interval machinery."""

import math
import random

import pytest
from scipy import stats

from repro.core.engine import Dataset
from repro.core.estimators.aggregates import AvgEstimator
from repro.core.estimators.intervals import (QUANTILE_CACHE_SIZE,
                                             ConfidenceInterval,
                                             finite_population_correction,
                                             hoeffding_interval,
                                             mean_interval,
                                             proportion_interval,
                                             quantile,
                                             required_sample_size)
from repro.core.geometry import Rect
from repro.core.records import attribute_getter
from repro.core.session import StopCondition
from repro.errors import EstimatorError
from repro.workloads.osm import OSMWorkload


class TestConfidenceInterval:
    def test_width_and_center(self):
        ci = ConfidenceInterval(1.0, 3.0, 0.95)
        assert ci.width == 2.0
        assert ci.half_width == 1.0
        assert ci.center == 2.0

    def test_contains(self):
        ci = ConfidenceInterval(1.0, 3.0, 0.95)
        assert ci.contains(2.0)
        assert ci.contains(1.0)
        assert not ci.contains(3.5)

    def test_relative_half_width(self):
        ci = ConfidenceInterval(9.0, 11.0, 0.95)
        assert ci.relative_half_width() == pytest.approx(0.1)

    def test_relative_half_width_zero_center(self):
        ci = ConfidenceInterval(-1.0, 1.0, 0.95)
        assert ci.relative_half_width() == math.inf


class TestFPC:
    def test_no_population(self):
        assert finite_population_correction(10, None) == 1.0

    def test_full_sample_is_exact(self):
        assert finite_population_correction(100, 100) == 0.0

    def test_shrinks_with_k(self):
        values = [finite_population_correction(k, 1000)
                  for k in (1, 100, 500, 999)]
        assert values == sorted(values, reverse=True)


class TestMeanInterval:
    def test_basic_shrinkage(self):
        wide = mean_interval(10.0, 4.0, 10)
        narrow = mean_interval(10.0, 4.0, 1000)
        assert narrow.width < wide.width

    def test_single_sample_unbounded(self):
        ci = mean_interval(5.0, 0.0, 1)
        assert ci.lo == -math.inf and ci.hi == math.inf

    def test_exact_when_k_equals_q(self):
        ci = mean_interval(5.0, 4.0, 100, q=100)
        assert ci.width == 0.0

    def test_coverage_simulation(self):
        """~95% of intervals must contain the true mean."""
        rng = random.Random(55)
        population = [rng.gauss(50, 10) for _ in range(5000)]
        mu = sum(population) / len(population)
        hits = 0
        trials = 400
        for _ in range(trials):
            sample = [rng.choice(population) for _ in range(60)]
            mean = sum(sample) / len(sample)
            var = (sum((x - mean) ** 2 for x in sample)
                   / (len(sample) - 1))
            if mean_interval(mean, var, len(sample), 0.95).contains(mu):
                hits += 1
        assert hits / trials > 0.90

    def test_rejects_bad_level(self):
        with pytest.raises(EstimatorError):
            mean_interval(0.0, 1.0, 10, level=1.5)

    def test_rejects_negative_variance(self):
        with pytest.raises(EstimatorError):
            mean_interval(0.0, -1.0, 10)

    def test_rejects_zero_samples(self):
        with pytest.raises(EstimatorError):
            mean_interval(0.0, 1.0, 0)

    def test_t_wider_than_normal_for_small_k(self):
        t_ci = mean_interval(0.0, 1.0, 5, use_t=True)
        n_ci = mean_interval(0.0, 1.0, 5, use_t=False)
        assert t_ci.width > n_ci.width


class TestHoeffding:
    def test_valid_and_conservative(self):
        h = hoeffding_interval(0.5, 100, 0.0, 1.0)
        assert h.contains(0.5)
        clt = mean_interval(0.5, 0.25, 100)
        assert h.width >= clt.width  # Hoeffding is conservative

    def test_shrinks_with_k(self):
        assert hoeffding_interval(0.5, 1000, 0.0, 1.0).width \
            < hoeffding_interval(0.5, 10, 0.0, 1.0).width

    def test_rejects_inverted_bounds(self):
        with pytest.raises(EstimatorError):
            hoeffding_interval(0.5, 10, 1.0, 0.0)


class TestProportion:
    def test_bounded_to_unit_interval(self):
        ci = proportion_interval(0, 10)
        assert ci.lo == 0.0
        ci = proportion_interval(10, 10)
        assert ci.hi == pytest.approx(1.0)
        assert ci.hi <= 1.0

    def test_contains_sample_proportion(self):
        ci = proportion_interval(30, 100)
        assert ci.contains(0.3)

    def test_rejects_bad_successes(self):
        with pytest.raises(EstimatorError):
            proportion_interval(11, 10)


class TestRequiredSampleSize:
    def test_more_precision_needs_more_samples(self):
        loose = required_sample_size(100.0, 5.0)
        tight = required_sample_size(100.0, 0.5)
        assert tight > loose

    def test_capped_by_population(self):
        assert required_sample_size(1e9, 1e-6, q=500) <= 500

    def test_zero_variance(self):
        assert required_sample_size(0.0, 1.0) == 1

    def test_rejects_bad_target(self):
        with pytest.raises(EstimatorError):
            required_sample_size(1.0, 0.0)

    def test_prediction_is_adequate(self):
        """Drawing the predicted number of samples should reach the
        target half-width (on average)."""
        rng = random.Random(66)
        population = [rng.gauss(0, 5) for _ in range(20_000)]
        var = 25.0
        target = 0.5
        k = required_sample_size(var, target)
        sample = [rng.choice(population) for _ in range(k)]
        mean = sum(sample) / k
        s2 = sum((x - mean) ** 2 for x in sample) / (k - 1)
        ci = mean_interval(mean, s2, k)
        assert ci.half_width < target * 1.3


class TestQuantileCache:
    @pytest.mark.parametrize("df", [1, 2, 63, 10**4])
    def test_t_matches_scipy(self, df):
        for p in (0.75, 0.95, 0.975, 0.995):
            expected = float(stats.t.ppf(p, df=df))
            assert quantile("t", p, df) == expected  # computed
            assert quantile("t", p, df) == expected  # memoised

    def test_other_distributions_match_scipy(self):
        for p in (0.005, 0.025, 0.5, 0.975, 0.995):
            assert quantile("norm", p) == float(stats.norm.ppf(p))
            assert quantile("chi2", p, 63) == float(stats.chi2.ppf(p, 63))
            assert quantile("binom", p, 200, 0.3) == \
                float(stats.binom.ppf(p, 200, 0.3))

    def test_bounded(self):
        assert quantile.cache_info().maxsize == QUANTILE_CACHE_SIZE > 0


class TestProgressiveIntervalsUseTheCache:
    RECT = Rect((-125, 25), (-65, 50))  # every synthetic OSM record

    @classmethod
    def _stream(cls, seed=7):
        dataset = Dataset("osm", OSMWorkload(n=20000, seed=3).generate(),
                          dims=2, build_ls=False, seed=3)
        session = dataset.session(
            cls.RECT, AvgEstimator(attribute_getter("altitude")),
            rng=random.Random(seed))
        points = [(p.k, p.estimate, p.done, p.reason, p.coverage)
                  for p in session.run(
                      StopCondition(target_relative_error=0.01))]
        assert points and points[-1][2]
        return points

    def test_cold_and_warm_cache_give_identical_progress(self):
        quantile.cache_clear()
        cold = self._stream()
        assert quantile.cache_info().misses > 0
        warm = self._stream()
        assert warm == cold

    def test_warm_stream_never_calls_scipy(self, monkeypatch):
        first = self._stream()

        def boom(*args, **kwargs):
            raise AssertionError("scipy quantile called on a warm key")
        monkeypatch.setattr(stats.t, "ppf", boom)
        monkeypatch.setattr(stats.norm, "ppf", boom)
        assert self._stream() == first
