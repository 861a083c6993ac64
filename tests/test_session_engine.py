"""Integration tests: sessions, the optimizer and the engine."""

import itertools
import random

import pytest

from repro.core.engine import Dataset, StormEngine
from repro.core.estimators.aggregates import AvgEstimator
from repro.core.geometry import Rect
from repro.core.optimizer import QueryOptimizer
from repro.core.records import Record, STRange, attribute_getter
from repro.core.session import OnlineQuerySession, StopCondition
from repro.errors import OptimizerError, StormError

from tests.conftest import make_points


def osm_like_records(n=3000, seed=101):
    rng = random.Random(seed)
    return [Record(record_id=i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"altitude": rng.gauss(500, 100)})
            for i in range(n)]


RECORDS = osm_like_records()
DATASET = Dataset("osm", RECORDS, rs_buffer_size=32)
QUERY = STRange(20, 20, 80, 80, 100, 900)


def truth_avg(query=QUERY, attr="altitude"):
    vals = [r.attrs[attr] for r in RECORDS if query.contains(r)]
    return sum(vals) / len(vals)


class TestStopConditions:
    def test_sample_budget(self):
        est = AvgEstimator(attribute_getter("altitude"))
        session = DATASET.session(QUERY, est, method="rs-tree",
                                  rng=random.Random(1), report_every=8)
        final = session.run_to_stop(StopCondition(max_samples=64))
        assert final.done
        assert final.reason == "sample budget reached"
        assert 64 <= final.k < 80

    def test_time_budget_with_fake_clock(self):
        est = AvgEstimator(attribute_getter("altitude"))
        ticker = itertools.count()
        clock = lambda: next(ticker) * 0.01  # noqa: E731
        sampler = DATASET.samplers["rs-tree"]
        session = OnlineQuerySession(sampler, est, QUERY.to_rect(3),
                                     DATASET.lookup,
                                     rng=random.Random(2),
                                     clock=clock, report_every=4)
        final = session.run_to_stop(StopCondition(max_seconds=0.5))
        assert final.reason == "time budget reached"

    def test_accuracy_target(self):
        est = AvgEstimator(attribute_getter("altitude"))
        session = DATASET.session(QUERY, est, method="rs-tree",
                                  rng=random.Random(3), report_every=8)
        final = session.run_to_stop(
            StopCondition(target_relative_error=0.02))
        assert final.reason == "target relative error reached"
        assert final.estimate.interval.relative_half_width() <= 0.02
        assert final.estimate.interval.contains(truth_avg())

    def test_exhaustion_gives_exact(self):
        small = STRange(45, 45, 52, 52)
        est = AvgEstimator(attribute_getter("altitude"))
        session = DATASET.session(small, est, method="query-first",
                                  rng=random.Random(4), report_every=4)
        final = session.run_to_stop(StopCondition())
        assert final.reason == "exhausted (exact result)"
        assert final.estimate.exact
        assert final.estimate.value == pytest.approx(truth_avg(small))

    def test_user_stop_mode(self):
        est = AvgEstimator(attribute_getter("altitude"))
        session = DATASET.session(QUERY, est, method="ls-tree",
                                  rng=random.Random(5), report_every=4)
        for point in session.run(StopCondition()):
            if point.k >= 20:
                break  # the user got bored — that must be legal
        assert est.k >= 20

    def test_empty_range(self):
        est = AvgEstimator(attribute_getter("altitude"))
        session = DATASET.session(STRange(200, 200, 300, 300), est,
                                  method="rs-tree",
                                  rng=random.Random(6))
        final = session.run_to_stop(StopCondition(max_samples=10))
        assert final.reason == "empty range"
        assert final.estimate.exact

    def test_bad_condition_rejected(self):
        with pytest.raises(StormError):
            StopCondition(max_samples=0)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
    def test_bad_level_rejected(self, level):
        """Checked even in user-stop mode: the session swallows the
        estimator's level error, so a bad level would never report."""
        for kwargs in ({}, {"target_relative_error": 0.01}):
            with pytest.raises(StormError, match="confidence level"):
                StopCondition(level=level, **kwargs)

    def test_estimates_improve_over_time(self):
        est = AvgEstimator(attribute_getter("altitude"))
        session = DATASET.session(QUERY, est, method="rs-tree",
                                  rng=random.Random(7), report_every=16)
        history = session.history(StopCondition(max_samples=600))
        widths = [p.estimate.interval.width for p in history
                  if p.estimate.interval is not None]
        assert widths[-1] < widths[0]


class TestOptimizer:
    def test_small_k_prefers_index_samplers(self):
        plan = DATASET.optimizer.choose(QUERY.to_rect(3), expected_k=32)
        assert plan.method in ("rs-tree", "ls-tree")

    def test_huge_k_prefers_query_first(self):
        q = DATASET.tree.range_count(QUERY.to_rect(3))
        plan = DATASET.optimizer.choose(QUERY.to_rect(3), expected_k=q)
        assert plan.method == "query-first"

    def test_sample_first_never_wins_selective_queries(self):
        tiny = STRange(45, 45, 47, 47).to_rect(3)
        plan = DATASET.optimizer.choose(tiny, expected_k=16)
        assert plan.method != "sample-first"

    def test_explain_mentions_choice(self):
        plan = DATASET.optimizer.choose(QUERY.to_rect(3))
        assert plan.method in plan.explain()
        assert "<-- chosen" in plan.explain()

    def test_rejects_empty_registry(self):
        with pytest.raises(OptimizerError):
            QueryOptimizer({})

    def test_rejects_bad_k(self):
        with pytest.raises(OptimizerError):
            DATASET.optimizer.choose(QUERY.to_rect(3), expected_k=0)


class TestDataset:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(StormError):
            Dataset("dup", [Record(0, 0, 0), Record(0, 1, 1)])

    def test_insert_and_delete_visible_to_queries(self):
        ds = Dataset("mut", osm_like_records(500, seed=7),
                     rs_buffer_size=16)
        box = STRange(0, 0, 100, 100)
        before = ds.tree.range_count(box.to_rect(3))
        ds.insert(Record(10_000, lon=50, lat=50, t=500,
                         attrs={"altitude": 42.0}))
        assert ds.tree.range_count(box.to_rect(3)) == before + 1
        assert ds.delete(10_000)
        assert ds.tree.range_count(box.to_rect(3)) == before

    def test_delete_missing_returns_false(self):
        ds = Dataset("mut2", osm_like_records(100, seed=8))
        assert not ds.delete(999_999)

    def test_2d_dataset(self):
        pts = make_points(300, seed=51)
        records = [Record(pid, lon=x, lat=y) for pid, (x, y) in pts]
        ds = Dataset("flat", records, dims=2, build_ls=False)
        assert ds.tree.range_count(Rect((0, 0), (100, 100))) == 300

    def test_dim_mismatch_query_rejected(self):
        ds = Dataset("d3", osm_like_records(50, seed=9))
        with pytest.raises(StormError):
            ds.to_rect(Rect((0, 0), (1, 1)))

    def test_unknown_method_rejected(self):
        est = AvgEstimator(attribute_getter("altitude"))
        with pytest.raises(StormError):
            DATASET.session(QUERY, est, method="magic")


class TestEngine:
    def setup_method(self):
        self.engine = StormEngine(seed=1)
        self.engine.register(DATASET)

    def test_avg_helper(self):
        # A single 95% interval may legitimately miss; check coverage
        # across seeds instead of one knife-edge draw.
        hits = 0
        for seed in range(10):
            point = self.engine.avg(
                "osm", "altitude", QUERY,
                stop=StopCondition(max_samples=400),
                rng=random.Random(seed))
            assert point.estimate.value == pytest.approx(
                truth_avg(), rel=0.05)
            if point.estimate.interval.contains(truth_avg()):
                hits += 1
        assert hits >= 8

    def test_sum_helper(self):
        point = self.engine.sum(
            "osm", "altitude", QUERY,
            stop=StopCondition(max_samples=400),
            rng=random.Random(12))
        q = DATASET.tree.range_count(QUERY.to_rect(3))
        assert point.estimate.value == pytest.approx(
            truth_avg() * q, rel=0.05)

    def test_count_helper_exact(self):
        point = self.engine.count("osm", QUERY,
                                  rng=random.Random(13))
        q = DATASET.tree.range_count(QUERY.to_rect(3))
        assert point.estimate.value == q
        assert point.estimate.exact

    def test_count_with_predicate(self):
        point = self.engine.count(
            "osm", QUERY, predicate=lambda r: r.attrs["altitude"] > 500,
            stop=StopCondition(max_samples=500),
            rng=random.Random(14))
        truth = sum(1 for r in RECORDS
                    if QUERY.contains(r) and r.attrs["altitude"] > 500)
        assert point.estimate.interval.lo <= truth \
            <= point.estimate.interval.hi

    def test_unknown_dataset(self):
        with pytest.raises(StormError):
            self.engine.avg("nope", "x", QUERY)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(StormError):
            self.engine.register(DATASET)

    def test_create_and_drop(self):
        ds = self.engine.create_dataset(
            "tmp", osm_like_records(100, seed=15))
        assert self.engine.dataset("tmp") is ds
        self.engine.drop_dataset("tmp")
        with pytest.raises(StormError):
            self.engine.dataset("tmp")
