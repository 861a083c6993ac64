"""End-to-end fault tolerance: liveness, uniformity, coverage, EXPLAIN.

The chaos harness (``repro.bench.chaos``) is exercised directly so CI
tests and the benchmark JSON agree on what "healthy under faults"
means: chi-square uniformity at escalating fault rates, mid-stream
crash recovery via replica failover, graceful degradation without
replicas, and the EXPLAIN ANALYZE faults section.
"""

import random

import pytest

from repro.bench.chaos import (_crash_scenario, _grid_records,
                               _uniformity_sweep, run_chaos)
from repro.core.engine import StormEngine
from repro.core.estimators.aggregates import CountEstimator
from repro.core.geometry import Rect
from repro.core.sampling.base import take
from repro.core.session import StopCondition
from repro.distributed.dataset import DistributedDataset
from repro.distributed.dist_index import DistributedSTIndex
from repro.distributed.dist_sampler import DistributedSampler
from repro.faults import FaultPlan
from repro.query.executor import QueryExecutor

BOX = Rect((0.0, 0.0, 0.0), (100.0, 100.0, 1000.0))
P_THRESHOLD = 1e-3


class TestUniformityUnderFaults:
    """First-k draw counts stay uniform as fault rates escalate."""

    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.1])
    def test_chi_square_does_not_reject(self, rate):
        rows = _uniformity_sweep(
            [rate], n=120, workers=4, replication=2, trials=300, k=6,
            seed=23)
        row = rows[0]
        assert row["completed"] == row["trials"], \
            "liveness: every session must finish under faults"
        assert row["p_value"] > P_THRESHOLD
        if rate > 0:
            assert row["errors"] > 0, "the plan injected nothing"

    def test_harness_report_is_self_consistent(self):
        report = run_chaos(n=120, workers=4, replication=2,
                           trials=120, k=6, rates=(0.0, 0.05),
                           seed=11)
        assert report["checks"] and all(report["checks"].values())
        assert len(report["detail"]["fault_rate_sweep"]) == 2


class TestMidStreamCrash:
    def build(self, replication, n=160, seed=3):
        records = _grid_records(n, seed)
        index = DistributedSTIndex(records, n_workers=4,
                                   replication=replication, seed=seed,
                                   faults=FaultPlan(seed=seed))
        return index, DistributedSampler(index,
                                         backoff_seconds=0.001)

    def test_replicated_crash_is_invisible_to_the_result(self):
        index, sampler = self.build(replication=2)
        stream = sampler.sample_stream(BOX, random.Random(5))
        seen = [e.item_id for e in take(stream, 20)]
        index.cluster.crash_worker(1)
        seen += [e.item_id for e in stream]
        assert len(seen) == 160
        assert len(set(seen)) == 160, \
            "failover must not replay already-emitted samples"
        assert sampler.coverage == 1.0
        assert sampler.last_faults["failovers"] >= 1

    def test_unreplicated_crash_degrades_coverage_not_liveness(self):
        index, sampler = self.build(replication=1)
        stream = sampler.sample_stream(BOX, random.Random(5))
        seen = [e.item_id for e in take(stream, 20)]
        index.cluster.crash_worker(1)
        seen += [e.item_id for e in stream]  # completes, shorter
        assert len(seen) < 160
        assert len(set(seen)) == len(seen)
        assert sampler.coverage < 1.0

    @pytest.mark.parametrize("replication", [1, 2])
    def test_crash_between_open_and_fetch_leaks_no_handles(
            self, replication):
        index, sampler = self.build(replication=replication)
        stream = sampler.sample_stream(BOX, random.Random(5))
        next(stream)  # streams are open on every worker now
        index.cluster.crash_worker(2)
        list(stream)  # drain to completion
        leaked = sum(w.open_stream_count()
                     for w in index.cluster.workers)
        assert leaked == 0

    def test_abandoned_stream_closes_its_handles(self):
        index, sampler = self.build(replication=2)
        stream = sampler.sample_stream(BOX, random.Random(5))
        next(stream)
        index.cluster.crash_worker(1)
        next(stream)
        stream.close()  # user walks away mid-query
        leaked = sum(w.open_stream_count()
                     for w in index.cluster.workers)
        assert leaked == 0

    def test_crash_and_recover_keeps_stream_uniformity_machinery(self):
        # A crash window that closes again: the worker recovers but
        # its stream handle died, so the sampler re-opens and filters.
        plan = FaultPlan(seed=3).crash("worker:1", at=20, until=40)
        records = _grid_records(160, 3)
        index = DistributedSTIndex(records, n_workers=4,
                                   replication=2, seed=3, faults=plan)
        sampler = DistributedSampler(index, backoff_seconds=0.001)
        seen = [e.item_id
                for e in sampler.sample_stream(BOX, random.Random(5))]
        assert len(seen) == 160 and len(set(seen)) == 160
        assert sampler.coverage == 1.0


class TestSessionsAndExplainUnderFaults:
    def engine_with(self, replication, faults, n=240, seed=7):
        engine = StormEngine(seed=seed)
        # Small batches: enough round trips that a crash window in
        # the low tens of ticks lands mid-stream, not after the end.
        engine.register(DistributedDataset(
            "grid", _grid_records(n, seed), n_workers=4,
            replication=replication, faults=faults, seed=seed,
            batch_size=8, backoff_seconds=0.001))
        return engine

    def test_session_with_failover_reaches_exact_result(self):
        plan = FaultPlan(seed=7).crash("worker:2", at=14)
        engine = self.engine_with(2, plan)
        dataset = engine.dataset("grid")
        session = dataset.session(BOX, CountEstimator(),
                                  rng=random.Random(1))
        point = session.run_to_stop(StopCondition())
        assert point.reason == "exhausted (exact result)"
        assert point.coverage == 1.0
        assert point.estimate.value == 240

    def test_degraded_session_reports_partial_coverage(self):
        plan = FaultPlan(seed=7).crash("worker:2", at=0)
        engine = self.engine_with(1, plan)
        dataset = engine.dataset("grid")
        session = dataset.session(BOX, CountEstimator(),
                                  rng=random.Random(1))
        point = session.run_to_stop(StopCondition())
        assert point.coverage < 1.0
        assert "coverage" in point.reason

    def test_explain_analyze_reports_failovers(self):
        plan = FaultPlan(seed=7).crash("worker:2", at=14)
        engine = self.engine_with(2, plan)
        executor = QueryExecutor(engine, rng=random.Random(2))
        report = executor.explain_report(
            "ESTIMATE COUNT FROM grid WHERE REGION(0, 0, 100, 100)")
        assert "faults:" in report
        assert "stream failovers" in report
        assert "method fixed at build time: distributed-rs" in report

    def test_explain_analyze_reports_degraded_coverage(self):
        plan = FaultPlan(seed=7).crash("worker:2", at=0)
        engine = self.engine_with(1, plan)
        executor = QueryExecutor(engine, rng=random.Random(2))
        report = executor.explain_report(
            "ESTIMATE COUNT FROM grid WHERE REGION(0, 0, 100, 100)")
        assert "degraded workers" in report
        assert "coverage" in report

    def test_fault_free_explain_has_no_faults_section(self):
        engine = self.engine_with(2, None)
        executor = QueryExecutor(engine, rng=random.Random(2))
        report = executor.explain_report(
            "ESTIMATE COUNT FROM grid WHERE REGION(0, 0, 100, 100)")
        assert "faults:" not in report


class TestCrashScenarioHelper:
    def test_replicated_scenario_shape(self):
        row = _crash_scenario(2, n=160, workers=4, seed=5)
        assert row["distinct"] == row["population"]
        assert row["coverage"] == 1.0
        assert row["leaked_streams"] == 0

    def test_bare_scenario_degrades(self):
        row = _crash_scenario(1, n=160, workers=4, seed=5)
        assert row["coverage"] < 1.0
        assert row["distinct"] == row["emitted"]
        assert row["leaked_streams"] == 0
