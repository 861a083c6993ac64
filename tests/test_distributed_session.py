"""Online aggregation over the distributed cluster, end to end."""

import random

import pytest

from repro.core.estimators.aggregates import AvgEstimator
from repro.core.records import Record, STRange, attribute_getter
from repro.core.session import OnlineQuerySession, StopCondition
from repro.distributed.dist_index import DistributedSTIndex
from repro.distributed.dist_sampler import DistributedSampler


def make_records(n=5000, seed=131):
    rng = random.Random(seed)
    return [Record(i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": rng.gauss(42.0, 7.0)})
            for i in range(n)]


RECORDS = make_records()
QUERY = STRange(15, 15, 85, 85, 50, 950)


def truth():
    vals = [r.attrs["v"] for r in RECORDS if QUERY.contains(r)]
    return sum(vals) / len(vals)


class TestDistributedOnlineAggregation:
    def test_session_over_cluster(self):
        index = DistributedSTIndex(RECORDS, n_workers=4, seed=5,
                                   rs_buffer_size=32)
        sampler = DistributedSampler(index, batch_size=16)
        estimator = AvgEstimator(attribute_getter("v"))
        session = OnlineQuerySession(
            sampler, estimator, index.to_rect(QUERY), index.lookup,
            rng=random.Random(6), report_every=32)
        final = session.run_to_stop(
            StopCondition(target_relative_error=0.02))
        assert final.done
        assert final.estimate.value == pytest.approx(truth(), rel=0.05)
        assert final.estimate.k < final.estimate.q

    def test_exhaustive_session_is_exact(self):
        small = make_records(400, seed=132)
        index = DistributedSTIndex(small, n_workers=3, seed=7,
                                   rs_buffer_size=16)
        sampler = DistributedSampler(index, batch_size=8)
        estimator = AvgEstimator(attribute_getter("v"))
        session = OnlineQuerySession(
            sampler, estimator, index.to_rect(QUERY), index.lookup,
            rng=random.Random(8), report_every=16)
        final = session.run_to_stop(StopCondition())
        assert final.estimate.exact
        vals = [r.attrs["v"] for r in small if QUERY.contains(r)]
        assert final.estimate.value == pytest.approx(
            sum(vals) / len(vals))


class TestDistributedDataset:
    def test_registers_in_engine_and_serves_analytics(self):
        from repro.core.engine import StormEngine
        from repro.core.session import StopCondition
        from repro.distributed.dataset import DistributedDataset
        engine = StormEngine(seed=10)
        dd = DistributedDataset("cluster_pts", RECORDS, n_workers=4,
                                seed=11, rs_buffer_size=32)
        engine.register(dd)
        point = engine.avg("cluster_pts", "v", QUERY,
                           stop=StopCondition(max_samples=500),
                           rng=random.Random(12))
        assert point.estimate.value == pytest.approx(truth(), rel=0.05)
        count = engine.count("cluster_pts", QUERY,
                             rng=random.Random(13))
        assert count.estimate.exact

    def test_len_and_updates(self):
        from repro.distributed.dataset import DistributedDataset
        dd = DistributedDataset("dd", make_records(400, seed=133),
                                n_workers=2)
        assert len(dd) == 400
        dd.insert(Record(9_000, lon=50, lat=50, t=500,
                         attrs={"v": 1.0}))
        assert len(dd) == 401
        assert dd.delete(9_000)

    def test_method_forcing_rejected(self):
        from repro.core.estimators.aggregates import AvgEstimator
        from repro.distributed.dataset import DistributedDataset
        from repro.errors import StormError
        dd = DistributedDataset("dd2", make_records(200, seed=134),
                                n_workers=2)
        est = AvgEstimator(attribute_getter("v"))
        with pytest.raises(StormError):
            dd.session(QUERY, est, method="rs-tree")
        with pytest.raises(StormError):
            dd.session(QUERY, est, with_replacement=True)

    def test_ls_worker_kind(self):
        from repro.core.session import StopCondition
        from repro.distributed.dataset import DistributedDataset
        dd = DistributedDataset("dd3", RECORDS, n_workers=3,
                                sampler_kind="ls", seed=14)
        est = AvgEstimator(attribute_getter("v"))
        final = dd.session(QUERY, est,
                           rng=random.Random(15)).run_to_stop(
            StopCondition(max_samples=300))
        assert final.estimate.value == pytest.approx(truth(), rel=0.1)


class TestEarlyStopReleasesWorkerStreams:
    """A session stopped before exhaustion must still close its
    per-worker streams and end the ``dist_fanout`` span."""

    @staticmethod
    def open_streams(dd):
        return sum(w.open_stream_count() for w in dd.cluster.workers)

    def test_engine_one_call_helper(self):
        from repro.core.engine import StormEngine
        from repro.core.session import StopCondition
        from repro.distributed.dataset import DistributedDataset
        from repro.obs import Observability
        obs = Observability()
        engine = StormEngine(seed=10)
        dd = DistributedDataset("cluster_pts", RECORDS, n_workers=4,
                                seed=11, obs=obs)
        engine.register(dd)
        point = engine.avg("cluster_pts", "v", QUERY,
                           stop=StopCondition(max_samples=50),
                           rng=random.Random(12))
        assert point.k < point.estimate.q
        assert self.open_streams(dd) == 0
        fanout = obs.tracer.last_root.find("dist_fanout")
        assert fanout is not None and fanout.closed
        assert dd.sampler.last_query_seconds() > 0

    def test_dropped_session(self):
        import gc
        from repro.core.session import StopCondition
        from repro.distributed.dataset import DistributedDataset
        dd = DistributedDataset("dd4", RECORDS, n_workers=4, seed=16)
        session = dd.session(QUERY, AvgEstimator(attribute_getter("v")),
                             rng=random.Random(17))
        session.run_to_stop(StopCondition(max_samples=50))
        assert self.open_streams(dd) > 0
        del session
        gc.collect()
        assert self.open_streams(dd) == 0


class TestEngineExecuteConvenience:
    def test_execute_on_engine(self):
        from repro.core.engine import StormEngine
        engine = StormEngine(seed=9)
        engine.create_dataset("pts", RECORDS)
        result = engine.execute(
            "ESTIMATE AVG(v) FROM pts WHERE REGION(15, 15, 85, 85) "
            "AND TIME(50, 950) SAMPLES 500")
        assert result.value == pytest.approx(truth(), rel=0.05)
