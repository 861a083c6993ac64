"""Integration tests for the update manager.

The paper's update demo contract: after ad-hoc updates, "a correct set of
online spatio-temporal samples can always be returned with respect to the
latest records in a data set."
"""

import random

import pytest

from repro.core.engine import Dataset
from repro.core.records import Record, STRange
from repro.errors import UpdateError
from repro.storage.document_store import DocumentStore
from repro.updates.manager import UpdateBatch, UpdateManager


def make_records(n, seed=61, start_id=0):
    rng = random.Random(seed)
    return [Record(record_id=start_id + i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": rng.gauss(10, 2)})
            for i in range(n)]


@pytest.fixture()
def dataset():
    return Dataset("live", make_records(800), rs_buffer_size=16)


EVERYTHING = STRange(0, 0, 100, 100)


class TestBatchValidation:
    def test_duplicate_insert_ids(self, dataset):
        batch = UpdateBatch(inserts=[Record(9_000, 1, 1),
                                     Record(9_000, 2, 2)])
        with pytest.raises(UpdateError):
            UpdateManager(dataset).apply(batch)

    def test_existing_insert_id(self, dataset):
        batch = UpdateBatch(inserts=[Record(0, 1, 1)])
        with pytest.raises(UpdateError):
            UpdateManager(dataset).apply(batch)

    def test_missing_delete_id(self, dataset):
        with pytest.raises(UpdateError):
            UpdateManager(dataset).apply(UpdateBatch(deletes=[999_999]))

    def test_replace_same_id_allowed(self, dataset):
        """delete+insert of the same id in one batch is a replace."""
        manager = UpdateManager(dataset)
        result = manager.apply(UpdateBatch(
            inserts=[Record(0, lon=55.0, lat=55.0, attrs={"v": 1.0})],
            deletes=[0]))
        assert result.inserted == 1 and result.deleted == 1
        assert dataset.lookup(0).lon == 55.0

    def test_validation_happens_before_mutation(self, dataset):
        size = len(dataset)
        batch = UpdateBatch(inserts=[Record(9_000, 1, 1)],
                            deletes=[999_999])
        with pytest.raises(UpdateError):
            UpdateManager(dataset).apply(batch)
        assert len(dataset) == size
        assert 9_000 not in dataset.records


class TestApply:
    def test_counts_and_stats(self, dataset):
        manager = UpdateManager(dataset)
        result = manager.apply(UpdateBatch(
            inserts=make_records(50, seed=62, start_id=10_000),
            deletes=list(range(25))))
        assert result.inserted == 50
        assert result.deleted == 25
        assert manager.total_inserted == 50
        assert manager.total_deleted == 25
        assert result.throughput() > 0

    def test_samples_reflect_latest_state(self, dataset):
        """The paper's core update requirement, end to end."""
        manager = UpdateManager(dataset)
        inserts = make_records(100, seed=63, start_id=10_000)
        manager.apply(UpdateBatch(inserts=inserts,
                                  deletes=list(range(50))))
        rng = random.Random(64)
        sampler = dataset.samplers["rs-tree"]
        emitted = {e.item_id for e in
                   sampler.sample_stream(EVERYTHING.to_rect(3), rng)}
        expected = set(dataset.records)
        assert emitted == expected
        # LS-tree agrees too.
        emitted_ls = {e.item_id for e in
                      dataset.samplers["ls-tree"].sample_stream(
                          EVERYTHING.to_rect(3), rng)}
        assert emitted_ls == expected

    def test_insert_stream_batches(self, dataset):
        manager = UpdateManager(dataset)
        results = manager.insert_stream(
            make_records(500, seed=65, start_id=20_000), batch_size=128)
        assert [r.inserted for r in results] == [128, 128, 128, 116]
        assert len(dataset) == 1300

    def test_insert_stream_bad_batch_size(self, dataset):
        with pytest.raises(UpdateError):
            UpdateManager(dataset).insert_stream([], batch_size=0)

    def test_store_kept_in_sync(self, dataset):
        store = DocumentStore()
        coll = store.collection("live")
        coll.insert_many(r.to_document() for r in
                         dataset.records.values())
        manager = UpdateManager(dataset, store=store, collection="live")
        manager.apply(UpdateBatch(
            inserts=make_records(10, seed=66, start_id=30_000),
            deletes=[1, 2, 3]))
        assert coll.count() == len(dataset)
        assert coll.find_one({"_id": 1}) is None
        assert coll.find_one({"_id": 30_000}) is not None
        manager.flush()  # persists without error

    def test_store_requires_collection(self, dataset):
        with pytest.raises(UpdateError):
            UpdateManager(dataset, store=DocumentStore())

    def test_rebuild_after_inserts_stays_correct(self, dataset):
        manager = UpdateManager(dataset)
        inserts = make_records(200, seed=68, start_id=50_000)
        manager.apply(UpdateBatch(inserts=inserts))
        dataset.rebuild()
        dataset.tree.validate()
        rng = random.Random(69)
        got = {e.item_id for e in
               dataset.samplers["rs-tree"].sample_stream(
                   EVERYTHING.to_rect(3), rng)}
        assert got == set(dataset.records)

    def test_rebuild_restores_packing(self, dataset):
        """After heavy churn, a rebuild shrinks the node count back to
        bulk-load quality."""
        manager = UpdateManager(dataset)
        manager.apply(UpdateBatch(
            inserts=make_records(800, seed=70, start_id=60_000)))
        degraded = dataset.tree.node_count()
        dataset.rebuild()
        rebuilt = dataset.tree.node_count()
        assert rebuilt <= degraded
        dataset.tree.validate()

    def test_recent_window_query_sees_new_data(self, dataset):
        """The demo: narrow the time range to the most recent history
        and see freshly inserted records."""
        manager = UpdateManager(dataset)
        fresh = [Record(record_id=40_000 + i, lon=50.0, lat=50.0,
                        t=2_000.0 + i, attrs={"v": 99.0})
                 for i in range(20)]
        manager.apply(UpdateBatch(inserts=fresh))
        recent = STRange(0, 0, 100, 100, 2_000.0, 3_000.0)
        q = dataset.tree.range_count(recent.to_rect(3))
        assert q == 20
        rng = random.Random(67)
        got = {e.item_id for e in
               dataset.samplers["rs-tree"].sample_stream(
                   recent.to_rect(3), rng)}
        assert got == {r.record_id for r in fresh}


class TestThroughput:
    def test_zero_op_batch_reports_zero(self, dataset):
        result = UpdateManager(dataset).apply(UpdateBatch())
        assert result.inserted == 0 and result.deleted == 0
        assert result.throughput() == 0.0

    def test_zero_op_zero_seconds_is_still_zero(self):
        from repro.updates.manager import UpdateResult
        assert UpdateResult(0, 0, seconds=0.0).throughput() == 0.0
        assert UpdateResult(0, 0, seconds=0.5).throughput() == 0.0

    def test_nonzero_batch_divides(self):
        from repro.updates.manager import UpdateResult
        assert UpdateResult(3, 1, seconds=2.0).throughput() == 2.0
        assert UpdateResult(1, 0, seconds=0.0).throughput() \
            == float("inf")


class TestEmptyBatchIsTrueNoop:
    """Regression: an empty batch used to bump the tree's structural
    version, invalidating every cached canonical set for nothing, and
    ticked the checkpoint cadence.  It must leave all durable and
    structural state untouched."""

    def test_no_version_bump_or_wal_append(self, dataset):
        from repro.storage.dfs import SimulatedDFS
        from repro.storage.wal import WriteAheadLog
        dfs = SimulatedDFS()
        store = DocumentStore()
        store.collection("live").insert_many(
            r.to_document() for r in dataset.records.values())
        wal = WriteAheadLog(dfs)
        manager = UpdateManager(dataset, store=store,
                                collection="live", wal=wal)
        version = dataset.tree.version
        lsn = wal.last_lsn
        batches = manager.applied_batches
        result = manager.apply(UpdateBatch())
        assert result.inserted == result.deleted == 0
        assert dataset.tree.version == version
        assert wal.last_lsn == lsn
        assert manager.applied_batches == batches

    def test_no_checkpoint_cadence_tick(self, dataset):
        from repro.storage.dfs import SimulatedDFS
        from repro.storage.recovery import checkpoint_store
        from repro.storage.wal import WriteAheadLog
        dfs = SimulatedDFS()
        store = DocumentStore(dfs)
        store.collection("live").insert_many(
            r.to_document() for r in dataset.records.values())
        wal = WriteAheadLog(dfs)
        checkpoint_store(store, wal)
        manager = UpdateManager(dataset, store=store,
                                collection="live", wal=wal,
                                checkpoint_every=2)
        lsn = wal.checkpoint_lsn
        for _ in range(10):
            manager.apply(UpdateBatch())
        # Ten no-ops never reach the every-2-batches checkpoint.
        assert wal.checkpoint_lsn == lsn


class TestDeleteBeforeInsertOrdering:
    """A batch deleting and re-inserting one id is a replace — the
    delete must land first in every layer (dataset, store, WAL)."""

    def test_store_sees_the_replacement(self, dataset):
        store = DocumentStore()
        coll = store.collection("live")
        coll.insert_many(r.to_document()
                         for r in dataset.records.values())
        manager = UpdateManager(dataset, store=store,
                                collection="live")
        old = dataset.lookup(5)
        manager.apply(UpdateBatch(
            inserts=[Record(5, lon=77.0, lat=77.0,
                            attrs={"v": 123.0})],
            deletes=[5]))
        assert dataset.lookup(5).lon == 77.0 != old.lon
        assert coll.get(5)["lon"] == 77.0
        assert coll.count() == len(dataset)

    def test_wal_replay_preserves_replace(self, dataset):
        from repro.storage.dfs import SimulatedDFS
        from repro.storage.recovery import (checkpoint_store,
                                            recover_store)
        from repro.storage.wal import WriteAheadLog
        dfs = SimulatedDFS()
        store = DocumentStore(dfs)
        coll = store.collection("live")
        coll.insert_many(r.to_document()
                         for r in dataset.records.values())
        wal = WriteAheadLog(dfs)
        checkpoint_store(store, wal)
        manager = UpdateManager(dataset, store=store,
                                collection="live", wal=wal)
        manager.apply(UpdateBatch(
            inserts=[Record(5, lon=77.0, lat=77.0,
                            attrs={"v": 123.0})],
            deletes=[5]))
        # Crash pre-flush; replay must reproduce the replace.
        store2 = DocumentStore(dfs)
        recover_store(store2, WriteAheadLog(dfs))
        assert store2.collection("live").get(5)["lon"] == 77.0
        assert store2.collection("live").count() == len(dataset)
