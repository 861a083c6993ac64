"""Crash-point matrix for the tiered ingest path.

The LSM write path has a strict durable order — WAL batch append (the
commit point) → run temp write → run rename → manifest temp write →
manifest rename — and WAL pruning only happens after the manifest has
durably advanced its replay LSN.  This suite kills the simulated
process at every interesting point in that order (plus torn variants)
and asserts that a cold restart from the DFS alone reproduces the
shadow copy of committed state *exactly*: record-for-record store
equality and a full-drain tiered sample that matches the live set.

The shadow is maintained the same way as ``repro.bench.recovery``:
a batch is added to it only once ``manager.apply`` returns, because
the WAL append inside it is the commit point.
"""

import random

import pytest

from repro.core.engine import Dataset
from repro.core.geometry import Rect
from repro.core.records import Record
from repro.errors import WriteCrashError
from repro.faults import FaultPlan
from repro.storage.dfs import SimulatedDFS
from repro.storage.document_store import DocumentStore
from repro.storage.lsm import LSM_PREFIX, LSMTree
from repro.storage.recovery import checkpoint_store, recover_store
from repro.storage.wal import WriteAheadLog
from repro.updates.manager import UpdateBatch, UpdateManager

N_SEED = 400
BATCHES = 30
BATCH_INSERTS = 24
BATCH_DELETES = 4
MEMTABLE_LIMIT = 100
COMPACT_AFTER_RUNS = 3
SEGMENT_BYTES = 2048
EVERYTHING = Rect((0, 0), (100, 100))


def make_records(n, seed, start_id=0):
    rng = random.Random(seed)
    return [Record(record_id=start_id + i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": round(rng.gauss(10, 2), 6)})
            for i in range(n)]


def setup_stack(seed):
    """Checkpointed store + WAL + LSM-attached dataset + shadow."""
    dfs = SimulatedDFS(machines=4, replication=2)
    store = DocumentStore(dfs)
    wal = WriteAheadLog(dfs, segment_bytes=SEGMENT_BYTES)
    records = make_records(N_SEED, seed)
    dataset = Dataset("live", records, dims=2, rs_buffer_size=16,
                      build_ls=False, seed=seed)
    coll = store.collection("live")
    coll.insert_many(r.to_document() for r in records)
    checkpoint_store(store, wal)
    LSMTree.open(dataset, dfs=dfs, wal=wal,
                 memtable_limit=MEMTABLE_LIMIT,
                 compact_after_runs=COMPACT_AFTER_RUNS)
    manager = UpdateManager(dataset, store=store, collection="live",
                            wal=wal)
    shadow = {r.record_id: r.to_document() for r in records}
    return dfs, manager, shadow


def drive(manager, shadow, seed, batches=BATCHES):
    """Apply churn batches; returns (committed, crashed)."""
    rng = random.Random(seed)
    next_id = max(shadow) + 1
    for b in range(batches):
        ids = sorted(manager.dataset.records)
        deletes = rng.sample(ids, BATCH_DELETES)
        inserts = make_records(BATCH_INSERTS, seed * 613 + b,
                               start_id=next_id)
        next_id += BATCH_INSERTS
        docs = [r.to_document() for r in inserts]
        try:
            manager.apply(UpdateBatch(inserts=inserts,
                                      deletes=deletes))
        except WriteCrashError:
            return b, True
        for rid in deletes:
            shadow.pop(rid)
        for doc in docs:
            shadow[doc["_id"]] = doc
    return batches, False


def restart_and_check(dfs, shadow):
    """Cold restart from the DFS alone; assert state == shadow.

    Mirrors real recovery: replay the WAL into a fresh store, rebuild
    the dataset from the recovered documents, re-open the LSM (which
    restores runs, replays the WAL tail into the memtable, and sweeps
    orphans), then drain one full tiered sample stream.
    """
    store = DocumentStore(dfs)
    wal = WriteAheadLog(dfs, segment_bytes=SEGMENT_BYTES)
    recover_store(store, wal)
    docs = {doc["_id"]: doc
            for doc in store.collection("live").find()}
    assert docs == shadow, (
        f"store diverged: {len(docs)} recovered vs "
        f"{len(shadow)} expected")
    dataset = Dataset("live",
                      [Record.from_document(d)
                       for d in docs.values()],
                      dims=2, rs_buffer_size=16, build_ls=False,
                      seed=99)
    lsm = LSMTree.open(dataset, dfs=dfs, wal=wal,
                       memtable_limit=MEMTABLE_LIMIT,
                       compact_after_runs=COMPACT_AFTER_RUNS)
    sampler = dataset.samplers["lsm-tiered"]
    q = sampler.range_count(EVERYTHING)
    got = [e.item_id for e in
           sampler.sample_stream(EVERYTHING, random.Random(7))]
    assert q == len(shadow)
    assert len(got) == len(set(got)) == len(shadow)
    assert set(got) == set(shadow)
    return lsm


class TestCrashMatrix:
    """One test per kill point in the seal/flush/compact order."""

    def test_clean_restart_restores_tiers(self):
        dfs, manager, shadow = setup_stack(seed=71)
        drive(manager, shadow, seed=71)
        lsm = restart_and_check(dfs, shadow)
        # The restart rebuilt real tiers, not just a monolithic tree.
        assert lsm.runs or lsm.memtable.records

    def test_crash_before_wal_append(self):
        dfs, manager, shadow = setup_stack(seed=72)
        dfs.set_fault_plan(FaultPlan(seed=72)
                           .crash_write("wal/", nth=5))
        committed, crashed = drive(manager, shadow, seed=72)
        assert crashed and committed < BATCHES
        restart_and_check(dfs, shadow)

    def test_torn_wal_tail(self):
        dfs, manager, shadow = setup_stack(seed=73)
        dfs.set_fault_plan(FaultPlan(seed=73)
                           .torn_write("wal/", nth=8,
                                       keep_fraction=0.5))
        committed, crashed = drive(manager, shadow, seed=73)
        assert crashed and committed < BATCHES
        restart_and_check(dfs, shadow)

    def test_crash_during_run_temp_write(self):
        """Die inside the run file write: the batch is committed (WAL
        append preceded the seal), so recovery must replay it."""
        dfs, manager, shadow = setup_stack(seed=74)
        dfs.set_fault_plan(FaultPlan(seed=74)
                           .crash_write(LSM_PREFIX + "run-", nth=2))
        committed, crashed = drive(manager, shadow, seed=74)
        assert crashed and committed > 0
        # The crash struck inside manager.apply, *after* the WAL
        # append: that batch is committed even though apply raised.
        wal = WriteAheadLog(dfs, segment_bytes=SEGMENT_BYTES)
        records, _ = wal.scan()
        batches = [r for r in records if r.type == "batch"]
        assert batches, "committed batch missing from WAL"
        last = batches[-1]
        for rid in last.payload.get("deletes", ()):
            shadow.pop(int(rid))
        for doc in last.payload.get("inserts", ()):
            shadow[doc["_id"]] = doc
        restart_and_check(dfs, shadow)

    def test_torn_run_temp_write_is_swept(self):
        """A torn run temp file is garbage; recovery sweeps it."""
        dfs, manager, shadow = setup_stack(seed=75)
        dfs.set_fault_plan(FaultPlan(seed=75)
                           .torn_write(LSM_PREFIX + "run-", nth=3,
                                       keep_fraction=0.3))
        committed, crashed = drive(manager, shadow, seed=75)
        assert crashed
        wal = WriteAheadLog(dfs, segment_bytes=SEGMENT_BYTES)
        records, _ = wal.scan()
        batches = [r for r in records if r.type == "batch"]
        last = batches[-1]
        for rid in last.payload.get("deletes", ()):
            shadow.pop(int(rid))
        for doc in last.payload.get("inserts", ()):
            shadow[doc["_id"]] = doc
        lsm = restart_and_check(dfs, shadow)
        # No torn temp file survives the orphan sweep.
        leftovers = [n for n in dfs.list_files(LSM_PREFIX)
                     if n.endswith(".tmp")]
        assert leftovers == []
        assert lsm is not None

    def test_crash_during_manifest_write(self):
        """Die between run rename and manifest commit: the run file
        exists but the manifest never adopted it — recovery treats it
        as an orphan and replays its records from the WAL instead."""
        dfs, manager, shadow = setup_stack(seed=76)
        dfs.set_fault_plan(FaultPlan(seed=76)
                           .crash_write(LSM_PREFIX + "MANIFEST",
                                        nth=3))
        committed, crashed = drive(manager, shadow, seed=76)
        assert crashed
        wal = WriteAheadLog(dfs, segment_bytes=SEGMENT_BYTES)
        records, _ = wal.scan()
        batches = [r for r in records if r.type == "batch"]
        last = batches[-1]
        for rid in last.payload.get("deletes", ()):
            shadow.pop(int(rid))
        for doc in last.payload.get("inserts", ()):
            shadow[doc["_id"]] = doc
        restart_and_check(dfs, shadow)

    def test_crash_during_checkpoint_flush(self):
        """Die inside the store flush: WAL still covers everything."""
        dfs, manager, shadow = setup_stack(seed=77)
        committed, _ = drive(manager, shadow, seed=77)
        assert committed == BATCHES
        dfs.set_fault_plan(FaultPlan(seed=77)
                           .torn_write("store/", nth=1,
                                       keep_fraction=0.4))
        with pytest.raises(WriteCrashError):
            manager.flush()
        dfs.set_fault_plan(None)
        restart_and_check(dfs, shadow)

    def test_checkpoint_then_crash_then_more_batches(self):
        """A full checkpoint (with WAL pruning) mid-history must not
        lose run tombstones: the manifest persists before the prune."""
        dfs, manager, shadow = setup_stack(seed=78)
        drive(manager, shadow, seed=78, batches=12)
        manager.flush()
        drive(manager, shadow, seed=78 * 5 + 1, batches=12)
        restart_and_check(dfs, shadow)

    def test_double_restart_is_stable(self):
        """Recovery is idempotent: restarting twice changes nothing."""
        dfs, manager, shadow = setup_stack(seed=79)
        dfs.set_fault_plan(FaultPlan(seed=79)
                           .crash_write("wal/", nth=9))
        drive(manager, shadow, seed=79)
        restart_and_check(dfs, shadow)
        restart_and_check(dfs, shadow)

    def test_restart_never_builds_forest(self, monkeypatch):
        """A restart over sealed runs and a WAL tail bulk-loads the
        main tree only: the LS forest is dropped before that load."""
        from repro.core.sampling.ls_tree import LSTree
        dfs, manager, shadow = setup_stack(seed=80)
        drive(manager, shadow, seed=80)
        store = DocumentStore(dfs)
        wal = WriteAheadLog(dfs, segment_bytes=SEGMENT_BYTES)
        # No re-checkpoint, so the WAL tail survives for the memtable.
        recover_store(store, wal, checkpoint=False)
        dataset = Dataset("live",
                          [Record.from_document(d)
                           for d in store.collection("live").find()],
                          dims=2, rs_buffer_size=16, seed=99)
        assert dataset.forest is not None

        def refuse(self, items):
            raise AssertionError("LS forest bulk-loaded under an LSM")
        monkeypatch.setattr(LSTree, "bulk_load", refuse)
        lsm = LSMTree.open(dataset, dfs=dfs, wal=wal,
                           memtable_limit=MEMTABLE_LIMIT,
                           compact_after_runs=COMPACT_AFTER_RUNS)
        assert lsm.runs and lsm.memtable.records
        assert dataset.forest is None
        assert "ls-tree" not in dataset.samplers
        q = dataset.samplers["lsm-tiered"].range_count(EVERYTHING)
        assert q == len(shadow)
