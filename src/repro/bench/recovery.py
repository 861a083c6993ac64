"""Recovery chaos harness: kill-during-update + WAL replay bench.

``python -m repro.bench recovery [OUT.json]`` drives the durable write
path (UpdateManager → WAL → DocumentStore → SimulatedDFS) through the
four crash points the durability design must survive
(``docs/operations.md`` documents the runbook):

* **pre-WAL-append** — the process dies before the batch reaches the
  log: the batch was never committed and must NOT appear after
  recovery;
* **post-append / pre-flush** — the process dies after the append
  returned but before any store flush: every appended batch is
  committed and MUST be replayed;
* **mid-checkpoint** — the process dies inside an atomic flush (the
  temp file tears): the previous checkpoint stays in force and replay
  covers the gap;
* **torn final segment** — the last WAL append itself tears: recovery
  truncates the tail and restores exactly the committed prefix.

Each scenario maintains a *shadow copy* of the committed state (updated
only when a WAL append returns) and asserts record-level equality
between the recovered collection and the shadow — no lost committed
batch, no replayed uncommitted batch.

A replay micro-benchmark then times ``recover_store`` over a long
insert-only log and reports replayed operations per second.  The
report lands in ``BENCH_recovery.json``; scales are smoke-sized
regression tripwires.
"""

from __future__ import annotations

import random
import time

from repro.bench.report import metric, report
from repro.core.engine import Dataset
from repro.core.records import Record
from repro.errors import WriteCrashError
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.storage.dfs import SimulatedDFS
from repro.storage.document_store import DocumentStore
from repro.storage.recovery import checkpoint_store, recover_store
from repro.storage.wal import WriteAheadLog
from repro.updates.manager import UpdateBatch, UpdateManager

__all__ = ["run_recovery_chaos"]

N_SEED_RECORDS = 200
BATCHES = 10
BATCH_INSERTS = 6
BATCH_DELETES = 3
SEGMENT_BYTES = 1024
REPLAY_BATCHES = 300
REPLAY_INSERTS = 8


def _records(n: int, seed: int, start_id: int = 0) -> list[Record]:
    rng = random.Random(seed)
    return [Record(record_id=start_id + i,
                   lon=rng.uniform(0.0, 100.0),
                   lat=rng.uniform(0.0, 100.0),
                   t=rng.uniform(0.0, 1000.0),
                   attrs={"v": round(rng.gauss(10.0, 2.0), 6)})
            for i in range(n)]


def _setup(seed: int):
    """A checkpointed store + WAL + manager, plus the shadow copy."""
    dfs = SimulatedDFS(machines=4, replication=2)
    store = DocumentStore(dfs)
    wal = WriteAheadLog(dfs, segment_bytes=SEGMENT_BYTES)
    records = _records(N_SEED_RECORDS, seed)
    dataset = Dataset("live", records, rs_buffer_size=16,
                      build_ls=False, seed=seed)
    coll = store.collection("live")
    coll.insert_many(r.to_document() for r in records)
    checkpoint_store(store, wal)
    manager = UpdateManager(dataset, store=store, collection="live",
                            wal=wal)
    shadow = {r.record_id: r.to_document() for r in records}
    return dfs, manager, shadow


def _drive(manager: UpdateManager, shadow: dict, seed: int,
           batches: int) -> tuple[int, bool]:
    """Apply update batches, maintaining the shadow of *committed*
    state; (batches committed, whether an injected crash struck)."""
    rng = random.Random(seed)
    next_id = max(shadow) + 1
    for b in range(batches):
        ids = sorted(manager.dataset.records)
        deletes = rng.sample(ids, BATCH_DELETES)
        inserts = _records(BATCH_INSERTS, seed * 613 + b,
                           start_id=next_id)
        next_id += BATCH_INSERTS
        docs = [r.to_document() for r in inserts]
        try:
            manager.apply(UpdateBatch(inserts=inserts,
                                      deletes=deletes))
        except WriteCrashError:
            return b, True
        # The append returned: the batch is committed.
        for rid in deletes:
            shadow.pop(rid)
        for doc in docs:
            shadow[doc["_id"]] = doc
    return batches, False


def _recover_and_check(dfs: SimulatedDFS, shadow: dict) -> dict:
    """Restart from the DFS alone and diff against the shadow."""
    obs = Observability()
    store = DocumentStore(dfs)
    wal = WriteAheadLog(dfs, segment_bytes=SEGMENT_BYTES, obs=obs)
    report = recover_store(store, wal, obs=obs)
    live = {doc["_id"]: doc
            for doc in store.collection("live").find()}
    return {
        "recovered_records": len(live),
        "expected_records": len(shadow),
        "state_matches": live == shadow,
        "report": report.as_dict(),
    }


def _scenario_pre_wal_append(seed: int) -> dict:
    """The process dies before batch #crash_at reaches the log."""
    crash_at = 4
    dfs, manager, shadow = _setup(seed)
    dfs.set_fault_plan(FaultPlan(seed=seed)
                       .crash_write("wal/", nth=crash_at))
    committed, crashed = _drive(manager, shadow, seed, BATCHES)
    out = _recover_and_check(dfs, shadow)
    out.update({"scenario": "pre-wal-append", "crashed": crashed,
                "committed_batches": committed})
    out["ok"] = out["state_matches"] and crashed \
        and committed == crash_at - 1
    return out


def _scenario_post_append(seed: int) -> dict:
    """The process dies after the appends, before any flush."""
    dfs, manager, shadow = _setup(seed)
    committed, crashed = _drive(manager, shadow, seed, BATCHES)
    out = _recover_and_check(dfs, shadow)
    out.update({"scenario": "post-append-pre-flush",
                "crashed": crashed, "committed_batches": committed})
    out["ok"] = out["state_matches"] and not crashed \
        and committed == BATCHES \
        and out["report"]["batches_replayed"] == BATCHES
    return out


def _scenario_mid_checkpoint(seed: int) -> dict:
    """The process dies inside the atomic flush (torn temp file)."""
    dfs, manager, shadow = _setup(seed)
    committed, _ = _drive(manager, shadow, seed, BATCHES)
    dfs.set_fault_plan(FaultPlan(seed=seed)
                       .torn_write("store/", nth=1,
                                   keep_fraction=0.4))
    crashed = False
    try:
        manager.flush()
    except WriteCrashError:
        crashed = True
    out = _recover_and_check(dfs, shadow)
    out.update({"scenario": "mid-checkpoint", "crashed": crashed,
                "committed_batches": committed})
    out["ok"] = out["state_matches"] and crashed \
        and committed == BATCHES
    return out


def _scenario_torn_tail(seed: int) -> dict:
    """The final WAL append itself tears mid-write."""
    crash_at = 6
    dfs, manager, shadow = _setup(seed)
    dfs.set_fault_plan(FaultPlan(seed=seed)
                       .torn_write("wal/", nth=crash_at,
                                   keep_fraction=0.5))
    committed, crashed = _drive(manager, shadow, seed, BATCHES)
    out = _recover_and_check(dfs, shadow)
    out.update({"scenario": "torn-final-segment", "crashed": crashed,
                "committed_batches": committed})
    out["ok"] = out["state_matches"] and crashed \
        and committed == crash_at - 1 \
        and out["report"]["bytes_discarded"] > 0
    return out


def _replay_benchmark(seed: int) -> dict:
    """Time WAL replay over a long insert-only log."""
    dfs = SimulatedDFS(machines=4, replication=2)
    store = DocumentStore(dfs)
    wal = WriteAheadLog(dfs, segment_bytes=16 * SEGMENT_BYTES)
    store.collection("live")
    checkpoint_store(store, wal)
    next_id = 0
    for b in range(REPLAY_BATCHES):
        docs = [r.to_document()
                for r in _records(REPLAY_INSERTS, seed * 31 + b,
                                  start_id=next_id)]
        next_id += REPLAY_INSERTS
        wal.append_batch("live", deletes=[], inserts=docs)
    start = time.perf_counter()
    store2 = DocumentStore(dfs)
    wal2 = WriteAheadLog(dfs, segment_bytes=16 * SEGMENT_BYTES)
    report = recover_store(store2, wal2)
    elapsed = time.perf_counter() - start
    ops = report.ops_replayed
    return {
        "batches_replayed": report.batches_replayed,
        "ops_replayed": ops,
        "wal_bytes": wal.size_bytes(),
        "seconds": elapsed,
        "ops_per_second": ops / elapsed if elapsed > 0 else 0.0,
        "recovered_records": len(store2.collection("live")),
        "ok": report.batches_replayed == REPLAY_BATCHES
        and len(store2.collection("live"))
        == REPLAY_BATCHES * REPLAY_INSERTS,
    }


def run_recovery_chaos(seed: int = 23) -> dict:
    """The full report: four crash scenarios + the replay bench."""
    scenarios = [
        _scenario_pre_wal_append(seed),
        _scenario_post_append(seed),
        _scenario_mid_checkpoint(seed),
        _scenario_torn_tail(seed),
    ]
    replay = _replay_benchmark(seed)
    checks = {f"scenarios.{s['scenario']}.ok": s.pop("ok")
              for s in scenarios}
    checks["replay.ok"] = replay.pop("ok")
    ops_per_second = metric(replay.pop("ops_per_second"), "1/s",
                            "higher")
    return report("recovery", {"replay.ops_per_second": ops_per_second},
                  checks, {"seed": seed, "batches": BATCHES,
                           "scenarios": scenarios, "replay": replay})
