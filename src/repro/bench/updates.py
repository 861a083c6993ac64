"""Sustained-ingest bench: per-record index inserts vs the LSM path.

``python -m repro.bench updates [OUT.json]`` measures the tiered
ingest path at two layers:

* **index path** — the layer this subsystem replaces.  Identical
  insert streams drive ``Dataset.insert`` with and without an
  attached :class:`~repro.storage.lsm.LSMTree`: the baseline pays a
  per-record Hilbert R-tree insert (and a structural version bump)
  per call, the tiered path pays a memtable put with seals and at
  least one full compaction amortised inside the measured window.
  ``speedup_vs_per_record`` comes from here — durability costs (WAL
  append, document-store write) are identical constants on both
  sides, so including them would only dilute the comparison of the
  code that actually changed.
* **durable pipeline** — the full stack (UpdateManager → WAL →
  DocumentStore → SimulatedDFS) with queries interleaved between
  batches, run both ways.  This is where the *operational* figures
  come from: p50/p99 query latency observed **during** ingest and the
  canonical-set cache hit rate (non-zero only when ingest stops
  thrashing the cache).

Every phase ends with an exactness check that drains one full
without-replacement stream and compares it record-for-record against
brute-force truth, so the speedup is never bought with a wrong
sampler.

``tools/check_bench.py`` gates ``ingest.inserts_per_sec`` and
``ingest.speedup_vs_per_record`` downward and
``ingest.query_p99_seconds`` upward against the committed baseline.
"""

from __future__ import annotations

import random
import time

from repro.bench.report import metric, percentile, report
from repro.core.engine import Dataset
from repro.core.geometry import Rect
from repro.core.records import Record
from repro.storage.dfs import SimulatedDFS
from repro.storage.document_store import DocumentStore
from repro.storage.lsm import LSMTree
from repro.storage.recovery import checkpoint_store
from repro.storage.wal import WriteAheadLog
from repro.updates.manager import UpdateBatch, UpdateManager

__all__ = ["run_updates_bench"]

N_SEED_RECORDS = 10_000
#: Index-path phase: enough inserts that the window contains ~23
#: seals and one full compaction — "sustained", not burst.
N_INDEX_INSERTS = 24_000
INDEX_MEMTABLE_LIMIT = 1024
INDEX_COMPACT_AFTER_RUNS = 12
#: Index-path timing is best-of-N (exactness must hold on every
#: repeat) so the hard checks measure the code, not scheduler
#: jitter on shared CI runners.
INDEX_REPEATS = 3
BATCHES = 40
BATCH_INSERTS = 100
QUERY_EVERY = 2          # a query between every other batch
QUERY_K = 64
MEMTABLE_LIMIT = 512
COMPACT_AFTER_RUNS = 4
SEGMENT_BYTES = 64 * 1024
#: The acceptance bar: tiered ingest must sustain at least this many
#: times the per-record baseline's inserts/s on the index path.
TARGET_SPEEDUP = 10.0
QUERY_RECT = Rect((25.0, 25.0), (75.0, 75.0))


def _records(n: int, seed: int, start_id: int = 0) -> list[Record]:
    rng = random.Random(seed)
    return [Record(record_id=start_id + i,
                   lon=rng.uniform(0.0, 100.0),
                   lat=rng.uniform(0.0, 100.0),
                   t=rng.uniform(0.0, 1000.0),
                   attrs={"v": round(rng.gauss(10.0, 2.0), 6)})
            for i in range(n)]


def _query_once(dataset: Dataset, rng: random.Random) -> float:
    """One timed sample query (range_count + a K-sample batch)."""
    start = time.perf_counter()
    sampler = dataset.sampler_for(QUERY_RECT)
    sampler.range_count(QUERY_RECT)
    stream = sampler.open_stream(QUERY_RECT, rng)
    sampler.draw_batch(stream, QUERY_K)
    close = getattr(stream, "close", None)
    if close is not None:
        close()
    return time.perf_counter() - start


def _exactness_check(dataset: Dataset, seed: int) -> bool:
    """Drain one WOR stream and diff against brute-force truth."""
    sampler = dataset.sampler_for(QUERY_RECT)
    q = sampler.range_count(QUERY_RECT)
    stream = sampler.open_stream(QUERY_RECT, random.Random(seed))
    got = {e.item_id for e in stream}
    truth = {rid for rid, r in dataset.records.items()
             if QUERY_RECT.contains_point(r.key(dataset.dims))}
    return q == len(truth) and got == truth


def _index_phase(with_lsm: bool, seed: int) -> dict:
    """Best-of-N pure index-path inserts (see :data:`INDEX_REPEATS`)."""
    best: dict | None = None
    exact = True
    for rep in range(INDEX_REPEATS):
        out = _index_phase_once(with_lsm, seed + rep)
        exact = exact and out["exact"]
        if best is None or out["insert_seconds"] < \
                best["insert_seconds"]:
            best = out
    assert best is not None
    best["exact"] = exact
    best["repeats"] = INDEX_REPEATS
    return best


def _index_phase_once(with_lsm: bool, seed: int) -> dict:
    """Pure index-path inserts: the layer the LSM tree replaces."""
    base = _records(N_SEED_RECORDS, seed)
    dataset = Dataset("index", base, dims=2, rs_buffer_size=32,
                      build_ls=False, seed=seed)
    lsm = None
    if with_lsm:
        lsm = LSMTree(dataset,
                      memtable_limit=INDEX_MEMTABLE_LIMIT,
                      compact_after_runs=INDEX_COMPACT_AFTER_RUNS)
        dataset.attach_lsm(lsm)
    new = _records(N_INDEX_INSERTS, seed * 3 + 5,
                   start_id=N_SEED_RECORDS)
    start = time.perf_counter()
    for record in new:
        dataset.insert(record)
        if lsm is not None and lsm.should_compact():
            lsm.compact()
    elapsed = time.perf_counter() - start
    out = {
        "phase": "lsm" if with_lsm else "per-record-baseline",
        "seed_records": N_SEED_RECORDS,
        "inserted": N_INDEX_INSERTS,
        "insert_seconds": elapsed,
        "inserts_per_sec": N_INDEX_INSERTS / elapsed
        if elapsed > 0 else 0.0,
        "exact": _exactness_check(dataset, seed * 17 + 3),
    }
    if lsm is not None:
        out["seals"] = lsm.seals
        out["compactions"] = lsm.compactions
        out["tier_shape"] = lsm.tier_shape()
    return out


def _ingest_phase(with_lsm: bool, seed: int) -> dict:
    """One full ingest run; identical durability stack either way."""
    dfs = SimulatedDFS(machines=4, replication=2)
    store = DocumentStore(dfs)
    wal = WriteAheadLog(dfs, segment_bytes=SEGMENT_BYTES)
    base = _records(N_SEED_RECORDS, seed)
    dataset = Dataset("ingest", base, dims=2, rs_buffer_size=32,
                      build_ls=False, seed=seed)
    coll = store.collection("ingest")
    coll.insert_many(r.to_document() for r in base)
    checkpoint_store(store, wal)
    lsm = None
    if with_lsm:
        lsm = LSMTree.open(dataset, dfs=dfs, wal=wal,
                           memtable_limit=MEMTABLE_LIMIT,
                           compact_after_runs=COMPACT_AFTER_RUNS)
    manager = UpdateManager(dataset, store=store,
                            collection="ingest", wal=wal)
    qrng = random.Random(seed * 31 + 1)
    insert_seconds = 0.0
    latencies: list[float] = []
    next_id = N_SEED_RECORDS
    hits0 = dataset.tree.canon_hits
    misses0 = dataset.tree.canon_misses
    for b in range(BATCHES):
        batch = UpdateBatch(inserts=_records(
            BATCH_INSERTS, seed * 77 + b, start_id=next_id))
        next_id += BATCH_INSERTS
        start = time.perf_counter()
        manager.apply(batch)
        insert_seconds += time.perf_counter() - start
        if b % QUERY_EVERY == 0:
            latencies.append(_query_once(dataset, qrng))
    hits = dataset.tree.canon_hits - hits0
    misses = dataset.tree.canon_misses - misses0
    looked_up = hits + misses
    total_inserts = BATCHES * BATCH_INSERTS
    out = {
        "phase": "lsm" if with_lsm else "per-record-baseline",
        "seed_records": N_SEED_RECORDS,
        "inserted": total_inserts,
        "insert_seconds": insert_seconds,
        "inserts_per_sec": total_inserts / insert_seconds
        if insert_seconds > 0 else 0.0,
        "queries_during_ingest": len(latencies),
        "query_p50_seconds": percentile(latencies, 0.50),
        "query_p99_seconds": percentile(latencies, 0.99),
        "canon_hits": hits,
        "canon_misses": misses,
        "canon_hit_rate": hits / looked_up if looked_up else 0.0,
        "exact": _exactness_check(dataset, seed * 13 + 7),
    }
    if lsm is not None:
        out["tier_shape"] = lsm.tier_shape()
    return out


def run_updates_bench(seed: int = 29) -> dict:
    """All four phases plus the derived comparison figures."""
    phases = {
        "index_path": {"baseline": _index_phase(False, seed),
                       "lsm": _index_phase(True, seed)},
        "durable": {"baseline": _ingest_phase(False, seed),
                    "lsm": _ingest_phase(True, seed)},
    }
    idx_base = phases["index_path"]["baseline"]["inserts_per_sec"]
    idx_lsm = phases["index_path"]["lsm"].pop("inserts_per_sec")
    speedup = idx_lsm / idx_base if idx_base > 0 else 0.0
    lsm = phases["durable"]["lsm"]
    checks = {f"{path}.{name}.exact": phase.pop("exact")
              for path, pair in phases.items()
              for name, phase in pair.items()}
    checks["speedup_meets_target"] = speedup >= TARGET_SPEEDUP
    checks["durable.lsm.canon_cache_hits"] = lsm["canon_hit_rate"] > 0.0
    return report("updates", {
        "ingest.inserts_per_sec": metric(idx_lsm, "1/s", "higher"),
        "ingest.speedup_vs_per_record": metric(speedup, "ratio",
                                               "higher"),
        "ingest.query_p99_seconds": metric(
            lsm.pop("query_p99_seconds"), "s", "lower"),
    }, checks, dict(phases, seed=seed, batches=BATCHES,
                    batch_inserts=BATCH_INSERTS,
                    target_speedup=TARGET_SPEEDUP))
