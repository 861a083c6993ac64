"""The ``ingest_mixed`` workload: durable ingest beside one-shot queries.

In-process and single-threaded, through the public API: OSM seed rows
go into a ``Dataset`` (via ``StormEngine.create_dataset``), a
``DocumentStore`` and a ``WriteAheadLog`` on one in-memory
``SimulatedDFS``; an initial checkpoint and ``LSMTree.open`` with the
default knobs (memtable 1024 rows, compact after 4 sealed runs) finish
set-up.  Each step then applies one ``UpdateBatch`` (new rows plus
about 10 % deletes of live ids) through ``UpdateManager.apply`` and
runs one one-shot tiered query through ``QueryExecutor.execute``.

Flush policy, fixed: no ``checkpoint_every``; the manager checkpoints
right before each compaction (its built-in order), and nowhere else.
The measured window starts and ends on a compaction and holds a fixed
number of whole seal/checkpoint/compact cycles, set by ``--seconds``
alone: the dataset grows by the same rows in every run, so every run
measures the same work whatever the host's speed.
"""

from __future__ import annotations

import gc
import math
import random
import time

import numpy as np

from common import BruteForce, fixed, segment_seed, square
from repro.errors import StormError

SEED_ROWS = 25_000
BATCH_INSERTS = 128
BATCH_DELETES = 13
QUERY_SAMPLES = 256
#: Sessions run by ``QueryExecutor.execute`` report every 16 samples.
QUERY_K_CAP = math.ceil(QUERY_SAMPLES / 16) * 16
QUERY_RECTS = 64
#: Every ingest query's time window covers this share of the year.
QUERY_TIME_SHARE = 0.5
NEW_ROW_CHUNK = 8192
#: Set-ups per run; each one serves an equal segment of the window.
SEGMENTS = 5
#: Nominal seconds of one measured cycle at :data:`SEED_ROWS` (about
#: 4096 applied rows and 29 queries); only converts ``--seconds`` into
#: a cycle count, never read from the clock.
CYCLE_S = 1.0
TIME_SPAN = 86_400.0 * 365


def osm_rows(n: int, seed: int, first_id: int):
    """``n`` OSM-like records with ids from ``first_id``."""
    from repro.core.records import Record
    from repro.workloads import OSMWorkload
    return [Record(record_id=first_id + r.record_id, lon=r.lon, lat=r.lat,
                   t=r.t, attrs=r.attrs)
            for r in OSMWorkload(n=n, seed=seed).generate()]


class Shadow:
    """What the store should hold: one slot per record id ever issued."""

    def __init__(self, capacity: int):
        self.lon = np.zeros(capacity)
        self.lat = np.zeros(capacity)
        self.t = np.zeros(capacity)
        self.alive = np.zeros(capacity, dtype=bool)
        self.live: list[int] = []
        self._pos: dict[int, int] = {}

    def insert(self, rec) -> None:
        i = rec.record_id
        if i >= len(self.alive):
            grow = len(self.alive)
            for name in ("lon", "lat", "t"):
                setattr(self, name, np.concatenate(
                    [getattr(self, name), np.zeros(grow)]))
            self.alive = np.concatenate(
                [self.alive, np.zeros(grow, dtype=bool)])
        self.lon[i], self.lat[i], self.t[i] = rec.lon, rec.lat, rec.t
        self.alive[i] = True
        self._pos[i] = len(self.live)
        self.live.append(i)

    def delete(self, rid: int) -> None:
        pos = self._pos.pop(rid)
        last = self.live.pop()
        if last != rid:
            self.live[pos] = last
            self._pos[last] = pos
        self.alive[rid] = False

    def oracle(self) -> BruteForce:
        return BruteForce(self.lon, self.lat, self.t, self.alive)


def query_rects(rows, seed: int) -> list[dict]:
    """:data:`QUERY_RECTS` rectangles with half-year time windows,
    selectivity log-spread over 0.2 % .. 5 % of the seed rows."""
    rng = np.random.default_rng([seed, 4])
    lon = np.fromiter((r.lon for r in rows), float, len(rows))
    lat = np.fromiter((r.lat for r in rows), float, len(rows))
    out = []
    for i in rng.permutation(QUERY_RECTS):
        sel = 10 ** (math.log10(0.002)
                     + math.log10(25) * (i + rng.random()) / QUERY_RECTS)
        t0 = rng.uniform(0.0, TIME_SPAN * (1 - QUERY_TIME_SHARE))
        box = square(lon, lat, int(rng.integers(len(rows))),
                     int(sel * len(rows) / QUERY_TIME_SHARE))
        region, (x0, y0, x1, y1) = fixed(box)
        times, (s0, s1) = fixed((t0, t0 + QUERY_TIME_SHARE * TIME_SPAN))
        out.append({
            "query": (f"ESTIMATE AVG(altitude) FROM osm WHERE "
                      f"REGION({region}) AND TIME({times}) "
                      f"SAMPLES {QUERY_SAMPLES}"),
            "lo": (x0, y0, s0), "hi": (x1, y1, s1)})
    return out


class Ingest:
    """One set-up of the durable stack over the seed rows."""

    def __init__(self, rows, seed: int):
        from repro.core.engine import StormEngine
        from repro.query.executor import QueryExecutor
        from repro.storage.dfs import SimulatedDFS
        from repro.storage.document_store import DocumentStore
        from repro.storage.lsm import LSMTree
        from repro.storage.recovery import checkpoint_store
        from repro.storage.wal import WriteAheadLog
        from repro.updates.manager import UpdateManager
        t0 = time.perf_counter()
        self.dfs = SimulatedDFS()
        self.store = DocumentStore(self.dfs)
        self.wal = WriteAheadLog(self.dfs)
        engine = StormEngine(seed=seed)
        self.dataset = engine.create_dataset("osm", rows)
        self.store.collection("osm").insert_many(
            r.to_document() for r in rows)
        checkpoint_store(self.store, self.wal)
        self.lsm = LSMTree.open(self.dataset, dfs=self.dfs, wal=self.wal)
        self.manager = UpdateManager(self.dataset, store=self.store,
                                     collection="osm", wal=self.wal)
        self.executor = QueryExecutor(engine, rng=random.Random(seed))
        self.setup_s = time.perf_counter() - t0


def cycles_per_segment(seconds: float, segments: int) -> int:
    """Measured compaction cycles per segment for a ``seconds`` run."""
    return max(1, round(seconds / segments / CYCLE_S))


def run_ingest(seed: int, seconds: float, segments: int = SEGMENTS,
               user_bytes=None, on_setup=None) -> dict:
    """Set up the stack ``segments`` times, each on its own seed rows;
    after each set-up, ingest and query for a fixed number of whole
    cycles.

    Each set-up is timed (``setup_s`` is their median) and each
    segment opens on its first compaction, so the measured window
    holds only whole seal/checkpoint/compact cycles, sampled at
    several times across the run.  ``user_bytes`` is called with each
    measured batch's inserts, ``on_setup`` after the first set-up.
    """
    cycles = cycles_per_segment(seconds, segments)
    parts = []
    for segment in range(segments):
        if parts:
            # Release the previous stack; only the last one is checked.
            del parts[-1]["state"], parts[-1]["shadow"]
        data_seed = segment_seed(seed, segment, segments)
        rows = osm_rows(SEED_ROWS, data_seed, 0)
        # Untimed: every set-up starts from the same collected heap, so
        # the previous stack's garbage is not charged to it.
        gc.collect()
        state = Ingest(rows, data_seed)
        if segment == 0 and on_setup is not None:
            on_setup()
        parts.append(_segment(state, rows, data_seed, cycles, user_bytes))
        state = rows = None
    out = {key: [x for p in parts for x in p[key]]
           for key in ("errors", "latencies_ms", "ops")}
    for key in ("attempted", "failed", "rows_applied"):
        out[key] = sum(p[key] for p in parts)
    out["cycles"] = cycles * segments
    out["setups"] = [p["setup_s"] for p in parts]
    # Per-segment rates: a slow burst of the host moves one of them.
    out["rates"] = [p["rows_applied"] / p["apply_s"] for p in parts]
    last = parts[-1]
    out["errors"].extend(final_checks(last["state"], last["shadow"],
                                      seed))
    return out


def _segment(state: Ingest, rows, seed: int, cycles: int,
             user_bytes) -> dict:
    """Warm up to the first compaction, then measure ``cycles`` whole
    cycles."""
    from repro.updates.manager import UpdateBatch
    shadow = Shadow(len(rows) * 4)
    for r in rows:
        shadow.insert(r)
    rects = query_rects(rows, seed)
    rng = random.Random(seed * 7 + 1)
    next_id = len(rows)
    pool: list = []
    chunk = 0
    out = {"errors": [], "latencies_ms": [], "ops": [], "attempted": 0,
           "failed": 0, "rows_applied": 0, "apply_s": 0.0,
           "setup_s": state.setup_s, "state": state, "shadow": shadow}
    measuring = False
    step = 0
    first = state.lsm.compactions
    while True:
        if len(pool) < BATCH_INSERTS:
            chunk += 1
            pool.extend(osm_rows(NEW_ROW_CHUNK, seed * 1000 + chunk,
                                 next_id + len(pool)))
        inserts, pool = pool[:BATCH_INSERTS], pool[BATCH_INSERTS:]
        next_id += len(inserts)
        deletes = rng.sample(shadow.live, BATCH_DELETES)
        batch = UpdateBatch(inserts=inserts, deletes=deletes)
        out["attempted"] += 1
        t0 = time.perf_counter()
        state.manager.apply(batch)
        took = time.perf_counter() - t0
        for rid in deletes:
            shadow.delete(rid)
        for r in inserts:
            shadow.insert(r)
        if measuring:
            out["apply_s"] += took
            out["rows_applied"] += len(batch)
            out["ops"].append({"t0": t0, "t1": t0 + took})
            if user_bytes is not None:
                user_bytes(inserts)
        done = state.lsm.compactions - first
        rect = rects[step % len(rects)]
        step += 1
        out["attempted"] += 1
        t0 = time.perf_counter()
        try:
            final = state.executor.execute(rect["query"]).final
        except StormError as exc:
            out["failed"] += 1
            out["errors"].append(f"{rect['query']}: {exc}")
            final = None
        took = time.perf_counter() - t0
        if final is not None:
            if measuring:
                out["latencies_ms"].append(took * 1e3)
                out["ops"].append({"t0": t0, "t1": t0 + took})
            problem = check_query(final, rect, shadow, step % 8 == 0)
            if problem:
                out["errors"].append(f"{rect['query']}: {problem}")
        # The first compaction ends the warm-up; the window then holds
        # exactly ``cycles`` more.
        if done > cycles:
            return out
        measuring = done >= 1


def check_query(final, rect: dict, shadow: Shadow, brute: bool) -> str:
    """Empty string when a query's final point is right: k stops at
    the sample cap or at q, and (when ``brute``) q is the brute-force
    count over the shadow."""
    q = final.estimate.q
    if final.k != min(q, QUERY_K_CAP):
        return f"k={final.k} but q={q}"
    if brute:
        truth = shadow.oracle().count(rect["lo"], rect["hi"])
        if q != truth:
            return f"q={q} but brute force counts {truth}"
    return ""


def final_checks(state: Ingest, shadow: Shadow, seed: int) -> list[str]:
    """Drain one without-replacement stream against brute-force truth;
    recover the store from the run's DFS and compare its ids with the
    shadow's."""
    from repro.core.geometry import Rect
    from repro.storage.document_store import DocumentStore
    from repro.storage.recovery import recover_store
    from repro.storage.wal import WriteAheadLog
    errors = []
    live = set(shadow.live)
    if set(state.dataset.records) != live:
        errors.append("dataset ids differ from the shadow ids")
    rect = Rect((-100.0, 30.0, 0.0), (-90.0, 40.0, TIME_SPAN))
    sampler = state.dataset.sampler_for(rect)
    q = sampler.range_count(rect)
    got = [e.item_id for e in
           sampler.open_stream(rect, random.Random(seed))]
    mask = shadow.oracle().mask(rect.lo, rect.hi)
    truth = set(int(i) for i in np.flatnonzero(mask))
    if q != len(truth) or len(got) != len(set(got)) or set(got) != truth:
        errors.append(f"drained stream: q={q}, {len(got)} draws, "
                      f"{len(truth)} true ids")
    store = DocumentStore(state.dfs)
    recover_store(store, WriteAheadLog(state.dfs), checkpoint=False)
    recovered = {int(doc["_id"]) for doc in store.collection("osm").find()}
    if recovered != live:
        errors.append(f"recovered store holds {len(recovered)} ids, "
                      f"shadow {len(live)}; "
                      f"{len(recovered ^ live)} differ")
    return errors
