"""Uniformity and snapshot-isolation tests for the tiered LSM path.

Definition 1 does not weaken under ingest: with records spread across
the main tree, sealed runs, and the memtable — with tombstones masking
dead copies in every tier — the merged stream must still be an exact
uniform without-replacement permutation of ``P ∩ Q``.  The chi-square
matrix checks that at sparse/medium/dense fill ratios; the snapshot
suite checks that streams opened mid-ingest are isolated from every
concurrent mutation (insert, delete, seal, compaction).

Chi-square thresholds use the 0.001 quantile with fixed seeds, matching
``test_sampler_uniformity``; the ``stat`` marker lets CI run the
statistical subset in its own step.
"""

import random

import pytest
from scipy import stats

from repro.core.engine import Dataset
from repro.core.estimators.aggregates import CountEstimator
from repro.core.geometry import Rect
from repro.core.records import Record
from repro.core.sampling.base import take
from repro.core.session import StopCondition
from repro.storage.lsm import LSMTree, Memtable, SealedRun
from repro.errors import StorageError, StormError
from repro.index.rtree import Entry


def make_records(n, seed=5, start_id=0):
    rng = random.Random(seed)
    return [Record(record_id=start_id + i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": rng.gauss(10, 2)})
            for i in range(n)]


def tiered_dataset(seed=11, n_main=300, n_new=260, memtable_limit=64,
                   deletes=30):
    """A dataset with every tier populated and tombstones in each.

    ``n_main`` records seed the main tree; ``n_new`` flow through the
    memtable, sealing runs along the way; ``deletes`` random victims
    then scatter tombstones across whichever tiers they live in.
    """
    base = make_records(n_main, seed=seed)
    dataset = Dataset("tiers", base, dims=2, rs_buffer_size=16,
                      build_ls=False, seed=seed)
    lsm = LSMTree(dataset, memtable_limit=memtable_limit,
                  compact_after_runs=999)
    dataset.attach_lsm(lsm)
    for r in make_records(n_new, seed=seed * 3 + 1, start_id=10_000):
        dataset.insert(r)
    rng = random.Random(seed * 7 + 2)
    for rid in rng.sample(sorted(dataset.records), deletes):
        dataset.delete(rid)
    return dataset, lsm


def live_in_range(dataset, rect):
    return {rid for rid, r in dataset.records.items()
            if rect.contains_point(r.key(dataset.dims))}


def rect_for_ratio(dataset, ratio, center=(50.0, 50.0)):
    """A centred square rect whose live fill ratio is ~``ratio``."""
    target = max(2, round(ratio * len(dataset.records)))
    lo_w, hi_w = 0.0, 50.0
    for _ in range(40):
        w = (lo_w + hi_w) / 2
        rect = Rect((center[0] - w, center[1] - w),
                    (center[0] + w, center[1] + w))
        count = len(live_in_range(dataset, rect))
        if count < target:
            lo_w = w
        else:
            hi_w = w
    return Rect((center[0] - hi_w, center[1] - hi_w),
                (center[0] + hi_w, center[1] + hi_w))


def chi_square_pvalue(counts, in_range, total_draws):
    expected = total_draws / len(in_range)
    chi2 = sum((counts.get(rid, 0) - expected) ** 2 / expected
               for rid in in_range)
    return stats.chi2.sf(chi2, df=len(in_range) - 1)


def run_trials(dataset, rect, k, seed, trials, with_replacement=False):
    sampler = dataset.samplers["lsm-tiered"]
    counts = {}
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        if with_replacement:
            stream = sampler.sample_stream_with_replacement(rect, rng)
        else:
            stream = sampler.sample_stream(rect, rng)
        for entry in take(stream, k):
            counts[entry.item_id] = counts.get(entry.item_id, 0) + 1
    return chi_square_pvalue(counts, live_in_range(dataset, rect),
                             trials * k)


@pytest.mark.stat
class TestTieredUniformity:
    """Chi-square matrix: sparse, medium, dense fill ratios.

    The tier composition is identical across ratios (same dataset);
    what changes is how much of each tier the query covers.
    """

    def test_fill_ratio_001(self):
        dataset, _ = tiered_dataset(seed=31)
        rect = rect_for_ratio(dataset, 0.01)
        assert 2 <= len(live_in_range(dataset, rect)) <= 12
        assert run_trials(dataset, rect, k=1, seed=1,
                          trials=2500) > 1e-3

    def test_fill_ratio_01(self):
        dataset, _ = tiered_dataset(seed=32)
        rect = rect_for_ratio(dataset, 0.1)
        assert run_trials(dataset, rect, k=4, seed=2,
                          trials=1500) > 1e-3

    def test_fill_ratio_05(self):
        dataset, _ = tiered_dataset(seed=33)
        rect = rect_for_ratio(dataset, 0.5)
        assert run_trials(dataset, rect, k=8, seed=3,
                          trials=1200) > 1e-3

    def test_with_replacement_medium_ratio(self):
        dataset, _ = tiered_dataset(seed=34)
        rect = rect_for_ratio(dataset, 0.1)
        assert run_trials(dataset, rect, k=4, seed=4, trials=1500,
                          with_replacement=True) > 1e-3


EVERYTHING = Rect((0, 0), (100, 100))


class TestExactness:
    """The merged WOR stream is a permutation of the live range."""

    def test_full_drain_equals_live_set(self):
        dataset, _ = tiered_dataset(seed=41)
        sampler = dataset.samplers["lsm-tiered"]
        q = sampler.range_count(EVERYTHING)
        got = [e.item_id for e in
               sampler.sample_stream(EVERYTHING, random.Random(9))]
        assert q == len(got) == len(set(got))
        assert set(got) == set(dataset.records)

    def test_partial_rect_drain(self):
        dataset, _ = tiered_dataset(seed=42)
        rect = Rect((20, 20), (70, 70))
        sampler = dataset.samplers["lsm-tiered"]
        q = sampler.range_count(rect)
        truth = live_in_range(dataset, rect)
        got = {e.item_id for e in
               sampler.sample_stream(rect, random.Random(10))}
        assert q == len(truth) and got == truth

    def test_tombstones_mask_every_tier(self):
        dataset, lsm = tiered_dataset(seed=43, deletes=0)
        in_main = next(rid for rid in dataset.records
                       if rid not in lsm._run_of
                       and rid not in lsm.memtable)
        in_run = next(iter(lsm._run_of))
        in_mem = next(iter(lsm.memtable.records))
        for rid in (in_main, in_run, in_mem):
            assert dataset.delete(rid)
        got = {e.item_id for e in
               dataset.samplers["lsm-tiered"].sample_stream(
                   EVERYTHING, random.Random(11))}
        assert got == set(dataset.records)
        assert not {in_main, in_run, in_mem} & got

    def test_default_sampler_is_tiered(self):
        dataset, _ = tiered_dataset(seed=44)
        assert dataset.sampler_for(EVERYTHING).name == "lsm-tiered"


class TestSnapshotIsolation:
    """Streams opened mid-ingest never see concurrent mutations."""

    def test_insert_after_open_is_invisible(self):
        dataset, _ = tiered_dataset(seed=51)
        sampler = dataset.samplers["lsm-tiered"]
        truth = set(dataset.records)
        q = sampler.range_count(EVERYTHING)
        stream = sampler.sample_stream(EVERYTHING, random.Random(12))
        first = [next(stream) for _ in range(5)]
        for r in make_records(100, seed=512, start_id=50_000):
            dataset.insert(r)
        got = {e.item_id for e in first} | \
            {e.item_id for e in stream}
        assert got == truth and q == len(truth)

    def test_delete_after_open_still_streams(self):
        """Classic snapshot semantics: the stream covers records that
        were live at open, even if deleted mid-stream."""
        dataset, _ = tiered_dataset(seed=52)
        sampler = dataset.samplers["lsm-tiered"]
        truth = set(dataset.records)
        sampler.range_count(EVERYTHING)
        stream = sampler.sample_stream(EVERYTHING, random.Random(13))
        victims = random.Random(14).sample(sorted(truth), 20)
        for rid in victims:
            dataset.delete(rid)
        assert {e.item_id for e in stream} == truth

    def test_seal_and_compaction_mid_stream(self):
        """A seal moves memtable→run and a compaction swaps the main
        tree's node graph; the pinned snapshot survives both."""
        dataset, lsm = tiered_dataset(seed=53)
        sampler = dataset.samplers["lsm-tiered"]
        truth = set(dataset.records)
        assert lsm.runs and lsm.memtable.records
        sampler.range_count(EVERYTHING)
        stream = sampler.sample_stream(EVERYTHING, random.Random(15))
        first = [next(stream) for _ in range(10)]
        lsm.seal()
        lsm.compact()
        assert not lsm.runs and not lsm.memtable.records
        got = {e.item_id for e in first} | \
            {e.item_id for e in stream}
        assert got == truth

    def test_wr_stream_is_isolated(self):
        dataset, lsm = tiered_dataset(seed=54)
        sampler = dataset.samplers["lsm-tiered"]
        truth = set(dataset.records)
        sampler.range_count(EVERYTHING)
        stream = sampler.sample_stream_with_replacement(
            EVERYTHING, random.Random(16))
        drawn = set()
        for _ in range(50):
            drawn.add(next(stream).item_id)
        for r in make_records(50, seed=541, start_id=60_000):
            dataset.insert(r)
        lsm.seal()
        lsm.compact()
        for _ in range(200):
            drawn.add(next(stream).item_id)
        assert drawn <= truth

    def test_canonical_cache_stays_hot_under_ingest(self):
        """Memtable inserts must not bump the main tree's structural
        version — repeated queries hit the canonical-set cache."""
        dataset, _ = tiered_dataset(seed=55)
        sampler = dataset.samplers["lsm-tiered"]
        rect = Rect((10, 10), (90, 90))
        sampler.range_count(rect)
        take(sampler.sample_stream(rect, random.Random(17)), 4)
        hits0 = dataset.tree.canon_hits
        for i in range(10):
            dataset.insert(Record(record_id=70_000 + i, lon=50.0,
                                  lat=50.0, attrs={}))
            sampler.range_count(rect)
            take(sampler.sample_stream(rect, random.Random(18 + i)), 4)
        assert dataset.tree.canon_hits - hits0 >= 10

    def test_empty_query_pins_no_snapshot(self):
        """A query with q = 0 opens no stream, so a snapshot pinned by
        its count would be served, stale, to a later stream."""
        dataset, _ = tiered_dataset(seed=56)
        rect = Rect((50.0, 50.0), (50.01, 50.01))
        assert not live_in_range(dataset, rect)
        session = dataset.session(rect, CountEstimator(),
                                  rng=random.Random(19))
        point = session.run_to_stop(StopCondition())
        assert point.reason == "empty range"
        for i in range(20):
            dataset.insert(Record(record_id=80_000 + i, lon=50.005,
                                  lat=50.005, attrs={}))
        sampler = dataset.sampler_for(rect)
        got = sampler.sample(rect, 5, random.Random(20))
        assert len(got) == 5
        assert {e.item_id for e in got} <= set(range(80_000, 80_020))


class TestTierMechanics:
    """Unit-level behaviour of the memtable and sealed runs."""

    def test_memtable_duplicate_insert_raises(self):
        mem = Memtable(2)
        mem.insert(Record(record_id=1, lon=1.0, lat=2.0, attrs={}))
        with pytest.raises(StorageError):
            mem.insert(Record(record_id=1, lon=3.0, lat=4.0, attrs={}))

    def test_memtable_in_range(self):
        mem = Memtable(2)
        mem.insert(Record(record_id=1, lon=10.0, lat=10.0, attrs={}))
        mem.insert(Record(record_id=2, lon=90.0, lat=90.0, attrs={}))
        rect = Rect((0, 0), (50, 50))
        assert mem.in_range(rect) == [Entry(1, (10.0, 10.0))]
        assert mem.remove(1).record_id == 1
        assert mem.remove(1) is None

    def test_memtable_in_range_matches_brute_force(self):
        """Removes, re-inserts (as the same object and as a moved new
        record) and points on the closed boundary, read between ops so
        the coordinate column grows in steps."""
        rng = random.Random(71)
        mem = Memtable(2)
        model: dict[int, Record] = {}
        removed: list[Record] = []

        def insert(rec):
            mem.insert(rec)
            model[rec.record_id] = rec

        def point():
            return rng.uniform(0, 100), rng.uniform(0, 100)

        # Points on a rect's closed boundary count as inside.
        insert(Record(record_id=900, lon=50.0, lat=25.0, attrs={}))
        insert(Record(record_id=901, lon=20.0, lat=50.0, attrs={}))
        rects = [Rect((20, 25), (50, 50)), EVERYTHING]
        for _ in range(6):
            (x0, y0), (x1, y1) = point(), point()
            rects.append(Rect((min(x0, x1), min(y0, y1)),
                              (max(x0, x1), max(y0, y1))))
        assert [e.item_id for e in mem.in_range(rects[0])] == [900, 901]
        for step in range(400):
            op = rng.random()
            if op < 0.3 and model:
                rid = rng.choice(sorted(model))
                rec = model.pop(rid)
                assert mem.remove(rid) is rec
                removed.append(rec)
            elif op < 0.5 and removed:
                old = removed.pop(rng.randrange(len(removed)))
                if old.record_id not in model:
                    lon, lat = point()
                    insert(old if rng.random() < 0.5 else
                           Record(record_id=old.record_id, lon=lon,
                                  lat=lat, attrs={}))
            else:
                rid = rng.randrange(60)
                if rid not in model:
                    lon, lat = point()
                    insert(Record(record_id=rid, lon=lon, lat=lat,
                                  attrs={}))
            if step % 5 == 0:
                for rect in rects:
                    want = [Entry(r.record_id, r.key(2))
                            for r in model.values()
                            if rect.contains_point(r.key(2))]
                    assert mem.in_range(rect) == want

    def test_snapshot_makes_no_per_row_containment_test(self,
                                                         monkeypatch):
        """The memtable and the main-tier tombstones are filtered as
        columns: no ``Rect.contains_point`` per row or per tombstone."""
        base = make_records(2000, seed=81)
        dataset = Dataset("columns", base, dims=2, build_ls=False, seed=3)
        lsm = LSMTree(dataset, memtable_limit=4096,
                      compact_after_runs=999)
        dataset.attach_lsm(lsm)
        for r in make_records(1000, seed=82, start_id=10_000):
            dataset.insert(r)
        for rid in range(0, 1000, 2):
            dataset.delete(rid)
        assert len(lsm.memtable) == 1000 and len(lsm.main_dead) == 500
        rect = Rect((20, 20), (70, 70))
        calls = []
        contains_point = Rect.contains_point

        def counting(self, point):
            calls.append(point)
            return contains_point(self, point)

        monkeypatch.setattr(Rect, "contains_point", counting)
        snap = dataset.samplers["lsm-tiered"].snapshot(rect)
        assert calls == []
        monkeypatch.undo()
        assert snap.live_total == len(live_in_range(dataset, rect))
        assert snap.main_masked == set(range(0, 1000, 2))

    def test_sealed_run_in_range_matches_brute_force(self):
        records = make_records(64, seed=61)
        # Points on a rect's closed boundary count as inside.
        records.append(Record(record_id=64, lon=50.0, lat=25.0, attrs={}))
        records.append(Record(record_id=65, lon=20.0, lat=50.0, attrs={}))
        run = SealedRun(7, records, 2)
        rng = random.Random(62)
        rects = [Rect((20, 25), (50, 50)), EVERYTHING]
        for _ in range(30):
            x0, x1 = sorted(rng.uniform(0, 100) for _ in range(2))
            y0, y1 = sorted(rng.uniform(0, 100) for _ in range(2))
            rects.append(Rect((x0, y0), (x1, y1)))
        for rect in rects:
            got = [(e.item_id, e.point) for e in run.in_range(rect)]
            want = [(r.record_id, r.key(2)) for r in records
                    if rect.contains_point(r.key(2))]
            assert sorted(got) == sorted(want)
        assert {64, 65} <= {e.item_id for e in run.in_range(rects[0])}

    def test_unread_run_builds_no_block(self):
        dataset, lsm = tiered_dataset(seed=63)
        assert lsm.runs
        assert all(run._block is None for run in lsm.runs)
        dataset.sampler_for(EVERYTHING).range_count(EVERYTHING)
        assert all(run._block is not None for run in lsm.runs)

    def test_seal_then_compact_counts(self):
        dataset, lsm = tiered_dataset(seed=62)
        run_records = lsm.run_records()
        assert run_records > 0
        lsm.seal()
        moved = lsm.compact()
        assert moved >= run_records
        assert lsm.tier_shape()["sealed_runs"] == 0
        assert lsm.tier_shape()["memtable_records"] == 0

    def test_explain_reports_tier_shape(self):
        from repro.core.engine import StormEngine
        from repro.query.executor import QueryExecutor
        dataset, _ = tiered_dataset(seed=63)
        engine = StormEngine(seed=63)
        engine.register(dataset)
        executor = QueryExecutor(engine, rng=random.Random(63))
        report = executor.explain_report(
            "ESTIMATE COUNT FROM tiers WHERE REGION(0, 0, 100, 100)")
        assert "lsm memtable records" in report
        assert "lsm sealed runs" in report


class TestUsingUnderLSM:
    """``USING`` would run a main-tier sampler that misses memtable and
    run records, so the tiered path refuses it instead of returning a
    wrong count labelled exact."""

    METHODS = ("rs-tree", "ls-tree", "query-first", "random-path",
               "sample-first")
    QUERY = "ESTIMATE COUNT FROM {} WHERE REGION(-1, -1, 101, 101)"

    @staticmethod
    def _executor(dataset):
        from repro.core.engine import StormEngine
        from repro.query.executor import QueryExecutor
        engine = StormEngine(seed=71)
        engine.register(dataset)
        return QueryExecutor(engine, rng=random.Random(71))

    def test_tiered_count_is_live_count_and_using_raises(self):
        dataset, lsm = tiered_dataset(seed=71)
        shape = lsm.tier_shape()
        assert shape["memtable_records"] > 0
        assert shape["sealed_runs"] > 0
        assert len(dataset.records) < 300 + 260  # tombstones applied
        executor = self._executor(dataset)
        query = self.QUERY.format("tiers")
        result = executor.execute(query)
        assert result.value == len(dataset.records)
        assert result.final.estimate.exact
        for method in self.METHODS:
            with pytest.raises(StormError, match="lsm-tiered"):
                executor.execute(f"{query} USING {method}")

    def test_every_method_counts_all_records_without_lsm(self):
        records = make_records(300, seed=72)
        dataset = Dataset("plain", records, dims=2, rs_buffer_size=16,
                          seed=72)
        executor = self._executor(dataset)
        query = self.QUERY.format("plain")
        for method in self.METHODS:
            result = executor.execute(f"{query} USING {method}")
            assert result.value == len(records), method


class TestForestUnderLSM:
    """No plan reaches the LS forest once an LSM is attached, so the
    dataset drops it and no compaction rebuilds it."""

    @staticmethod
    def _forbid_forest_builds(monkeypatch):
        from repro.core.sampling.ls_tree import LSTree

        def refuse(self, items):
            raise AssertionError("LS forest bulk-loaded under an LSM")
        monkeypatch.setattr(LSTree, "bulk_load", refuse)

    def test_open_drops_forest_and_sampler(self):
        dataset = Dataset("forest", make_records(200, seed=81), dims=2,
                          rs_buffer_size=16, seed=81)
        assert dataset.forest is not None
        assert "ls-tree" in dataset.samplers
        build_state = dataset._build_rng.getstate()
        LSMTree.open(dataset)
        assert dataset.forest is None
        assert "ls-tree" not in dataset.samplers
        assert "ls-tree" not in dataset.optimizer.samplers
        assert dataset.build_ls
        # Dropping the forest draws nothing from the build stream.
        assert dataset._build_rng.getstate() == build_state

    def test_compaction_never_builds_forest(self, monkeypatch):
        dataset = Dataset("forest", make_records(200, seed=82), dims=2,
                          rs_buffer_size=16, seed=82)
        lsm = LSMTree.open(dataset, memtable_limit=32,
                           compact_after_runs=2)
        self._forbid_forest_builds(monkeypatch)
        for r in make_records(100, seed=83, start_id=10_000):
            dataset.insert(r)
        for rid in random.Random(84).sample(sorted(dataset.records), 20):
            dataset.delete(rid)
        assert lsm.compact() > 0
        dataset.rebuild()
        q = dataset.sampler_for(EVERYTHING).range_count(EVERYTHING)
        assert q == len(dataset.records) == 280

    def test_rebuild_without_lsm_keeps_forest(self):
        dataset = Dataset("forest", make_records(200, seed=85), dims=2,
                          rs_buffer_size=16, seed=85)
        dataset.insert(make_records(1, seed=86, start_id=500)[0])
        dataset.rebuild()
        sampler = dataset.samplers["ls-tree"]
        assert sampler.range_count(EVERYTHING) == 201
