"""Regression tests for the sampling fast-path cache.

The R-tree's **canonical-set cache** (LRU per query rect, keyed to a
structural ``version`` that every insert / delete / bulk load bumps)
must be *exactly* invisible semantically: a cached answer equals a
recomputed one, and any mutation invalidates before the next read.
The simulated DFS has no block cache: a repeated read charges a
replica again.
"""

import random

from repro.core.engine import Dataset
from repro.core.geometry import Rect
from repro.core.records import Record
from repro.index.cost import CostCounter
from repro.index import rtree as rtree_module
from repro.index.rtree import RTree
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.storage.dfs import SimulatedDFS
from repro.updates.manager import UpdateBatch, UpdateManager

from tests.conftest import make_points

POINTS = make_points(500, seed=31)
BOX = Rect((20, 20), (80, 80))


def build_tree() -> RTree:
    tree = RTree(2, leaf_capacity=16, branch_capacity=8)
    tree.bulk_load(POINTS)
    return tree


def canon_ids(canon) -> set[int]:
    ids = {e.item_id for e in canon.residual}
    for node in canon.nodes:
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                ids.update(e.item_id for e in n.entries)
            else:
                stack.extend(n.children)
    return ids


class TestCanonicalSetCache:
    def test_repeat_query_hits_and_matches(self):
        tree = build_tree()
        first = tree.canonical_set(BOX)
        assert (tree.canon_hits, tree.canon_misses) == (0, 1)
        again = tree.canonical_set(BOX)
        assert (tree.canon_hits, tree.canon_misses) == (1, 1)
        assert again is first  # served from cache, not recomputed

    def test_hit_charges_cache_not_device(self):
        tree = build_tree()
        tree.canonical_set(BOX)
        cost = CostCounter()
        tree.canonical_set(BOX, cost)
        assert cost.node_reads == 0
        assert cost.cached_reads == 1

    def test_equal_rect_new_object_still_hits(self):
        tree = build_tree()
        tree.canonical_set(Rect((20, 20), (80, 80)))
        tree.canonical_set(Rect((20, 20), (80, 80)))
        assert tree.canon_hits == 1

    def test_insert_invalidates(self):
        tree = build_tree()
        before = canon_ids(tree.canonical_set(BOX))
        version = tree.version
        tree.insert(10_000, (50.0, 50.0))
        assert tree.version == version + 1
        after = tree.canonical_set(BOX)
        assert tree.canon_hits == 0  # recomputed, not served stale
        assert canon_ids(after) == before | {10_000}

    def test_delete_invalidates(self):
        tree = build_tree()
        ids = canon_ids(tree.canonical_set(BOX))
        victim = next(iter(ids))
        point = dict(POINTS)[victim]
        assert tree.delete(victim, point)
        after = canon_ids(tree.canonical_set(BOX))
        assert tree.canon_hits == 0
        assert after == ids - {victim}

    def test_failed_delete_keeps_cache(self):
        tree = build_tree()
        tree.canonical_set(BOX)
        assert not tree.delete(999_999, (1.0, 1.0))
        tree.canonical_set(BOX)
        assert tree.canon_hits == 1

    def test_bulk_load_invalidates(self):
        tree = build_tree()
        tree.canonical_set(BOX)
        tree.bulk_load(POINTS[:100])
        tree.canonical_set(BOX)
        assert tree.canon_hits == 0

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(rtree_module, "CANONICAL_CACHE_SIZE", 2)
        tree = build_tree()
        a = Rect((0, 0), (30, 30))
        b = Rect((30, 30), (60, 60))
        c = Rect((60, 60), (90, 90))
        tree.canonical_set(a)
        tree.canonical_set(b)
        tree.canonical_set(c)  # evicts a (LRU)
        tree.canonical_set(c)
        tree.canonical_set(b)
        assert tree.canon_hits == 2
        tree.canonical_set(a)  # must recompute
        assert tree.canon_misses == 4

    def test_capacity_zero_disables(self, monkeypatch):
        monkeypatch.setattr(rtree_module, "CANONICAL_CACHE_SIZE", 0)
        tree = build_tree()
        tree.canonical_set(BOX)
        tree.canonical_set(BOX)
        assert tree.canon_hits == 0
        assert tree.canon_misses == 2

    def test_registry_counters(self):
        tree = build_tree()
        obs = Observability(registry=MetricsRegistry(), tracer=Tracer())
        tree.bind_observability(obs)
        tree.canonical_set(BOX)
        tree.canonical_set(BOX)
        reg = obs.registry
        assert reg.counter("storm.cache.canonical.misses").value == 1
        assert reg.counter("storm.cache.canonical.hits").value == 1


def make_records(n, seed=41):
    rng = random.Random(seed)
    return [Record(record_id=i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": 1.0})
            for i in range(n)]


class TestUpdateManagerInvalidation:
    def test_update_batch_bumps_tree_version(self):
        ds = Dataset("cachetest", make_records(400), rs_buffer_size=16)
        manager = UpdateManager(ds)
        rect = ds.to_rect(Rect((20.0, 20.0, 0.0), (80.0, 80.0, 1000.0)))
        ds.tree.canonical_set(rect)
        version = ds.tree.version
        manager.apply(UpdateBatch(
            inserts=[Record(10_000, 50.0, 50.0, t=500.0,
                            attrs={"v": 1.0})],
            deletes=[0]))
        assert ds.tree.version == version + 2  # delete + insert
        count_after = ds.tree.canonical_set(rect).count
        assert ds.tree.canon_hits == 0
        assert count_after == ds.tree.range_count(rect)


class TestDFSBlockCache:
    def test_cache_off_by_default(self):
        dfs = SimulatedDFS(machines=2, replication=1)
        dfs.write_file("f", b"x" * 20_000)
        dfs.read_file("f")
        reads = dfs.total_blocks_read()
        dfs.read_file("f")
        assert dfs.total_blocks_read() == 2 * reads


class TestExplainReportsCaches:
    def test_repeat_explain_shows_canonical_hits(self):
        from repro.core.engine import StormEngine
        from repro.query.executor import QueryExecutor
        from repro.workloads.osm import OSMWorkload

        engine = StormEngine(seed=7)
        engine.create_dataset(
            "osm", OSMWorkload(n=2000, seed=7).generate(), dims=2)
        executor = QueryExecutor(engine, rng=random.Random(7))
        query = ("ESTIMATE COUNT FROM osm "
                 "WHERE REGION(-125, 25, -65, 50) "
                 "USING rs-tree SAMPLES 64")
        executor.explain_report(query)  # warm the canonical-set cache
        report = executor.explain_report(query)
        assert "caches:" in report
        assert "canonical-set" in report
        assert "hit_rate=100.0%" in report
