"""Unit tests for the R-tree substrate."""

import random

import pytest

from repro.core.geometry import Rect
from repro.errors import IndexError_
from repro.index.cost import CostCounter
from repro.index.rtree import RTree

from tests.conftest import brute_force_range, make_clustered_points, \
    make_points


def build(points, **kwargs) -> RTree:
    tree = RTree(dims=len(points[0][1]) if points else 2, **kwargs)
    tree.bulk_load(points)
    return tree


class TestBulkLoad:
    def test_empty(self):
        tree = RTree(2)
        tree.bulk_load([])
        assert len(tree) == 0
        assert tree.root is None
        tree.validate()

    def test_single_point(self):
        tree = build([(1, (3.0, 4.0))])
        assert len(tree) == 1
        assert tree.height == 1
        tree.validate()

    def test_sizes_and_validation(self, uniform_points):
        tree = build(uniform_points)
        assert len(tree) == len(uniform_points)
        tree.validate()

    def test_clustered_validation(self, clustered_points):
        tree = build(clustered_points)
        tree.validate()

    def test_height_grows_logarithmically(self):
        small = build(make_points(100))
        large = build(make_points(20_000))
        assert small.height <= large.height <= small.height + 4

    def test_iter_entries_roundtrip(self, uniform_points):
        tree = build(uniform_points)
        got = {(e.item_id, e.point) for e in tree.iter_entries()}
        want = {(pid, pt) for pid, pt in uniform_points}
        assert got == want

    def test_3d(self):
        pts = make_points(500, dims=3)
        tree = build(pts)
        tree.validate()
        rect = Rect((10, 10, 10), (60, 60, 60))
        got = {e.item_id for e in tree.range_query(rect)}
        assert got == brute_force_range(pts, rect)

    def test_wrong_dim_rejected(self):
        tree = RTree(2)
        with pytest.raises(IndexError_):
            tree.bulk_load([(0, (1.0, 2.0, 3.0))])


class TestRangeQuery:
    @pytest.mark.parametrize("box", [
        Rect((0, 0), (100, 100)),      # everything
        Rect((25, 25), (75, 75)),      # interior
        Rect((0, 0), (10, 10)),        # corner
        Rect((200, 200), (300, 300)),  # empty
        Rect((50, 50), (50, 50)),      # degenerate
    ])
    def test_matches_brute_force(self, uniform_points, box):
        tree = build(uniform_points)
        got = {e.item_id for e in tree.range_query(box)}
        assert got == brute_force_range(uniform_points, box)

    def test_count_matches_query(self, clustered_points):
        tree = build(clustered_points)
        for box in [Rect((20, 20), (80, 80)), Rect((0, 0), (30, 99))]:
            assert tree.range_count(box) == len(tree.range_query(box))

    def test_count_cheaper_than_report(self, uniform_points):
        tree = build(uniform_points, leaf_capacity=8, branch_capacity=4)
        box = Rect((10, 10), (90, 90))
        c_report = CostCounter()
        tree.range_query(box, c_report)
        c_count = CostCounter()
        tree.range_count(box, c_count)
        assert c_count.node_reads < c_report.node_reads
        assert c_count.leaf_entries_scanned < c_report.leaf_entries_scanned


class TestCanonicalSet:
    def test_covers_exactly_once(self, uniform_points):
        tree = build(uniform_points)
        box = Rect((20, 20), (85, 85))
        canon = tree.canonical_set(box)
        ids = [e.item_id for e in canon.residual]
        for node in canon.nodes:
            assert box.contains(node.mbr)
            stack = [node]
            while stack:
                n = stack.pop()
                if n.is_leaf:
                    ids.extend(e.item_id for e in n.entries)
                else:
                    stack.extend(n.children)
        assert len(ids) == len(set(ids)), "duplicate coverage"
        assert set(ids) == brute_force_range(uniform_points, box)

    def test_count_property(self, uniform_points):
        tree = build(uniform_points)
        box = Rect((30, 10), (70, 95))
        canon = tree.canonical_set(box)
        assert canon.count == tree.range_count(box)

    def test_nodes_are_maximal(self, uniform_points):
        tree = build(uniform_points)
        box = Rect((20, 20), (85, 85))
        canon = tree.canonical_set(box)
        for node in canon.nodes:
            parent = node.parent
            if parent is not None:
                assert not box.contains(parent.mbr)

    def test_cheaper_than_full_report(self, uniform_points):
        tree = build(uniform_points, leaf_capacity=8, branch_capacity=4)
        box = Rect((5, 5), (95, 95))
        c_canon = CostCounter()
        tree.canonical_set(box, c_canon)
        c_report = CostCounter()
        tree.range_query(box, c_report)
        assert c_canon.node_reads < c_report.node_reads


class TestInsert:
    def test_incremental_build_matches_brute_force(self):
        pts = make_points(800, seed=3)
        tree = RTree(2, leaf_capacity=8, branch_capacity=4)
        for pid, pt in pts:
            tree.insert(pid, pt)
        tree.validate()
        box = Rect((25, 25), (60, 90))
        got = {e.item_id for e in tree.range_query(box)}
        assert got == brute_force_range(pts, box)

    def test_counts_maintained(self):
        pts = make_points(300, seed=5)
        tree = RTree(2, leaf_capacity=8, branch_capacity=4)
        for i, (pid, pt) in enumerate(pts, start=1):
            tree.insert(pid, pt)
            assert tree.root.count == i
        tree.validate()

    def test_insert_into_bulk_loaded(self, uniform_points):
        tree = build(uniform_points)
        tree.insert(10_000, (50.0, 50.0))
        tree.validate()
        assert len(tree) == len(uniform_points) + 1
        got = tree.range_query(Rect((49.9, 49.9), (50.1, 50.1)))
        assert 10_000 in {e.item_id for e in got}

    def test_duplicate_points_allowed(self):
        tree = RTree(2, leaf_capacity=4, branch_capacity=4)
        for i in range(50):
            tree.insert(i, (1.0, 1.0))
        tree.validate()
        assert tree.range_count(Rect((1, 1), (1, 1))) == 50


class TestDelete:
    def test_delete_all(self):
        pts = make_points(200, seed=9)
        tree = RTree(2, leaf_capacity=8, branch_capacity=4)
        for pid, pt in pts:
            tree.insert(pid, pt)
        r = random.Random(1)
        order = list(pts)
        r.shuffle(order)
        for i, (pid, pt) in enumerate(order):
            assert tree.delete(pid, pt)
            if i % 25 == 0:
                tree.validate()
        assert len(tree) == 0
        assert tree.root is None

    def test_delete_missing_returns_false(self, uniform_points):
        tree = build(uniform_points)
        assert not tree.delete(999_999, (1.0, 1.0))
        assert len(tree) == len(uniform_points)

    def test_delete_keeps_queries_correct(self):
        pts = make_points(600, seed=13)
        tree = build(pts, leaf_capacity=8, branch_capacity=4)
        r = random.Random(2)
        removed = set()
        for pid, pt in r.sample(pts, 250):
            assert tree.delete(pid, pt)
            removed.add(pid)
        tree.validate()
        box = Rect((10, 10), (90, 90))
        got = {e.item_id for e in tree.range_query(box)}
        want = brute_force_range(pts, box) - removed
        assert got == want

    def test_mixed_workload(self):
        """Interleaved inserts and deletes keep every invariant."""
        tree = RTree(2, leaf_capacity=8, branch_capacity=4)
        r = random.Random(3)
        live: dict[int, tuple] = {}
        next_id = 0
        for step in range(1500):
            if live and r.random() < 0.4:
                pid = r.choice(list(live))
                assert tree.delete(pid, live.pop(pid))
            else:
                pt = (r.uniform(0, 100), r.uniform(0, 100))
                tree.insert(next_id, pt)
                live[next_id] = pt
                next_id += 1
            if step % 200 == 0:
                tree.validate()
                assert len(tree) == len(live)
        tree.validate()
        got = {e.item_id for e in tree.iter_entries()}
        assert got == set(live)


class TestCostAccounting:
    def test_node_reads_charged(self, uniform_points):
        tree = build(uniform_points)
        cost = CostCounter()
        tree.range_query(Rect((0, 0), (100, 100)), cost)
        assert cost.node_reads == tree.node_count()

    def test_sequential_vs_random(self):
        cost = CostCounter()
        cost.charge_node(10)
        cost.charge_node(11)
        cost.charge_node(12)
        cost.charge_node(50)
        assert cost.sequential_reads == 2
        assert cost.random_reads == 2

    def test_snapshot_delta(self):
        cost = CostCounter()
        cost.charge_node(1)
        snap = cost.snapshot()
        cost.charge_node(2)
        cost.charge_node(3)
        delta = cost.delta_from(snap)
        assert delta.node_reads == 2


class TestParams:
    def test_rejects_bad_dims(self):
        with pytest.raises(IndexError_):
            RTree(0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(IndexError_):
            RTree(2, leaf_capacity=1)

    def test_node_count_positive(self, uniform_points):
        tree = build(uniform_points)
        assert tree.node_count() >= len(uniform_points) // 64
