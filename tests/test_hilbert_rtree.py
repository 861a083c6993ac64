"""Unit tests for the Hilbert R-tree."""

import random

import pytest

from repro.core.geometry import Rect
from repro.errors import IndexError_
from repro.index.cost import CostCounter
from repro.index.hilbert import HilbertEncoder
from repro.index.hilbert_rtree import HilbertRTree
from repro.index.rtree import Entry, RTree, _even_chunks

from tests.conftest import brute_force_range, make_clustered_points, \
    make_points

BOUNDS = Rect((0, 0), (100, 100))


def build(points, **kwargs) -> HilbertRTree:
    tree = HilbertRTree(2, BOUNDS, **kwargs)
    tree.bulk_load(points)
    return tree


class TestHilbertBulkLoad:
    def test_valid_and_complete(self, uniform_points):
        tree = build(uniform_points)
        tree.validate()
        assert len(tree) == len(uniform_points)

    def test_queries_match_brute_force(self, clustered_points):
        tree = build(clustered_points)
        for box in [Rect((20, 20), (70, 70)), Rect((0, 0), (5, 5)),
                    Rect((90, 90), (99, 99))]:
            got = {e.item_id for e in tree.range_query(box)}
            assert got == brute_force_range(clustered_points, box)

    def test_leaves_follow_curve_order(self, uniform_points):
        """Leaf node ids in curve order should be (near) consecutive —
        that's the locality the RS-tree relies on."""
        tree = build(uniform_points)
        leaves = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(node.children)
        leaves.sort(key=lambda n: n.lhv)
        ids = [n.node_id for n in leaves]
        assert ids == sorted(ids)

    def test_bounds_dim_mismatch(self):
        with pytest.raises(IndexError_):
            HilbertRTree(3, BOUNDS)


class TestHilbertUpdates:
    def test_incremental_inserts(self):
        pts = make_points(700, seed=21)
        tree = HilbertRTree(2, BOUNDS, leaf_capacity=8, branch_capacity=4)
        for pid, pt in pts:
            tree.insert(pid, pt)
        tree.validate()
        box = Rect((30, 30), (70, 70))
        got = {e.item_id for e in tree.range_query(box)}
        assert got == brute_force_range(pts, box)

    def test_insert_outside_bounds_clamps(self):
        tree = HilbertRTree(2, BOUNDS, leaf_capacity=8, branch_capacity=4)
        tree.insert(0, (150.0, -20.0))
        tree.validate()
        assert tree.range_count(Rect((140, -30), (160, 0))) == 1

    def test_deletes(self):
        pts = make_points(500, seed=23)
        tree = build(pts, leaf_capacity=8, branch_capacity=4)
        r = random.Random(5)
        removed = set()
        for pid, pt in r.sample(pts, 200):
            assert tree.delete(pid, pt)
            removed.add(pid)
        tree.validate()
        got = {e.item_id for e in tree.iter_entries()}
        assert got == {pid for pid, _ in pts} - removed

    def test_mixed_workload(self):
        tree = HilbertRTree(2, BOUNDS, leaf_capacity=8, branch_capacity=4)
        r = random.Random(6)
        live: dict[int, tuple] = {}
        next_id = 0
        for step in range(1200):
            if live and r.random() < 0.4:
                pid = r.choice(list(live))
                assert tree.delete(pid, live.pop(pid))
            else:
                pt = (r.uniform(0, 100), r.uniform(0, 100))
                tree.insert(next_id, pt)
                live[next_id] = pt
                next_id += 1
            if step % 300 == 0:
                tree.validate()
        tree.validate()


class TestHilbertLocality:
    def test_better_scan_locality_than_random_inserted_rtree(self):
        """Range scans over the Hilbert-packed tree should be more
        sequential than over an insertion-built plain R-tree."""
        pts = make_clustered_points(4000, seed=31)
        hil = HilbertRTree(2, BOUNDS)
        hil.bulk_load(pts)
        plain = RTree(2)
        r = random.Random(7)
        shuffled = list(pts)
        r.shuffle(shuffled)
        for pid, pt in shuffled:
            plain.insert(pid, pt)
        box = Rect((20, 20), (80, 80))
        c_h, c_p = CostCounter(), CostCounter()
        hil.range_query(box, c_h)
        plain.range_query(box, c_p)
        frac_h = c_h.sequential_reads / max(1, c_h.node_reads)
        frac_p = c_p.sequential_reads / max(1, c_p.node_reads)
        assert frac_h > frac_p


def scalar_reference(items, dims, bounds, bits, leaf_capacity,
                     branch_capacity):
    """The per-entry bulk load the columnar one replaced: a stable
    Python sort on scalar keys, even chunks, ``Rect.bounding`` MBRs and
    ``max`` lhv.  Returns ``(node_id, lo, hi, lhv, count, members)``
    per node in id order; members are ``(id, point)`` pairs for a leaf
    and child ids for an internal node."""
    enc = HilbertEncoder(bounds, bits=bits)
    entries = sorted((Entry(i, tuple(map(float, p))) for i, p in items),
                     key=lambda e: enc.key(e.point))
    nodes: list[tuple] = []
    level = []
    for chunk in _even_chunks(entries, leaf_capacity):
        mbr = Rect.bounding([e.point for e in chunk])
        level.append((len(nodes), mbr.lo, mbr.hi,
                      max(enc.key(e.point) for e in chunk), len(chunk),
                      [(e.item_id, e.point) for e in chunk]))
        nodes.append(level[-1])
    while len(level) > 1:
        upper = []
        for group in _even_chunks(level, branch_capacity):
            mbr = Rect.union_all([Rect(g[1], g[2]) for g in group])
            upper.append((len(nodes), mbr.lo, mbr.hi,
                          max(g[3] for g in group),
                          sum(g[4] for g in group),
                          [g[0] for g in group]))
            nodes.append(upper[-1])
        level = upper
    return nodes


def describe(tree):
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        members = [(e.item_id, e.point) for e in node.entries] \
            if node.is_leaf else [c.node_id for c in node.children]
        out.append((node.node_id, node.mbr.lo, node.mbr.hi, node.lhv,
                    node.count, members))
        if not node.is_leaf:
            stack.extend(node.children)
    return sorted(out)


class TestColumnarBulkLoad:
    """The columnar bulk load builds the scalar reference's tree node
    for node: leaf order, node ids, MBRs, lhv and counts."""

    def check(self, items, dims, bounds, bits=16):
        tree = HilbertRTree(dims, bounds, bits=bits, leaf_capacity=8,
                            branch_capacity=4)
        tree.bulk_load(items)
        tree.validate()
        assert describe(tree) == scalar_reference(items, dims, bounds,
                                                  bits, 8, 4)

    def test_matches_scalar_reference(self):
        rng = random.Random(41)
        for n in (1, 7, 8, 9, 33, 500):
            items = [(i, (rng.uniform(0, 100), rng.uniform(0, 100)))
                     for i in range(n)]
            self.check(items, 2, BOUNDS)

    def test_duplicate_keys_keep_input_order(self):
        # Ids are shuffled so input order differs from id order; many
        # points share a grid cell (identical or a hair apart).
        rng = random.Random(42)
        ids = list(range(300))
        rng.shuffle(ids)
        cells = [(rng.uniform(0, 100), rng.uniform(0, 100))
                 for _ in range(5)]
        items = []
        for rid in ids:
            x, y = rng.choice(cells)
            if rng.random() < 0.3:
                x, y = x + 1e-9, y
            items.append((rid, (x, y)))
        tree = HilbertRTree(2, BOUNDS, leaf_capacity=8,
                            branch_capacity=4)
        keys = tree.encoder.keys([p for _, p in items]).tolist()
        assert len(set(keys)) < 10
        self.check(items, 2, BOUNDS)

    def test_python_int_keys_when_int64_overflows(self):
        # 3 dims x 21 bits = 63 curve bits > 62.
        rng = random.Random(43)
        bounds = Rect((0, 0, 0), (1, 1, 1))
        items = [(i, (rng.random(), rng.random(), rng.random()))
                 for i in range(200)]
        items += [(200 + i, items[i][1]) for i in range(20)]
        self.check(items, 3, bounds, bits=21)

    def test_rejects_wrong_dimensionality(self):
        tree = HilbertRTree(2, BOUNDS)
        with pytest.raises(IndexError_):
            tree.bulk_load([(0, (1.0, 2.0)), (1, (1.0, 2.0, 3.0))])
        with pytest.raises(IndexError_):
            tree.bulk_load([(0, (1.0, 2.0, 3.0))])
