"""Property-based tests: R-tree invariants under arbitrary workloads."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect
from repro.index.hilbert_rtree import HilbertRTree
from repro.index.rtree import RTree

coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
point = st.tuples(coord, coord)

BOUNDS = Rect((0, 0), (100, 100))


@st.composite
def query_box(draw):
    x0, y0 = draw(point)
    x1 = draw(st.floats(min_value=x0, max_value=100.0))
    y1 = draw(st.floats(min_value=y0, max_value=100.0))
    return Rect((x0, y0), (x1, y1))


@st.composite
def op_sequence(draw):
    """A sequence of insert/delete ops over small ids."""
    n = draw(st.integers(5, 120))
    ops = []
    live: set[int] = set()
    next_id = 0
    for _ in range(n):
        if live and draw(st.booleans()) and draw(st.booleans()):
            victim = draw(st.sampled_from(sorted(live)))
            live.discard(victim)
            ops.append(("delete", victim))
        else:
            ops.append(("insert", next_id, draw(point)))
            live.add(next_id)
            next_id += 1
    return ops


def apply_ops(tree, ops):
    live: dict[int, tuple] = {}
    for op in ops:
        if op[0] == "insert":
            _, pid, pt = op
            tree.insert(pid, pt)
            live[pid] = pt
        else:
            _, pid = op
            assert tree.delete(pid, live.pop(pid))
    return live


class TestRTreeProperties:
    @given(st.lists(point, min_size=0, max_size=200), query_box())
    @settings(max_examples=60, deadline=None)
    def test_bulk_load_query_matches_brute_force(self, pts, box):
        items = list(enumerate(pts))
        tree = RTree(2, leaf_capacity=8, branch_capacity=4)
        tree.bulk_load(items)
        tree.validate()
        got = {e.item_id for e in tree.range_query(box)}
        want = {i for i, p in items if box.contains_point(p)}
        assert got == want
        assert tree.range_count(box) == len(want)

    @given(op_sequence(), query_box())
    @settings(max_examples=40, deadline=None)
    def test_dynamic_ops_keep_invariants(self, ops, box):
        tree = RTree(2, leaf_capacity=4, branch_capacity=4)
        live = apply_ops(tree, ops)
        tree.validate()
        assert len(tree) == len(live)
        got = {e.item_id for e in tree.range_query(box)}
        want = {pid for pid, p in live.items()
                if box.contains_point(p)}
        assert got == want

    @given(op_sequence(), query_box())
    @settings(max_examples=30, deadline=None)
    def test_hilbert_dynamic_ops(self, ops, box):
        tree = HilbertRTree(2, BOUNDS, leaf_capacity=4,
                            branch_capacity=4)
        live = apply_ops(tree, ops)
        tree.validate()
        got = {e.item_id for e in tree.range_query(box)}
        want = {pid for pid, p in live.items()
                if box.contains_point(p)}
        assert got == want

    @given(st.lists(point, min_size=1, max_size=150), query_box())
    @settings(max_examples=40, deadline=None)
    def test_canonical_set_partitions_range(self, pts, box):
        items = list(enumerate(pts))
        tree = HilbertRTree(2, BOUNDS, leaf_capacity=4,
                            branch_capacity=4)
        tree.bulk_load(items)
        canon = tree.canonical_set(box)
        covered = [e.item_id for e in canon.residual]
        for node in canon.nodes:
            stack = [node]
            while stack:
                n = stack.pop()
                if n.is_leaf:
                    covered.extend(e.item_id for e in n.entries)
                else:
                    stack.extend(n.children)
        want = {i for i, p in items if box.contains_point(p)}
        assert sorted(covered) == sorted(set(covered))
        assert set(covered) == want
        assert canon.count == len(want)

    @given(st.lists(point, min_size=1, max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_counts_sum_to_size(self, pts):
        tree = RTree(2, leaf_capacity=4, branch_capacity=4)
        tree.bulk_load(list(enumerate(pts)))
        assert tree.root.count == len(pts)

    @given(st.lists(point, min_size=1, max_size=120), query_box())
    @settings(max_examples=30, deadline=None)
    def test_sampler_drain_equals_brute_force(self, pts, box):
        """The without-replacement contract for every sampler, under
        arbitrary point sets (duplicates included)."""
        from repro.core.sampling import (LSTree, LSTreeSampler,
                                         QueryFirstSampler,
                                         RandomPathSampler,
                                         RSTreeSampler)
        items = list(enumerate(pts))
        want = {i for i, p in items if box.contains_point(p)}
        tree = HilbertRTree(2, BOUNDS, leaf_capacity=4,
                            branch_capacity=4)
        tree.bulk_load(items)
        forest = LSTree(2, rng=random.Random(1), leaf_capacity=4,
                        branch_capacity=4)
        forest.bulk_load(items)
        rs = RSTreeSampler(tree, buffer_size=4, rng=random.Random(2))
        rs.prepare()
        samplers = [QueryFirstSampler(tree), RandomPathSampler(tree),
                    LSTreeSampler(forest), rs]
        for sampler in samplers:
            got = [e.item_id for e in
                   sampler.sample_stream(box, random.Random(3))]
            assert len(got) == len(set(got)), sampler.name
            assert set(got) == want, sampler.name

    @given(op_sequence(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_rs_refill_never_leaves_empty_buffer(self, ops, buffer_size):
        """After random inserts and deletes, every refill of a node with
        ``count >= 1`` leaves a non-empty buffer of distinct entries
        from its subtree — the RS stream relies on it and has no
        empty-buffer fallback.  Repeated refills make child buffers
        wrap mid-merge, so the merge's duplicate redraws and shortfall
        scan run too."""
        from repro.core.sampling import RSTreeSampler
        from repro.index.cost import CostCounter
        from repro.index.rtree import _iter_subtree_entries
        tree = HilbertRTree(2, BOUNDS, leaf_capacity=4,
                            branch_capacity=4)
        apply_ops(tree, ops)
        rs = RSTreeSampler(tree, buffer_size=buffer_size,
                           rng=random.Random(4))
        cost = CostCounter()
        pre_order = []
        stack = [tree.root] if tree.root is not None else []
        while stack:
            node = stack.pop()
            pre_order.append(node)
            if not node.is_leaf:
                stack.extend(node.children)
        # Children before parents: a merge reads filled child buffers.
        for node in reversed(pre_order):
            if node.count < 1:
                continue
            subtree = {e.item_id for e in _iter_subtree_entries(node)}
            for _ in range(3):
                rs._fill_buffer(node, cost)
                ids = [e.item_id for e in node.sample_buffer]
                assert ids, (node.node_id, node.count)
                assert len(ids) == len(set(ids))
                assert set(ids) <= subtree
