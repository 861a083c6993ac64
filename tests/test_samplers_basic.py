"""Correctness tests shared by all five samplers.

Each sampler must produce a without-replacement stream that (a) only emits
in-range points, (b) never repeats a point, and (c) when drained fully,
emits exactly ``P ∩ Q``.
"""

import random

import pytest

from repro.core.geometry import Rect
from repro.core.sampling import (LSTree, LSTreeSampler, QueryFirstSampler,
                                 RandomPathSampler, RSTreeSampler,
                                 SampleFirstSampler)
from repro.core.sampling.base import take
from repro.errors import EmptyRangeError
from repro.index.hilbert_rtree import HilbertRTree
from repro.index.rtree import RTree

from tests.conftest import brute_force_range, make_points

BOUNDS = Rect((0, 0), (100, 100))
POINTS = make_points(1500, seed=42)


def _plain_tree() -> RTree:
    tree = RTree(2, leaf_capacity=16, branch_capacity=8)
    tree.bulk_load(POINTS)
    return tree


def _hilbert_tree() -> HilbertRTree:
    tree = HilbertRTree(2, BOUNDS, leaf_capacity=16, branch_capacity=8)
    tree.bulk_load(POINTS)
    return tree


def make_sampler(name: str):
    if name == "query-first":
        return QueryFirstSampler(_plain_tree())
    if name == "sample-first":
        return SampleFirstSampler(_plain_tree())
    if name == "random-path":
        return RandomPathSampler(_plain_tree())
    if name == "ls-tree":
        forest = LSTree(2, rng=random.Random(1), leaf_capacity=16,
                        branch_capacity=8)
        forest.bulk_load(POINTS)
        return LSTreeSampler(forest)
    if name == "rs-tree":
        sampler = RSTreeSampler(_hilbert_tree(), buffer_size=16,
                                rng=random.Random(2))
        sampler.prepare()
        return sampler
    raise AssertionError(name)


ALL = ["query-first", "sample-first", "random-path", "ls-tree", "rs-tree"]

QUERIES = [
    Rect((20, 20), (80, 80)),
    Rect((0, 0), (100, 100)),
    Rect((45, 45), (55, 55)),
    Rect((0, 0), (8, 8)),  # sparse corner: 7 points under this seed
]


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("box", QUERIES)
class TestWithoutReplacementStream:
    def test_all_in_range_no_dups_exhaustive(self, name, box, rng):
        sampler = make_sampler(name)
        want = brute_force_range(POINTS, box)
        got = []
        for entry in sampler.sample_stream(box, rng):
            assert box.contains_point(entry.point)
            got.append(entry.item_id)
        assert len(got) == len(set(got)), f"{name} repeated a sample"
        assert set(got) == want, f"{name} missed or invented points"

    def test_prefix_is_partial(self, name, box, rng):
        sampler = make_sampler(name)
        q = sampler.range_count(box)
        k = max(1, q // 10)
        prefix = take(sampler.sample_stream(box, rng), k)
        assert len(prefix) == min(k, q)
        assert len({e.item_id for e in prefix}) == len(prefix)


@pytest.mark.parametrize("name", ALL)
class TestEdgeCases:
    def test_empty_range(self, name, rng):
        sampler = make_sampler(name)
        box = Rect((200, 200), (300, 300))
        if name == "sample-first":
            with pytest.raises(EmptyRangeError):
                list(sampler.sample_stream(box, rng))
        else:
            assert list(sampler.sample_stream(box, rng)) == []

    def test_range_count_exact(self, name):
        sampler = make_sampler(name)
        box = Rect((10, 30), (60, 90))
        assert sampler.range_count(box) == len(
            brute_force_range(POINTS, box))

    def test_singleton_range(self, name, rng):
        sampler = make_sampler(name)
        pid, pt = POINTS[7]
        box = Rect(pt, pt)
        got = [e.item_id for e in sampler.sample_stream(box, rng)]
        assert got == [pid]

    def test_sample_helper(self, name, rng):
        sampler = make_sampler(name)
        got = sampler.sample(Rect((0, 0), (100, 100)), 25, rng)
        assert len(got) == 25


class TestSamplerSpecifics:
    def test_sample_first_refresh(self, rng):
        tree = _plain_tree()
        sampler = SampleFirstSampler(tree)
        tree.insert(99_999, (50.0, 50.0))
        sampler.refresh()
        box = Rect((0, 0), (100, 100))
        drained = {e.item_id for e in sampler.sample_stream(box, rng)}
        assert 99_999 in drained

    def test_rs_tree_rejects_bad_buffer(self):
        with pytest.raises(ValueError):
            RSTreeSampler(_hilbert_tree(), buffer_size=0)

    def test_rs_tree_prepare_fills_buffers(self):
        sampler = RSTreeSampler(_hilbert_tree(), buffer_size=8,
                                rng=random.Random(3))
        assert sampler.buffered_nodes() == 0
        sampler.prepare()
        assert sampler.buffered_nodes() == sampler.tree.node_count()

    def test_ls_tree_levels_geometric(self):
        forest = LSTree(2, rng=random.Random(4))
        forest.bulk_load(POINTS)
        sizes = [len(t) for t in forest.trees]
        assert sizes[0] == len(POINTS)
        # Each level should be roughly half the one below.
        for upper, lower in zip(sizes[1:], sizes):
            assert upper <= lower
        assert forest.total_entries() < 3 * len(POINTS)

    def test_ls_tree_validate(self):
        forest = LSTree(2, rng=random.Random(4))
        forest.bulk_load(POINTS)
        forest.validate()

    def test_ls_tree_updates(self, rng):
        forest = LSTree(2, rng=random.Random(5), leaf_capacity=8,
                        branch_capacity=4)
        forest.bulk_load(POINTS[:200])
        for pid, pt in POINTS[200:300]:
            forest.insert(pid, pt)
        for pid, pt in POINTS[:50]:
            assert forest.delete(pid, pt)
        forest.validate()
        sampler = LSTreeSampler(forest)
        box = Rect((0, 0), (100, 100))
        got = {e.item_id for e in sampler.sample_stream(box, rng)}
        want = {pid for pid, _ in POINTS[50:300]}
        assert got == want

    def test_rs_tree_after_updates(self, rng):
        tree = HilbertRTree(2, BOUNDS, leaf_capacity=16, branch_capacity=8)
        tree.bulk_load(POINTS[:800])
        sampler = RSTreeSampler(tree, buffer_size=16, rng=random.Random(6))
        sampler.prepare()
        # Mutate: buffers along the paths must invalidate, then sampling
        # must still reflect the exact new contents.
        for pid, pt in POINTS[800:900]:
            tree.insert(pid, pt)
        removed = set()
        for pid, pt in POINTS[:100]:
            assert tree.delete(pid, pt)
            removed.add(pid)
        box = Rect((0, 0), (100, 100))
        got = {e.item_id for e in sampler.sample_stream(box, rng)}
        want = {pid for pid, _ in POINTS[100:900]}
        assert got == want
