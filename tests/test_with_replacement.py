"""Tests for the with-replacement sampling mode of Definition 1."""

import math
import random
from collections import Counter

import pytest
from scipy import stats

from repro.core.geometry import Rect
from repro.core.sampling import (LSTree, LSTreeSampler, QueryFirstSampler,
                                 RandomPathSampler, RSTreeSampler,
                                 SampleFirstSampler)
from repro.core.sampling.base import take
from repro.index.cost import CostCounter
from repro.index.hilbert_rtree import HilbertRTree

from tests.conftest import brute_force_range, make_points
from tests.test_lsm import EVERYTHING, live_in_range, tiered_dataset

BOUNDS = Rect((0, 0), (100, 100))
POINTS = make_points(300, seed=88)
BOX = Rect((20, 20), (80, 80))
IN_RANGE = sorted(brute_force_range(POINTS, BOX))


def make_sampler(name):
    tree = HilbertRTree(2, BOUNDS, leaf_capacity=16, branch_capacity=8)
    tree.bulk_load(POINTS)
    if name == "query-first":
        return QueryFirstSampler(tree)
    if name == "sample-first":
        return SampleFirstSampler(tree)
    if name == "random-path":
        return RandomPathSampler(tree)
    if name == "rs-tree":
        sampler = RSTreeSampler(tree, buffer_size=16,
                                rng=random.Random(1))
        sampler.prepare()
        return sampler
    if name == "ls-tree":
        forest = LSTree(2, rng=random.Random(2), leaf_capacity=16,
                        branch_capacity=8)
        forest.bulk_load(POINTS)
        return LSTreeSampler(forest)
    raise AssertionError(name)


ALL = ["query-first", "sample-first", "random-path", "rs-tree",
       "ls-tree"]


@pytest.mark.parametrize("name", ALL)
class TestWithReplacement:
    def test_stream_is_unbounded_and_in_range(self, name, rng):
        sampler = make_sampler(name)
        k = 3 * len(IN_RANGE)  # more than q — impossible without repl.
        got = take(sampler.sample_stream_with_replacement(BOX, rng), k)
        assert len(got) == k
        assert all(BOX.contains_point(e.point) for e in got)

    def test_duplicates_occur(self, name, rng):
        sampler = make_sampler(name)
        k = 3 * len(IN_RANGE)
        got = take(sampler.sample_stream_with_replacement(BOX, rng), k)
        ids = [e.item_id for e in got]
        assert len(set(ids)) < len(ids), "birthday paradox failed?"

    def test_empty_range_terminates(self, name, rng):
        sampler = make_sampler(name)
        empty = Rect((500, 500), (600, 600))
        assert take(sampler.sample_stream_with_replacement(
            empty, rng), 1) == []


class TestWithReplacementUniformity:
    @pytest.mark.parametrize("name", ["random-path", "rs-tree",
                                      "sample-first"])
    def test_long_run_frequencies_uniform(self, name):
        """Chi-square on a long with-replacement run."""
        sampler = make_sampler(name)
        rng = random.Random(99)
        draws = 40 * len(IN_RANGE)
        counts = Counter(
            e.item_id for e in take(
                sampler.sample_stream_with_replacement(BOX, rng),
                draws))
        expected = draws / len(IN_RANGE)
        chi2 = sum((counts.get(pid, 0) - expected) ** 2 / expected
                   for pid in IN_RANGE)
        p = stats.chi2.sf(chi2, df=len(IN_RANGE) - 1)
        assert p > 1e-3, f"{name}: p={p}"


def repeat_window_z(stream, q, windows, width=8):
    """z-score of the share of consecutive ``width``-draw windows that
    hold a repeat, against its exact value for independent uniform
    draws, ``1 - Π_{i<width} (1 - i/q)``."""
    hits = 0
    for _ in range(windows):
        ids = [e.item_id for e in take(stream, width)]
        hits += len(set(ids)) < width
    p = 1.0 - math.prod(1.0 - i / q for i in range(width))
    return (hits / windows - p) / math.sqrt(p * (1.0 - p) / windows)


@pytest.mark.stat
@pytest.mark.parametrize("name", ALL + ["lsm-tiered"])
def test_short_gap_repeats_match_independent_draws(name):
    """Draws must be independent, not only uniform one at a time: a
    stream that hands out runs of one without-replacement buffer (or
    tier) repeats itself within a few draws too rarely."""
    if name == "lsm-tiered":
        dataset, _ = tiered_dataset(seed=34)
        sampler = dataset.samplers[name]
        box, q = EVERYTHING, len(live_in_range(dataset, EVERYTHING))
    else:
        sampler = make_sampler(name)
        box, q = BOX, len(IN_RANGE)
    stream = sampler.sample_stream_with_replacement(box,
                                                    random.Random(7))
    z = repeat_window_z(stream, q, windows=8000)
    assert abs(z) < 4.0, f"{name}: z={z:.1f}"


def test_ls_tree_stream_does_not_report_the_range():
    """Ten with-replacement draws from the ls-tree scan fewer entries
    than one full range report: the stream reads only the top levels
    it needs."""
    points = make_points(2000, seed=88)
    forest = LSTree(2, rng=random.Random(2), leaf_capacity=16,
                    branch_capacity=8)
    forest.bulk_load(points)
    sampler = LSTreeSampler(forest)
    stream_cost = CostCounter()
    got = take(sampler.sample_stream_with_replacement(
        BOX, random.Random(5), cost=stream_cost), 10)
    report_cost = CostCounter()
    forest.trees[0].range_query(BOX, report_cost)
    assert stream_cost.leaf_entries_scanned \
        < report_cost.leaf_entries_scanned
    assert len(got) == stream_cost.samples_emitted == 10
