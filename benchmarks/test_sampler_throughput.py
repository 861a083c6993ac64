"""Raw sampler throughput: samples per second, in memory.

Complements Figure 3(a)'s I/O-model comparison with pure CPU throughput
at a moderate k — what an interactive UI actually feels.  Also measures
index construction, the one-off cost each method pays.
"""

import random

import pytest

from repro.core.sampling.base import take
from repro.core.sampling.ls_tree import LSTree
from repro.index.hilbert_rtree import HilbertRTree

METHODS = ["query-first", "sample-first", "random-path", "ls-tree",
           "rs-tree"]
K = 256


@pytest.mark.parametrize("method", METHODS)
def test_sampler_throughput(benchmark, osm_dataset, osm_query, method):
    sampler = osm_dataset.samplers[method]
    seeds = iter(range(100_000))

    def draw():
        return take(sampler.sample_stream(
            osm_query, random.Random(next(seeds))), K)

    got = benchmark(draw)
    assert len(got) == K
    benchmark.extra_info["k"] = K


@pytest.mark.parametrize("method", METHODS)
def test_repeated_query_throughput(benchmark, osm_dataset, osm_query,
                                   method):
    """The dashboard workload: the *same* range queried over and over
    (pan back, refresh, re-estimate).  This is the case the canonical-set
    cache and batched source selection target — the per-stream setup cost
    (root walk, residual scan) amortises across repeats."""
    sampler = osm_dataset.samplers[method]
    seeds = iter(range(100_000))
    repeats = 8

    def draw_many():
        got = []
        for _ in range(repeats):
            got.extend(take(sampler.sample_stream(
                osm_query, random.Random(next(seeds))), K))
        return got

    got = benchmark(draw_many)
    assert len(got) == repeats * K
    benchmark.extra_info["k"] = K
    benchmark.extra_info["repeats"] = repeats
    if hasattr(sampler, "tree"):
        benchmark.extra_info["canonical_cache_hits"] = getattr(
            sampler.tree, "canon_hits", 0)


def test_build_hilbert_rtree(benchmark, osm_dataset):
    items = [(rid, r.key(osm_dataset.dims))
             for rid, r in osm_dataset.records.items()]

    def build():
        tree = HilbertRTree(osm_dataset.dims, osm_dataset.bounds)
        tree.bulk_load(items)
        return tree

    tree = benchmark(build)
    assert len(tree) == len(items)


def test_build_ls_forest(benchmark, osm_dataset):
    items = [(rid, r.key(osm_dataset.dims))
             for rid, r in osm_dataset.records.items()]

    def build():
        forest = LSTree(osm_dataset.dims, rng=random.Random(1))
        forest.bulk_load(items)
        return forest

    forest = benchmark(build)
    assert len(forest) == len(items)
    benchmark.extra_info["levels"] = forest.num_levels
    benchmark.extra_info["space_blowup"] = \
        forest.total_entries() / len(items)
