"""Exactness of the one disjoint-union draw (``core/sampling/union.py``).

Three samplers stream ``P ∩ Q`` through :class:`UnionStream`: the
RS-tree over canonical nodes, the tiered sampler over LSM tiers, and
the distributed sampler over cluster shards.  Each check below runs on
all three:

* a drain returns every id of the brute-force population exactly once,
  whether it pulls with ``next``, with ``draw_batch`` or with both;
* every batch holds exactly ``min(k, remaining)`` entries;
* the first entry is uniform over the population (chi-square on
  equal-size buckets that follow the parts, so part weighting is what
  gets tested).

The distributed input loses a shard before the stream opens (graceful
degradation: the population is the reachable shards), fails one shard
over to its replica at open, and crashes another shard's primary in
mid-stream, so the failover replays it and de-dup has to hold.

The synthetic-part tests carry over the without-replacement checks of
the per-sample selection structure this union replaced.  Seeds are
fixed and the tests are not marked ``stat``: a bias must fail every
run, not only an unlucky one.
"""

import random

import pytest
from scipy import stats

from repro.core.engine import Dataset
from repro.core.geometry import Rect
from repro.core.records import Record
from repro.core.sampling.union import PoolPart, UnionStream
from repro.distributed.dist_index import DistributedSTIndex
from repro.distributed.dist_sampler import DistributedSampler
from repro.faults import FaultPlan
from repro.storage.lsm import LSMTree

P_THRESHOLD = 1e-3
RECT = Rect((10.0, 10.0), (85.0, 80.0))
RECT_3D = Rect((10.0, 10.0, 0.0), (85.0, 80.0, 1000.0))
BUCKETS = 8


def _records(n, seed, start_id=0):
    rng = random.Random(seed)
    return [Record(record_id=start_id + i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": 1.0})
            for i in range(n)]


def _in_rect(records, rect, dims=2):
    """Brute-force ``P ∩ Q``: id -> longitude (canonical nodes and
    Hilbert shards are spatially compact, so longitude order groups
    each part's points)."""
    return {r.record_id: r.lon for r in records
            if rect.contains_point(r.key(dims))}


class _RSInput:
    """The RS-tree's canonical stream.  A small buffer forces buffer
    wraps, duplicate rejection and the enumeration switch."""

    def __init__(self):
        records = _records(500, seed=1)
        dataset = Dataset("rs", records, dims=2, rs_buffer_size=4,
                          build_ls=False, seed=2)
        self.sampler = dataset.samplers["rs-tree"]
        self.truth = _in_rect(records, RECT)

    def stream(self, seed):
        return self.sampler.sample_stream(RECT, random.Random(seed))


class _TieredInput:
    """Main tier, sealed runs, memtable rows and tombstones in each."""

    def __init__(self):
        dataset = Dataset("tiers", _records(300, seed=3), dims=2,
                          rs_buffer_size=8, build_ls=False, seed=4)
        self.lsm = LSMTree.open(dataset, memtable_limit=64,
                                compact_after_runs=999)
        for record in _records(290, seed=5, start_id=10_000):
            dataset.insert(record)
        rng = random.Random(6)
        for rid in rng.sample(sorted(dataset.records), 40):
            dataset.delete(rid)
        self.dataset = dataset
        # Tiers are not spatially compact, but ids follow the tiers:
        # the main tier, then the runs in seal order, then the memtable.
        self.truth = {rid: rid for rid in
                      _in_rect(dataset.records.values(), RECT)}

    def stream(self, seed):
        sampler = self.dataset.sampler_for(RECT)
        assert sampler.range_count(RECT) == len(self.truth)
        return sampler.sample_stream(RECT, random.Random(seed))


class _DistributedInput:
    """Five shards with one replica each (shard i also lives on worker
    i+1).  Workers 1 and 2 are down from the start: shard 1 has no
    reachable copy and shard 2 fails over to worker 3.  Worker 4 dies
    at tick 30, in mid-stream, and shard 4 fails over to worker 0."""

    def __init__(self):
        records = _records(600, seed=7)
        plan = (FaultPlan(seed=8).crash("worker:1").crash("worker:2")
                .crash("worker:4", at=30))
        self.index = DistributedSTIndex(records, n_workers=5,
                                        replication=2, seed=9,
                                        faults=plan)
        self.sampler = DistributedSampler(
            self.index, batch_size=4, max_batch_size=4,
            backoff_seconds=0.001)
        lost = set(self.index.cluster.workers[1].records)
        self.truth = {rid: lon for rid, lon in
                      _in_rect(records, RECT_3D, dims=3).items()
                      if rid not in lost}

    def stream(self, seed):
        return self.sampler.sample_stream(RECT_3D, random.Random(seed))


INPUTS = {"rs-tree": _RSInput, "tiered": _TieredInput,
          "distributed": _DistributedInput}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def source(request):
    return INPUTS[request.param]()


def _ids(entries):
    return [e.item_id for e in entries]


def test_drain_by_next_emits_each_id_once(source):
    got = _ids(source.stream(11))
    assert len(got) == len(set(got))
    assert set(got) == set(source.truth)


def test_interleaved_drain_emits_each_id_once(source):
    stream = source.stream(12)
    rng = random.Random(13)
    got = []
    while True:
        if rng.random() < 0.5:
            entry = next(stream, None)
            if entry is None:
                break
            got.append(entry.item_id)
        else:
            batch = stream.draw_batch(rng.randint(1, 40))
            if not batch:
                break
            got += _ids(batch)
    assert len(got) == len(set(got))
    assert set(got) == set(source.truth)


def test_every_batch_is_min_k_remaining(source):
    stream = source.stream(14)
    rng = random.Random(15)
    remaining = len(source.truth)
    while remaining:
        k = rng.choice([1, 2, 7, 16, 33, 100])
        batch = stream.draw_batch(k)
        assert len(batch) == min(k, remaining)
        remaining -= len(batch)
    assert stream.draw_batch(5) == []


def test_first_entry_is_uniform(source):
    # Equal-size buckets in the input's part order: a part drawn too
    # often or too rarely skews its buckets.
    order = sorted(source.truth, key=source.truth.get)
    bucket = {rid: i * BUCKETS // len(order)
              for i, rid in enumerate(order)}
    sizes = [0] * BUCKETS
    for b in bucket.values():
        sizes[b] += 1
    trials = 800
    counts = [0] * BUCKETS
    for t in range(trials):
        stream = source.stream(10_000 + t)
        (entry,) = stream.draw_batch(1)
        stream.close()
        counts[bucket[entry.item_id]] += 1
    expected = [trials * s / len(order) for s in sizes]
    assert stats.chisquare(counts, expected).pvalue > P_THRESHOLD


def test_distributed_input_fails_over_and_degrades():
    source = _DistributedInput()
    got = _ids(source.stream(16))
    faults = source.sampler.last_faults
    assert faults["failovers"] >= 2 and faults["degraded"] >= 1
    assert source.sampler.coverage < 1.0
    assert sorted(got) == sorted(source.truth)
    assert sum(w.open_stream_count()
               for w in source.index.cluster.workers) == 0


# -- synthetic parts ---------------------------------------------------------

def _labelled(weights, rng):
    """One pool part per weight; each entry is its part's index."""
    return [PoolPart([i] * w, rng) for i, w in enumerate(weights)]


class _LosingPart:
    """A part whose population becomes unreachable after ``keep``
    entries (a shard with no live copy)."""

    def __init__(self, entries, keep):
        self._entries = list(entries)
        self._keep = keep
        self.remaining = len(self._entries)

    def draw(self, m):
        got = self._entries[:min(m, self._keep)]
        del self._entries[:len(got)]
        self._keep -= len(got)
        return got


def _chi(counts, expected):
    return stats.chisquare(counts, expected).pvalue


def test_first_draw_is_proportional_to_part_size():
    weights = [4, 2, 6]
    trials = 6000
    counts = [0] * len(weights)
    for t in range(trials):
        rng = random.Random(7_000_003 + t)
        (part,) = UnionStream(_labelled(weights, rng), rng).draw_batch(1)
        counts[part] += 1
    total = sum(weights)
    assert _chi(counts, [trials * w / total for w in weights]) \
        > P_THRESHOLD


def test_full_depletion_emits_each_part_exactly():
    weights = [3, 0, 2, 5]
    rng = random.Random(8)
    tally = [0] * len(weights)
    for part in UnionStream(_labelled(weights, rng), rng):
        tally[part] += 1
    assert tally == weights


def test_depletion_order_is_uniform():
    n, trials = 6, 6000
    position = [0] * n
    for t in range(trials):
        rng = random.Random(9_000_017 + t)
        order = list(UnionStream(_labelled([1] * n, rng), rng))
        position[order.index(0)] += 1
    assert _chi(position, [trials / n] * n) > P_THRESHOLD


def test_lost_part_shortfall_is_resplit():
    rng = random.Random(10)
    parts = [PoolPart(range(100), rng),
             _LosingPart(range(1000, 1100), keep=7),
             PoolPart(range(2000, 2050), rng)]
    stream = UnionStream(parts, rng)
    got = []
    while True:
        batch = stream.draw_batch(32)
        got += batch
        if len(batch) < 32:
            break
    assert stream.draw_batch(32) == []
    assert len(got) == len(set(got)) == 157
    assert set(range(100)) | set(range(2000, 2050)) <= set(got)


def test_close_runs_hook_once_and_ends_stream():
    closed = []
    rng = random.Random(11)
    stream = UnionStream(lambda: [PoolPart(range(10), rng)], rng,
                         on_close=lambda: closed.append(1))
    assert len(stream.draw_batch(3)) == 3
    stream.close()
    stream.close()
    assert closed == [1]
    assert stream.draw_batch(3) == [] and list(stream) == []
    # A stream never drawn from built no parts: nothing to release.
    unopened = UnionStream(lambda: [PoolPart(range(10), rng)], rng,
                           on_close=lambda: closed.append(2))
    unopened.close()
    assert closed == [1]
