"""Snapshot-pinned uniform sampling over the LSM tiers.

With the tiered ingest path attached (:mod:`repro.storage.lsm`), the
live set of a dataset is split across three kinds of tier: the main
RS-tree (possibly holding tombstone-masked dead entries), the sealed
immutable runs (also maskable), and the memtable.  Runs and memtable
are flat, so a snapshot copies their live in-range entries into one
list.  :class:`TieredSampler` merges the main tier and that list into
one stream that is *exactly* uniform over the live records in range: a
:class:`~repro.core.sampling.union.UnionStream` with two parts.

Exactness argument
------------------
The main tier yields a uniform without-replacement stream over its
in-range population (the RS-tree stream); the flat list is a partial
Fisher–Yates pool.  Runs and memtable hold disjoint sets of live
records and the snapshot leaves every tombstone-masked run copy out of
the list, so the pool is uniform over their live union.  Dead copies
in the main tree are masked by *victim-tagged* tombstones — a
tombstone names the tier holding the dead copy — and filtering a fixed
subset out of a uniform without-replacement stream leaves a uniform
without-replacement stream over the remainder, so the main part
redraws until it holds its share of live entries.  The union splits
each batch over the two *live remaining* counts (DESIGN.md, "Uniform
draws over a disjoint union").  With-replacement mode wraps this
stream like every other sampler's (:mod:`repro.core.sampling.base`).

Snapshot pinning
----------------
``range_count`` (which sessions always call before opening a stream)
materialises an :class:`LSMSnapshot`: the main tree's canonical set,
a frozen copy of the main tier's tombstone mask, and the flat list of
live in-range run and memtable entries.  Building it costs the
canonical set, one set copy and numpy passes over columns (the main
tier's dead keys, the memtable, each run); Python work grows with the
hits and the rows added since the previous snapshot, not with the
memtable size or the tombstone count.  The stream draws only from
that snapshot, so

* inserts after open land in the live memtable, never in the frozen
  list — the stream never sees them;
* deletes after open mutate the live tombstone map, not the snapshot's
  mask or list — the stream still covers the record (classic snapshot
  reads);
* a seal moves records memtable→run, but the list already holds its
  own copies;
* a compaction *replaces* the main tree's node graph via bulk load —
  the snapshot's canonical set keeps the old immutable graph alive.

Hence concurrent ingest never invalidates an in-flight stream, and
because memtable inserts do not touch the main tree, its canonical-set
cache stays hot between compactions.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import numpy as np

from repro.core.geometry import Rect
from repro.core.sampling.base import SpatialSampler
from repro.core.sampling.union import PoolPart, UnionStream
from repro.index.cost import CostCounter
from repro.index.rtree import Entry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import Dataset
    from repro.storage.lsm import LSMTree

__all__ = ["TieredSampler", "LSMSnapshot"]


class LSMSnapshot:
    """A frozen, pinned view of every tier for one query rect.

    Built once per query by :meth:`TieredSampler.range_count`; the
    stream draws only from this object, giving snapshot-consistent
    reads under concurrent ingest (see the module docstring).
    """

    __slots__ = ("canon", "main_masked", "main_live", "flat")

    def __init__(self, canon, main_masked: set[int], main_live: int,
                 flat: list[Entry]):
        self.canon = canon
        #: ids whose dead copy sits in the (pinned) main tree.
        self.main_masked = main_masked
        #: live in-range count of the main tier.
        self.main_live = main_live
        #: live in-range entries of the memtable and every sealed run.
        self.flat = flat

    @property
    def live_total(self) -> int:
        return self.main_live + len(self.flat)


class TieredSampler(SpatialSampler):
    """Uniform sampler over main tree + sealed runs + memtable.

    ``Dataset.sampler_for`` routes every query here once an
    :class:`~repro.storage.lsm.LSMTree` is attached.  The main tier
    draws through the existing RS-tree sampler; this class only adds
    snapshotting, tombstone filtering and the two-part union.
    """

    name = "lsm-tiered"

    def __init__(self, dataset: "Dataset"):
        self.dataset = dataset
        # range_count → open_stream pairs (the session protocol) reuse
        # one snapshot, keyed by the query rect.
        self._pending: dict[tuple, LSMSnapshot] = {}

    @property
    def lsm(self) -> "LSMTree":
        lsm = self.dataset.lsm
        if lsm is None:
            raise RuntimeError(
                "TieredSampler used without an attached LSMTree")
        return lsm

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    @staticmethod
    def _rect_key(query: Rect) -> tuple:
        return (tuple(query.lo), tuple(query.hi))

    def snapshot(self, query: Rect,
                 cost: CostCounter | None = None) -> LSMSnapshot:
        """Pin every tier for this query (see module docstring).

        Costs the main tree's canonical set plus numpy passes over the
        main-tier tombstone keys, the memtable and every read run:
        Python work scales with the hits and the rows appended since
        the previous snapshot, not with the memtable or tombstone
        count."""
        dataset = self.dataset
        lsm = self.lsm
        cost = cost if cost is not None else dataset.tree.cost
        canon = dataset.tree.canonical_set(query, cost)
        main_live = canon.count - lsm.main_dead_in(query)
        tombstones = lsm.tombstones
        flat = lsm.memtable.in_range(query)
        for run in lsm.runs:
            run_id = run.run_id
            flat += [e for e in run.in_range(query)
                     if run_id not in tombstones.get(e.item_id, ())]
        snap = LSMSnapshot(canon, set(lsm.main_dead), main_live, flat)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.lsm.snapshots").inc()
        return snap

    def _take_snapshot(self, query: Rect,
                       cost: CostCounter | None) -> LSMSnapshot:
        snap = self._pending.pop(self._rect_key(query), None)
        if snap is None:
            snap = self.snapshot(query, cost)
        return snap

    # ------------------------------------------------------------------
    # the sampler protocol
    # ------------------------------------------------------------------

    def default_cost(self) -> CostCounter:
        return self.dataset.tree.cost

    def range_count(self, query: Rect,
                    cost: CostCounter | None = None) -> int:
        """Exact live ``q = |P ∩ Q|``; pins the snapshot the paired
        ``open_stream``/``sample_stream`` call will draw from.

        An empty range pins nothing: sessions open no stream for it,
        so a pinned snapshot would outlive its query and serve a later
        stream on the same rect stale data."""
        snap = self.snapshot(query, cost)
        if snap.live_total > 0:
            self._pending[self._rect_key(query)] = snap
        return snap.live_total

    def sample_stream(self, query: Rect, rng: random.Random,
                      cost: CostCounter | None = None) -> UnionStream:
        cost = cost if cost is not None else self.dataset.tree.cost
        snap = self._take_snapshot(query, cost)
        # One numpy Generator serves the tier union and the main
        # tier's union nested in it (seeding one costs ~7 µs).
        np_rng = np.random.default_rng(rng.getrandbits(64))
        return UnionStream(
            lambda: self._tier_parts(snap, rng, cost, np_rng), rng,
            np_rng=np_rng)

    def _tier_parts(self, snap: LSMSnapshot, rng: random.Random,
                    cost: CostCounter, np_rng: np.random.Generator
                    ) -> list:
        """The main tier's masked RS-tree stream, then the flat pool."""
        rs = self.dataset.samplers["rs-tree"]
        return [_TierPart(rs.sample_stream_from_canon(snap.canon, rng,
                                                      cost, np_rng),
                          snap.main_masked, snap.main_live),
                PoolPart(snap.flat, rng)]


class _TierPart:
    """The main tier: its RS-tree stream with the tombstone-masked ids
    filtered out."""

    __slots__ = ("_stream", "_masked", "remaining")

    def __init__(self, stream: UnionStream, masked: set[int], live: int):
        self._stream = stream
        self._masked = masked
        self.remaining = live

    def draw(self, m: int) -> list[Entry]:
        masked = self._masked
        out: list[Entry] = []
        while len(out) < m:
            batch = self._stream.draw(m - len(out))
            if not batch:
                break
            out += [e for e in batch if e.item_id not in masked] \
                if masked else batch
        self.remaining -= len(out)
        return out
