"""Snapshot-pinned uniform sampling over the LSM tiers.

With the tiered ingest path attached (:mod:`repro.storage.lsm`), the
live set of a dataset is split across three kinds of tier: the main
RS-tree (possibly holding tombstone-masked dead entries), the sealed
immutable runs (each a mini RS-tree, also maskable), and the memtable.
:class:`TieredSampler` merges them into one stream that is *exactly*
uniform over the live records in range: a
:class:`~repro.core.sampling.union.UnionStream` whose parts are the
tiers, the same merge the RS-tree uses over canonical nodes.

Exactness argument
------------------
Each tier yields a uniform without-replacement stream over its own
in-range population (the RS-tree streams for main/runs, a partial
Fisher–Yates pool for the memtable).  Dead copies are masked by
*victim-tagged* tombstones — a tombstone names the tier holding the
dead copy — and filtering a fixed subset out of a uniform
without-replacement stream leaves a uniform without-replacement stream
over the remainder, so each tier part redraws until it holds its share
of live entries.  The union splits each batch over the per-tier *live
remaining* counts (DESIGN.md, "Uniform draws over a disjoint union").

For with-replacement mode the per-tier streams are uniform over the
*full* (masked + live) tier populations, so the alias table weighs
tiers by full counts and masked draws are rejected by redrawing the
tier as well — each accepted draw is then uniform over the live union.

Snapshot pinning
----------------
``range_count`` (which sessions always call before opening a stream)
materialises an :class:`LSMSnapshot`: the main tree's canonical set,
the run list, a frozen copy of the in-range memtable records and of
the tombstone mask.  The stream draws only from that snapshot, so

* inserts after open land in the live memtable, never in the frozen
  copy — the stream never sees them;
* deletes after open mutate the live tombstone map, not the snapshot's
  mask — the stream still covers the record (classic snapshot reads);
* a seal moves records memtable→run, but the snapshot already holds
  its own copies of both sides;
* a compaction *replaces* the main tree's node graph via bulk load —
  the snapshot's canonical set keeps the old immutable graph alive —
  and drops run objects from the live list while the snapshot's
  references keep the pinned runs intact.

Hence concurrent ingest never invalidates an in-flight stream, and
because memtable inserts do not touch the main tree, its canonical-set
cache stays hot between compactions.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.geometry import Rect
from repro.core.sampling.base import SpatialSampler
from repro.core.sampling.union import PoolPart, UnionStream
from repro.core.sampling.weighted import AliasTable
from repro.index.cost import CostCounter
from repro.index.rtree import Entry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import Dataset
    from repro.storage.lsm import LSMTree, SealedRun

__all__ = ["TieredSampler", "LSMSnapshot"]


class LSMSnapshot:
    """A frozen, pinned view of every tier for one query rect.

    Built once per query by :meth:`TieredSampler.range_count`; the
    stream draws only from this object, giving snapshot-consistent
    reads under concurrent ingest (see the module docstring).
    """

    __slots__ = ("query", "canon", "runs", "mem_entries",
                 "main_masked", "run_masked", "live_counts",
                 "full_counts")

    def __init__(self, query: Rect, canon, runs: "list[SealedRun]",
                 mem_entries: list[Entry],
                 main_masked: set[int],
                 run_masked: dict[int, set[int]],
                 live_counts: list[int], full_counts: list[int]):
        self.query = query
        self.canon = canon
        self.runs = runs
        self.mem_entries = mem_entries
        #: ids whose dead copy sits in the (pinned) main tree.
        self.main_masked = main_masked
        #: run id -> ids whose dead copy sits in that run.
        self.run_masked = run_masked
        #: live in-range count per source: [main, *runs, memtable].
        self.live_counts = live_counts
        #: total in-range count per source including masked entries.
        self.full_counts = full_counts

    @property
    def live_total(self) -> int:
        return sum(self.live_counts)


class TieredSampler(SpatialSampler):
    """Uniform sampler over main tree + sealed runs + memtable.

    ``Dataset.sampler_for`` routes every query here once an
    :class:`~repro.storage.lsm.LSMTree` is attached.  The underlying
    per-tier machinery is the existing RS-tree sampler; this class
    only adds snapshotting, tombstone filtering and the cross-tier
    union.
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
        """Pin every tier for this query (see module docstring)."""
        dataset = self.dataset
        lsm = self.lsm
        cost = cost if cost is not None else dataset.tree.cost
        canon = dataset.tree.canonical_set(query, cost)
        runs = list(lsm.runs)
        dims = dataset.dims
        mem_entries = [Entry(r.record_id, r.key(dims))
                       for r in lsm.memtable.in_range(query)]
        main_masked: set[int] = set()
        run_masked: dict[int, set[int]] = {run.run_id: set()
                                           for run in runs}
        # Masked-in-rect counts, per tier the dead copy lives in.
        main_dead = 0
        run_dead = {run.run_id: 0 for run in runs}
        from repro.storage.lsm import MAIN_TIER
        for rid, victims in lsm.tombstones.items():
            for tier, key in victims.items():
                if tier == MAIN_TIER:
                    main_masked.add(rid)
                    if query.contains_point(key):
                        main_dead += 1
                elif tier in run_dead:
                    run_masked[tier].add(rid)
                    if query.contains_point(key):
                        run_dead[tier] += 1
        full_counts = [canon.count]
        live_counts = [canon.count - main_dead]
        for run in runs:
            full = run.range_count(query)
            full_counts.append(full)
            live_counts.append(full - run_dead[run.run_id])
        full_counts.append(len(mem_entries))
        live_counts.append(len(mem_entries))
        snap = LSMSnapshot(query, canon, runs, mem_entries,
                           main_masked, run_masked, live_counts,
                           full_counts)
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
        # One numpy Generator serves the tier union and the per-tier
        # unions nested in it: seeding one per tier (~7 µs each) cost
        # 20-25 % more per query on a 10-tier snapshot.
        np_rng = np.random.default_rng(rng.getrandbits(64))
        return UnionStream(
            lambda: self._tier_parts(snap, rng, cost, np_rng), rng,
            np_rng=np_rng)

    def _tier_parts(self, snap: LSMSnapshot, rng: random.Random,
                    cost: CostCounter, np_rng: np.random.Generator
                    ) -> list:
        """One union part per tier, in the order of
        ``snap.live_counts``."""
        rs = self.dataset.samplers["rs-tree"]
        parts: list = [_TierPart(
            rs.sample_stream_from_canon(snap.canon, rng, cost, np_rng),
            snap.main_masked, snap.live_counts[0])]
        for run, live in zip(snap.runs, snap.live_counts[1:]):
            canon = run.tree.canonical_set(snap.query, cost)
            parts.append(_TierPart(
                run.sampler.sample_stream_from_canon(canon, rng, cost,
                                                     np_rng),
                snap.run_masked[run.run_id], live))
        parts.append(PoolPart(snap.mem_entries, rng))
        return parts

    def sample_stream_with_replacement(
            self, query: Rect, rng: random.Random,
            cost: CostCounter | None = None) -> Iterator[Entry]:
        cost = cost if cost is not None else self.dataset.tree.cost
        snap = self._take_snapshot(query, cost)
        return self._merged_wr_stream(snap, rng, cost)

    def _merged_wr_stream(self, snap: LSMSnapshot, rng: random.Random,
                          cost: CostCounter) -> Iterator[Entry]:
        """With-replacement merge: tiers weighted by *full* counts,
        masked draws rejected by redrawing the tier too.

        Every attempt is uniform over the union of full tier
        populations, so conditioning on acceptance (the drawn entry is
        live) leaves each accepted draw uniform over the live union —
        weighting by live counts but drawing from full-population
        streams would instead skew toward heavily-masked tiers.
        """
        if snap.live_total == 0:
            return
        rs = self.dataset.samplers["rs-tree"]
        n_runs = len(snap.runs)
        streams: list[Iterator[Entry] | None] = [
            rs.sample_stream_with_replacement_from_canon(
                snap.canon, rng, cost)]
        for run in snap.runs:
            canon = run.tree.canonical_set(snap.query, cost)
            streams.append(
                run.sampler.sample_stream_with_replacement_from_canon(
                    canon, rng, cost))
        alias = AliasTable([max(c, 0) for c in snap.full_counts])
        mem = snap.mem_entries
        while True:
            i = alias.sample(rng)
            if i == n_runs + 1:
                entry = mem[rng.randrange(len(mem))]
            else:
                entry = next(streams[i])
                masked = snap.main_masked if i == 0 else \
                    snap.run_masked[snap.runs[i - 1].run_id]
                if entry.item_id in masked:
                    cost.charge_rejection()
                    continue
            yield entry


class _TierPart:
    """One sealed tier (main or run): its RS-tree stream with the
    tombstone-masked ids filtered out."""

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
