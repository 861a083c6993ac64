"""SampleFirst baseline: draw from all of P, keep the in-range hits.

Each attempt picks a uniformly random record of the data set (one random
block read — in a database this is "fetch a random rid") and tests it
against the query.  A draw lands inside Q with probability ``q/N``, so one
accepted sample costs ``O(N/q)`` attempts in expectation — catastrophic for
selective queries, and non-terminating when ``q = 0``.  The paper names
exactly this failure mode; we guard it with an attempt cap that falls back
to an exact emptiness check.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.geometry import Rect
from repro.core.sampling.base import SpatialSampler
from repro.errors import EmptyRangeError
from repro.index.cost import CostCounter
from repro.index.rtree import Entry, RTree

__all__ = ["SampleFirstSampler"]

# Synthetic block-id offset so uniform record fetches are charged as
# random (non-sequential) reads by the cost model.
_RANDOM_FETCH_BASE = 1 << 40

#: After this many times N consecutive misses the stream pays for an
#: exact count to tell "unlucky" from "empty range".
_ATTEMPT_FACTOR = 8


class SampleFirstSampler(SpatialSampler):
    """Uniform draws from P filtered by Q, without replacement.

    The sampler snapshots the entry array once (this models a storage
    engine that can fetch record number i in one read).  The rejection
    loop is bounded: after ``_ATTEMPT_FACTOR * N`` consecutive misses
    it performs an exact count to distinguish "unlucky" from "empty
    range" instead of spinning forever.
    """

    name = "sample-first"

    def __init__(self, tree: RTree):
        self.tree = tree
        self._entries: list[Entry] = list(tree.iter_entries())

    def refresh(self) -> None:
        """Re-snapshot the entry array after the tree was updated."""
        self._entries = list(self.tree.iter_entries())

    def sample_stream(self, query: Rect, rng: random.Random,
                      cost: CostCounter | None = None) -> Iterator[Entry]:
        cost = cost if cost is not None else self.tree.cost
        entries = self._entries
        n = len(entries)
        if n == 0:
            return
        emitted: set[int] = set()
        q: int | None = None  # learned lazily, only if we start struggling
        leaf_cap = max(1, self.tree.leaf_capacity)
        misses = 0
        cap = _ATTEMPT_FACTOR * n
        while True:
            idx = rng.randrange(n)
            entry = entries[idx]
            # One random block read to fetch the record.
            cost.charge_node(_RANDOM_FETCH_BASE + idx // leaf_cap)
            cost.charge_entries(1)
            if query.contains_point(entry.point) \
                    and entry.item_id not in emitted:
                emitted.add(entry.item_id)
                cost.charge_sample()
                yield entry
                misses = 0
                if q is not None and len(emitted) >= q:
                    return
                continue
            cost.charge_rejection()
            misses += 1
            if misses >= cap:
                # Pay for an exact count once instead of looping forever.
                if q is None:
                    q = self.tree.range_count(query, cost)
                if q == 0:
                    raise EmptyRangeError(
                        "query range contains no points; SampleFirst "
                        "would never terminate")
                if len(emitted) >= q:
                    return
                misses = 0

    def range_count(self, query: Rect,
                    cost: CostCounter | None = None) -> int:
        return self.tree.range_count(query, cost)
