"""RandomPath: Olken's random root-to-leaf walk on an R-tree.

Adapted from Olken's dissertation (sampling from B-trees and R-trees) as
described in Section 3.1 of the paper.  One sample is drawn by descending
from the root, at each node choosing a child among those intersecting the
query with probability proportional to its subtree count.  The restricted
walk alone is biased (sparsely covered branches are over-weighted), so an
acceptance/rejection correction is applied:

* along the path, accumulate ``a = Π (Σ intersecting-children counts /
  node count)``;
* at the leaf, pick uniformly among the in-range entries and accept the
  result with probability ``a × |in-range entries| / |leaf entries|``.

A short calculation shows the probability of emitting any fixed in-range
point is exactly ``1/N`` per attempt, i.e. accepted samples are exactly
uniform on ``P ∩ Q``.  Each attempt costs ``O(log N)`` node reads — good in
RAM, but every accepted sample pays a full root-to-leaf walk of *random*
block reads, which is why the paper's Figure 3(a) shows this method scaling
poorly with k on disk-resident data.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.geometry import Rect
from repro.core.sampling.base import SpatialSampler
from repro.core.sampling.permutation import streaming_shuffle
from repro.index.cost import CostCounter
from repro.index.rtree import Entry, Node, RTree

__all__ = ["RandomPathSampler"]

#: Once the emitted set covers this fraction of ``q``, the stream
#: enumerates the remaining points (rejection would thrash).
_ENUMERATE_THRESHOLD = 0.5


class RandomPathSampler(SpatialSampler):
    """Olken-style acceptance/rejection sampling over an R-tree."""

    name = "random-path"

    def __init__(self, tree: RTree):
        self.tree = tree

    # ------------------------------------------------------------------

    def _attempt(self, query: Rect, rng: random.Random, cost: CostCounter
                 ) -> Entry | None:
        """One root-to-leaf walk; returns an entry or ``None`` (rejected)."""
        node = self.tree.root
        if node is None or not query.intersects(node.mbr):
            return None
        accept = 1.0
        while True:
            cost.charge_node(node.node_id)
            if node.is_leaf:
                entries = node.entries or []
                cost.charge_entries(len(entries))
                in_range = [e for e in entries
                            if query.contains_point(e.point)]
                if not in_range:
                    return None
                accept *= len(in_range) / len(entries)
                if rng.random() >= accept:
                    return None
                return in_range[rng.randrange(len(in_range))]
            children = [c for c in node.children or []
                        if query.intersects(c.mbr)]
            if not children:
                return None
            total = sum(c.count for c in children)
            accept *= total / node.count
            # Weighted choice by subtree count.
            pick = rng.randrange(total)
            cum = 0
            chosen: Node | None = None
            for child in children:
                cum += child.count
                if pick < cum:
                    chosen = child
                    break
            node = chosen  # type: ignore[assignment]

    def sample_stream(self, query: Rect, rng: random.Random,
                      cost: CostCounter | None = None) -> Iterator[Entry]:
        cost = cost if cost is not None else self.tree.cost
        if self.tree.root is None:
            return
        # q is needed to decide termination without spinning forever; for
        # this method the count costs a cheap canonical traversal.
        q = self.tree.range_count(query, cost)
        if q == 0:
            return
        emitted: set[int] = set()
        switch_at = max(1, int(q * _ENUMERATE_THRESHOLD))
        while len(emitted) < switch_at:
            entry = self._attempt(query, rng, cost)
            if entry is None:
                cost.charge_rejection()
                continue
            if entry.item_id in emitted:
                cost.charge_rejection()
                continue
            emitted.add(entry.item_id)
            cost.charge_sample()
            yield entry
        if len(emitted) >= q:
            return
        # Without-replacement tail: enumerate what's left and shuffle.
        remaining = [e for e in self.tree.range_query(query, cost)
                     if e.item_id not in emitted]
        for entry in streaming_shuffle(remaining, rng):
            cost.charge_sample()
            yield entry

    def range_count(self, query: Rect,
                    cost: CostCounter | None = None) -> int:
        return self.tree.range_count(query, cost)
