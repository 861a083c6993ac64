"""RS-tree: a single Hilbert R-tree with per-node sample buffers.

The paper's second index (Section 3.1) folds three ideas into one R-tree:

**Sample buffering** — every node ``u`` stores ``S(u)``, a pre-shuffled
without-replacement sample of the points below it.  Reading the node block
therefore already yields random samples of its whole subtree; queries whose
canonical set covers a node never descend into it.

**Lazy exploration** — a query only materialises the canonical set ``R_Q``
(maximal fully-contained nodes plus residual points from partial leaves),
using per-node counts; subtrees below canonical nodes are not explored
until their buffers run dry.

**Weighted source selection** — a query's stream is a
:class:`~repro.core.sampling.union.UnionStream` over the canonical
nodes plus one pool of residual points: each batch is split over the
sources by one multivariate hypergeometric draw on their remaining
counts, and permuted (DESIGN.md, "Uniform draws over a disjoint
union"), so large subtrees — the ones most likely to supply the next
sample — are found without scanning all of ``R_Q`` per sample.

Buffer maintenance is hierarchical: a leaf's buffer is a shuffle of its
entries; an internal node's buffer is drawn by consuming its children's
buffers with remaining-count-proportional interleaving (children are
disjoint, so the merged batch is a uniform without-replacement sample of
the subtree).  Exhausted buffers refill in place with fresh randomness;
updates invalidate buffers along the affected root-to-leaf path and the
next query refills them lazily.

Statistical note: within one query the emitted stream is uniform without
replacement (enforced by rejection against the emitted set, with an
enumeration fallback once a subtree is mostly consumed).  Across *queries*
samples are only fresh, not independent of past queries, exactly like the
paper's system (inter-query independence is the open problem of Hu et al.
cited there).
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.geometry import Rect
from repro.core.sampling.base import SpatialSampler
from repro.core.sampling.permutation import (sample_without_replacement,
                                             streaming_shuffle)
from repro.core.sampling.union import PoolPart, UnionStream, permute, split
from repro.index.cost import CostCounter
from repro.index.rtree import Entry, Node, RTree, _iter_subtree_entries

__all__ = ["RSTreeSampler"]

# After this many consecutive duplicate rejections from one subtree the
# sampler enumerates the subtree's remainder instead of rejecting forever.
_REJECT_STREAK_LIMIT = 16

#: Fraction of a canonical node that may be emitted before its part
#: stops rejection-sampling the buffer and enumerates the rest.
_ENUMERATE_THRESHOLD = 0.5

#: Internal-node refills on the vectorised path draw this many times
#: ``buffer_size`` per merge: the per-refill fixed cost (one MVHG draw,
#: one permutation) amortises over a longer uniform-WOR prefix.
_REFILL_AMPLIFY = 16


class RSTreeSampler(SpatialSampler):
    """Online sampler over a (Hilbert) R-tree with node sample buffers.

    Parameters
    ----------
    tree:
        The backing R-tree.  A :class:`~repro.index.hilbert_rtree.HilbertRTree`
        matches the paper; any :class:`~repro.index.rtree.RTree` works.
    buffer_size:
        ``s = |S(u)|`` per node.  The paper sets this to roughly one block's
        worth; the ablation benchmark sweeps it.
    rng:
        Randomness used for buffer refills (distinct from the per-query
        rng so repeated queries see fresh buffers deterministically under a
        fixed seed).
    """

    name = "rs-tree"

    def __init__(self, tree: RTree, buffer_size: int = 64,
                 rng: random.Random | None = None):
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.tree = tree
        self.buffer_size = buffer_size
        self.rng = rng if rng is not None else random.Random()
        # Lazily-created numpy Generator for vectorised buffer refills;
        # seeded from `rng` on first use so runs stay deterministic
        # under a fixed seed.
        self._np_rng = None

    def _np_gen(self):
        """The refill numpy Generator (seeded from ``rng`` on first
        use)."""
        if self._np_rng is None:
            self._np_rng = np.random.default_rng(self.rng.getrandbits(64))
        return self._np_rng

    def _shuffled(self, entries: list[Entry], s: int) -> list[Entry]:
        """``sample_without_replacement`` with a vectorised fast path.

        One numpy permutation/choice call replaces the per-element
        Fisher-Yates loop — the dominant refill cost once draws are
        batched.  Distributionally identical; only the RNG stream
        differs.
        """
        n = len(entries)
        if n < 16:
            return sample_without_replacement(entries, s, self.rng)
        np_rng = self._np_gen()
        if s >= n:
            idx = np_rng.permutation(n)
        else:
            idx = np_rng.choice(n, size=s, replace=False)
        return [entries[j] for j in idx]

    # ------------------------------------------------------------------
    # buffer maintenance
    # ------------------------------------------------------------------

    def prepare(self, cost: CostCounter | None = None) -> None:
        """(Re)fill every node buffer (index build step; cost optional).

        Always refills, even nodes that already hold a buffer — another
        sampler (possibly with a different ``buffer_size``) may have
        attached buffers to the same tree.
        """
        if self.tree.root is None:
            return
        sink = cost if cost is not None else CostCounter()
        self._fill_post_order(self.tree.root, sink)

    def _fill_post_order(self, node: Node, cost: CostCounter) -> None:
        if not node.is_leaf:
            for child in node.children or []:
                self._fill_post_order(child, cost)
        self._fill_buffer(node, cost)

    def _ensure_buffer(self, node: Node, cost: CostCounter) -> None:
        if node.sample_buffer is None \
                or node.buffer_pos >= len(node.sample_buffer):
            self._fill_buffer(node, cost)

    def _fill_buffer(self, node: Node, cost: CostCounter) -> None:
        """(Re)draw ``S(node)`` with fresh randomness."""
        node.fill_epoch += 1
        s = min(self.buffer_size, node.count)
        if node.is_leaf:
            cost.charge_node(node.node_id)
            cost.charge_entries(node.members())
            node.sample_buffer = self._shuffled(node.entries or [], s)
        elif node.count <= self.buffer_size:
            # Small subtree: the buffer is a full shuffled enumeration.
            entries = list(_iter_subtree_entries(node))
            cost.charge_entries(len(entries))
            node.sample_buffer = self._shuffled(entries, len(entries))
        else:
            # The vectorised merge pays a fixed per-refill cost (one
            # MVHG draw + one permutation) regardless of s, so batch
            # consumers refill larger slices: same uniform WOR law for
            # any prefix, far fewer refills.  The Generator is seeded
            # here, before either branch, so the stream rng is consumed
            # at the same point whichever branch runs.
            np_rng = self._np_gen()
            s = min(node.count, _REFILL_AMPLIFY * self.buffer_size)
            if s >= node.count:
                # The amplified buffer covers the whole subtree: a full
                # shuffled enumeration needs no child merge, no dedup,
                # and can never fall short (mirrors the small-subtree
                # branch above).
                entries = list(_iter_subtree_entries(node))
                cost.charge_entries(len(entries))
                node.sample_buffer = self._shuffled(entries, len(entries))
            else:
                node.sample_buffer = self._merge_from_children_batched(
                    node, s, cost, np_rng)
        node.buffer_pos = 0

    def _merge_from_children_batched(self, node: Node, s: int,
                                     cost: CostCounter, np_rng
                                     ) -> list[Entry]:
        """Draw s items from the subtree by consuming child buffers.

        A refill gathers the distinct child blocks it needs and reads
        them in layout order — one sweep per batch, so the charged I/O is
        (mostly sequential) per *block*, not per sample.

        The interleave is composed in one step: the joint law of
        per-child draw counts under s WOR draws is multivariate
        hypergeometric over the child counts, so each child's share is
        drawn as one contiguous consumption of its buffer and the
        merged batch is shuffled back into exchangeable order — same
        distribution as a per-draw remaining-count interleave, two
        orders of magnitude fewer RNG calls.
        """
        children = node.children or []
        counts = [c.count for c in children]
        batch: list[Entry] = []
        seen: set[int] = set()
        touched: set[int] = set()
        for i, share in split(np_rng, counts, min(s, sum(counts))):
            child = children[i]
            touched.add(child.node_id)
            need = share
            # Redraw duplicates (a child buffer that wrapped mid-batch
            # repeats entries from its previous fill) until the child's
            # full share is fresh — same acceptance law as a query
            # stream's duplicate rejection.  The retry cap keeps
            # pathological children (tiny pools, heavy reuse) bounded;
            # any leftover lands in the shortfall scan below.
            for _ in range(8):
                fresh = 0
                for entry in self._draw_many_from_subtree(
                        child, need, cost):
                    eid = entry.item_id
                    if eid in seen:
                        cost.charge_rejection()
                        continue
                    seen.add(eid)
                    batch.append(entry)
                    fresh += 1
                need -= fresh
                if need <= 0:
                    break
        # Per-child fills above are grouped; shuffle back to an
        # exchangeable order before any shortfall entries append.
        batch = permute(np_rng, batch)
        if len(batch) < s:
            pool = [e for e in _iter_subtree_entries(node)
                    if e.item_id not in seen]
            self._charge_subtree_scan(node, cost)
            cost.charge_entries(node.count)
            for entry in streaming_shuffle(pool, self.rng):
                batch.append(entry)
                if len(batch) >= s:
                    break
        for node_id in sorted(touched):
            cost.charge_node(node_id)
        return batch

    def _draw_many_from_subtree(self, node: Node, c: int,
                                cost: CostCounter) -> list[Entry]:
        """Next c buffered samples of a subtree as contiguous buffer
        slices (refilling between slices as needed)."""
        out: list[Entry] = []
        while len(out) < c:
            self._ensure_buffer(node, cost)
            buf = node.sample_buffer
            take = min(c - len(out), len(buf) - node.buffer_pos)
            out.extend(buf[node.buffer_pos:node.buffer_pos + take])
            node.buffer_pos += take
        return out

    def _charge_subtree_scan(self, node: Node, cost: CostCounter) -> None:
        """Charge a full layout-order sweep of a subtree's blocks."""
        ids = []
        stack = [node]
        while stack:
            n = stack.pop()
            ids.append(n.node_id)
            if not n.is_leaf:
                stack.extend(n.children or [])
        for node_id in sorted(ids):
            cost.charge_node(node_id)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample_stream(self, query: Rect, rng: random.Random,
                      cost: CostCounter | None = None) -> UnionStream:
        cost = cost if cost is not None else self.tree.cost
        # The canonical set materialises lazily at the first draw — its
        # exploration cost lands inside the consumer's "sample_stream"
        # trace span, not at open time.
        return UnionStream(
            lambda: self._canon_parts(
                self.tree.canonical_set(query, cost), rng, cost),
            rng, cost)

    def sample_stream_from_canon(self, canon, rng: random.Random,
                                 cost: CostCounter | None = None,
                                 np_rng: np.random.Generator | None = None
                                 ) -> UnionStream:
        """Stream from an already-materialised canonical set.

        Snapshot consumers (the LSM tiered sampler) pin the canonical
        set they opened with and keep drawing from it even after the
        main tree is atomically swapped by a compaction — the old node
        graph stays alive and immutable, so the pinned stream remains
        exactly uniform over the snapshot's population.  ``np_rng``
        is shared with an enclosing union (see :class:`UnionStream`).
        """
        cost = cost if cost is not None else self.tree.cost
        return UnionStream(lambda: self._canon_parts(canon, rng, cost),
                           rng, cost, np_rng=np_rng)

    def _canon_parts(self, canon, rng: random.Random,
                     cost: CostCounter) -> list:
        """The union parts of one query: each canonical node, then
        the residual points of partially overlapping leaves."""
        parts: list = [_NodePart(self, node, rng, cost)
                       for node in canon.nodes]
        parts.append(PoolPart(canon.residual, rng))
        return parts

    def range_count(self, query: Rect,
                    cost: CostCounter | None = None) -> int:
        return self.tree.range_count(
            query, cost if cost is not None else self.tree.cost)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def buffered_nodes(self) -> int:
        """Number of nodes currently holding a valid buffer."""
        if self.tree.root is None:
            return 0
        total = 0
        stack = [self.tree.root]
        while stack:
            node = stack.pop()
            if node.sample_buffer is not None:
                total += 1
            if not node.is_leaf:
                stack.extend(node.children or [])
        return total


class _NodePart:
    """One canonical node's share of a query stream.

    Draws are contiguous slices of the node's sample buffer.  Ids
    already emitted are rejected, and once the node is mostly consumed
    (or rejections keep coming) its unseen remainder is enumerated
    into a :class:`PoolPart`.
    """

    __slots__ = ("_sampler", "_node", "_rng", "_cost", "_count",
                 "remaining", "_seen", "_pending", "_epoch", "_enum")

    def __init__(self, sampler: RSTreeSampler, node: Node,
                 rng: random.Random, cost: CostCounter):
        self._sampler = sampler
        self._node = node
        self._rng = rng
        self._cost = cost
        self._count = self.remaining = node.count
        # Emitted-id bookkeeping is lazy: same-fill slices append whole
        # chunks to `_pending` in O(1), and `_seen_set` materialises
        # the id set only when a membership test is needed (buffer
        # wrap, enumeration switch).
        self._seen: set[int] | None = None
        self._pending: list | None = None
        # Fill epoch of the node buffer this stream has consumed from,
        # or -1 once it has spanned a refill.  While consumption stays
        # within one fill, its slices are provably duplicate-free (a
        # fill is WOR and positions only move forward), so draws skip
        # the per-entry checks.
        self._epoch: int | None = None
        self._enum: PoolPart | None = None

    def _seen_set(self) -> set[int]:
        """The materialised emitted-id set (drains pending chunks)."""
        seen = self._seen
        if seen is None:
            seen = self._seen = set()
        if self._pending:
            for chunk in self._pending:
                for e in chunk:
                    seen.add(e.item_id)
            self._pending.clear()
        return seen

    def draw(self, m: int) -> list[Entry]:
        if self._enum is not None:
            self.remaining -= m
            return self._enum.draw(m)
        sampler = self._sampler
        node = self._node
        cost = self._cost
        count = self._count
        rem = self.remaining
        out: list[Entry] = []
        streak = 0
        while m > 0:
            if 1.0 - rem / count > _ENUMERATE_THRESHOLD \
                    or streak >= _REJECT_STREAK_LIMIT:
                self.remaining = rem - m
                return out + self._switch_to_enum().draw(m)
            # Consume the buffer as one contiguous slice and filter
            # already-emitted entries in bulk — each buffered draw is
            # accepted or rejected exactly as one at a time.
            buf = node.sample_buffer
            if buf is None or node.buffer_pos >= len(buf):
                sampler._fill_buffer(node, cost)
                buf = node.sample_buffer
            bpos = node.buffer_pos
            take = min(m, len(buf) - bpos)
            chunk = buf[bpos:bpos + take]
            node.buffer_pos = bpos + take
            ep = node.fill_epoch
            if self._epoch is None or self._epoch == ep:
                # Same-fill slice: duplicate-free (see `_epoch`).
                self._epoch = ep
                if self._pending is None:
                    self._pending = []
                self._pending.append(chunk)
                out += chunk
                streak = 0
                rem -= take
                m -= take
                continue
            self._epoch = -1
            seen = self._seen_set()
            got = 0
            for e in chunk:
                eid = e.item_id
                if eid not in seen:
                    seen.add(eid)
                    out.append(e)
                    got += 1
            rejected = len(chunk) - got
            if rejected:
                cost.charge_rejection(rejected)
                streak += rejected
            else:
                streak = 0
            rem -= got
            m -= got
        self.remaining = rem
        return out

    def _switch_to_enum(self) -> PoolPart:
        """Enumerate the node's unseen remainder into a pool."""
        sampler = self._sampler
        node = self._node
        seen = self._seen_set()
        pool = [e for e in _iter_subtree_entries(node)
                if e.item_id not in seen]
        sampler._charge_subtree_scan(node, self._cost)
        self._cost.charge_entries(self._count)
        self._enum = PoolPart(pool, self._rng)
        return self._enum
