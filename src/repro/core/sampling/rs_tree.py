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

**Weighted source selection** — picking the next source node with
probability proportional to its remaining count is done by a Fenwick
tree over the remaining counts (the paper describes A/R selection; the
Fenwick draw is O(log |R_Q|) worst case, never wastes a coin flip, and
stays exact as counts decrement), so large subtrees — the ones most
likely to supply the next sample — are located without scanning all of
``R_Q`` per sample.  With-replacement streams use a Walker alias table
over the static counts instead: O(1) per draw.

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
from itertools import islice
from typing import Iterator

import numpy as np

from repro.core.geometry import Rect
from repro.core.sampling.base import SpatialSampler
from repro.core.sampling.permutation import (sample_without_replacement,
                                             streaming_shuffle)
from repro.core.sampling.weighted import AliasTable, FenwickSampler
from repro.index.cost import CostCounter
from repro.index.rtree import Entry, Node, RTree, _iter_subtree_entries

__all__ = ["RSTreeSampler"]

# After this many consecutive duplicate rejections from one subtree the
# sampler enumerates the subtree's remainder instead of rejecting forever.
_REJECT_STREAK_LIMIT = 16

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
    enumerate_threshold:
        Fraction of a subtree that may be emitted before the sampler stops
        rejection-sampling that subtree and enumerates the rest.
    """

    name = "rs-tree"

    def __init__(self, tree: RTree, buffer_size: int = 64,
                 rng: random.Random | None = None,
                 enumerate_threshold: float = 0.5):
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if not 0.0 < enumerate_threshold <= 1.0:
            raise ValueError("enumerate_threshold must be in (0, 1]")
        self.tree = tree
        self.buffer_size = buffer_size
        self.rng = rng if rng is not None else random.Random()
        self.enumerate_threshold = enumerate_threshold
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
        take = min(s, sum(counts))
        shares = np_rng.multivariate_hypergeometric(
            counts, take, method="count")
        batch: list[Entry] = []
        seen: set[int] = set()
        touched: set[int] = set()
        for child, share in zip(children, shares):
            if not share:
                continue
            touched.add(child.node_id)
            need = int(share)
            # Redraw duplicates (a child buffer that wrapped mid-batch
            # repeats entries from its previous fill) until the child's
            # full share is fresh — same acceptance law as the
            # single-draw rejection loop.  The retry cap keeps
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
        order = np_rng.permutation(len(batch))
        batch = [batch[j] for j in order]
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
            if not buf:
                # Pathological refill: fall back to the single-draw
                # helper, which enumerates the subtree.
                out.append(self._draw_from_subtree(node, cost))
                continue
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

    def _draw_from_subtree(self, node: Node, cost: CostCounter) -> Entry:
        """Next buffered sample of the subtree (refilling as needed)."""
        self._ensure_buffer(node, cost)
        if not node.sample_buffer:
            # Pathological refill (merge produced only duplicates): fall
            # back to a full shuffled enumeration of the subtree.
            entries = list(_iter_subtree_entries(node))
            self._charge_subtree_scan(node, cost)
            cost.charge_entries(len(entries))
            node.fill_epoch += 1
            node.sample_buffer = sample_without_replacement(
                entries, len(entries), self.rng)
            node.buffer_pos = 0
        entry = node.sample_buffer[node.buffer_pos]
        node.buffer_pos += 1
        return entry

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample_stream(self, query: Rect, rng: random.Random,
                      cost: CostCounter | None = None) -> Iterator[Entry]:
        cost = cost if cost is not None else self.tree.cost
        # The canonical set materialises lazily at the first draw — its
        # exploration cost lands inside the consumer's "sample_stream"
        # trace span, not at open time.
        return _CanonStream(
            self, lambda: self.tree.canonical_set(query, cost), rng, cost)

    def sample_stream_from_canon(self, canon, rng: random.Random,
                                 cost: CostCounter | None = None
                                 ) -> Iterator[Entry]:
        """Stream from an already-materialised canonical set.

        Snapshot consumers (the LSM tiered sampler) pin the canonical
        set they opened with and keep drawing from it even after the
        main tree is atomically swapped by a compaction — the old node
        graph stays alive and immutable, so the pinned stream remains
        exactly uniform over the snapshot's population.
        """
        cost = cost if cost is not None else self.tree.cost
        return _CanonStream(self, canon, rng, cost)

    def _draw_checked(self, node: Node, i: int, counts: list[int],
                      remaining: list[int], emitted: set[int],
                      enum_pools: dict[int, Iterator[Entry]],
                      rng: random.Random, cost: CostCounter
                      ) -> Entry | None:
        """Draw from a canonical node, skipping already-emitted points.

        Returns ``None`` when the caller should re-select a source (the
        node was switched to enumeration mode mid-draw).
        """
        streak = 0
        while True:
            consumed_fraction = 1.0 - remaining[i] / counts[i]
            if consumed_fraction > self.enumerate_threshold \
                    or streak >= _REJECT_STREAK_LIMIT:
                pool = [e for e in _iter_subtree_entries(node)
                        if e.item_id not in emitted]
                self._charge_subtree_scan(node, cost)
                cost.charge_entries(counts[i])
                enum_pools[i] = streaming_shuffle(pool, rng)
                return next(enum_pools[i])
            entry = self._draw_from_subtree(node, cost)
            if entry.item_id not in emitted:
                return entry
            cost.charge_rejection()
            streak += 1

    def sample_stream_with_replacement(
            self, query: Rect, rng: random.Random,
            cost: CostCounter | None = None) -> Iterator[Entry]:
        """With-replacement draws: pick a canonical source ∝ its *full*
        count each time and consume its (cycling) buffer.

        Draws from one buffer batch are without replacement internally,
        so very short gaps between repeats are slightly under-
        represented; across batches the stream is uniform.  (The exact
        construction would re-shuffle per draw — the buffered
        approximation is the one the node-resident sample store makes
        possible.)
        """
        cost = cost if cost is not None else self.tree.cost
        yield from self.sample_stream_with_replacement_from_canon(
            self.tree.canonical_set(query, cost), rng, cost)

    def sample_stream_with_replacement_from_canon(
            self, canon, rng: random.Random,
            cost: CostCounter | None = None) -> Iterator[Entry]:
        """With-replacement draws from a pinned canonical set."""
        cost = cost if cost is not None else self.tree.cost
        residual = list(canon.residual)
        weights = [n.count for n in canon.nodes] + [len(residual)]
        if sum(weights) == 0:
            return
        # Weights are static for the whole stream, so a Walker alias
        # table gives O(1) source selection per draw.
        alias = AliasTable(weights)
        while True:
            idx = alias.sample(rng)
            if idx == len(canon.nodes):
                entry = residual[rng.randrange(len(residual))]
            else:
                entry = self._draw_from_subtree(canon.nodes[idx], cost)
            cost.charge_sample()
            yield entry

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


class _CanonStream:
    """One query's without-replacement stream over a canonical set.

    An explicit iterator object (rather than a generator) so batch
    consumers can call :meth:`draw_batch`: a batch of b samples is
    composed by splitting b over the disjoint sources with a
    multivariate hypergeometric draw — the exact distribution of how b
    uniform WOR draws from the union land across disjoint pools — then
    drawing each source's share from its pre-shuffled buffers, and
    finally shuffling the union so the returned sequence is
    exchangeable.  Single draws (``next``) and batches interleave
    freely because both mutate the same (remaining, Fenwick, emitted,
    enum-pool) state.

    Source ``0..len(nodes)-1`` are canonical nodes; the last source is
    the residual pool from partially overlapping leaves.  For single
    draws a Fenwick tree over the remaining counts selects the next
    source with probability remaining/total in O(log #sources) — exact
    at every step, with none of the wasted coin flips (or the
    stale-maximum drift) of acceptance/rejection selection.
    """

    __slots__ = ("_sampler", "_canon", "_rng", "_cost", "_nodes",
                 "_residual_pool", "_residual_pos", "_remaining",
                 "_counts", "_total", "_fen", "_seen", "_pending",
                 "_enum_pools", "_n_sources", "_np_rng", "_src_epoch",
                 "_started")

    def __init__(self, sampler: RSTreeSampler, canon,
                 rng: random.Random, cost: CostCounter):
        self._sampler = sampler
        # Either the canonical set itself or a zero-arg thunk producing
        # it (the lazy `sample_stream` path).
        self._canon = canon
        self._rng = rng
        self._cost = cost
        self._np_rng = None
        self._started = False

    def _start(self) -> None:
        canon = self._canon
        if callable(canon):
            canon = self._canon = canon()
        self._nodes = canon.nodes
        # Residual entries shuffle lazily: `_next_residual` performs
        # one partial Fisher-Yates step (exactly `streaming_shuffle`,
        # with the state held here so batch draws can take vectorised
        # steps over the same pool).
        self._residual_pool = list(canon.residual)
        self._residual_pos = 0
        self._remaining = [n.count for n in self._nodes] \
            + [len(canon.residual)]
        self._counts = list(self._remaining)
        self._total = sum(self._remaining)
        # The Fenwick tree only serves single draws; batch draws track
        # `_total`/`_remaining` directly and invalidate it, and the next
        # `__next__` rebuilds it (O(#sources), rare in batch workloads).
        self._fen = None
        # Seen-id bookkeeping is per *source* (sources are disjoint, so
        # an id can only repeat within the node it came from) and lazy:
        # batch fast paths append whole chunks to `_pending` in O(1)
        # and `_seen_for` materialises the actual id set only when a
        # membership test is needed (buffer wrap, enum switch, single
        # draws).  Residual and enum-pool draws are WOR by construction
        # and need no tracking at all.
        self._seen: dict[int, set[int]] = {}
        self._pending: dict[int, list] = {}
        self._enum_pools: dict[int, Iterator[Entry]] = {}
        # source index -> fill epoch of the node buffer this stream has
        # consumed from, or -1 once it has spanned a refill.  While a
        # source's consumption stays within one fill, its slices are
        # provably duplicate-free (a fill is WOR and positions only
        # move forward), so batch draws skip the per-entry checks.
        self._src_epoch: dict[int, int] = {}
        self._n_sources = len(self._remaining)
        self._started = True

    def __iter__(self) -> _CanonStream:
        return self

    def close(self) -> None:
        """Streams hold no resources; accepted for generator parity."""

    def _next_residual(self) -> Entry:
        """One lazy Fisher-Yates step over the residual pool."""
        pool = self._residual_pool
        i = self._residual_pos
        j = self._rng.randrange(i, len(pool))
        pool[i], pool[j] = pool[j], pool[i]
        self._residual_pos = i + 1
        return pool[i]

    def _seen_for(self, i: int) -> set:
        """Source i's materialised seen-id set (drains pending chunks)."""
        seen = self._seen.get(i)
        if seen is None:
            seen = self._seen[i] = set()
        pending = self._pending.get(i)
        if pending:
            for chunk in pending:
                for e in chunk:
                    seen.add(e.item_id)
            pending.clear()
        return seen

    def __next__(self) -> Entry:
        if not self._started:
            self._start()
        sampler = self._sampler
        fen = self._fen
        if fen is None:
            # First single draw (or first after a batch): rebuild the
            # source-selection Fenwick from the live remaining counts.
            fen = self._fen = FenwickSampler(self._remaining)
        rng = self._rng
        cost = self._cost
        remaining = self._remaining
        enum_pools = self._enum_pools
        residual_source = self._n_sources - 1
        while fen.total > 0:
            i = fen.sample(rng)
            # --- draw one entry from the chosen source ----------------
            if i == residual_source:
                entry = self._next_residual()
            elif i in enum_pools:
                entry = next(enum_pools[i])
            else:
                node = self._nodes[i]
                seen = self._seen_for(i)
                entry = sampler._draw_checked(
                    node, i, self._counts, remaining,
                    seen, enum_pools, rng, cost)
                if entry is None:
                    continue
                seen.add(entry.item_id)
                # Epoch bookkeeping (see `_src_epoch`): the entry came
                # from the node's *current* fill.
                ep = node.fill_epoch
                prev = self._src_epoch.get(i)
                if prev is None:
                    self._src_epoch[i] = ep
                elif prev != ep:
                    self._src_epoch[i] = -1
            remaining[i] -= 1
            fen.add(i, -1)
            self._total -= 1
            cost.charge_sample()
            return entry
        raise StopIteration

    # ------------------------------------------------------------------
    # batched draws
    # ------------------------------------------------------------------

    def draw_batch(self, k: int) -> list[Entry]:
        """Up to k further samples in one call (fewer at exhaustion).

        Equivalent in distribution to k consecutive ``next`` calls, but
        with one source-allocation draw per batch instead of one
        Fenwick descent per sample, and contiguous buffer slices per
        source instead of per-sample buffer pointer chasing.
        """
        if k <= 0:
            return []
        if not self._started:
            self._start()
        if self._total <= 0:
            return []
        b = min(k, self._total)
        out: list[Entry] = []
        # Hot loop: the per-source draw bodies are inlined (rather than
        # one helper call per source) because a batch typically touches
        # most canonical sources with a handful of draws each — at ~70
        # sources per batch the call/setup overhead would dominate.
        sampler = self._sampler
        cost = self._cost
        remaining = self._remaining
        counts = self._counts
        nodes = self._nodes
        enum_pools = self._enum_pools
        threshold = sampler.enumerate_threshold
        residual_source = self._n_sources - 1
        fill = sampler._fill_buffer
        pending = self._pending
        src_epoch = self._src_epoch
        for i, share in self._allocate(b):
            if i == residual_source:
                # `share` partial Fisher-Yates steps over the residual
                # pool in one pass; larger shares pre-draw the uniforms
                # (one RNG call for the whole share instead of `share`
                # python randrange calls) but perform the identical
                # swap walk.
                pool = self._residual_pool
                n = len(pool)
                pos = self._residual_pos
                if share >= 8:
                    us = self._np_rng.random(share).tolist()
                    for x in range(share):
                        j = pos + int(us[x] * (n - pos))
                        pool[pos], pool[j] = pool[j], pool[pos]
                        out.append(pool[pos])
                        pos += 1
                    self._residual_pos = pos
                else:
                    for _ in range(share):
                        out.append(self._next_residual())
                remaining[i] -= share
                continue
            pool = enum_pools.get(i)
            if pool is None:
                node = nodes[i]
                count = counts[i]
                streak = 0
                rem = remaining[i]
                while share > 0:
                    if 1.0 - rem / count > threshold \
                            or streak >= _REJECT_STREAK_LIMIT:
                        remaining[i] = rem
                        pool = self._switch_to_enum(i)
                        break
                    # Consume the buffer as one contiguous slice and
                    # filter already-emitted entries in bulk — each
                    # buffered draw is accepted or rejected exactly as
                    # in the per-sample loop, minus the per-draw call
                    # overhead.  (The freshness check is inlined:
                    # `_ensure_buffer` is one call per source per batch
                    # otherwise.)
                    buf = node.sample_buffer
                    if buf is None or node.buffer_pos >= len(buf):
                        fill(node, cost)
                        buf = node.sample_buffer
                    if not buf:
                        entry = sampler._draw_from_subtree(node, cost)
                        if entry.item_id in self._seen_for(i):
                            cost.charge_rejection()
                            streak += 1
                            continue
                        chunk = (entry,)
                    else:
                        bpos = node.buffer_pos
                        take = min(share, len(buf) - bpos)
                        chunk = buf[bpos:bpos + take]
                        node.buffer_pos = bpos + take
                        # Same-fill slices are provably duplicate-free
                        # (see `_src_epoch`): record the chunk for lazy
                        # seen-set materialisation and move on without
                        # per-entry membership tests.
                        ep = node.fill_epoch
                        prev = src_epoch.get(i)
                        if prev is None or prev == ep:
                            src_epoch[i] = ep
                            chunks = pending.get(i)
                            if chunks is None:
                                chunks = pending[i] = []
                            chunks.append(chunk)
                            out += chunk
                            streak = 0
                            rem -= take
                            share -= take
                            continue
                        src_epoch[i] = -1
                    seen = self._seen_for(i)
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
                    share -= got
                else:
                    remaining[i] = rem
                    continue
            for entry in islice(pool, share):
                remaining[i] -= 1
                out.append(entry)
        self._total -= len(out)
        # Batch draws bypass the Fenwick tree entirely; drop it so the
        # next single draw rebuilds from the updated remaining counts.
        self._fen = None
        # The per-source fills above come out grouped by source; a
        # final shuffle restores exchangeability so the batch is a
        # uniformly ordered WOR sample sequence.
        order = self._np_rng.permutation(len(out)).tolist()
        out = [out[j] for j in order]
        self._cost.charge_sample(len(out))
        return out

    def _allocate(self, b: int) -> list[tuple[int, int]]:
        """Split a batch of b over sources.

        The joint distribution of per-source draw counts under b
        uniform WOR draws from the union of disjoint pools is
        multivariate hypergeometric over the remaining counts; numpy
        samples it directly.
        """
        if self._np_rng is None:
            # Seeded from the stream rng, created only when the first
            # batch is requested, so single-draw streams consume the
            # stream rng exactly as before.
            self._np_rng = np.random.default_rng(self._rng.getrandbits(64))
        shares = self._np_rng.multivariate_hypergeometric(
            self._remaining, b, method="count")
        nz = np.flatnonzero(shares)
        return list(zip(nz.tolist(), shares[nz].tolist()))

    def _switch_to_enum(self, i: int) -> Iterator[Entry]:
        """Enumerate source i's unseen remainder (same charges as the
        single-draw enumeration fallback in ``_draw_checked``)."""
        sampler = self._sampler
        node = self._nodes[i]
        seen = self._seen_for(i)
        pool = [e for e in _iter_subtree_entries(node)
                if e.item_id not in seen]
        sampler._charge_subtree_scan(node, self._cost)
        self._cost.charge_entries(self._counts[i])
        it = streaming_shuffle(pool, self._rng)
        self._enum_pools[i] = it
        return it
