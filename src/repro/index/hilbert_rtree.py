"""Hilbert R-tree: an R-tree whose entries are ordered by Hilbert key.

The RS-tree sampler (Section 3.1 of the paper) is built "based on a single
Hilbert R-tree over P".  Ordering leaves along the Hilbert curve gives the
tree two properties the sampler exploits:

* leaves are laid out in curve order, so node ids (= block ids) of a range
  scan are nearly consecutive — sequential I/O under the cost model;
* insertion placement is decided by key comparison instead of the
  enlargement heuristic, so updates keep the ordering (and the per-node
  sample buffers stay attached to geographically coherent subtrees).

Internal nodes carry ``lhv`` — the largest Hilbert value in their subtree —
which guides insertions exactly as in Kamel & Faloutsos' original design.
Splits divide members in key order (order-preserving 1-to-2 split).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.geometry import Rect
from repro.errors import IndexError_
from repro.index.hilbert import HilbertEncoder
from repro.index.rtree import Entry, Node, RTree, _even_chunks

__all__ = ["HilbertRTree"]


class HilbertRTree(RTree):
    """R-tree ordered by the Hilbert curve position of each point.

    ``bounds`` fixes the grid the Hilbert encoder snaps points onto.  Points
    inserted outside the bounds are clamped onto the boundary cells — fine
    for sampling correctness (keys only affect placement), though heavy
    out-of-bounds insertion degrades clustering.
    """

    def __init__(self, dims: int, bounds: Rect, bits: int = 16,
                 leaf_capacity: int = 64, branch_capacity: int = 16):
        super().__init__(dims, leaf_capacity=leaf_capacity,
                         branch_capacity=branch_capacity)
        if bounds.dim != dims:
            raise IndexError_(
                f"bounds are {bounds.dim}-d but the tree is {dims}-d")
        self.encoder = HilbertEncoder(bounds, bits=bits)

    # ------------------------------------------------------------------
    # key helpers
    # ------------------------------------------------------------------

    def entry_key(self, entry: Entry) -> int:
        """Hilbert key of a leaf entry's point."""
        return self.encoder.key(entry.point)

    # ------------------------------------------------------------------
    # bulk load: chunk in key order instead of STR tiling
    # ------------------------------------------------------------------

    def bulk_load(self, items: Iterable[tuple[int, Sequence[float]]]) -> None:
        """Sort by Hilbert key, chunk into even leaves, set lhv.

        Columnar: the entries' points go into one ``(n, dims)`` array
        whose Hilbert keys are encoded in one batch; a stable argsort
        orders the entries (equal keys keep input order), ``reduceat``
        gives every leaf's MBR, and each leaf's ``lhv`` is its last
        sorted key.  Internal levels chunk the leaves in that order.
        """
        entries = [Entry(item_id, tuple(map(float, point)))
                   for item_id, point in items]
        points = [e.point for e in entries]
        n = len(entries)
        dims = self.dims
        try:
            coords = np.array(points, dtype=np.float64)
        except ValueError:
            coords = None
        if n and (coords is None or coords.shape != (n, dims)):
            raise IndexError_("bulk-load points have wrong dimensionality")
        self._bump_version()
        self._next_node_id = 0
        self.size = n
        if not n:
            self.root = None
            self.height = 0
            return
        keys = self.encoder.keys(coords)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        coords = coords[order]
        entries = [entries[i] for i in order.tolist()]
        leaves = math.ceil(n / self.leaf_capacity)
        base, extra = divmod(n, leaves)
        sizes = np.full(leaves, base)
        sizes[:extra] += 1
        ends = np.cumsum(sizes)
        starts = (ends - sizes).tolist()
        los = np.minimum.reduceat(coords, starts).tolist()
        his = np.maximum.reduceat(coords, starts).tolist()
        level: list[Node] = []
        for start, end, lo, hi, lhv in zip(starts, ends.tolist(), los, his,
                                           keys[ends - 1].tolist()):
            leaf = Node(self._new_node_id(), Rect(lo, hi),
                        entries=entries[start:end])
            leaf.lhv = lhv
            level.append(leaf)
        self._stack_levels(level)

    def _partition_nodes(self, nodes: list[Node]) -> list[list[Node]]:
        # Bulk loading creates nodes in key order already; preserve it.
        return _even_chunks(nodes, self.branch_capacity)

    def _new_internal(self, children: list[Node]) -> Node:
        node = super()._new_internal(children)
        node.lhv = max(c.lhv for c in children)
        return node

    # ------------------------------------------------------------------
    # shape introspection (observability gauges, EXPLAIN)
    # ------------------------------------------------------------------

    def shape(self) -> dict[str, int]:
        """Structural summary: height, node/leaf counts, entries.

        One full traversal — cheap next to a build, and what the
        metrics gauges and the EXPLAIN report publish; node count is
        the block footprint under the one-node-one-block convention.
        """
        nodes = leaves = 0
        if self.root is not None:
            stack = [self.root]
            while stack:
                node = stack.pop()
                nodes += 1
                if node.is_leaf:
                    leaves += 1
                else:
                    stack.extend(node.children or [])
        return {"height": self.height, "nodes": nodes,
                "leaves": leaves, "entries": len(self)}

    # ------------------------------------------------------------------
    # dynamic updates: key-guided placement, order-preserving splits
    # ------------------------------------------------------------------

    def insert(self, item_id: int, point: Sequence[float]) -> None:
        """Key-guided insert (sets lhv on the empty-tree fast path)."""
        was_empty = self.root is None
        super().insert(item_id, point)
        if was_empty and self.root is not None:
            # The empty-tree fast path skips _choose_leaf, so set lhv here.
            self.root.lhv = self.encoder.key(
                tuple(float(c) for c in point))

    def _choose_leaf(self, entry: Entry) -> Node:
        """Descend to the child with the smallest ``lhv >= key``."""
        key = self.entry_key(entry)
        node = self.root
        assert node is not None
        while not node.is_leaf:
            children = node.children or []
            chosen = None
            for child in children:
                if child.lhv >= key:
                    chosen = child
                    break
            node = chosen if chosen is not None else children[-1]
        if node.lhv < key:
            # The new maximum propagates on the way up in _adjust_upward;
            # set it here for the leaf itself.
            self._bump_lhv_upward(node, key)
        return node

    def _bump_lhv_upward(self, node: Node, key: int) -> None:
        n: Node | None = node
        while n is not None and n.lhv < key:
            n.lhv = key
            n = n.parent

    def _split_members(self, node: Node) -> Node:
        """Order-preserving split: first half stays, second half moves."""
        if node.is_leaf:
            members = sorted(node.entries or [], key=self.entry_key)
            half = len(members) // 2
            node.entries = members[:half]
            sibling = self._new_leaf(members[half:])
        else:
            members = sorted(node.children or [], key=lambda c: c.lhv)
            half = len(members) // 2
            node.children = members[:half]
            sibling = self._new_internal(members[half:])
        node.recompute_mbr()
        node.recompute_count()
        sibling.recompute_count()
        if node.is_leaf:
            node.lhv = max((self.entry_key(e) for e in node.entries or []),
                           default=0)
            sibling.lhv = max(
                (self.entry_key(e) for e in sibling.entries or []),
                default=0)
        else:
            # The sibling's lhv came with _new_internal.
            node.lhv = max((c.lhv for c in node.children or []), default=0)
        self._invalidate_buffer(node)
        self._invalidate_buffer(sibling)
        return sibling

    def _split(self, node: Node) -> None:
        sibling = self._split_members(node)
        parent = node.parent
        if parent is None:
            new_root = self._new_internal([node, sibling])
            self.root = new_root
            self.root.parent = None
            self.height += 1
            return
        sibling.parent = parent
        # Keep the parent's children in lhv order so descents stay correct.
        children = parent.children or []
        idx = children.index(node)
        children.insert(idx + 1, sibling)
        if parent.members() > self.branch_capacity:
            self._split(parent)

    def validate(self) -> None:
        """Base R-tree invariants plus lhv domination."""
        super().validate()
        if self.root is not None:
            self._validate_lhv(self.root)

    def _validate_lhv(self, node: Node) -> int:
        """lhv must dominate every key below (it may be stale-high after
        deletions, which only affects insertion placement, not queries)."""
        if node.is_leaf:
            actual = max((self.entry_key(e) for e in node.entries or []),
                         default=0)
        else:
            actual = max(self._validate_lhv(c) for c in node.children or [])
        if node.lhv < actual:
            raise IndexError_(
                f"node {node.node_id} lhv {node.lhv} < max key {actual}")
        return actual
