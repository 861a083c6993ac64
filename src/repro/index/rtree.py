"""A classic R-tree with per-node subtree counts.

This is the substrate under every sampler in the paper:

* **RandomPath** (Olken) needs per-node counts to set descent
  probabilities;
* the **LS-tree** builds one of these per sampling level;
* the **RS-tree** extends the Hilbert variant with per-node sample buffers.

The tree stores point entries ``(item_id, point)``.  It supports STR bulk
loading, dynamic insert/delete (quadratic split, condense-and-reinsert on
underflow), range reporting, counting, and **canonical set** queries — the
decomposition of a query range into maximal fully-contained nodes plus
residual points from partially-overlapping leaves, written ``R_Q`` in the
paper.

Every traversal optionally charges a :class:`repro.index.cost.CostCounter`
so experiments can report device-independent cost; node ids double as block
ids (bulk loading assigns them in layout order, which is what makes range
scans "sequential" under the cost model).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.blocks import ColumnBlock
from repro.core.geometry import Point, Rect
from repro.errors import IndexError_
from repro.index.cost import CostCounter
from repro.obs import NULL_OBS, Observability

__all__ = ["Entry", "Node", "RTree", "CanonicalSet"]

#: Minimum fill fraction before a node is condensed on delete.
MIN_FILL = 0.4

#: Canonical sets cached per tree (LRU beyond this); 0 disables the
#: cache.
CANONICAL_CACHE_SIZE = 128


@dataclass(frozen=True, slots=True)
class Entry:
    """A leaf entry: an item id and its point key."""

    item_id: int
    point: Point


class Node:
    """An R-tree node.

    Leaves hold ``entries`` (a list of :class:`Entry`); internal nodes hold
    ``children``.  ``count`` is the number of data points in the subtree —
    the quantity Olken-style sampling depends on.  ``sample_buffer`` and
    ``buffer_pos`` belong to the RS-tree sampler (a pre-shuffled sample of
    the subtree and a consumption cursor); the plain R-tree leaves them
    ``None``/0.

    ``block`` is a leaf's packed columnar twin (see
    :mod:`repro.core.blocks`): built lazily on the first scan, it lets
    rect filters run one pass over contiguous typed arrays instead of N
    per-Entry tuple comparisons.  The Entry list stays the write-side
    source of truth; every mutation drops the block alongside the sample
    buffer and the next scan rebuilds it.
    """

    __slots__ = ("node_id", "mbr", "children", "entries", "count", "parent",
                 "lhv", "sample_buffer", "buffer_pos", "fill_epoch",
                 "block")

    def __init__(self, node_id: int, mbr: Rect,
                 children: "list[Node] | None" = None,
                 entries: list[Entry] | None = None):
        if (children is None) == (entries is None):
            raise IndexError_("node must have children xor entries")
        self.node_id = node_id
        self.mbr = mbr
        self.children = children
        self.entries = entries
        self.parent: "Node | None" = None
        self.lhv = 0  # largest Hilbert value (Hilbert R-tree only)
        self.sample_buffer: list[Entry] | None = None
        self.buffer_pos = 0
        # Bumped on every buffer (re)fill; streams compare epochs to
        # prove a buffer slice cannot repeat an already-drawn entry
        # (duplicates only arise across refills of the same node).
        self.fill_epoch = 0
        self.block: ColumnBlock | None = None
        if entries is not None:
            self.count = len(entries)
        else:
            self.count = sum(c.count for c in children)  # type: ignore[union-attr]
            for c in children:  # type: ignore[union-attr]
                c.parent = self

    @property
    def is_leaf(self) -> bool:
        """Whether this node holds entries (vs children)."""
        return self.entries is not None

    def members(self) -> int:
        """Number of direct members (entries or children)."""
        if self.entries is not None:
            return len(self.entries)
        return len(self.children)  # type: ignore[arg-type]

    def recompute_mbr(self) -> None:
        """Recompute the MBR exactly from current members."""
        if self.entries is not None:
            self.mbr = Rect.bounding([e.point for e in self.entries])
        else:
            self.mbr = Rect.union_all([c.mbr for c in self.children])  # type: ignore[arg-type]

    def recompute_count(self) -> None:
        """Recompute the subtree count from current members."""
        if self.entries is not None:
            self.count = len(self.entries)
        else:
            self.count = sum(c.count for c in self.children)  # type: ignore[union-attr]

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return (f"<Node {self.node_id} {kind} count={self.count} "
                f"members={self.members()}>")


@dataclass(slots=True)
class CanonicalSet:
    """The canonical decomposition ``R_Q`` of a range query.

    ``nodes`` are maximal nodes whose MBR lies fully inside the query;
    ``residual`` are the individual in-range entries found in
    partially-overlapping leaves.  Together they cover ``P ∩ Q`` exactly
    once.
    """

    query: Rect
    nodes: list[Node]
    residual: list[Entry]

    @property
    def count(self) -> int:
        """Exact ``q = |P ∩ Q|``, available without scanning subtrees."""
        return sum(n.count for n in self.nodes) + len(self.residual)


class RTree:
    """R-tree over point data with subtree counts.

    Parameters
    ----------
    dims:
        Dimensionality of stored points.
    leaf_capacity / branch_capacity:
        Maximum entries in a leaf / children of an internal node.  These
        model disk-block fanout; the benchmarks use the defaults.

    A node below ``MIN_FILL`` of its capacity is condensed on delete.
    The canonical sets of the last ``CANONICAL_CACHE_SIZE`` query rects
    are cached (see :meth:`canonical_set`).
    """

    def __init__(self, dims: int, leaf_capacity: int = 64,
                 branch_capacity: int = 16):
        if dims < 1:
            raise IndexError_("dims must be >= 1")
        if leaf_capacity < 2 or branch_capacity < 2:
            raise IndexError_("capacities must be >= 2")
        self.dims = dims
        self.leaf_capacity = leaf_capacity
        self.branch_capacity = branch_capacity
        self.min_leaf = max(1, int(leaf_capacity * MIN_FILL))
        self.min_branch = max(1, int(branch_capacity * MIN_FILL))
        self.cost = CostCounter()
        self._next_node_id = 0
        self.root: Node | None = None
        self.size = 0
        self.height = 0
        #: Observability sink (datasets rebind it); cache hit/miss
        #: counters flow here when a live registry is attached.
        self.obs: Observability = NULL_OBS
        #: Structural version: bumped by every insert/delete/bulk load.
        #: Cached canonical sets are valid only for the version they
        #: were computed at.
        self.version = 0
        # query rect -> (version at compute time, canonical set)
        self._canon_cache: "OrderedDict[Rect, tuple[int, CanonicalSet]]" \
            = OrderedDict()
        self.canon_hits = 0
        self.canon_misses = 0
        #: Vectorised leaf-scan tallies: whole-block rect filters run
        #: and entries they admitted.  EXPLAIN ANALYZE deltas these per
        #: query (see ``QueryExecutor.explain_report``).
        self.vector_filters = 0
        self.vector_filter_hits = 0
        #: Leaf blocks packed since construction (storm.blocks.leaf_builds).
        self.leaf_blocks_built = 0

    def bind_observability(self, obs: Observability) -> None:
        """Attach a live registry/tracer pair (datasets do this)."""
        self.obs = obs

    def _bump_version(self) -> None:
        """Invalidate cached canonical sets after a structural change."""
        self.version += 1
        if self._canon_cache:
            self._canon_cache.clear()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _new_node_id(self) -> int:
        nid = self._next_node_id
        self._next_node_id += 1
        return nid

    def _new_leaf(self, entries: list[Entry]) -> Node:
        return Node(self._new_node_id(),
                    Rect.bounding([e.point for e in entries]),
                    entries=entries)

    def _new_internal(self, children: list[Node]) -> Node:
        return Node(self._new_node_id(),
                    Rect.union_all([c.mbr for c in children]),
                    children=children)

    def bulk_load(self, items: Iterable[tuple[int, Sequence[float]]]) -> None:
        """Build the tree from scratch with STR packing.

        ``items`` is an iterable of ``(item_id, point)``.  Replaces any
        existing contents.
        """
        entries = [Entry(item_id, tuple(map(float, point)))
                   for item_id, point in items]
        dims = self.dims
        for e in entries:
            if len(e.point) != dims:
                raise IndexError_(
                    f"point {e.point} has wrong dimensionality")
        self._bump_version()
        self._next_node_id = 0
        self.size = len(entries)
        if not entries:
            self.root = None
            self.height = 0
            return
        self._stack_levels([self._new_leaf(g)
                            for g in self._partition_entries(entries)])

    def _stack_levels(self, level: list[Node]) -> None:
        """Build the internal levels over bulk-loaded leaves, up to
        the root."""
        self.height = 1
        while len(level) > 1:
            level = [self._new_internal(g)
                     for g in self._partition_nodes(level)]
            self.height += 1
        self.root = level[0]
        self.root.parent = None

    def _sort_key_entry(self, axis: int) -> Callable[[Entry], float]:
        return lambda e: e.point[axis]

    def _partition_entries(self, entries: list[Entry]) -> list[list[Entry]]:
        """Sort-Tile-Recursive grouping of entries into leaf pages."""
        return _str_partition(entries, self.leaf_capacity, self.dims,
                              key=lambda e, ax: e.point[ax])

    def _partition_nodes(self, nodes: list[Node]) -> list[list[Node]]:
        """STR grouping of nodes (by MBR center) into parent pages."""
        return _str_partition(nodes, self.branch_capacity, self.dims,
                              key=lambda n, ax: n.mbr.center[ax])

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------

    def insert(self, item_id: int, point: Sequence[float]) -> None:
        """Insert one point entry, splitting on overflow."""
        entry = Entry(item_id, tuple(float(c) for c in point))
        if len(entry.point) != self.dims:
            raise IndexError_("point has wrong dimensionality")
        self._bump_version()
        if self.root is None:
            self.root = self._new_leaf([entry])
            self.height = 1
            self.size = 1
            return
        leaf = self._choose_leaf(entry)
        leaf.entries.append(entry)  # type: ignore[union-attr]
        self._adjust_upward(leaf, entry.point)
        if leaf.members() > self.leaf_capacity:
            self._split(leaf)
        self.size += 1

    def _choose_leaf(self, entry: Entry) -> Node:
        """Descend by minimum MBR enlargement (ties: minimum area)."""
        node = self.root
        assert node is not None
        point_rect = Rect.from_point(entry.point)
        while not node.is_leaf:
            best = None
            best_key = None
            for child in node.children:  # type: ignore[union-attr]
                key = (child.mbr.enlargement(point_rect), child.mbr.area())
                if best_key is None or key < best_key:
                    best, best_key = child, key
            node = best  # type: ignore[assignment]
        return node

    def _adjust_upward(self, node: Node, point: Point) -> None:
        """Extend MBRs and bump counts from ``node`` up to the root."""
        n: Node | None = node
        while n is not None:
            n.mbr = n.mbr.union_point(point)
            n.count += 1
            self._invalidate_buffer(n)
            n = n.parent

    def _invalidate_buffer(self, node: Node) -> None:
        """Hook for samplers that cache per-node state (RS-tree)."""
        node.sample_buffer = None
        node.buffer_pos = 0
        node.block = None

    def _leaf_block(self, node: Node) -> ColumnBlock:
        """The leaf's packed columnar twin, building it on first scan."""
        block = node.block
        if block is None:
            block = node.block = ColumnBlock.from_entries(
                node.entries or [], self.dims)
            self.leaf_blocks_built += 1
            registry = self.obs.registry
            if registry.enabled:
                registry.counter("storm.blocks.leaf_builds").inc()
        return block

    def _scan_leaf(self, node: Node, query: Rect) -> list[int]:
        """Vectorised partial-leaf filter: positions of in-range entries."""
        hits = self._leaf_block(node).indices_in(query.lo, query.hi)
        self.vector_filters += 1
        self.vector_filter_hits += len(hits)
        return hits

    def _split(self, node: Node) -> None:
        """Split an overflowing node and propagate upward."""
        sibling = self._split_members(node)
        parent = node.parent
        if parent is None:
            new_root = self._new_internal([node, sibling])
            self.root = new_root
            self.root.parent = None
            self.height += 1
            return
        sibling.parent = parent
        parent.children.append(sibling)  # type: ignore[union-attr]
        # node/sibling mbrs were recomputed in _split_members; the parent
        # MBR is unchanged (same underlying points), counts unchanged.
        if parent.members() > self.branch_capacity:
            self._split(parent)

    def _split_members(self, node: Node) -> Node:
        """Quadratic split: returns the new sibling; mutates ``node``."""
        if node.is_leaf:
            items = node.entries
            rect_of = lambda e: Rect.from_point(e.point)  # noqa: E731
            minimum = self.min_leaf
        else:
            items = node.children
            rect_of = lambda n: n.mbr  # noqa: E731
            minimum = self.min_branch
        assert items is not None
        group_a, group_b = _quadratic_split(items, rect_of, minimum)
        if node.is_leaf:
            node.entries = group_a
            sibling = self._new_leaf(group_b)
        else:
            node.children = group_a
            sibling = self._new_internal(group_b)
            for c in group_b:
                c.parent = sibling
        node.recompute_mbr()
        node.recompute_count()
        sibling.recompute_count()
        self._invalidate_buffer(node)
        self._invalidate_buffer(sibling)
        return sibling

    def delete(self, item_id: int, point: Sequence[float]) -> bool:
        """Delete the entry matching ``(item_id, point)``.

        Returns ``True`` when found and removed; underflowing nodes along
        the path are condensed and their entries reinserted (the classic
        Guttman condense step).
        """
        pt = tuple(float(c) for c in point)
        if self.root is None:
            return False
        leaf = self._find_leaf(self.root, item_id, pt)
        if leaf is None:
            return False
        self._bump_version()
        leaf.entries = [e for e in leaf.entries  # type: ignore[union-attr]
                        if not (e.item_id == item_id and e.point == pt)]
        self.size -= 1
        self._condense(leaf)
        self._shrink_root()
        return True

    def _find_leaf(self, node: Node, item_id: int, point: Point
                   ) -> Node | None:
        if not node.mbr.contains_point(point):
            return None
        if node.is_leaf:
            for e in node.entries:  # type: ignore[union-attr]
                if e.item_id == item_id and e.point == point:
                    return node
            return None
        for child in node.children:  # type: ignore[union-attr]
            found = self._find_leaf(child, item_id, point)
            if found is not None:
                return found
        return None

    def _condense(self, leaf: Node) -> None:
        orphans: list[Node] = []
        node: Node | None = leaf
        while node is not None:
            parent = node.parent
            minimum = self.min_leaf if node.is_leaf else self.min_branch
            if parent is not None and node.members() < minimum:
                parent.children.remove(node)  # type: ignore[union-attr]
                node.parent = None
                orphans.append(node)
            elif node.members() > 0:
                node.recompute_mbr()
                node.recompute_count()
                self._invalidate_buffer(node)
            else:
                # Empty root: nothing left to recompute.
                self._invalidate_buffer(node)
                node.count = 0
            node = parent
        for orphan in orphans:
            for entry in _iter_subtree_entries(orphan):
                # Reinsert without size bookkeeping (size already reflects
                # the data set; these entries were never logically removed).
                self.size -= 1
                self.insert(entry.item_id, entry.point)

    def _shrink_root(self) -> None:
        while (self.root is not None and not self.root.is_leaf
               and self.root.members() == 1):
            self.root = self.root.children[0]  # type: ignore[index]
            self.root.parent = None
            self.height -= 1
        if self.root is not None and self.root.is_leaf \
                and self.root.members() == 0:
            self.root = None
            self.height = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_query(self, query: Rect, cost: CostCounter | None = None
                    ) -> list[Entry]:
        """Report every entry inside ``query`` (full range reporting)."""
        cost = cost if cost is not None else self.cost
        result: list[Entry] = []
        if self.root is None:
            return result
        stack = [self.root]
        while stack:
            node = stack.pop()
            cost.charge_node(node.node_id)
            if node.is_leaf:
                cost.charge_entries(node.members())
                entries = node.entries
                hits = self._scan_leaf(node, query)
                result.extend(entries[i] for i in hits)  # type: ignore[index]
                cost.charge_report(len(hits))
            else:
                # Push in reverse so children pop in layout order — range
                # scans then read consecutive blocks (sequential I/O).
                for child in reversed(node.children):  # type: ignore[arg-type]
                    if query.intersects(child.mbr):
                        stack.append(child)
        return result

    def range_count(self, query: Rect, cost: CostCounter | None = None
                    ) -> int:
        """Exact count of points in ``query`` using subtree counts."""
        cost = cost if cost is not None else self.cost
        if self.root is None:
            return 0
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            cost.charge_node(node.node_id)
            if query.contains(node.mbr):
                total += node.count
            elif node.is_leaf:
                cost.charge_entries(node.members())
                count = self._leaf_block(node).count_in(query.lo, query.hi)
                self.vector_filters += 1
                self.vector_filter_hits += count
                total += count
            else:
                # Push in reverse so children pop in layout order — range
                # scans then read consecutive blocks (sequential I/O).
                for child in reversed(node.children):  # type: ignore[arg-type]
                    if query.intersects(child.mbr):
                        stack.append(child)
        return total

    def canonical_set(self, query: Rect, cost: CostCounter | None = None
                      ) -> CanonicalSet:
        """Decompose ``query`` into maximal contained nodes + residuals.

        This is the ``R_Q`` of the paper: the lazy exploration stops at any
        node fully inside the query, so the decomposition touches
        ``O(r(N))`` nodes instead of the whole in-range subtree.

        Results are cached per query rect (LRU, ``CANONICAL_CACHE_SIZE``
        entries) and keyed to the tree ``version``, so a repeated or
        refined interactive query skips the walk entirely; a hit charges
        one cached read instead of the node reads of the walk.  Any
        structural change (insert/delete/bulk load) bumps ``version``,
        which invalidates every cached entry at once.  Callers
        must not mutate the returned node/residual lists.
        """
        cost = cost if cost is not None else self.cost
        cached = self._canon_cache.get(query)
        if cached is not None and cached[0] == self.version:
            self._canon_cache.move_to_end(query)
            self.canon_hits += 1
            cost.charge_cached()
            registry = self.obs.registry
            if registry.enabled:
                registry.counter("storm.cache.canonical.hits").inc()
            return cached[1]
        self.canon_misses += 1
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.cache.canonical.misses").inc()
        result = self._compute_canonical_set(query, cost)
        if CANONICAL_CACHE_SIZE > 0:
            self._canon_cache[query] = (self.version, result)
            self._canon_cache.move_to_end(query)
            while len(self._canon_cache) > CANONICAL_CACHE_SIZE:
                self._canon_cache.popitem(last=False)
        return result

    def _compute_canonical_set(self, query: Rect, cost: CostCounter
                               ) -> CanonicalSet:
        nodes: list[Node] = []
        residual: list[Entry] = []
        if self.root is None:
            return CanonicalSet(query, nodes, residual)
        stack = [self.root]
        while stack:
            node = stack.pop()
            cost.charge_node(node.node_id)
            if query.contains(node.mbr):
                nodes.append(node)
            elif node.is_leaf:
                cost.charge_entries(node.members())
                entries = node.entries
                residual.extend(
                    entries[i]  # type: ignore[index]
                    for i in self._scan_leaf(node, query))
            else:
                # Push in reverse so children pop in layout order — range
                # scans then read consecutive blocks (sequential I/O).
                for child in reversed(node.children):  # type: ignore[arg-type]
                    if query.intersects(child.mbr):
                        stack.append(child)
        return CanonicalSet(query, nodes, residual)

    # ------------------------------------------------------------------
    # iteration & verification
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def iter_entries(self) -> Iterator[Entry]:
        """Iterate every entry in the tree (arbitrary order)."""
        if self.root is None:
            return
        yield from _iter_subtree_entries(self.root)

    @property
    def bounds(self) -> Rect | None:
        """The root MBR, or None when empty."""
        return None if self.root is None else self.root.mbr

    def leaf_block_stats(self) -> tuple[int, int]:
        """(total leaves, leaves currently holding a packed block).

        EXPLAIN ANALYZE reports this as the leaf storage format:
        packed leaves scan columnar, the rest scan their Entry lists
        until a query touches them.
        """
        leaves = packed = 0
        if self.root is None:
            return 0, 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves += 1
                if node.block is not None:
                    packed += 1
            else:
                stack.extend(node.children)  # type: ignore[arg-type]
        return leaves, packed

    def node_count(self) -> int:
        """Total number of nodes (for space accounting)."""
        if self.root is None:
            return 0
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += 1
            if not node.is_leaf:
                stack.extend(node.children)  # type: ignore[arg-type]
        return total

    def validate(self) -> None:
        """Check every structural invariant; raises on violation.

        Used by tests (including property-based tests on random
        insert/delete sequences).
        """
        if self.root is None:
            if self.size != 0:
                raise IndexError_("empty tree with nonzero size")
            return
        if self.root.parent is not None:
            raise IndexError_("root has a parent")
        total, depth = self._validate_node(self.root, is_root=True)
        if total != self.size:
            raise IndexError_(f"size {self.size} != counted {total}")
        if depth != self.height:
            raise IndexError_(f"height {self.height} != measured {depth}")

    def _validate_node(self, node: Node, is_root: bool = False
                       ) -> tuple[int, int]:
        if node.is_leaf:
            entries = node.entries or []
            if not is_root and not (
                    self.min_leaf <= len(entries) <= self.leaf_capacity):
                raise IndexError_(
                    f"leaf {node.node_id} has {len(entries)} entries")
            for e in entries:
                if not node.mbr.contains_point(e.point):
                    raise IndexError_(
                        f"leaf {node.node_id} MBR misses {e.point}")
            if node.count != len(entries):
                raise IndexError_(f"leaf {node.node_id} count wrong")
            return len(entries), 1
        children = node.children or []
        if not is_root and not (
                self.min_branch <= len(children) <= self.branch_capacity):
            raise IndexError_(
                f"node {node.node_id} has {len(children)} children")
        if is_root and len(children) < 2:
            raise IndexError_("internal root with < 2 children")
        total = 0
        depths = set()
        for child in children:
            if child.parent is not node:
                raise IndexError_(
                    f"child {child.node_id} has wrong parent pointer")
            if not node.mbr.contains(child.mbr):
                raise IndexError_(
                    f"node {node.node_id} MBR misses child "
                    f"{child.node_id}")
            c_total, c_depth = self._validate_node(child)
            total += c_total
            depths.add(c_depth)
        if len(depths) != 1:
            raise IndexError_(f"node {node.node_id} unbalanced: {depths}")
        if node.count != total:
            raise IndexError_(
                f"node {node.node_id} count {node.count} != {total}")
        return total, depths.pop() + 1


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _iter_subtree_entries(node: Node) -> Iterator[Entry]:
    stack = [node]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            yield from n.entries  # type: ignore[misc]
        else:
            stack.extend(n.children)  # type: ignore[arg-type]


def _even_chunks(items: list, capacity: int) -> list[list]:
    """Split into ≤capacity chunks whose sizes differ by at most one.

    Balancing (instead of taking full chunks and a small remainder) keeps
    every bulk-loaded node at least half full, so the min-fill invariant
    holds from the start.
    """
    n = len(items)
    if n == 0:
        return []
    chunks = math.ceil(n / capacity)
    base, extra = divmod(n, chunks)
    out: list[list] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        out.append(items[start:start + size])
        start += size
    return out


def _str_partition(items: list, capacity: int, dims: int,
                   key: Callable[[object, int], float]) -> list[list]:
    """Sort-Tile-Recursive grouping of ``items`` into pages of ``capacity``.

    Generic over entries and nodes via the ``key(item, axis)`` accessor.
    """
    def recurse(chunk: list, axis: int) -> list[list]:
        n = len(chunk)
        if n <= capacity:
            return [chunk]
        if axis >= dims - 1:
            chunk.sort(key=lambda it: key(it, axis))
            return _even_chunks(chunk, capacity)
        pages = math.ceil(n / capacity)
        slabs = math.ceil(pages ** (1.0 / (dims - axis)))
        chunk.sort(key=lambda it: key(it, axis))
        groups: list[list] = []
        for slab in _even_chunks(chunk, math.ceil(n / slabs)):
            groups.extend(recurse(slab, axis + 1))
        return groups

    return recurse(list(items), 0)


def _quadratic_split(items: list, rect_of: Callable, minimum: int
                     ) -> tuple[list, list]:
    """Guttman's quadratic split of an overflowing member list.

    ``minimum`` is the fill floor each resulting group must reach (the
    tree's ``min_leaf``/``min_branch``), enforced by force-assignment.
    """
    rects = [rect_of(it) for it in items]
    n = len(items)
    # Pick the seed pair wasting the most area together.
    worst = -math.inf
    seed_a = seed_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            waste = (rects[i].union(rects[j]).area()
                     - rects[i].area() - rects[j].area())
            if waste > worst:
                worst = waste
                seed_a, seed_b = i, j
    group_a = [items[seed_a]]
    group_b = [items[seed_b]]
    mbr_a = rects[seed_a]
    mbr_b = rects[seed_b]
    remaining = [i for i in range(n) if i not in (seed_a, seed_b)]
    min_fill = min(minimum, n // 2)
    for idx in remaining:
        # Force-assign when one group must take everything left to reach
        # its minimum fill.
        left = len(remaining) - (len(group_a) + len(group_b) - 2)
        if len(group_a) + left <= min_fill:
            group_a.append(items[idx])
            mbr_a = mbr_a.union(rects[idx])
            continue
        if len(group_b) + left <= min_fill:
            group_b.append(items[idx])
            mbr_b = mbr_b.union(rects[idx])
            continue
        grow_a = mbr_a.union(rects[idx]).area() - mbr_a.area()
        grow_b = mbr_b.union(rects[idx]).area() - mbr_b.area()
        if grow_a < grow_b or (grow_a == grow_b
                               and len(group_a) <= len(group_b)):
            group_a.append(items[idx])
            mbr_a = mbr_a.union(rects[idx])
        else:
            group_b.append(items[idx])
            mbr_b = mbr_b.union(rects[idx])
    return group_a, group_b
