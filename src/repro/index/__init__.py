"""Spatial indexing substrate (the paper's ST-Indexing module).

Provides the R-tree family every sampler is built on:

``repro.index.rtree``
    A classic R-tree with per-node subtree counts, STR bulk loading,
    dynamic insert/delete, range reporting and canonical-set queries.
``repro.index.hilbert``
    A d-dimensional Hilbert curve codec (Skilling's transpose algorithm).
``repro.index.hilbert_rtree``
    A Hilbert-ordered R-tree (the backbone of the RS-tree sampler).
``repro.index.cost``
    Device-independent cost accounting: node/block reads, leaf scans, and a
    simulated-time model so experiments can be reported at paper scale.
"""

from repro.index.cost import CostCounter, CostModel
from repro.index.hilbert import HilbertEncoder, hilbert_index, hilbert_point
from repro.index.hilbert_rtree import HilbertRTree
from repro.index.rtree import Entry, Node, RTree

__all__ = [
    "CostCounter",
    "CostModel",
    "Entry",
    "HilbertEncoder",
    "HilbertRTree",
    "Node",
    "RTree",
    "hilbert_index",
    "hilbert_point",
]
