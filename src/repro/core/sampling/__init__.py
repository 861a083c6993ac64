"""Spatial online sampling (Definition 1 of the paper).

Given N points stored in an index and a range query Q, each sampler in this
package returns a *stream* of uniformly random points from ``P ∩ Q``,
one at a time, until the consumer stops — k is never known in advance.
Each sampler implements the without-replacement stream; the
with-replacement stream is the same for all of them
(:meth:`SpatialSampler.sample_stream_with_replacement`): that stream
plus a repeat coin.

Implementations, in the order the paper introduces them:

``QueryFirstSampler``
    Materialise ``P ∩ Q`` with a full range report, then shuffle.
    Cost ``O(r(N) + q)`` before the first sample.  (The paper's
    "RangeReport" baseline in Figure 3a.)
``SampleFirstSampler``
    Repeatedly draw uniformly from all of P and keep the hits.
    Expected ``O(N/q)`` per sample; never terminates when q = 0 (guarded
    here by an attempt cap and an exact emptiness check).
``RandomPathSampler``
    Olken's root-to-leaf random walk on the R-tree, restricted to children
    intersecting Q, with an acceptance/rejection correction that keeps the
    output exactly uniform.  ``O(log N)`` per attempt, but every sample
    takes a fresh random root-to-leaf path — poor block locality.
``LSTreeSampler``
    The paper's first index: a *level-sampling* forest of R-trees over
    geometrically down-sampled copies of P.
``RSTreeSampler``
    The paper's second index: a single Hilbert R-tree whose nodes carry
    pre-shuffled sample buffers, combined with lazy canonical-set
    exploration and batched count-proportional node selection.

``TieredSampler``
    The LSM-era merge: one exactly-uniform stream over main tree +
    sealed runs + memtable, with tombstone masking and per-query
    snapshot pinning (see :mod:`repro.storage.lsm`).

``repro.core.sampling.union`` holds the one uniform without-replacement
draw over a disjoint union of parts (:class:`UnionStream`) that the
RS-tree, tiered and distributed samplers share.
"""

from repro.core.sampling.base import SamplerStats, SpatialSampler
from repro.core.sampling.ls_tree import LSTree, LSTreeSampler
from repro.core.sampling.permutation import streaming_shuffle
from repro.core.sampling.query_first import QueryFirstSampler
from repro.core.sampling.random_path import RandomPathSampler
from repro.core.sampling.rs_tree import RSTreeSampler
from repro.core.sampling.sample_first import SampleFirstSampler
from repro.core.sampling.tiered import LSMSnapshot, TieredSampler
from repro.core.sampling.union import UnionStream

__all__ = [
    "LSMSnapshot",
    "LSTree",
    "LSTreeSampler",
    "QueryFirstSampler",
    "RandomPathSampler",
    "RSTreeSampler",
    "SampleFirstSampler",
    "SamplerStats",
    "SpatialSampler",
    "TieredSampler",
    "UnionStream",
    "streaming_shuffle",
]
