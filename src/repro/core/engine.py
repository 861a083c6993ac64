"""The STORM engine: datasets, sampler suites, and online analytics.

:class:`Dataset` owns one indexed spatio-temporal data set — the Hilbert
R-tree (shared by the QueryFirst/SampleFirst/RandomPath baselines and the
RS-tree), the LS-tree forest, the record store and the per-dataset query
optimizer.  Once tiered ingest (:mod:`repro.storage.lsm`) is attached,
no plan reaches the forest, so the dataset drops it and an LSM
compaction bulk-loads the main tree alone.  :class:`StormEngine` is the
user-facing registry plus convenience analytics (`avg`, `sum`, `count`,
`kde`, ...), each of which opens an
:class:`~repro.core.session.OnlineQuerySession` under the hood.

This module is deliberately storage-agnostic: records live in memory here,
and the storage engine / data connector layers feed records in through
:meth:`StormEngine.create_dataset` or the importer.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from repro.core.estimators.aggregates import (AvgEstimator, CountEstimator,
                                              SumEstimator)
from repro.core.estimators.base import OnlineEstimator
from repro.core.estimators.groupby import GroupByEstimator
from repro.core.estimators import GridSpec, OnlineKDE
from repro.core.estimators.text import ShortTextEstimator
from repro.core.estimators.trajectory import TrajectoryEstimator
from repro.core.geometry import Rect
from repro.core.optimizer import QueryOptimizer, default_sampler_suite
from repro.core.records import Record, STRange, attribute_getter
from repro.core.sampling.base import SpatialSampler
from repro.core.sampling.ls_tree import LSTree
from repro.core.session import OnlineQuerySession, ProgressPoint, \
    StopCondition
from repro.errors import StormError, UpdateError
from repro.index.hilbert_rtree import HilbertRTree
from repro.obs import NULL_OBS, Observability

__all__ = ["Dataset", "SamplerPlan", "StormEngine"]

_GEO_FALLBACK_BOUNDS_2D = Rect((-180.0, -90.0), (180.0, 90.0))

#: Bits per dimension of the main tree's Hilbert grid.
HILBERT_BITS = 16


class SamplerPlan(NamedTuple):
    """One query's resolved sampling method."""

    sampler: SpatialSampler
    #: Why this sampler: the ``plan:`` text EXPLAIN renders.
    text: str
    #: The optimizer that chose the sampler, to calibrate with the
    #: run's measured cost; None when the choice was fixed or forced.
    optimizer: QueryOptimizer | None = None


def _padded_bounds(records: list[Record], dims: int,
                   pad_fraction: float = 0.25) -> Rect:
    """Bounding box of the records, padded so later inserts stay inside
    the Hilbert grid."""
    if not records:
        if dims == 2:
            return _GEO_FALLBACK_BOUNDS_2D
        return Rect((-180.0, -90.0, 0.0), (180.0, 90.0, 1.0))
    box = Rect.bounding([r.key(dims) for r in records])
    lo, hi = [], []
    for l, h in zip(box.lo, box.hi):
        pad = max((h - l) * pad_fraction, 1e-9)
        lo.append(l - pad)
        hi.append(h + pad)
    return Rect(lo, hi)


class Dataset:
    """One spatio-temporal data set with its full index/sampler suite."""

    def __init__(self, name: str, records: Iterable[Record],
                 dims: int = 3, leaf_capacity: int = 64,
                 branch_capacity: int = 16, rs_buffer_size: int = 64,
                 build_ls: bool = True, bounds: Rect | None = None,
                 seed: int = 0, obs: Observability | None = None):
        if dims not in (2, 3):
            raise StormError("datasets are 2-d (spatial) or 3-d (ST)")
        self.name = name
        self.dims = dims
        self.obs = obs if obs is not None else NULL_OBS
        self.records: dict[int, Record] = {}
        ordered: list[Record] = []
        for record in records:
            if record.record_id in self.records:
                raise StormError(
                    f"duplicate record id {record.record_id} in {name}")
            self.records[record.record_id] = record
            ordered.append(record)
        self.bounds = bounds if bounds is not None \
            else _padded_bounds(ordered, dims)
        self._build_rng = random.Random(seed)
        #: Whether the dataset was built with the LS forest; persisted
        #: by ``save_engine`` even after tiered ingest drops the forest.
        self.build_ls = build_ls
        self.tree = HilbertRTree(dims, self.bounds, bits=HILBERT_BITS,
                                 leaf_capacity=leaf_capacity,
                                 branch_capacity=branch_capacity)
        self.tree.bulk_load(
            (r.record_id, r.key(dims)) for r in ordered)
        self.tree.bind_observability(self.obs)
        self.forest: LSTree | None = None
        if build_ls:
            self.forest = LSTree(dims,
                                 rng=random.Random(
                                     self._build_rng.getrandbits(32)),
                                 leaf_capacity=leaf_capacity,
                                 branch_capacity=branch_capacity)
            self.forest.bulk_load(
                (r.record_id, r.key(dims)) for r in ordered)
        self.samplers = default_sampler_suite(
            self.tree, self.forest, rs_buffer_size=rs_buffer_size,
            rs_rng=random.Random(self._build_rng.getrandbits(32)))
        self.samplers["rs-tree"].prepare()
        for sampler in self.samplers.values():
            sampler.bind_observability(self.obs)
        self.optimizer = QueryOptimizer(self.samplers)
        self._sample_first_dirty = False
        #: Tiered ingest path (see :mod:`repro.storage.lsm`); when
        #: attached, inserts/deletes route through the memtable and
        #: tombstones instead of mutating the main tree directly.
        self.lsm = None
        self._publish_shape()

    def _publish_shape(self) -> None:
        """Export dataset/index shape gauges to the registry."""
        registry = self.obs.registry
        if not registry.enabled:
            return
        registry.gauge("storm.dataset.records",
                       dataset=self.name).set(len(self.records))
        shape = self.tree.shape()
        for key, value in shape.items():
            registry.gauge(f"storm.index.{key}",
                           dataset=self.name).set(value)

    # -- record access ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def lookup(self, record_id: int) -> Record:
        """The record with the given id (KeyError when absent)."""
        return self.records[record_id]

    def to_rect(self, query: "Rect | STRange") -> Rect:
        """Convert an STRange/Rect query to this dataset's box type."""
        if isinstance(query, STRange):
            return query.to_rect(self.dims)
        if query.dim != self.dims:
            raise StormError(
                f"query is {query.dim}-d but dataset {self.name} is "
                f"{self.dims}-d")
        return query

    # -- updates -----------------------------------------------------------

    def insert(self, record: Record) -> None:
        """Insert one record into the store and every index.

        With an LSM attached, the record lands in the memtable (no
        main-tree mutation, so the canonical-set cache stays hot).
        """
        if record.record_id in self.records:
            raise UpdateError(
                f"record {record.record_id} already in {self.name}")
        self.records[record.record_id] = record
        if self.lsm is not None:
            self.lsm.insert(record)
        else:
            key = record.key(self.dims)
            self.tree.insert(record.record_id, key)
            if self.forest is not None:
                self.forest.insert(record.record_id, key)
        self._sample_first_dirty = True
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.dataset.inserts",
                             dataset=self.name).inc()
            registry.gauge("storm.dataset.records",
                           dataset=self.name).set(len(self.records))

    def delete(self, record_id: int) -> bool:
        """Delete a record everywhere; returns whether it existed."""
        record = self.records.pop(record_id, None)
        if record is None:
            return False
        if self.lsm is not None:
            self.lsm.delete(record)
        else:
            key = record.key(self.dims)
            if not self.tree.delete(record_id, key):
                raise UpdateError(
                    f"record {record_id} present in store but not in "
                    f"index")
            if self.forest is not None:
                self.forest.delete(record_id, key)
        self._sample_first_dirty = True
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.dataset.deletes",
                             dataset=self.name).inc()
            registry.gauge("storm.dataset.records",
                           dataset=self.name).set(len(self.records))
        return True

    def rebuild(self) -> None:
        """Rebuild every index from the current records.

        Dynamic inserts degrade packing over time (bulk-loaded trees are
        near-optimal, insertion-built ones are not); nothing calls this
        automatically — on the ingest path the LSM compaction is the
        rebuild.  Sample buffers and LS levels (with ``build_ls``) are
        re-drawn, so post-rebuild samples are as fresh as after an
        initial load.
        """
        if self.lsm is not None:
            # A compaction *is* the LSM's rebuild: it folds every run
            # and tombstone into one fresh bulk load of the main tree.
            self.lsm.seal()
            self.lsm.compact()
            return
        self._rebuild_indexes(self.records.values())
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.dataset.rebuilds",
                             dataset=self.name).inc()

    def _rebuild_indexes(self, records: Iterable[Record]) -> None:
        """Bulk-load the main tree (and forest) from ``records``.

        The swap is atomic from a sampler's point of view: bulk load
        builds an all-new node graph, so canonical sets pinned by
        in-flight snapshot streams keep the old graph alive and stay
        valid.  With an LSM attached this is the compaction primitive
        — ``records`` is then the main-tier subset, not the full store,
        and there is no forest: one main-tree bulk load plus the
        RS-tree's prepare.
        """
        ordered = list(records)
        self.tree.bulk_load(
            (r.record_id, r.key(self.dims)) for r in ordered)
        if self.forest is not None:
            self.forest.bulk_load(
                (r.record_id, r.key(self.dims)) for r in ordered)
        self.samplers["rs-tree"].prepare()
        self._sample_first_dirty = True
        registry = self.obs.registry
        if registry.enabled:
            self._publish_shape()

    # -- tiered ingest (LSM) ---------------------------------------------

    def attach_lsm(self, lsm) -> None:
        """Adopt a tiered ingest path (``LSMTree.open`` calls this).

        Registers the snapshot-pinned tiered sampler; from here on
        :meth:`plan` routes every default query through it, since the
        per-tree samplers only see the main tier.  The LS forest is
        dropped (see :meth:`_drop_forest`).
        """
        from repro.core.sampling.tiered import TieredSampler
        self._drop_forest()
        self.lsm = lsm
        sampler = TieredSampler(self)
        sampler.bind_observability(self.obs)
        self.samplers[sampler.name] = sampler

    def _drop_forest(self) -> None:
        """Release the LS forest and its sampler for tiered ingest.

        :meth:`plan` refuses ``USING`` under an LSM and never asks the
        optimizer, so no query can reach the forest; keeping it would
        only make every compaction rebuild it.  The optimizer is
        rebuilt over the remaining samplers so it holds no reference
        either.  The forest drew its levels from its own ``Random``,
        so ``_build_rng`` is untouched: nothing draws from it after
        construction.
        """
        if self.forest is None:
            return
        self.forest = None
        del self.samplers["ls-tree"]
        self.optimizer = QueryOptimizer(self.samplers)

    # -- sessions ------------------------------------------------------------

    def plan(self, query: Rect, method: str | None = None,
             expected_k: int | None = None) -> SamplerPlan:
        """Resolve the sampler for a query: the one rule for local
        datasets.

        With an LSM attached, the tiered sampler, and ``USING`` is
        refused: the per-tree samplers only cover the main tier, so
        running one would silently miss memtable and run records and
        mask none of the tombstones.  Otherwise an explicit ``method``
        (``USING``) wins, else the optimizer's cheapest method.
        """
        if self.lsm is not None and method is not None:
            raise StormError(
                f"USING {method} is not available on dataset "
                f"{self.name!r}: tiered ingest is attached, so every "
                f"query runs on the lsm-tiered path over all tiers")
        if method is not None:
            if method not in self.samplers:
                raise StormError(
                    f"unknown sampling method {method!r}; available: "
                    f"{sorted(self.samplers)}")
            plan = SamplerPlan(self.samplers[method],
                               f"method forced via USING: {method}")
        elif self.lsm is not None:
            plan = SamplerPlan(self.samplers["lsm-tiered"],
                               "method fixed by tiered ingest: lsm-tiered "
                               "(per-tree samplers only see the main "
                               "tier)")
        else:
            chosen = self.optimizer.choose(query, expected_k)
            plan = SamplerPlan(chosen.sampler, chosen.explain(),
                               self.optimizer)
        if plan.sampler.name == "sample-first" \
                and self._sample_first_dirty:
            plan.sampler.refresh()  # type: ignore[attr-defined]
            self._sample_first_dirty = False
        return plan

    def sampler_for(self, query: Rect, method: str | None = None,
                    expected_k: int | None = None) -> SpatialSampler:
        """The sampler :meth:`plan` resolves for a query."""
        return self.plan(query, method, expected_k).sampler

    @contextmanager
    def explain_counters(self) -> Iterator[dict[str, dict]]:
        """Measure one query for EXPLAIN ANALYZE: yields the report's
        ``caches``, ``index`` and ``faults`` rows, filled in when the
        block exits — this query's canonical-set lookups, the leaf
        storage format and this query's vectorized-filter activity
        (see :mod:`repro.core.blocks`)."""
        tree = self.tree
        before = (tree.canon_hits, tree.canon_misses,
                  tree.vector_filters, tree.vector_filter_hits)
        counters: dict[str, dict] = {"caches": {}, "index": {},
                                     "faults": {}}
        yield counters
        counters["caches"]["canonical-set"] = (
            tree.canon_hits - before[0], tree.canon_misses - before[1])
        leaves, packed = tree.leaf_block_stats()
        counters["index"].update({
            "leaf storage":
                f"columnar ({packed}/{leaves} leaves packed,"
                " numpy backend)" if packed else
                f"record-list ({leaves} leaves, no blocks built)",
            "vectorized filters": tree.vector_filters - before[2],
            "vectorized filter hits": tree.vector_filter_hits - before[3],
        })

    def session(self, query: "Rect | STRange",
                estimator: OnlineEstimator, method: str | None = None,
                rng: random.Random | None = None,
                expected_k: int | None = None,
                report_every: int = 16,
                with_replacement: bool = False,
                obs: Observability | None = None,
                labels: dict[str, object] | None = None,
                clock=None) -> OnlineQuerySession:
        """Open an online query session over this dataset.

        ``obs`` overrides the dataset's observability sink for this one
        session (EXPLAIN uses a private tracer this way).  ``labels``
        adds metric/span labels on top of the dataset's own — the
        query service tags every session with its tenant this way.
        ``clock`` overrides the session's time source (durable server
        streams use a logical clock for byte-reproducible frames).
        The session keeps its :class:`SamplerPlan` as ``plan``.
        """
        rect = self.to_rect(query)
        plan = self.plan(rect, method, expected_k)
        merged: dict[str, object] = {"dataset": self.name}
        if labels:
            merged.update(labels)
        kwargs = {} if clock is None else {"clock": clock}
        session = OnlineQuerySession(
            plan.sampler, estimator, rect, self.lookup, rng=rng,
            report_every=report_every,
            with_replacement=with_replacement,
            obs=obs if obs is not None else self.obs, labels=merged,
            **kwargs)
        session.plan = plan
        return session


class StormEngine:
    """Registry of datasets plus one-call online analytics."""

    def __init__(self, seed: int = 0,
                 obs: Observability | None = None):
        self.datasets: dict[str, Dataset] = {}
        self._seed = seed
        self._rng = random.Random(seed)
        #: Observability sink inherited by every dataset this engine
        #: creates (no-op unless the caller opts in).
        self.obs = obs if obs is not None else NULL_OBS

    # -- dataset management ----------------------------------------------

    def create_dataset(self, name: str, records: Iterable[Record],
                       **kwargs) -> Dataset:
        """Build and register a new indexed dataset from records."""
        if name in self.datasets:
            raise StormError(f"dataset {name!r} already exists")
        kwargs.setdefault("obs", self.obs)
        dataset = Dataset(name, records,
                          seed=self._rng.getrandbits(32), **kwargs)
        self.datasets[name] = dataset
        return dataset

    def register(self, dataset: Dataset) -> None:
        """Register an externally built dataset (e.g. distributed)."""
        if dataset.name in self.datasets:
            raise StormError(f"dataset {dataset.name!r} already exists")
        self.datasets[dataset.name] = dataset

    def drop_dataset(self, name: str) -> None:
        """Remove a dataset from the registry."""
        if name not in self.datasets:
            raise StormError(f"no dataset named {name!r}")
        del self.datasets[name]

    def dataset(self, name: str) -> Dataset:
        """Look up a registered dataset by name."""
        if name not in self.datasets:
            raise StormError(
                f"no dataset named {name!r}; available: "
                f"{sorted(self.datasets)}")
        return self.datasets[name]

    # -- keyword queries ---------------------------------------------------

    def execute(self, query_text: str,
                rng: random.Random | None = None):
        """Run one keyword-language query (see :mod:`repro.query`).

        Returns the :class:`repro.query.executor.QueryResult`.  This is
        the convenience path; build a
        :class:`~repro.query.executor.QueryExecutor` directly to reuse
        one rng across many queries.
        """
        from repro.query.executor import QueryExecutor
        return QueryExecutor(
            self, rng=rng if rng is not None else
            random.Random(self._rng.getrandbits(32))).execute(query_text)

    # -- one-call online analytics -----------------------------------------

    def _run(self, dataset: str, query, estimator: OnlineEstimator,
             stop: StopCondition, method: str | None,
             rng: random.Random | None) -> ProgressPoint:
        ds = self.dataset(dataset)
        session = ds.session(query, estimator, method=method,
                             rng=rng if rng is not None else
                             random.Random(self._rng.getrandbits(32)))
        try:
            return session.run_to_stop(stop)
        finally:
            # A stop before exhaustion leaves the stream open; the
            # distributed fan-out holds worker streams until it closes.
            session.close()

    def avg(self, dataset: str, attribute: str, query,
            stop: StopCondition = StopCondition(max_samples=1000),
            method: str | None = None,
            rng: random.Random | None = None) -> ProgressPoint:
        """Online AVG(attribute) over a spatio-temporal range."""
        return self._run(dataset, query,
                         AvgEstimator(attribute_getter(attribute)),
                         stop, method, rng)

    def sum(self, dataset: str, attribute: str, query,
            stop: StopCondition = StopCondition(max_samples=1000),
            method: str | None = None,
            rng: random.Random | None = None) -> ProgressPoint:
        """Online SUM(attribute) over a spatio-temporal range."""
        return self._run(dataset, query,
                         SumEstimator(attribute_getter(attribute)),
                         stop, method, rng)

    def count(self, dataset: str, query,
              predicate: Callable[[Record], bool] | None = None,
              stop: StopCondition = StopCondition(max_samples=1000),
              method: str | None = None,
              rng: random.Random | None = None) -> ProgressPoint:
        """Online COUNT(*) (exact) or COUNT WHERE predicate (estimated)."""
        return self._run(dataset, query, CountEstimator(predicate),
                         stop, method, rng)

    def group_by(self, dataset: str, key: str, query,
                 attribute: str | None = None,
                 stop: StopCondition = StopCondition(max_samples=1000),
                 method: str | None = None,
                 rng: random.Random | None = None) -> ProgressPoint:
        """Online GROUP BY ``key``: per-group shares (and per-group
        AVG/SUM when ``attribute`` is given)."""
        accessor = attribute_getter(attribute) \
            if attribute is not None else None
        return self._run(dataset, query,
                         GroupByEstimator(key, attribute=accessor),
                         stop, method, rng)

    def kde(self, dataset: str, query, grid: GridSpec,
            bandwidth: float | None = None, kernel: str = "gaussian",
            stop: StopCondition = StopCondition(max_samples=2000),
            method: str | None = None,
            rng: random.Random | None = None) -> ProgressPoint:
        """Online kernel density map over the query range."""
        return self._run(dataset, query,
                         OnlineKDE(grid, bandwidth=bandwidth,
                                   kernel=kernel),
                         stop, method, rng)

    def top_terms(self, dataset: str, query, text_field: str = "text",
                  background: Mapping[str, float] | None = None,
                  stop: StopCondition = StopCondition(max_samples=2000),
                  method: str | None = None,
                  rng: random.Random | None = None) -> ProgressPoint:
        """Online short-text understanding over the query range."""
        return self._run(dataset, query,
                         ShortTextEstimator(text_field=text_field,
                                            background=background),
                         stop, method, rng)

    def trajectory(self, dataset: str, query, key_field: str,
                   key_value, stop: StopCondition =
                   StopCondition(max_samples=2000),
                   method: str | None = None,
                   rng: random.Random | None = None) -> ProgressPoint:
        """Online trajectory reconstruction for one entity."""
        return self._run(dataset, query,
                         TrajectoryEstimator(key_field=key_field,
                                             key_value=key_value),
                         stop, method, rng)
