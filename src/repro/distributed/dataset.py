"""DistributedDataset: the cluster behind the engine's dataset API.

Lets a sharded data set register in a :class:`StormEngine` next to
local datasets: the engine's one-call analytics (`avg`, `count`,
`kde`, ...) and online sessions work unchanged, with samples drawn
through the distributed merge sampler and record lookups routed to the
owning worker.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.core.engine import Dataset, SamplerPlan
from repro.core.estimators.base import OnlineEstimator
from repro.core.geometry import Rect
from repro.core.records import Record, STRange
from repro.core.session import OnlineQuerySession
from repro.distributed.cluster import NetworkModel
from repro.distributed.dist_index import DistributedSTIndex
from repro.distributed.dist_sampler import DistributedSampler
from repro.errors import StormError
from repro.faults import FaultPlan
from repro.obs import NULL_OBS, Observability

__all__ = ["DistributedDataset"]


class DistributedDataset:
    """A sharded dataset exposing the local Dataset's session API."""

    def __init__(self, name: str, records: Iterable[Record],
                 n_workers: int = 4, dims: int = 3,
                 sampler_kind: str = "rs", batch_size: int = 32,
                 network: NetworkModel | None = None, seed: int = 0,
                 replication: int = 1,
                 faults: "FaultPlan | None" = None,
                 max_retries: int = 3, backoff_seconds: float = 0.05,
                 obs: Observability | None = None, **worker_kwargs):
        self.name = name
        self.dims = dims
        self.obs = obs if obs is not None else NULL_OBS
        self.index = DistributedSTIndex(records, n_workers=n_workers,
                                        dims=dims, network=network,
                                        seed=seed,
                                        sampler_kind=sampler_kind,
                                        replication=replication,
                                        faults=faults,
                                        **worker_kwargs)
        self.sampler = DistributedSampler(
            self.index, batch_size=batch_size,
            max_retries=max_retries, backoff_seconds=backoff_seconds)
        self.sampler.bind_observability(self.obs)
        #: The one sampler, under its method name; no tiered ingest.
        self.samplers = {self.sampler.name: self.sampler}
        self.lsm = None
        self.obs.registry.gauge("storm.dataset.records",
                                dataset=name).set(len(self.index))

    # -- Dataset-compatible surface ---------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    @property
    def cluster(self):
        """The underlying simulated cluster."""
        return self.index.cluster

    def set_fault_plan(self, faults: "FaultPlan | None") -> None:
        """(Re-)attach a fault plan to every worker in the cluster."""
        self.index.cluster.set_fault_plan(faults)

    def lookup(self, record_id: int) -> Record:
        """Fetch a record from its owning worker."""
        return self.index.lookup(record_id)

    def to_rect(self, query: "Rect | STRange") -> Rect:
        """Convert a query to this dataset's box type."""
        rect = self.index.to_rect(query)
        if rect.dim != self.dims:
            raise StormError(
                f"query is {rect.dim}-d but dataset {self.name} is "
                f"{self.dims}-d")
        return rect

    def insert(self, record: Record) -> None:
        """Route an insert to the owning shard."""
        self.index.insert(record)

    def delete(self, record_id: int) -> bool:
        """Delete by id (broadcast); returns whether it existed."""
        return self.index.delete(record_id)

    def plan(self, query: Rect, method: str | None = None,
             expected_k: int | None = None) -> SamplerPlan:
        """The sampler fixed at build time: the one rule for sharded
        datasets.  ``method`` must be omitted or name that sampler —
        the shard-local sampling index was fixed at construction."""
        if method not in (None, self.sampler.name):
            raise StormError(
                f"distributed dataset {self.name!r} has no method "
                f"{method!r}; it samples via {self.sampler.name!r}")
        return SamplerPlan(self.sampler, "method fixed at build time: "
                           f"{self.sampler.name}")

    @contextmanager
    def explain_counters(self) -> Iterator[dict[str, dict]]:
        """Measure one query for EXPLAIN ANALYZE (see
        :meth:`Dataset.explain_counters`): the ``faults`` rows come
        from the sampler's per-stream tallies, which reach the registry
        only when the dataset was built with live observability."""
        counters: dict[str, dict] = {"caches": {}, "index": {},
                                     "faults": {}}
        yield counters
        last = self.sampler.last_faults
        counters["faults"].update({
            "worker errors": last.get("errors", 0),
            "retries": last.get("retries", 0),
            "stream failovers": last.get("failovers", 0),
            "degraded workers": last.get("degraded", 0),
            "backoff seconds": last.get("backoff_seconds", 0.0),
        })

    def session(self, query: "Rect | STRange",
                estimator: OnlineEstimator, *,
                with_replacement: bool = False,
                obs: Observability | None = None,
                **kwargs) -> OnlineQuerySession:
        """An online session over the cluster, opened by the same code
        as :meth:`Dataset.session` (same keywords).

        ``with_replacement`` is not offered by the distributed merge.
        """
        if with_replacement:
            raise StormError(
                "the distributed sampler is without-replacement only")
        use = obs if obs is not None else self.obs
        # The distributed sampler emits its own spans (dist_fanout and
        # the per-worker pull breakdown); rebind it so they land on the
        # session's tracer — EXPLAIN runs under a private tracer and
        # still has to see the whole trace under one id.
        if use is not self.sampler.obs:
            self.sampler.bind_observability(use)
        return Dataset.session(self, query, estimator, obs=use, **kwargs)
