"""Simulated cluster: workers, shards, faults and the network model.

Workers are *crashable*: a manual :meth:`SimulatedCluster.crash_worker`
or a :class:`~repro.faults.FaultPlan` crash window makes every gated
operation (``open_stream``, ``fetch_batch``, ``range_count``) raise
:class:`~repro.errors.WorkerUnavailableError`, and — like a real
process death — wipes the worker's in-memory stream handles, so a
later fetch on a recovered worker raises
:class:`~repro.errors.StreamLostError` instead of silently resuming.
Workers can also *host replicas* of other workers' shards
(``host_replica``), which is what the distributed sampler fails over
to; replica reads charge the hosting worker's cost counter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.core.geometry import Rect
from repro.core.records import Record
from repro.core.sampling.base import take
from repro.core.sampling.rs_tree import RSTreeSampler
from repro.errors import (ClusterError, NetworkTimeoutError,
                          StreamLostError, WorkerUnavailableError)
from repro.faults import FaultPlan
from repro.index.cost import CostCounter, CostModel, DEFAULT_COST_MODEL
from repro.index.hilbert_rtree import HilbertRTree
from repro.obs import NULL_OBS, Observability, TraceContext

__all__ = ["NetworkModel", "NetworkStats", "Worker", "SimulatedCluster"]

# Rough per-record wire size (a JSON document with a few attributes).
RECORD_WIRE_BYTES = 120
MESSAGE_HEADER_BYTES = 64

#: Per-worker trace-tally retention: old traces are evicted FIFO so a
#: long-lived worker never accumulates unbounded per-trace state.
TRACE_TALLY_RETENTION = 64


@dataclass(frozen=True, slots=True)
class NetworkModel:
    """Latency/bandwidth constants for simulated message exchange.

    ``timeout_seconds`` (None = never) bounds one exchange: when a
    charge — scaled by a slow node's latency multiplier — exceeds it,
    :meth:`check` raises :class:`~repro.errors.NetworkTimeoutError`,
    which callers treat exactly like an unavailable peer (retryable).
    """

    latency_seconds: float = 200e-6          # same-rack RTT
    bandwidth_bytes_per_second: float = 1e9  # 8 Gb/s effective
    timeout_seconds: float | None = None

    def seconds(self, messages: int, payload_bytes: int) -> float:
        """Simulated seconds for a message count and payload size."""
        return (messages * self.latency_seconds
                + payload_bytes / self.bandwidth_bytes_per_second)

    def check(self, messages: int, payload_bytes: int,
              multiplier: float = 1.0) -> float:
        """Seconds for one exchange, enforcing the timeout."""
        seconds = self.seconds(messages, payload_bytes) * multiplier
        if self.timeout_seconds is not None \
                and seconds > self.timeout_seconds:
            raise NetworkTimeoutError(
                f"exchange took {seconds:.6f}s simulated "
                f"(timeout {self.timeout_seconds:.6f}s)")
        return seconds


@dataclass(slots=True)
class NetworkStats:
    """Tally of simulated network traffic."""

    messages: int = 0
    payload_bytes: int = 0

    def charge(self, messages: int = 1, payload_bytes: int = 0) -> None:
        """Tally messages and payload bytes."""
        self.messages += messages
        self.payload_bytes += payload_bytes

    def seconds(self, model: NetworkModel) -> float:
        """Simulated network seconds under a model."""
        return model.seconds(self.messages, self.payload_bytes)

    def snapshot(self) -> "NetworkStats":
        """Independent copy of the tallies."""
        return NetworkStats(self.messages, self.payload_bytes)

    def delta_from(self, earlier: "NetworkStats") -> "NetworkStats":
        """Tallies accumulated since an earlier snapshot."""
        return NetworkStats(self.messages - earlier.messages,
                            self.payload_bytes - earlier.payload_bytes)

    def merge(self, other: "NetworkStats") -> None:
        """Fold another tally into this one."""
        self.messages += other.messages
        self.payload_bytes += other.payload_bytes

    def as_dict(self) -> dict[str, int]:
        """The tallies as a plain dict (for exporters)."""
        return {"messages": self.messages,
                "payload_bytes": self.payload_bytes}


class Worker:
    """One machine: a shard of records with its own index + sampler.

    ``sampler_kind`` picks the shard-local sampling index: ``"rs"``
    (the default single Hilbert R-tree with buffers) or ``"ls"`` (a
    per-shard level-sampling forest — the paper's "distributed R-trees
    are used when applying the [LS-tree] idea in a distributed cluster
    setting").
    """

    def __init__(self, worker_id: int, bounds: Rect, dims: int = 3,
                 leaf_capacity: int = 64, branch_capacity: int = 16,
                 rs_buffer_size: int = 64, seed: int = 0,
                 sampler_kind: str = "rs"):
        if sampler_kind not in ("rs", "ls"):
            raise ClusterError(
                f"sampler_kind must be rs|ls, not {sampler_kind!r}")
        self.worker_id = worker_id
        self.bounds = bounds
        self.dims = dims
        self.sampler_kind = sampler_kind
        # Fault state: cluster-level wiring sets node/faults; a manual
        # crash() or a plan crash window makes gated ops raise.
        self.alive = True
        self.node = f"worker:{worker_id}"
        self.faults: FaultPlan | None = None
        # Construction knobs, kept so replica shards build identically.
        self._config = dict(leaf_capacity=leaf_capacity,
                            branch_capacity=branch_capacity,
                            rs_buffer_size=rs_buffer_size, seed=seed,
                            sampler_kind=sampler_kind)
        self.records: dict[int, Record] = {}
        self.tree = HilbertRTree(dims, bounds,
                                 leaf_capacity=leaf_capacity,
                                 branch_capacity=branch_capacity)
        self.cost = CostCounter()
        # owner worker id -> nested Worker holding a copy of that shard
        # (its cost counter is rebound to ours: replica reads run here).
        self._replica_shards: dict[int, Worker] = {}
        self.forest = None
        if sampler_kind == "ls":
            from repro.core.sampling.ls_tree import LSTree, LSTreeSampler
            self.forest = LSTree(dims,
                                 rng=random.Random(seed ^ 0x5F5F),
                                 leaf_capacity=leaf_capacity,
                                 branch_capacity=branch_capacity)
            self.forest.cost = self.cost
            for t in self.forest.trees:
                t.cost = self.cost
            self.sampler = LSTreeSampler(self.forest)
        else:
            self.sampler = RSTreeSampler(self.tree,
                                         buffer_size=rs_buffer_size,
                                         rng=random.Random(seed))
        self._streams: dict[int, object] = {}
        self._next_stream = 0
        # Distributed trace propagation: the coordinator sends a
        # TraceContext with open_stream; every fetch on that handle is
        # tallied under the originating trace id, so one query's work
        # can be read back per worker (EXPLAIN's workers section).
        #: trace id -> {"draws", "batches", "bytes"} (FIFO-bounded).
        self.trace_tallies: dict[str, dict[str, int]] = {}
        self._stream_traces: dict[int, str] = {}

    def load(self, records: Iterable[Record]) -> None:
        """Bulk-load this worker's shard."""
        materialised = list(records)
        for r in materialised:
            self.records[r.record_id] = r
        self.tree.bulk_load(
            (r.record_id, r.key(self.dims)) for r in materialised)
        if self.forest is not None:
            self.forest.bulk_load(
                (r.record_id, r.key(self.dims)) for r in materialised)
            self.forest.cost = self.cost
            for t in self.forest.trees:
                t.cost = self.cost
        else:
            self.sampler.prepare()

    def insert(self, record: Record) -> None:
        """Insert one record into this worker's shard and indexes."""
        if record.record_id in self.records:
            raise ClusterError(
                f"worker {self.worker_id}: duplicate record id "
                f"{record.record_id}")
        self.records[record.record_id] = record
        self.tree.insert(record.record_id, record.key(self.dims))
        if self.forest is not None:
            self.forest.insert(record.record_id, record.key(self.dims))

    def delete(self, record_id: int) -> bool:
        """Delete by id from this shard; returns whether it existed."""
        record = self.records.pop(record_id, None)
        if record is None:
            return False
        if self.forest is not None:
            self.forest.delete(record_id, record.key(self.dims))
        return self.tree.delete(record_id, record.key(self.dims))

    # -- fault state -------------------------------------------------------

    def crash(self) -> None:
        """Kill this worker: gated ops fail and in-memory state (open
        stream handles) is lost, exactly like a process death."""
        self.alive = False
        self._drop_streams()

    def recover(self) -> None:
        """Bring the worker back up (its streams stay lost)."""
        self.alive = True

    @property
    def down(self) -> bool:
        """Whether a gated op would fail right now (crash only, not
        transient injected errors); never advances the fault clock."""
        if not self.alive:
            return True
        return self.faults is not None and self.faults.is_down(self.node)

    def _drop_streams(self) -> None:
        for stream in self._streams.values():
            close = getattr(stream, "close", None)
            if close is not None:
                close()
        self._streams.clear()
        # Trace *tallies* survive a crash (the work already happened);
        # only the handle->trace routing dies with the handles.
        self._stream_traces.clear()

    def _gate(self, op: str) -> None:
        """Raise WorkerUnavailableError when this op must fail.

        A plan crash window counts as a process death: stream handles
        are dropped the moment the outage is observed.  Injected
        per-op errors are transient — state survives, only this call
        fails.
        """
        plan = self.faults
        if plan is not None:
            plan.tick()
            if not self.alive or plan.is_down(self.node):
                self._drop_streams()
                raise WorkerUnavailableError(
                    f"worker {self.worker_id} is down "
                    f"(tick {plan.now})")
            if plan.should_fail(op):
                raise WorkerUnavailableError(
                    f"worker {self.worker_id}: injected {op} fault "
                    f"(tick {plan.now})")
        elif not self.alive:
            raise WorkerUnavailableError(
                f"worker {self.worker_id} is down")

    # -- replica hosting ---------------------------------------------------

    def host_replica(self, owner_id: int,
                     records: Iterable[Record]) -> None:
        """Load a copy of another worker's shard for failover serving.

        The copy gets its own index + sampler (built with this
        worker's construction knobs) but charges *this* worker's cost
        counter — replica reads run on the hosting machine.
        """
        if owner_id == self.worker_id:
            raise ClusterError(
                f"worker {self.worker_id} cannot replicate itself")
        replica = Worker(self.worker_id, self.bounds, dims=self.dims,
                         **self._config)
        replica.cost = self.cost
        replica.load(records)
        self._replica_shards[owner_id] = replica

    def has_replica(self, owner_id: int) -> bool:
        """Whether this worker holds a copy of the given shard."""
        return owner_id in self._replica_shards

    def replica_range_count(self, owner_id: int, query: Rect) -> int:
        """Range count served from a hosted replica shard."""
        self._gate("worker.range_count")
        return self._replica(owner_id).tree.range_count(query,
                                                        self.cost)

    def replica_insert(self, owner_id: int, record: Record) -> None:
        """Apply a routed insert to a hosted replica shard."""
        self._replica(owner_id).insert(record)

    def replica_delete(self, owner_id: int, record_id: int) -> bool:
        """Apply a routed delete to a hosted replica shard."""
        return self._replica(owner_id).delete(record_id)

    def replica_record(self, owner_id: int,
                       record_id: int) -> Record | None:
        """A record from a hosted replica shard (None when absent)."""
        replica = self._replica_shards.get(owner_id)
        if replica is None:
            return None
        return replica.records.get(record_id)

    def _replica(self, owner_id: int) -> "Worker":
        replica = self._replica_shards.get(owner_id)
        if replica is None:
            raise ClusterError(
                f"worker {self.worker_id} holds no replica of shard "
                f"{owner_id}")
        return replica

    # -- gated query surface ----------------------------------------------

    def range_count(self, query: Rect) -> int:
        self._gate("worker.range_count")
        return self.tree.range_count(query, self.cost)

    def open_stream(self, query: Rect, seed: int,
                    trace: "TraceContext | None" = None) -> int:
        """Start a per-query sample stream; returns a stream handle.

        ``trace`` is the coordinator's propagated trace context: every
        batch fetched on the returned handle is tallied under that
        trace id (see :meth:`trace_tally`).
        """
        self._gate("worker.open_stream")
        return self._register_stream(self.sampler.sample_stream(
            query, random.Random(seed), cost=self.cost), trace)

    def open_replica_stream(self, owner_id: int, query: Rect,
                            seed: int,
                            trace: "TraceContext | None" = None) -> int:
        """Start a stream over a hosted replica shard (failover path).

        The handle lives in this worker's stream table, so a crash
        here loses it like any other stream.
        """
        self._gate("worker.open_stream")
        replica = self._replica(owner_id)
        return self._register_stream(replica.sampler.sample_stream(
            query, random.Random(seed), cost=self.cost), trace)

    def _register_stream(self, stream,
                         trace: "TraceContext | None" = None) -> int:
        handle = self._next_stream
        self._next_stream += 1
        self._streams[handle] = stream
        if trace is not None:
            self._stream_traces[handle] = trace.trace_id
            if trace.trace_id not in self.trace_tallies:
                while len(self.trace_tallies) >= TRACE_TALLY_RETENTION:
                    oldest = next(iter(self.trace_tallies))
                    del self.trace_tallies[oldest]
                self.trace_tallies[trace.trace_id] = {
                    "draws": 0, "batches": 0, "bytes": 0}
        return handle

    def fetch_batch(self, handle: int, n: int) -> list:
        """Next n samples of an open stream (fewer at exhaustion)."""
        self._gate("worker.fetch_batch")
        stream = self._streams.get(handle)
        if stream is None:
            raise StreamLostError(f"no stream {handle} on worker "
                                  f"{self.worker_id}")
        out = take(stream, n)
        trace_id = self._stream_traces.get(handle)
        if trace_id is not None:
            tally = self.trace_tallies.get(trace_id)
            if tally is not None:
                tally["draws"] += len(out)
                tally["batches"] += 1
                tally["bytes"] += (MESSAGE_HEADER_BYTES
                                   + len(out) * RECORD_WIRE_BYTES)
        return out

    def close_stream(self, handle: int) -> None:
        """Release a per-query stream handle (safe on a dead worker —
        a crash already dropped its handles)."""
        self._stream_traces.pop(handle, None)
        stream = self._streams.pop(handle, None)
        if stream is not None:
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    def trace_tally(self, trace_id: str) -> dict[str, int]:
        """This worker's pull tallies for one trace (zeros if none)."""
        tally = self.trace_tallies.get(trace_id)
        if tally is None:
            return {"draws": 0, "batches": 0, "bytes": 0}
        return dict(tally)

    def open_stream_count(self) -> int:
        """Live stream handles (tests audit this for leaks)."""
        return len(self._streams)

    def lookup(self, record_id: int) -> Record:
        """Fetch a record owned by this worker."""
        record = self.records.get(record_id)
        if record is None:
            raise ClusterError(
                f"record {record_id} not on worker {self.worker_id}")
        return record

    def __len__(self) -> int:
        return len(self.records)


class SimulatedCluster:
    """A set of workers plus shared network accounting."""

    def __init__(self, n_workers: int, bounds: Rect, dims: int = 3,
                 network: NetworkModel | None = None, seed: int = 0,
                 obs: "Observability | None" = None,
                 faults: "FaultPlan | None" = None, **worker_kwargs):
        if n_workers < 1:
            raise ClusterError("need at least one worker")
        self.network_model = network if network is not None \
            else NetworkModel()
        self.network = NetworkStats()
        self.obs = obs if obs is not None else NULL_OBS
        self.faults = faults
        rng = random.Random(seed)
        self.workers = [Worker(i, bounds, dims=dims,
                               seed=rng.getrandbits(32), **worker_kwargs)
                        for i in range(n_workers)]
        for worker in self.workers:
            worker.faults = faults
        self.obs.registry.gauge("storm.cluster.workers").set(n_workers)

    @property
    def n_workers(self) -> int:
        """Number of workers in the cluster."""
        return len(self.workers)

    # -- fault control -----------------------------------------------------

    def set_fault_plan(self, faults: "FaultPlan | None") -> None:
        """Attach (or detach) a fault plan on every worker."""
        self.faults = faults
        for worker in self.workers:
            worker.faults = faults

    def crash_worker(self, worker_id: int) -> None:
        """Kill one worker (its open streams are lost)."""
        self.workers[worker_id].crash()
        self.obs.registry.counter("storm.cluster.fault.crashes").inc()

    def recover_worker(self, worker_id: int) -> None:
        """Bring a crashed worker back (without its streams)."""
        self.workers[worker_id].recover()

    def live_workers(self) -> list[Worker]:
        """Workers that are currently up (crash windows included)."""
        return [w for w in self.workers if not w.down]

    def charge_network(self, messages: int, payload_bytes: int,
                       node: str | None = None) -> float:
        """Tally one exchange and enforce the timeout.

        A slow node's latency multiplier (from the fault plan) scales
        the exchange before the timeout check, so talking to a
        straggler is what times out.  The traffic is tallied either
        way — the bytes were sent.
        """
        self.network.charge(messages=messages,
                            payload_bytes=payload_bytes)
        multiplier = 1.0
        if self.faults is not None and node is not None:
            multiplier = self.faults.latency_multiplier(node)
        return self.network_model.check(messages, payload_bytes,
                                        multiplier=multiplier)

    def total_records(self) -> int:
        """Records across all shards."""
        return sum(len(w) for w in self.workers)

    def reset_costs(self) -> None:
        """Zero the network and per-worker cost tallies."""
        self.network = NetworkStats()
        for w in self.workers:
            w.cost.reset()

    def max_worker_seconds(self,
                           model: CostModel = DEFAULT_COST_MODEL,
                           since: list[CostCounter] | None = None
                           ) -> float:
        """Parallel-execution time: the slowest worker's simulated I/O
        (a slow node's fault-plan latency multiplier scales its
        share)."""
        seconds = []
        for i, w in enumerate(self.workers):
            cost = w.cost if since is None \
                else w.cost.delta_from(since[i])
            multiplier = 1.0 if self.faults is None \
                else self.faults.latency_multiplier(w.node)
            seconds.append(model.simulated_seconds(cost) * multiplier)
        return max(seconds)

    def snapshot_costs(self) -> list[CostCounter]:
        """Per-worker cost snapshots (for delta timing)."""
        return [w.cost.snapshot() for w in self.workers]

    def total_worker_cost(self) -> CostCounter:
        """All workers' index costs merged into one fresh counter
        (callers should use this instead of hand-summing
        ``worker.cost`` fields)."""
        total = CostCounter()
        for w in self.workers:
            total.merge(w.cost)
        return total
