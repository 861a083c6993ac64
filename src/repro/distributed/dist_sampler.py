"""Globally uniform sampling over the distributed index.

Each worker's RS-tree stream is uniform without replacement over its own
shard's in-range points, and shards are disjoint, so the coordinator's
stream is a :class:`~repro.core.sampling.union.UnionStream` with one
part per shard (DESIGN.md, "Uniform draws over a disjoint union").

Network efficiency comes from batching: each shard part pre-fetches a
batch of samples per request, amortising one round trip over many
samples.  Batches are *adaptive*: each shard's batch starts at
``batch_size`` and doubles (up to ``max_batch_size``) every time the
consumer drains it and comes back for more, so long-running streams pay
ever fewer coordinator round trips while short interactive pulls never
over-fetch by more than the initial batch.  Statistics are unaffected —
batching only reorders *when* the worker computes its stream, not
*what* it returns.

**Fault tolerance** (see ``docs/fault_tolerance.md``).  Every worker
exchange can fail — a crashed worker, an injected error, a network
timeout.  A shard part recovers in three escalating steps:

1. *retry with exponential backoff* (simulated seconds, not wall
   clock): transient faults usually clear within ``max_retries``;
2. *failover*: re-open the shard's stream — on the primary if it came
   back (its old stream handle died with it), else on a live replica
   holder (``replication=k`` on the index).  The fresh stream replays
   the whole shard, so the part filters out entries it already
   emitted; a uniform permutation restricted to the not-yet-emitted
   subset is a uniform permutation of that subset, so the merged
   stream stays exactly uniform;
3. *graceful degradation*: with no copy reachable, the part returns
   short and the union drops the shard's remaining count — the
   surviving stream is uniform over the *reachable* population — and
   :attr:`coverage` drops below 1.0 so estimators can report honestly.

Fault/failover/retry events flow to ``storm.cluster.fault.*`` counters
and onto the ``dist_fanout`` span, which ends when the stream is
closed, exhausted or collected; backoff pauses are added to the
query's simulated seconds.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.core.geometry import Rect
from repro.core.records import STRange
from repro.core.sampling.base import SpatialSampler
from repro.core.sampling.union import UnionStream
from repro.distributed.cluster import (MESSAGE_HEADER_BYTES,
                                       RECORD_WIRE_BYTES, Worker)
from repro.distributed.dist_index import DistributedSTIndex
from repro.errors import (ClusterError, NetworkTimeoutError,
                          StreamLostError, WorkerUnavailableError)
from repro.index.cost import CostCounter, CostModel, DEFAULT_COST_MODEL
from repro.index.rtree import Entry

__all__ = ["DistributedSampler"]

#: Exceptions worth retrying in place (the peer may come back).
_RETRYABLE = (WorkerUnavailableError, NetworkTimeoutError)


class _Shard:
    """One shard's part of a coordinator stream: a buffered remote
    stream with retry, failover and de-dup of already-emitted ids."""

    __slots__ = ("fanout", "owner", "serving", "handle", "remaining",
                 "buffer", "next_batch", "emitted", "draws", "batches",
                 "bytes", "retries", "failovers")

    def __init__(self, fanout: "_Fanout", owner: Worker, remaining: int):
        self.fanout = fanout
        self.owner = owner
        self.serving: Worker | None = None
        self.handle: int | None = None
        self.remaining = remaining
        self.buffer: list[Entry] = []
        self.next_batch = fanout.sampler.batch_size
        #: item ids already yielded from this shard — a re-opened
        #: stream replays the shard, so these are filtered out.
        self.emitted: set[int] = set()
        # Per-shard pull accounting, surfaced as a ``worker_pull``
        # span under the stream's ``dist_fanout`` span at close.
        self.draws = 0
        self.batches = 0
        self.bytes = 0
        self.retries = 0
        self.failovers = 0

    def draw(self, m: int) -> list[Entry]:
        """``m`` fresh entries; fewer only once no copy of the shard
        is reachable (or the stream ends before its count)."""
        out: list[Entry] = []
        while len(out) < m:
            if not self.buffer:
                try:
                    batch = self._fetch(min(self.next_batch,
                                            self.remaining))
                except (*_RETRYABLE, StreamLostError):
                    if self.acquire():
                        self.fanout.note("failovers", self)
                        continue
                    self.fanout.degrade(self)
                    break
                if not batch:
                    # Defensive: count said more, stream disagrees.
                    self.remaining = 0
                    break
                self.buffer = batch
                self.next_batch = min(2 * self.next_batch,
                                      self.fanout.sampler.max_batch_size)
            take = min(m - len(out), len(self.buffer))
            got = self.buffer[:take]
            del self.buffer[:take]
            self.emitted.update(e.item_id for e in got)
            self.remaining -= take
            self.draws += take
            out += got
        return out

    def acquire(self) -> bool:
        """(Re-)open the shard's stream: primary first, then any live
        replica holder, each attempted with the retry/backoff policy
        (a transient fault should not cost a shard its stream).
        Returns False when no copy is reachable."""
        fanout = self.fanout
        index = fanout.sampler.index
        rect, rng, trace = fanout.rect, fanout.rng, fanout.trace
        if self.handle is not None and self.serving is not None:
            # Drop the dead stream's handle; a crashed worker already
            # lost it, but a live worker that merely erred must not
            # leak the old generator.
            self.serving.close_stream(self.handle)
            self.handle = None
        candidates: list[tuple[Worker, int | None]] = []
        if not self.owner.down:
            candidates.append((self.owner, None))
        for holder in index.replica_holders(self.owner.worker_id,
                                            exclude=self.owner):
            candidates.append((holder, self.owner.worker_id))
        for serving, owner_id in candidates:
            def open_once():
                index.cluster.charge_network(
                    messages=2, payload_bytes=2 * MESSAGE_HEADER_BYTES,
                    node=serving.node)
                if owner_id is None:
                    return serving.open_stream(rect,
                                               rng.getrandbits(32),
                                               trace=trace)
                return serving.open_replica_stream(
                    owner_id, rect, rng.getrandbits(32), trace=trace)

            try:
                handle = fanout.sampler._with_retry(
                    open_once, fanout.tallies, self)
            except _RETRYABLE:
                continue
            self.serving = serving
            self.handle = handle
            self.buffer = []
            return True
        return False

    def _fetch(self, want: int) -> list[Entry]:
        """Fetch up to ``want`` not-yet-emitted entries from the
        current stream (a re-opened stream replays the shard, so
        already-emitted entries are dropped here)."""
        sampler = self.fanout.sampler
        cluster = sampler.index.cluster
        out: list[Entry] = []
        while len(out) < want:
            ask = want - len(out)

            def exchange():
                # Headers first (the timeout applies to the request);
                # the response payload is tallied after it arrives.
                cluster.charge_network(
                    messages=2, payload_bytes=MESSAGE_HEADER_BYTES,
                    node=self.serving.node)
                return self.serving.fetch_batch(self.handle, ask)

            batch = sampler._with_retry(exchange, self.fanout.tallies,
                                        self)
            cluster.network.charge(
                messages=0,
                payload_bytes=len(batch) * RECORD_WIRE_BYTES)
            self.batches += 1
            self.bytes += (MESSAGE_HEADER_BYTES
                           + len(batch) * RECORD_WIRE_BYTES)
            if not batch:
                break
            out.extend(e for e in batch
                       if e.item_id not in self.emitted)
            if len(batch) < ask:
                break  # the stream is exhausted
        return out


class DistributedSampler(SpatialSampler):
    """Coordinator-side merge of per-worker sample streams.

    Subclassing :class:`SpatialSampler` gives it the instrumented
    ``open_stream`` entry point, so distributed sessions are traced and
    metered exactly like local ones; each stream additionally opens a
    ``dist_fanout`` span carrying the network delta, the merged
    per-worker index cost delta and the fault/failover tallies.
    """

    name = "distributed-rs"

    def __init__(self, index: DistributedSTIndex, batch_size: int = 32,
                 max_batch_size: int = 1024, max_retries: int = 3,
                 backoff_seconds: float = 0.05,
                 backoff_factor: float = 2.0):
        if batch_size < 1:
            raise ClusterError("batch_size must be >= 1")
        if max_batch_size < batch_size:
            raise ClusterError("max_batch_size must be >= batch_size")
        if max_retries < 0:
            raise ClusterError("max_retries cannot be negative")
        if backoff_seconds < 0 or backoff_factor < 1.0:
            raise ClusterError(
                "backoff needs seconds >= 0 and factor >= 1")
        self.index = index
        self.batch_size = batch_size
        self.max_batch_size = max_batch_size
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.backoff_factor = backoff_factor
        self._last_query_seconds: float | None = None
        #: Reachable fraction of the last stream's known population
        #: (1.0 unless graceful degradation dropped a shard).
        self.coverage: float = 1.0
        # Per-stream fault tallies (exposed for EXPLAIN / tests).
        # Rebound to the live tally dict each stream, so it is current
        # even while the stream is still open.
        self.last_faults: dict[str, float] = {}

    def range_count(self, query: "Rect | STRange",
                    cost: "CostCounter | None" = None) -> int:
        """``cost`` is accepted for session-protocol compatibility; the
        cluster does its own per-worker/network accounting."""
        return self.index.range_count(query)

    # -- fault-handling helpers -------------------------------------------

    def _with_retry(self, fn: Callable, tallies: dict[str, int],
                    src: "_Shard | None" = None) -> object:
        """Run one exchange, retrying transient faults with
        exponential backoff (accounted in simulated seconds).
        ``src`` additionally attributes retries to one shard."""
        registry = self.obs.registry
        delay = self.backoff_seconds
        attempt = 0
        while True:
            try:
                return fn()
            except _RETRYABLE:
                tallies["errors"] += 1
                if registry.enabled:
                    registry.counter("storm.cluster.fault.errors").inc()
                if attempt >= self.max_retries:
                    raise
                attempt += 1
                tallies["retries"] += 1
                if src is not None:
                    src.retries += 1
                tallies["backoff_seconds"] += delay
                delay *= self.backoff_factor
                if registry.enabled:
                    registry.counter(
                        "storm.cluster.fault.retries").inc()

    # -- the merged stream -------------------------------------------------

    def sample_stream(self, query: "Rect | STRange",
                      rng: random.Random,
                      cost: "CostCounter | None" = None) -> UnionStream:
        """Uniform without-replacement samples of the global range
        (of the *reachable* range under faults — see ``coverage``)."""
        fanout = _Fanout(self, self.index.to_rect(query), rng)
        return UnionStream(fanout.open, rng, on_close=fanout.close)

    def last_query_seconds(self,
                           model: CostModel = DEFAULT_COST_MODEL
                           ) -> float:
        """Simulated wall time of the last finished stream: network plus
        the slowest worker (workers run in parallel) plus any retry
        backoff the coordinator sat through."""
        if self._last_query_seconds is None:
            raise ClusterError("no query has completed yet")
        return self._last_query_seconds


class _Fanout:
    """One coordinator stream: its shard parts, fault tallies and
    ``dist_fanout`` span.  ``open`` runs at the first draw, ``close``
    when the stream is closed or exhausted."""

    def __init__(self, sampler: DistributedSampler, rect: Rect,
                 rng: random.Random):
        self.sampler = sampler
        self.rect = rect
        self.rng = rng
        self.tallies: dict[str, float] = {
            "errors": 0, "retries": 0, "failovers": 0, "degraded": 0,
            "backoff_seconds": 0.0}
        self.shards: list[_Shard] = []
        self.known_total: float = 0
        self.lost: float = 0

    def note(self, kind: str, shard: _Shard | None = None) -> None:
        """Tally one failover or degradation (failovers per shard
        too)."""
        self.tallies[kind] += 1
        if kind == "failovers":
            shard.failovers += 1
        registry = self.sampler.obs.registry
        if registry.enabled:
            registry.counter(f"storm.cluster.fault.{kind}").inc()

    def open(self) -> list[_Shard]:
        sampler = self.sampler
        rect = self.rect
        index = sampler.index
        cluster = index.cluster
        workers = index._intersecting_workers(rect)
        self.worker_costs = cluster.snapshot_costs()
        self.net_before = cluster.network.snapshot()
        tracer = sampler.obs.tracer
        self.span = tracer.begin(
            "dist_fanout", workers=len(workers),
            cost=cluster.total_worker_cost, net=cluster.network)
        # The propagated trace context: workers tag their per-pull
        # tallies with it (only a real tracer mints real trace ids).
        self.trace = self.span.context() if tracer.enabled else None
        sampler.last_faults = self.tallies  # live view; final at close
        sampler.coverage = 1.0
        unknown_shards = 0
        counted_shards = 0
        for worker in workers:
            try:
                count = sampler._with_retry(
                    lambda: index.count_on(worker, rect), self.tallies)
            except WorkerUnavailableError:
                # The shard died before we could even count it: its
                # in-range population is unknown.  It still must drag
                # coverage down, so it enters the denominator with an
                # estimated count below (the mean of the reachable
                # shards' counts — Hilbert sharding balances shard
                # sizes, see docs/fault_tolerance.md).
                unknown_shards += 1
                self.note("degraded")
                continue
            counted_shards += 1
            if count == 0:
                continue
            self.known_total += count
            shard = _Shard(self, worker, count)
            if not shard.acquire():
                self.lost += count
                self.note("degraded")
                continue
            if shard.serving is not shard.owner:
                self.note("failovers", shard)
            self.shards.append(shard)
        if unknown_shards:
            if counted_shards and self.known_total:
                estimated = (self.known_total / counted_shards
                             * unknown_shards)
                self.known_total += estimated
                self.lost += estimated
            else:
                # Nothing reachable at all: coverage collapses.
                self.known_total, self.lost = 1, 1
        self._update_coverage()
        return self.shards

    def _update_coverage(self) -> None:
        if self.known_total:
            self.sampler.coverage = ((self.known_total - self.lost)
                                     / self.known_total)

    def degrade(self, shard: _Shard) -> None:
        """Graceful degradation: write the shard's remainder off."""
        self.lost += shard.remaining
        shard.remaining = 0
        shard.handle = None
        self.note("degraded")
        self._update_coverage()

    def close(self) -> None:
        sampler = self.sampler
        cluster = sampler.index.cluster
        tracer = sampler.obs.tracer
        registry = sampler.obs.registry
        tallies = self.tallies
        span = self.span
        for shard in self.shards:
            if shard.handle is not None and shard.serving is not None:
                shard.serving.close_stream(shard.handle)
        net_delta = cluster.network.delta_from(self.net_before)
        sampler._last_query_seconds = (
            net_delta.seconds(cluster.network_model)
            + cluster.max_worker_seconds(since=self.worker_costs)
            + tallies["backoff_seconds"])
        span.set("simulated_seconds", sampler._last_query_seconds)
        if tallies["errors"] or tallies["failovers"] \
                or tallies["degraded"]:
            span.set("fault_errors", tallies["errors"])
            span.set("retries", tallies["retries"])
            span.set("failovers", tallies["failovers"])
            span.set("degraded_workers", tallies["degraded"])
        span.set("coverage", sampler.coverage)
        if tracer.enabled:
            # Stitch the per-shard pull accounting under the fanout
            # span: one worker_pull child per shard that saw any
            # traffic, all sharing the stream's trace id.
            for shard in self.shards:
                if not (shard.batches or shard.retries
                        or shard.failovers):
                    continue
                attrs = {"worker": shard.owner.worker_id,
                         "draws": shard.draws,
                         "batches": shard.batches,
                         "bytes": shard.bytes,
                         "retries": shard.retries,
                         "failovers": shard.failovers}
                if shard.serving is not None \
                        and shard.serving is not shard.owner:
                    attrs["served_by"] = shard.serving.worker_id
                tracer.end(tracer.begin("worker_pull", parent=span,
                                        **attrs))
        tracer.end(span)
        if registry.enabled:
            for shard in self.shards:
                if shard.draws:
                    registry.counter(
                        "storm.cluster.worker.draws",
                        worker=shard.owner.worker_id).inc(shard.draws)
            registry.counter("storm.cluster.messages").inc(
                net_delta.messages)
            registry.counter("storm.cluster.payload_bytes").inc(
                net_delta.payload_bytes)
            registry.gauge("storm.cluster.coverage").set(
                sampler.coverage)
