"""Common protocol for spatial online samplers.

A sampler is bound to one indexed data set.  For each query it produces an
iterator of :class:`~repro.index.rtree.Entry` objects drawn uniformly at
random from ``P ∩ Q`` without replacement; the iterator ends (raises
``StopIteration``) only when every in-range point has been emitted.  The
consumer — an online estimator or a query session — pulls one sample at a
time and stops whenever it is satisfied, which is the paper's Definition 1.

Definition 1's other mode, with replacement, is built here once for every
sampler: :meth:`SpatialSampler.sample_stream_with_replacement` wraps the
sampler's own without-replacement stream in a repeat coin
(:class:`_WithReplacement`), so its draws are i.i.d. uniform wherever the
without-replacement stream is uniform.

``SamplerStats`` packages the cost-counter deltas a sampler accumulated for
one query, used by the benchmark harness and the query optimizer's feedback
loop.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.core.geometry import Rect
from repro.index.cost import CostCounter, CostModel, DEFAULT_COST_MODEL
from repro.index.rtree import Entry
from repro.obs import NULL_OBS, Observability

__all__ = ["SpatialSampler", "SamplerStats", "take"]


@dataclass(slots=True)
class SamplerStats:
    """Work a sampler did for one query (cost delta + sample count)."""

    sampler: str
    samples: int
    cost: CostCounter

    def simulated_seconds(self, model: CostModel = DEFAULT_COST_MODEL
                          ) -> float:
        """The cost delta under the disk cost model."""
        return model.simulated_seconds(self.cost)


class SpatialSampler(ABC):
    """Interface every sampling strategy implements.

    Subclasses must set ``name`` (used by the optimizer and benchmarks) and
    implement :meth:`sample_stream` and :meth:`range_count`.
    """

    name: str = "abstract"

    #: Observability sink shared by every instance unless rebound; the
    #: class-level default is the no-op pair, so uninstrumented
    #: samplers pay nothing.
    obs: Observability = NULL_OBS

    #: Reachable fraction of the last stream's population.  Local
    #: samplers always see everything (1.0); fault-tolerant distributed
    #: samplers lower it when a shard becomes unreachable and no
    #: replica holds a copy (graceful degradation), so sessions and
    #: estimators can report honestly instead of silently under-
    #: covering.  See ``docs/fault_tolerance.md``.
    coverage: float = 1.0

    def bind_observability(self, obs: Observability) -> None:
        """Attach a live registry/tracer pair (datasets do this)."""
        self.obs = obs

    def open_stream(self, query: Rect, rng: random.Random,
                    cost: CostCounter | None = None,
                    with_replacement: bool = False) -> Iterator[Entry]:
        """Instrumented stream entry point (sessions call this).

        Exactly :meth:`sample_stream` (or the with-replacement
        variant) when observability is off; with a live registry it
        also counts opened streams and emitted samples per sampler.
        """
        if with_replacement:
            stream = self.sample_stream_with_replacement(query, rng,
                                                         cost=cost)
        else:
            stream = self.sample_stream(query, rng, cost=cost)
        registry = self.obs.registry
        if not registry.enabled:
            return stream
        registry.counter("storm.sampler.streams",
                         sampler=self.name).inc()
        return _CountedStream(stream, registry.counter(
            "storm.sampler.samples", sampler=self.name))

    @abstractmethod
    def sample_stream(self, query: Rect, rng: random.Random,
                      cost: CostCounter | None = None) -> Iterator[Entry]:
        """Uniform without-replacement sample stream from ``P ∩ Q``."""

    def sample_stream_with_replacement(
            self, query: Rect, rng: random.Random,
            cost: CostCounter | None = None) -> Iterator[Entry]:
        """Uniform *with-replacement* stream: independent uniform draws.

        Counts ``q`` once and wraps this sampler's own
        without-replacement stream, opened (and pinned, for the tiered
        snapshot) here, in :class:`_WithReplacement`.  The stream is
        infinite for a non-empty range — the consumer stops it — and
        empty for an empty one.
        """
        cost = cost if cost is not None else self.default_cost()
        q = self.range_count(query, cost)
        if q == 0:
            return iter(())
        return _WithReplacement(self.sample_stream(query, rng, cost=cost),
                                q, rng, cost)

    def default_cost(self) -> CostCounter:
        """The counter a stream charges when the caller passes none
        (samplers without a ``tree`` override it)."""
        return self.tree.cost

    @abstractmethod
    def range_count(self, query: Rect,
                    cost: CostCounter | None = None) -> int:
        """Exact ``q = |P ∩ Q|`` (used for finite-population corrections
        and SUM/COUNT estimators)."""

    def draw_batch(self, stream: Iterator[Entry], k: int) -> list[Entry]:
        """Pull up to k entries from an open stream in one call.

        The batched fast path sessions and estimators use (see
        :func:`take`).  Returns fewer than k entries only at stream
        exhaustion.
        """
        return take(stream, k)

    def sample(self, query: Rect, k: int, rng: random.Random,
               cost: CostCounter | None = None) -> list[Entry]:
        """Convenience: the first k samples (fewer when q < k).

        The stream is closed before returning so ``finally``-based
        cost/trace accounting inside samplers runs promptly rather
        than at GC time.
        """
        stream = self.sample_stream(query, rng, cost=cost)
        out = self.draw_batch(stream, k)
        close = getattr(stream, "close", None)
        if close is not None:
            close()
        return out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class _WithReplacement:
    """Independent uniform draws from a uniform without-replacement
    stream over ``q`` entries.

    With ``d`` distinct entries drawn so far, a draw repeats a uniformly
    chosen one of them with probability ``d/q`` and otherwise takes the
    stream's next entry, which is uniform over the ``q - d`` unseen
    ones: each draw is uniform over all ``q`` whatever came before
    (DESIGN.md, "Uniform draws over a disjoint union").  The wrapped
    stream charges ``cost`` one sample per entry it emits and the
    wrapper one per repeat, so every draw costs one sample.
    """

    __slots__ = ("_stream", "_q", "_rng", "_cost", "_drawn")

    def __init__(self, stream: Iterator[Entry], q: int,
                 rng: random.Random, cost: CostCounter):
        self._stream = stream
        self._q = q
        self._rng = rng
        self._cost = cost
        #: Distinct entries drawn so far, in stream order.
        self._drawn: list[Entry] = []

    def __iter__(self) -> _WithReplacement:
        return self

    def __next__(self) -> Entry:
        return self.draw_batch(1)[0]

    def draw_batch(self, k: int) -> list[Entry]:
        """The next k draws."""
        drawn = self._drawn
        seen = d = len(drawn)
        q = self._q
        rnd = self._rng.random
        # Toss every coin first — an index into `drawn`, d for the next
        # fresh entry — then pull the fresh entries in one batch.
        picks = []
        for _ in range(k):
            if rnd() * q < d:
                picks.append(int(rnd() * d))
            else:
                picks.append(d)
                d += 1
        if d > seen:
            drawn += take(self._stream, d - seen)
        self._cost.charge_sample(len(picks) - (d - seen))
        return [drawn[i] for i in picks]

    def close(self) -> None:
        close = getattr(self._stream, "close", None)
        if close is not None:
            close()


class _CountedStream:
    """Pass-through that tallies each emitted sample.

    A delegating iterator rather than a generator so instrumented
    streams keep their ``draw_batch`` and ``close`` fast paths — a
    generator wrapper would hide them and silently drop instrumented
    sessions back to per-sample pulls.
    """

    __slots__ = ("_stream", "_counter")

    def __init__(self, stream: Iterator[Entry], counter):
        self._stream = stream
        self._counter = counter

    def __iter__(self) -> _CountedStream:
        return self

    def __next__(self) -> Entry:
        entry = next(self._stream)
        self._counter.inc()
        return entry

    def draw_batch(self, k: int) -> list[Entry]:
        batch = take(self._stream, k)
        if batch:
            self._counter.inc(len(batch))
        return batch

    def close(self) -> None:
        close = getattr(self._stream, "close", None)
        if close is not None:
            close()


def take(stream: Iterator[Entry], k: int) -> list[Entry]:
    """First k elements of a stream (all of them when shorter), in
    one ``draw_batch`` call when the stream has one."""
    batched = getattr(stream, "draw_batch", None)
    if batched is not None:
        return batched(k)
    return list(islice(stream, k))
