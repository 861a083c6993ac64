"""Online query sessions: the query/analytics evaluator loop.

A session wires a sampler to an estimator for one query and drives the
online loop: pull a sample, absorb it, report a progressive estimate.  The
paper's three termination modes map onto :class:`StopCondition`:

* *user stop* — the caller simply stops iterating :meth:`run` (interactive
  exploration: issue the next query whenever satisfied);
* *accuracy requirement* — ``target_relative_error`` / ``target_half_width``;
* *best effort* — ``max_seconds`` wall-clock budget.

When the stream exhausts (k = q) the final estimate is exact, mirroring
"quality improves over time until the exact result is obtained".

The clock is injectable so tests are deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.estimators.base import Estimate, OnlineEstimator
from repro.core.geometry import Rect
from repro.core.records import Record
from repro.core.sampling.base import SpatialSampler
from repro.errors import EstimatorError, StormError
from repro.index.cost import CostCounter
from repro.obs import NULL_OBS, Observability, Span

__all__ = ["StopCondition", "ProgressPoint", "OnlineQuerySession"]


@dataclass(frozen=True, slots=True)
class StopCondition:
    """When to end an online query.

    Any combination may be set; the session stops at the first one met.
    ``target_relative_error`` refers to the interval half-width relative
    to the current estimate (the paper's "error within x%").
    """

    max_samples: int | None = None
    max_seconds: float | None = None
    target_relative_error: float | None = None
    target_half_width: float | None = None
    level: float = 0.95

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise StormError(
                f"confidence level must be in (0,1), got {self.level}")
        if (self.max_samples is None and self.max_seconds is None
                and self.target_relative_error is None
                and self.target_half_width is None):
            # Pure user-stop mode is allowed: the caller breaks the loop.
            return
        for name in ("max_samples", "max_seconds",
                     "target_relative_error", "target_half_width"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise StormError(f"{name} must be positive, got {value}")


@dataclass(slots=True)
class ProgressPoint:
    """One snapshot of a running query."""

    k: int
    elapsed: float
    estimate: Estimate
    cost: CostCounter
    done: bool = False
    reason: str = ""
    #: Reachable fraction of the queried population (< 1.0 only when a
    #: fault-tolerant sampler degraded gracefully — samples are then
    #: uniform over the *reachable* part; see docs/fault_tolerance.md).
    coverage: float = 1.0


class OnlineQuerySession:
    """Drives one (sampler, estimator, query) online-aggregation loop."""

    def __init__(self, sampler: SpatialSampler,
                 estimator: OnlineEstimator, query: Rect,
                 lookup: Callable[[int], Record],
                 rng: random.Random | None = None,
                 clock: Callable[[], float] = time.perf_counter,
                 report_every: int = 16,
                 with_replacement: bool = False,
                 obs: Observability | None = None,
                 labels: dict[str, object] | None = None):
        if report_every < 1:
            raise StormError("report_every must be >= 1")
        self.sampler = sampler
        self.estimator = estimator
        self.query = query
        self.lookup = lookup
        self.rng = rng if rng is not None else random.Random()
        self.clock = clock
        self.report_every = report_every
        self.with_replacement = with_replacement
        # Observability: spans per run ("query" > "range_count" /
        # "sample_stream") plus registry counters.  ``labels`` tag both
        # (datasets pass their name).  Defaults to the shared no-op.
        self.obs = obs if obs is not None else NULL_OBS
        self.labels = dict(labels) if labels else {}
        self.cost = CostCounter()
        #: The :class:`~repro.core.engine.SamplerPlan` that picked the
        #: sampler (set by the dataset that opened the session).
        self.plan = None
        #: Root span of the latest run() (None when tracing is off).
        self.trace: Span | None = None
        # Resumable-session state: the stream, sample count and clock
        # origin survive across run() calls.
        self._stream: Iterator | None = None
        self._k = 0
        self._q: int | None = None
        self._start: float | None = None
        self._exhausted = False

    # ------------------------------------------------------------------

    def _coverage(self) -> float:
        """The sampler's reachable-population fraction (1.0 for local
        samplers; < 1.0 after graceful degradation)."""
        return getattr(self.sampler, "coverage", 1.0)

    def _current_estimate(self, level: float) -> Estimate | None:
        try:
            return self.estimator.estimate(level)
        except EstimatorError:
            return None  # not enough samples yet for this estimator

    def _met(self, stop: StopCondition, estimate: Estimate | None,
             elapsed: float, k: int, q: int) -> str:
        if k >= q and not self.with_replacement:
            coverage = self._coverage()
            if coverage < 1.0:
                # q only counted reachable shards: the result is exact
                # over what the cluster could reach, not the world.
                return f"exhausted (coverage {coverage:.0%})"
            return "exhausted (exact result)"
        if stop.max_samples is not None and k >= stop.max_samples:
            return "sample budget reached"
        if stop.max_seconds is not None and elapsed >= stop.max_seconds:
            return "time budget reached"
        if estimate is not None and estimate.interval is not None:
            if stop.target_half_width is not None \
                    and estimate.interval.half_width \
                    <= stop.target_half_width:
                return "target half-width reached"
            if stop.target_relative_error is not None \
                    and estimate.interval.relative_half_width() \
                    <= stop.target_relative_error:
                return "target relative error reached"
        return ""

    def _ensure_started(self) -> None:
        """Lazy initialisation shared by first run() and resumes."""
        if self._stream is not None or self._exhausted:
            return
        with self.obs.tracer.span("range_count", cost=self.cost) as sp:
            self._q = self.sampler.range_count(self.query, self.cost)
            sp.set("q", self._q)
        self.estimator.set_population_size(self._q)
        # With replacement, the finite-population correction and the
        # "k = q means exact" collapse do not apply.
        self.estimator.sampling_with_replacement = self.with_replacement
        if self._q == 0:
            self._exhausted = True
            return
        self._stream = self.sampler.open_stream(
            self.query, self.rng, cost=self.cost,
            with_replacement=self.with_replacement)

    def run(self, stop: StopCondition = StopCondition()
            ) -> Iterator[ProgressPoint]:
        """Yield progressive estimates until a stop condition fires.

        The caller may also just stop iterating — that is the paper's
        "user terminates the query" mode, and no further samples are
        drawn once the generator is dropped.

        Sessions are *resumable*: calling run() again after a stop
        condition fired continues the same sample stream and estimator
        ("s/he could also wait a bit longer for better quality").  The
        elapsed clock covers the session's whole life, so time budgets
        compose across resumes.
        """
        if self.with_replacement and stop.max_samples is None \
                and stop.max_seconds is None \
                and stop.target_relative_error is None \
                and stop.target_half_width is None:
            raise StormError(
                "with-replacement sessions never exhaust; set a sample,"
                " time, or accuracy stop condition")
        if self._start is None:
            self._start = self.clock()
        tracer = self.obs.tracer
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.session.runs",
                             sampler=self.sampler.name,
                             **self.labels).inc()
        qspan = tracer.begin("query", sampler=self.sampler.name,
                             resumed=self._k > 0, **self.labels)
        self.trace = qspan if tracer.enabled else None
        try:
            self._ensure_started()
            q = self._q
            assert q is not None
            qspan.set("q", q)
            if q == 0:
                qspan.set("reason", "empty range")
                yield ProgressPoint(
                    k=0, elapsed=self.clock() - self._start,
                    estimate=Estimate(
                        value=None, std_error=None,
                        interval=None, k=0, q=0, exact=True),
                    cost=self.cost.snapshot(), done=True,
                    reason="empty range")
                return
            # A resume may already satisfy the new stop condition.
            if self._k > 0:
                elapsed = self.clock() - self._start
                estimate = self._current_estimate(stop.level)
                reason = self._met(stop, estimate, elapsed, self._k, q)
                if reason:
                    qspan.set("reason", reason)
                    yield ProgressPoint(
                        k=self._k, elapsed=elapsed,
                        estimate=estimate if estimate is not None else
                        Estimate(value=None, std_error=None,
                                 interval=None, k=self._k, q=q),
                        cost=self.cost.snapshot(), done=True,
                        reason=reason, coverage=self._coverage())
                    return
            assert self._stream is not None
            k_before = self._k
            sspan = tracer.begin("sample_stream", cost=self.cost)
            # Per-draw latency quantiles (p50 vs p99 is what separates
            # a healthy stream from a degrading one); created once so
            # the loop below pays one observe(), and skipped entirely
            # on null registries (fake-clock tests stay undisturbed).
            latency = registry.histogram(
                "storm.sample.latency_seconds",
                sampler=self.sampler.name,
                **self.labels) if registry.enabled else None
            try:
                lookup = self.lookup
                while True:
                    # Batched fast path: pull samples up to the next
                    # report_every boundary in one draw_batch call, so
                    # stop conditions are still evaluated at exactly the
                    # same sample counts as the one-at-a-time loop.
                    want = self.report_every \
                        - (self._k % self.report_every)
                    if latency is None:
                        batch = self.sampler.draw_batch(self._stream,
                                                        want)
                    else:
                        drew_at = self.clock()
                        batch = self.sampler.draw_batch(self._stream,
                                                        want)
                        latency.observe(self.clock() - drew_at)
                    if not batch:
                        break  # stream exhausted
                    # Column-capable estimators absorb the batch's
                    # coordinates straight off the index entries; the
                    # rest get Records via lookup as before.
                    self.estimator.absorb_entry_batch(batch, lookup)
                    self._k += len(batch)
                    k = self._k
                    boundary = (k % self.report_every == 0) \
                        or (k >= q and not self.with_replacement)
                    if not boundary:
                        continue
                    elapsed = self.clock() - self._start
                    estimate = self._current_estimate(stop.level)
                    reason = self._met(stop, estimate, elapsed, k, q)
                    if estimate is not None or reason:
                        yield ProgressPoint(
                            k=k, elapsed=elapsed,
                            estimate=estimate if estimate is not None
                            else Estimate(value=None, std_error=None,
                                          interval=None, k=k, q=q),
                            cost=self.cost.snapshot(),
                            done=bool(reason), reason=reason,
                            coverage=self._coverage())
                    if reason:
                        qspan.set("reason", reason)
                        if k >= q and not self.with_replacement:
                            # Everything was emitted: close the stream
                            # now so sampler-held resources (and any
                            # spans it opened) release deterministically
                            # rather than at GC time.
                            self._stream.close()
                            self._exhausted = True
                        return
                self._exhausted = True
                if self._k < q and not self.with_replacement:
                    # The stream ended before covering q: a fault-
                    # tolerant sampler dropped unreachable shards
                    # (graceful degradation).  Report the shortfall
                    # honestly instead of going silent.
                    coverage = self._coverage()
                    reason = (f"stream exhausted "
                              f"(coverage {coverage:.0%})")
                    qspan.set("reason", reason)
                    qspan.set("coverage", coverage)
                    elapsed = self.clock() - self._start
                    estimate = self._current_estimate(stop.level)
                    yield ProgressPoint(
                        k=self._k, elapsed=elapsed,
                        estimate=estimate if estimate is not None
                        else Estimate(value=None, std_error=None,
                                      interval=None, k=self._k, q=q),
                        cost=self.cost.snapshot(), done=True,
                        reason=reason, coverage=coverage)
            finally:
                sspan.set("k", self._k - k_before)
                tracer.end(sspan)
                if registry.enabled:
                    registry.counter("storm.session.samples",
                                     sampler=self.sampler.name,
                                     **self.labels).inc(
                                         self._k - k_before)
        finally:
            qspan.set("k", self._k)
            if self._coverage() < 1.0:
                qspan.set("coverage", self._coverage())
            tracer.end(qspan)
            if registry.enabled and qspan.attrs.get("reason"):
                registry.counter("storm.session.stops",
                                 reason=qspan.attrs["reason"],
                                 **self.labels).inc()

    def close(self) -> None:
        """Close the sample stream now rather than at garbage
        collection; samplers that hold resources or open spans for a
        stream (the distributed fan-out) release them here."""
        if self._stream is not None:
            self._stream.close()

    def run_to_stop(self, stop: StopCondition) -> ProgressPoint:
        """Run until a stop condition fires; return the final snapshot."""
        last: ProgressPoint | None = None
        for point in self.run(stop):
            last = point
        if last is None:
            raise StormError("session produced no progress points")
        return last

    def history(self, stop: StopCondition) -> list[ProgressPoint]:
        """Run to the stop condition, keeping every snapshot (used by the
        error-vs-time experiments)."""
        return list(self.run(stop))
