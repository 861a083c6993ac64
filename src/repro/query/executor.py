"""Executes parsed queries against a StormEngine.

The executor builds the right estimator for the task, derives the stop
condition from the query's options (accuracy target / time budget / sample
budget) and opens an online session on the dataset, whose ``plan``
resolves the sampling method (forced via ``USING``, fixed by the dataset
kind, or chosen by the per-dataset optimizer).  ``EXPLAIN`` queries
return that plan's text instead of running;
:meth:`QueryExecutor.explain_report` goes further and *runs* the query
under a trace, reporting the plan, per-phase simulated seconds and the
stop-condition outcome (an ``EXPLAIN ANALYZE``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace

from repro.core.engine import StormEngine
from repro.core.estimators.aggregates import (AvgEstimator, CountEstimator,
                                              QuantileEstimator,
                                              SumEstimator,
                                              VarianceEstimator)
from repro.core.estimators import GridSpec, OnlineKDE, OnlineKMeans
from repro.core.estimators.base import OnlineEstimator
from repro.core.estimators.groupby import GroupByEstimator
from repro.core.estimators.text import ShortTextEstimator
from repro.core.estimators.timeseries import TimeHistogramEstimator
from repro.core.estimators.trajectory import TrajectoryEstimator
from repro.core.records import STRange, attribute_getter
from repro.core.session import (OnlineQuerySession, ProgressPoint,
                                StopCondition)
from repro.errors import StormError
from repro.index.cost import DEFAULT_COST_MODEL
from repro.obs import Observability, Span, Tracer, render_explain
from repro.query.ast import QuerySpec
from repro.query.language import parse

__all__ = ["QueryExecutor", "QueryResult"]

_DEFAULT_SAMPLE_CAP = 2000


@dataclass(slots=True)
class QueryResult:
    """Outcome of one executed query."""

    spec: QuerySpec
    final: ProgressPoint | None
    explanation: str | None = None
    #: Root span of the query's trace (None when tracing was off).
    trace: Span | None = None

    @property
    def value(self):
        """The final estimate's value (None for EXPLAIN)."""
        return self.final.estimate.value if self.final else None

    def summary(self) -> str:
        """One-line result: value, k/q, interval, stop reason."""
        if self.explanation is not None:
            return self.explanation
        assert self.final is not None
        est = self.final.estimate
        parts = [f"value={est.value!r}", f"k={est.k}", f"q={est.q}"]
        if est.interval is not None:
            parts.append(f"ci=[{est.interval.lo:.6g}, "
                         f"{est.interval.hi:.6g}]@{est.interval.level:.0%}")
        if est.exact:
            parts.append("exact")
        parts.append(f"stopped: {self.final.reason}")
        return " ".join(parts)


class QueryExecutor:
    """Runs query strings / specs on an engine."""

    def __init__(self, engine: StormEngine,
                 rng: random.Random | None = None,
                 obs: Observability | None = None):
        self.engine = engine
        self.rng = rng if rng is not None else random.Random()
        # Defaults to the engine's sink so CLI --trace / stats see
        # every query this executor runs.
        self.obs = obs if obs is not None else engine.obs

    # ------------------------------------------------------------------

    def _estimator(self, spec: QuerySpec, query: STRange
                   ) -> OnlineEstimator:
        task = spec.task
        if spec.group_by is not None:
            attribute = None
            if task.kind in ("avg", "sum"):
                attribute = attribute_getter(task.attribute)
            return GroupByEstimator(spec.group_by, attribute=attribute)
        if task.kind == "avg":
            return AvgEstimator(attribute_getter(task.attribute))
        if task.kind == "sum":
            return SumEstimator(attribute_getter(task.attribute))
        if task.kind == "count":
            predicate = None
            if spec.record_filter is not None:
                predicate = spec.record_filter.matches
            return CountEstimator(predicate)
        if task.kind in ("std", "var"):
            return VarianceEstimator(attribute_getter(task.attribute),
                                     std=task.kind == "std")
        if task.kind == "median":
            return QuantileEstimator(attribute_getter(task.attribute),
                                     0.5)
        if task.kind == "quantile":
            return QuantileEstimator(attribute_getter(task.attribute),
                                     task.params["p"])
        if task.kind == "kde":
            if spec.region is None:
                raise StormError("KDE needs a REGION to grid over")
            lon_lo, lat_lo, lon_hi, lat_hi = spec.region
            grid = GridSpec(lon_lo, lat_lo, lon_hi, lat_hi,
                            nx=task.params.get("nx", 32),
                            ny=task.params.get("ny", 32))
            return OnlineKDE(grid,
                             bandwidth=task.params.get("bandwidth"))
        if task.kind == "terms":
            return ShortTextEstimator(text_field=task.attribute or "text")
        if task.kind == "trajectory":
            return TrajectoryEstimator(key_field=task.attribute,
                                       key_value=task.params["key"])
        if task.kind == "timeseries":
            if spec.time is None:
                raise StormError(
                    "TIMESERIES needs a TIME(...) range to bucket")
            attribute = attribute_getter(task.attribute) \
                if task.attribute else None
            return TimeHistogramEstimator(
                spec.time[0], spec.time[1],
                buckets=task.params["buckets"], attribute=attribute)
        if task.kind == "clusters":
            return OnlineKMeans(task.params["k"],
                                seed=self.rng.getrandbits(32))
        raise StormError(f"unsupported task kind {task.kind!r}")

    def _stop(self, spec: QuerySpec) -> StopCondition:
        max_samples = spec.max_samples
        if max_samples is None and spec.budget_seconds is None \
                and spec.target_error is None:
            # Batch API: cap so un-bounded queries still return.  The
            # interactive path iterates the session directly instead.
            max_samples = _DEFAULT_SAMPLE_CAP
        return StopCondition(max_samples=max_samples,
                             max_seconds=spec.budget_seconds,
                             target_relative_error=spec.target_error,
                             level=spec.confidence)

    def execute(self, query: "str | QuerySpec",
                obs: Observability | None = None) -> QueryResult:
        """Parse (if needed) and run one query to its stop condition.

        ``obs`` overrides the executor's observability sink for this
        one query.
        """
        spec = parse(query) if isinstance(query, str) else query
        if spec.explain:
            # EXPLAIN shows the default plan, even under USING.
            dataset = self.engine.dataset(spec.dataset)
            plan = dataset.plan(dataset.to_rect(spec.st_range()),
                                expected_k=spec.max_samples)
            return QueryResult(spec=spec, final=None,
                               explanation=plan.text)
        session, final = self._run(
            spec, obs if obs is not None else self.obs)
        return QueryResult(spec=spec, final=final, trace=session.trace)

    def _run(self, spec: QuerySpec, obs: Observability
             ) -> tuple[OnlineQuerySession, ProgressPoint]:
        """The batch run behind :meth:`execute` and the EXPLAIN
        report: the (closed) session and its final point."""
        session, stop = self.session(spec, obs=obs)
        plan = session.plan
        try:
            started = time.perf_counter()
            final = session.run_to_stop(stop)
            if obs.registry.enabled:
                obs.registry.histogram(
                    "storm.query.latency_seconds",
                    task=spec.task.kind, dataset=spec.dataset).observe(
                        time.perf_counter() - started)
            if plan.optimizer is not None and final.k > 0:
                # Close the loop: calibrate the optimizer with what the
                # chosen method actually cost.
                actual = DEFAULT_COST_MODEL.simulated_seconds(final.cost)
                plan.optimizer.record_outcome(plan.sampler.name,
                                              session.query, final.k,
                                              actual)
        finally:
            # The trace is read next: the stream's spans must be closed.
            session.close()
        return session, final

    def explain_report(self, query: "str | QuerySpec",
                       obs: Observability | None = None) -> str:
        """Run the query under a trace and render the full EXPLAIN
        report: optimizer scoring (or the forced method), per-phase
        simulated seconds from the span tree, and the stop-condition
        outcome.  Spans go to a fresh private tracer so the report
        never mixes with other queries', while metrics keep flowing
        into the executor's registry (when live) — EXPLAIN and
        ``storm stats`` render from the same registry.
        """
        spec = parse(query) if isinstance(query, str) else query
        if spec.explain:
            spec = replace(spec, explain=False)
        if obs is not None:
            local = obs
        else:
            shared = self.obs.registry \
                if self.obs.registry.enabled else None
            local = Observability(registry=shared, tracer=Tracer())
        registry = local.registry
        if registry.enabled:
            fault_before = {
                label: registry.counter(name).value
                for label, name in self._FAULT_COUNTERS.items()}
        dataset = self.engine.dataset(spec.dataset)
        with dataset.explain_counters() as counters:
            session, final = self._run(spec, local)
        caches = counters["caches"]
        faults = {}
        if registry.enabled:
            faults = {
                label: registry.counter(name).value - before
                for (label, name), before
                in zip(self._FAULT_COUNTERS.items(),
                       fault_before.values())}
        faults.update(counters["faults"])
        # Durability tallies are engine-lifetime, not per-query: WAL
        # traffic happens on the update path and recovery at load
        # time, so EXPLAIN surfaces the cumulative counters (all-zero
        # rows — i.e. a WAL-less engine — render nothing).
        durability = {}
        if registry.enabled:
            durability = {
                label: registry.counter(name).value
                for label, name in self._DURABILITY_COUNTERS.items()}
        # Tiered-ingest shape rides in the durability section: the
        # tiers are what the WAL's committed-but-uncompacted suffix
        # currently looks like (zero rows render nothing, so datasets
        # without an LSM attached are unaffected).
        if dataset.lsm is not None:
            durability.update({
                f"lsm {key.replace('_', ' ')}": value
                for key, value in dataset.lsm.tier_shape().items()})
        return render_explain(session.plan.text, session.trace, final,
                              caches=caches, index=counters["index"],
                              faults=faults, durability=durability)

    #: Registry counters surfaced in the EXPLAIN "faults" section
    #: (label -> counter name); zero-valued rows are not rendered.
    _FAULT_COUNTERS = {
        "dfs failover attempts": "storm.dfs.failover.attempts",
        "dfs failover reads": "storm.dfs.failover.reads",
        "dfs replicas exhausted": "storm.dfs.failover.exhausted",
        "worker errors": "storm.cluster.fault.errors",
        "retries": "storm.cluster.fault.retries",
        "stream failovers": "storm.cluster.fault.failovers",
        "degraded workers": "storm.cluster.fault.degraded",
    }

    #: Registry counters surfaced in the EXPLAIN "durability" section
    #: (cumulative engine-lifetime values; zero rows not rendered).
    _DURABILITY_COUNTERS = {
        "wal appends": "storm.wal.appends",
        "wal bytes appended": "storm.wal.bytes_appended",
        "wal checkpoints": "storm.wal.checkpoints",
        "wal segments pruned": "storm.wal.segments_pruned",
        "recovery runs": "storm.recovery.runs",
        "recovery records replayed": "storm.recovery.records_replayed",
        "recovery ops replayed": "storm.recovery.ops_replayed",
        "recovery bytes discarded": "storm.recovery.bytes_discarded",
        "write crashes injected": "storm.dfs.write_crashes",
    }

    def session(self, query: "str | QuerySpec", *,
                rng: random.Random | None = None,
                obs: Observability | None = None,
                labels: dict[str, object] | None = None,
                report_every: int = 16,
                clock=None):
        """The interactive path: an OnlineQuerySession the caller drives
        (and may abandon at any time — the paper's exploration mode).

        The keyword hooks exist for re-entrant callers that multiplex
        many sessions over one executor — the query service hands every
        stream its own seeded ``rng`` (streams must not share draw
        state), tags sessions with tenant ``labels``, and sets
        ``report_every`` to its scheduling quantum.  ``clock``
        overrides the session's time source; durable detached streams
        pass a logical clock so every emitted frame is reproducible
        byte-for-byte across a restart.
        """
        spec = parse(query) if isinstance(query, str) else query
        if spec.explain:
            raise StormError("EXPLAIN queries have no session")
        dataset = self.engine.dataset(spec.dataset)
        st_range = spec.st_range()
        estimator = self._estimator(spec, st_range)
        return dataset.session(
            st_range, estimator, method=spec.method,
            rng=rng if rng is not None else self.rng,
            expected_k=spec.max_samples,
            report_every=report_every,
            with_replacement=spec.with_replacement,
            obs=obs, labels=labels, clock=clock), self._stop(spec)
