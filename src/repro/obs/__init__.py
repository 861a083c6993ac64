"""repro.obs — unified observability: metrics, traces, exporters.

One :class:`Observability` object bundles the two write paths every
layer shares:

* ``obs.registry`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  (counters/gauges/histograms with labels);
* ``obs.tracer`` — the :class:`~repro.obs.trace.Tracer` building
  per-query span trees that carry ``CostCounter``/``BlockStats``/
  ``NetworkStats`` deltas.

The default everywhere is :data:`NULL_OBS`, whose registry and tracer
are shared no-ops: instrumented code pays one attribute read plus one
``enabled`` check, so the sampler hot paths stay benchmark-neutral
until a caller opts in with ``Observability()`` (live) — the CLI's
``--trace``/``stats`` modes, the EXPLAIN report and the bench harness
all do.  The query service (``storm-query serve``,
:class:`repro.server.http.StormServer`) is the one HTTP face of a live
registry: ``/metrics`` renders it with :func:`render_prometheus` and
``/metrics.json`` returns its snapshot plus the sliding window.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.export import (metrics_record, render_dashboard,
                              span_records, write_jsonl)
from repro.obs.explain import phase_costs, render_explain
from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, NullRegistry,
                               NULL_REGISTRY, escape_label_value,
                               metric_key)
from repro.obs.profile import SamplingProfiler, profiled
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import (NULL_TRACER, NullTracer, Span,
                             TraceContext, Tracer)

__all__ = ["Observability", "NULL_OBS", "MetricsRegistry",
           "NullRegistry", "NULL_REGISTRY", "Counter", "Gauge",
           "Histogram", "metric_key", "escape_label_value", "Tracer",
           "NullTracer", "NULL_TRACER", "Span", "TraceContext",
           "span_records", "metrics_record", "write_jsonl",
           "render_dashboard", "render_explain", "phase_costs",
           "SamplingProfiler", "profiled", "render_prometheus"]


class Observability:
    """A registry + tracer pair threaded through the whole stack."""

    __slots__ = ("registry", "tracer")

    def __init__(self, registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 clock: Callable[[], float] | None = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer if tracer is not None \
            else (Tracer(clock=clock) if clock is not None else Tracer())

    @property
    def enabled(self) -> bool:
        """Whether either write path records anything."""
        return self.registry.enabled or self.tracer.enabled

    def reset(self) -> None:
        """Clear both the registry and the tracer."""
        self.registry.reset()
        self.tracer.reset()

    def __repr__(self) -> str:
        state = "live" if self.enabled else "null"
        return f"<Observability {state}>"


#: The shared opt-out: records nothing, costs a guard.
NULL_OBS = Observability(NULL_REGISTRY, NULL_TRACER)
