"""Rendering of the EXPLAIN report: plan, phases and outcome.

The optimizer's :meth:`~repro.core.optimizer.Plan.explain` answers *why
this sampler*; this module answers the other two questions a user of a
progressive system has — *where did the time go* (per-phase simulated
seconds from the query's span tree, under the same
:class:`~repro.index.cost.CostModel` the optimizer scored with) and
*why did it stop* (the session's stop-condition outcome and final
estimate).  The report is assembled from the same trace spans the JSONL
exporter writes, so EXPLAIN never disagrees with the trace file.
"""

from __future__ import annotations

from repro.index.cost import CostModel, DEFAULT_COST_MODEL
from repro.obs.trace import Span

__all__ = ["phase_costs", "render_explain"]


def phase_costs(root: Span,
                model: CostModel = DEFAULT_COST_MODEL
                ) -> list[tuple[str, float, object]]:
    """(name, simulated seconds, cost delta) per cost-bearing span."""
    rows = []
    for span in root.walk():
        if span.cost is not None:
            rows.append((span.name, model.simulated_seconds(span.cost),
                         span.cost))
    return rows


def render_explain(plan_text: str, root: Span | None, final,
                   model: CostModel = DEFAULT_COST_MODEL,
                   caches: "dict[str, tuple[int, int]] | None" = None,
                   index: "dict[str, object] | None" = None,
                   faults: "dict[str, object] | None" = None,
                   durability: "dict[str, object] | None" = None
                   ) -> str:
    """The full EXPLAIN report for one executed query.

    ``plan_text`` is the optimizer's scoring (or a note that the method
    was forced), ``root`` the query's root span (None when tracing was
    off), ``final`` the session's last
    :class:`~repro.core.session.ProgressPoint`.  ``caches`` maps a
    cache name (e.g. ``"canonical-set"``) to its (hits, misses) delta
    for this query; caches with zero lookups are skipped.  ``faults`` maps a fault/recovery event name (e.g.
    ``"retries"``, ``"stream failovers"``, ``"degraded workers"``) to
    its count for this query; an all-zero dict is skipped entirely so
    fault-free EXPLAIN output is unchanged.  ``durability`` maps a
    WAL/recovery event name (e.g. ``"wal appends"``, ``"recovery
    records replayed"``) to its cumulative count — these are
    engine-lifetime tallies (recovery runs at load time, not per
    query) and, like faults, an all-zero dict is skipped.  ``index``
    describes the leaf storage the query scanned (columnar block vs
    record-list) and this query's vectorized-filter activity; falsy
    rows are skipped like the other tables.
    """
    lines = ["plan:"]
    lines.extend("  " + line for line in plan_text.splitlines())
    if root is not None:
        rows = phase_costs(root, model)
        lines.append("phases (simulated seconds, disk cost model):")
        total = 0.0
        width = max((len(name) for name, _, _ in rows), default=5)
        for name, seconds, cost in rows:
            total += seconds
            lines.append(
                f"  {name:<{width}}  {seconds:>10.6f}s"
                f"  reads={cost.node_reads}"
                f" (random={cost.random_reads},"
                f" seq={cost.sequential_reads})"
                f" scanned={cost.leaf_entries_scanned}"
                f" samples={cost.samples_emitted}")
        lines.append(f"  {'total':<{width}}  {total:>10.6f}s")
        if root.net is not None:
            lines.append(
                f"network: messages={root.net.messages}"
                f" payload_bytes={root.net.payload_bytes}")
        pulls = root.find_all("worker_pull")
        if pulls:
            lines.append(f"workers (trace {root.trace_id}):")
            width = max(len(str(p.attrs.get("worker", "?")))
                        for p in pulls)
            for pull in pulls:
                a = pull.attrs
                row = (f"  {str(a.get('worker', '?')):<{width}}"
                       f"  draws={a.get('draws', 0)}"
                       f" batches={a.get('batches', 0)}"
                       f" retries={a.get('retries', 0)}"
                       f" failovers={a.get('failovers', 0)}"
                       f" bytes={a.get('bytes', 0)}")
                served_by = a.get("served_by")
                if served_by is not None \
                        and served_by != a.get("worker"):
                    row += f" (via {served_by})"
                lines.append(row)
    if caches:
        rows = [(name, hits, misses)
                for name, (hits, misses) in caches.items()
                if hits + misses > 0]
        if rows:
            lines.append("caches:")
            width = max(len(name) for name, _, _ in rows)
            for name, hits, misses in rows:
                rate = hits / (hits + misses)
                lines.append(
                    f"  {name:<{width}}  hits={hits} misses={misses}"
                    f" hit_rate={rate:.1%}")
    for title, table in (("index:", index),
                         ("faults:", faults),
                         ("durability:", durability)):
        if not table:
            continue
        rows = [(name, value) for name, value in table.items()
                if value]
        if rows:
            lines.append(title)
            width = max(len(name) for name, _ in rows)
            for name, value in rows:
                if isinstance(value, float):
                    lines.append(f"  {name:<{width}}  {value:.6g}")
                else:
                    lines.append(f"  {name:<{width}}  {value}")
    if final is not None:
        est = final.estimate
        outcome = f"stop: {final.reason or 'user stop'}"
        outcome += f" (k={est.k} of q={est.q}"
        if est.q:
            outcome += f", {est.k / est.q:.2%} of range"
        coverage = getattr(final, "coverage", 1.0)
        if coverage < 1.0:
            outcome += f", coverage {coverage:.2%}"
        outcome += ")"
        lines.append(outcome)
        value = f"estimate: value={est.value!r}"
        if est.interval is not None:
            value += (f" ci=[{est.interval.lo:.6g},"
                      f" {est.interval.hi:.6g}]"
                      f"@{est.interval.level:.0%}")
        if est.exact:
            value += " (exact)"
        lines.append(value)
    return "\n".join(lines)
