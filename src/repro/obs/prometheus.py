"""Prometheus text exposition of a :class:`MetricsRegistry`.

Renders the registry's instruments in the Prometheus text format
(version 0.0.4) so a stock Prometheus/Grafana stack — or plain
``curl`` — can scrape a running STORM process.  stdlib only; the
renderer walks :meth:`MetricsRegistry.instruments` so labels stay
structured (never re-parsed out of flattened keys).

Mapping choices:

* metric names are sanitised to ``[a-zA-Z0-9_:]`` (dots become
  underscores), so ``storm.sample.latency_seconds`` scrapes as
  ``storm_sample_latency_seconds``;
* counters render as ``name_total``; gauges render bare;
* histograms render cumulative ``_bucket{le=...}`` lines from the
  log-bucket counts, plus ``_sum`` / ``_count`` and non-standard-but-
  conventional ``{quantile=...}`` gauge lines for p50/p90/p99 so the
  scrape answers tail-latency questions without PromQL;
* output is deterministic for a given registry state (sorted names
  and labels), which the scrape tests rely on.
"""

from __future__ import annotations

import math

from repro.obs.metrics import MetricsRegistry

__all__ = ["render_prometheus", "sanitize_metric_name"]

_QUANTILES = (("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99))


def sanitize_metric_name(name: str) -> str:
    """A legal Prometheus metric name (dots/dashes -> underscores)."""
    out = []
    for i, ch in enumerate(name):
        if ch.isalnum() or ch in "_:":
            out.append(ch)
        else:
            out.append("_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _labels(labels: dict[str, str], extra: "tuple[str, str] | None" = None
            ) -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())]
    if extra is not None:
        parts.append(f'{extra[0]}="{_escape(extra[1])}"')
    return "{" + ",".join(parts) + "}" if parts else ""


def _number(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry as Prometheus exposition text."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def header(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for kind, raw_name, labels, inst in registry.instruments():
        name = sanitize_metric_name(raw_name)
        if kind == "counter":
            pname = name if name.endswith("_total") else name + "_total"
            header(pname, "counter")
            lines.append(
                f"{pname}{_labels(labels)} {_number(inst.value)}")
        elif kind == "gauge":
            header(name, "gauge")
            lines.append(
                f"{name}{_labels(labels)} {_number(inst.value)}")
        else:  # histogram
            header(name, "histogram")
            cumulative = 0
            for le, n in inst.bucket_counts():
                cumulative += n
                lines.append(
                    f"{name}_bucket{_labels(labels, ('le', _number(le)))}"
                    f" {cumulative}")
            lines.append(
                f"{name}_bucket{_labels(labels, ('le', '+Inf'))}"
                f" {inst.count}")
            lines.append(
                f"{name}_sum{_labels(labels)} {_number(inst.total)}")
            lines.append(
                f"{name}_count{_labels(labels)} {inst.count}")
            if inst.count:
                for qname, q in _QUANTILES:
                    lines.append(
                        f"{name}"
                        f"{_labels(labels, ('quantile', qname))}"
                        f" {_number(inst.quantile(q))}")
    return "\n".join(lines) + "\n" if lines else ""
