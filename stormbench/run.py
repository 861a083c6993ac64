"""The repository benchmark: one command per workload run.

    python3 stormbench/run.py --workload oneshot --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a checkout.  Workloads (see ``design.json`` for
why each exists and what it loads and bypasses):

* ``oneshot``      — one connection, ``POST /v1/query`` one-shot
  ``AVG`` queries over fresh rectangles and time windows;
* ``stream_ci``    — two tenants, one connection each, NDJSON streams
  to a +-1 % confidence interval over eight dashboard rectangles;
* ``ingest_mixed`` — in-process durable ingest (WAL, document store,
  LSM tiers) with a one-shot tiered query after every batch.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice — plain, then with timing shims on every layer entry
point — and prints the per-layer metrics, the latency budget, the
tracing overhead and the unattributed share.  Every reply is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (COUNT, NAME, median, require_program,  # noqa: E402
                    segment_seed, status_kb, summarize)

WORKLOADS = ("oneshot", "stream_ci", "ingest_mixed")
#: Scratch directory for span files, inside the checkout.
TMP_DIR = ".stormbench-tmp"

#: Per-layer metric -> the base it is taken over (every ratio names
#: its base).  Names, units and directions live in BENCHMARK.json.
PER_LAYER = {
    "query.parse_us_p50": "median over query parses",
    "executor.plan_ms_p50": "median over Dataset.session calls "
                            "(sampler choice + session set-up)",
    "optimizer.choose_ms_total": "sum over the run",
    "optimizer.record_outcome_calls": "calls over the run",
    "index.range_count_calls_per_query": "tree range_count walks per query",
    "index.range_count_ms_total": "sum over the run",
    "index.canonical_set_ms_total": "sum over the run",
    "index.canonical_hit_rate": "cache hits per canonical_set call",
    "sampling.open_stream_ms_total": "sum over the run",
    "sampling.draw_batch_ms_total": "sum over the run",
    "sampling.samples_drawn": "samples over the run",
    "sampling.samples_per_ms": "samples per ms of draw_batch",
    "estimators.absorb_ms_total": "sum over the run",
    "estimators.estimate_ms_total": "sum over the run",
    "estimators.estimate_calls_per_query": "estimate() calls per query",
    "session.self_ms_total": "session steps minus their "
                             "sampler/estimator children",
    "protocol.frames": "frames built over the run",
    "protocol.encode_ms_total": "sum of NDJSON encodes",
    "protocol.bytes_per_frame": "NDJSON bytes per encoded frame",
    "scheduler.queue_wait_ms_p50": "median over streams, submit to "
                                   "first quantum",
    "scheduler.quantum_ms_p50": "median over quanta",
    "scheduler.quanta_per_stream": "quanta per request",
    "service.admit_ms_p50": "median over submissions, spec parse "
                            "excluded",
    "http.handler_ms_p50": "median over handled requests",
    "http.client_gap_ms_p50": "median over requests, client latency "
                              "minus handler time",
    "first_estimate_ms_p50": "median over queries, request to first "
                             "progress point",
    "updates.apply_ms_p50": "median over batches",
    "updates.apply_ms_p90": "p90 over batches",
    "wal.append_ms_total": "sum over the run",
    "wal.bytes_per_row": "WAL bytes per applied row",
    "docstore.write_ms_total": "sum over the run",
    "recovery.checkpoint_ms_total": "sum over the run",
    "recovery.checkpoints": "checkpoints over the run",
    "lsm.seal_ms_total": "sum over the run",
    "lsm.compact_ms_total": "sum over the run",
    "lsm.compactions": "compactions over the run",
    "lsm.rows_rewritten_per_row": "rows bulk-loaded by compactions per "
                                  "applied row",
    "dfs.bytes_written_per_user_byte": "DFS bytes written per byte of "
                                       "inserted documents",
    "workloads.generate_s": "seed data generation, once",
    "engine.create_dataset_s": "median over set-ups",
    "engine.resident_bytes_per_point": "RSS growth over generate + "
                                       "build, per point",
    "trace.overhead_pct": "traced vs plain latency_p50_ms",
    "trace.unattributed_pct": "of client time, no span covering the "
                              "blocking path",
}


with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
#: Metric name -> unit, for every metric BENCHMARK.json declares.
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]
         + _SPEC["per_layer"]}
assert list(PER_LAYER) == [m["name"] for m in _SPEC["per_layer"]]


def _metric(name: str, value: float) -> dict:
    return {"value": float(value), "unit": UNITS[name]}


def _latency_metrics(latencies_ms) -> tuple[dict, str]:
    p50, n, _ = summarize(latencies_ms, 50.0)
    p90, _, beyond = summarize(latencies_ms, 90.0)
    note = f"latency: n={n} samples, {beyond} beyond p90"
    return {"latency_p50_ms": _metric("latency_p50_ms", p50),
            "latency_p90_ms": _metric("latency_p90_ms", p90)}, note


# -- service workloads -------------------------------------------------------

def _service_inputs(workload: str, seed: int):
    import service
    points = service.Points(seed)
    if workload == "oneshot":
        return points, service.oneshot_queries(points, seed)
    return points, service.dashboard_rects(points, seed)


def _service_run(workload, server, points, inputs, seed, seconds,
                 on_window=None):
    import service
    if workload == "oneshot":
        return service.run_oneshot(server, inputs, points.oracle, seconds,
                                   on_window=on_window)
    return service.run_stream_ci(server, inputs, seed, seconds,
                                 on_window=on_window)


def service_end_to_end(workload, root, src, seed, seconds) -> dict:
    """Cold-start the server once per segment, each time on the
    segment's own records and requests; each start is timed, then
    serves ``seconds / SEGMENTS`` of the measured window."""
    import service
    setups, parts, rss = [], [], 0.0
    for segment in range(service.SEGMENTS):
        data_seed = segment_seed(seed, segment, service.SEGMENTS)
        points, inputs = _service_inputs(workload, data_seed)
        server = service.Server(root, src, data_seed)
        try:
            setups.append(server.start())
            parts.append(_service_run(
                workload, server, points, inputs, data_seed,
                seconds / service.SEGMENTS))
            rss = max(rss, server.peak_rss_mb())
        finally:
            server.stop()
    res = service.merge(parts)
    metrics, note = _latency_metrics(res["latencies_ms"])
    metrics.update({
        "setup_s": _metric("setup_s", median(setups)),
        "throughput_per_s": _metric("throughput_per_s", res["throughput"]),
        "peak_rss_mb": _metric("peak_rss_mb", rss),
    })
    res["notes"] = [note, "set-ups (s): "
                    + ", ".join(f"{s:.3f}" for s in setups)]
    res["metrics"] = metrics
    return res


def service_per_layer(workload, root, src, seed, seconds) -> dict:
    import layers
    import service
    seed = segment_seed(seed, 0, service.SEGMENTS)
    points, inputs = _service_inputs(workload, seed)
    plain = service.Server(root, src, seed)
    try:
        plain.start()
        base = service.merge([_service_run(workload, plain, points,
                                           inputs, seed, seconds)])
    finally:
        plain.stop()
    tmp = os.path.join(root, TMP_DIR)
    os.makedirs(tmp, exist_ok=True)
    spans_path = os.path.join(tmp, f"spans-{os.getpid()}.json")
    traced = service.Server(root, src, seed, spans_path=spans_path)
    counters = {}
    try:
        traced.start()
        res = service.merge([_service_run(
            workload, traced, points, inputs, seed, seconds,
            on_window=lambda: counters.update(
                before=traced.metrics()["counters"]))])
        counters["after"] = traced.metrics()["counters"]
    finally:
        traced.stop()
    try:
        with open(spans_path) as fh:
            dump = json.load(fh)
    finally:
        if os.path.exists(spans_path):
            os.remove(spans_path)
        if not os.listdir(tmp):
            os.rmdir(tmp)
    tr = layers.Trace(dump["spans"])
    requests = []
    for reply in res["measured"]:
        if "error" in reply:
            continue
        task = reply["doc"]["stream"] if workload == "oneshot" \
            else reply["stream"]
        requests.append({"t0": reply["t0"], "t1": reply["t1"],
                         "task": task})
    budget = layers.service_budget(tr, requests, dump["submitted"])
    values = layers.span_metrics(budget["spans"], len(requests),
                                 len(requests))
    delta = {k: v - counters["before"].get(k, 0)
             for k, v in counters["after"].items()}
    hits = delta.get("storm.cache.canonical.hits", 0)
    misses = delta.get("storm.cache.canonical.misses", 0)
    values["index.canonical_hit_rate"] = hits / (hits + misses) \
        if hits + misses else 0.0
    first = res["first_ms"] if workload == "stream_ci" \
        else budget["first_ms"]
    values.update({
        "scheduler.queue_wait_ms_p50": median(budget["queue_wait_ms"]),
        "http.client_gap_ms_p50": median(budget["client_gap_ms"]),
        "first_estimate_ms_p50": median(first),
        "wal.bytes_per_row": 0.0,
        "lsm.rows_rewritten_per_row": 0.0,
        "dfs.bytes_written_per_user_byte": 0.0,
    })
    marks = dump["marks"]
    values.update(layers.setup_metrics(
        tr.spans, service.N_POINTS, marks["rss_before_kb"],
        marks["rss_after_kb"]))
    return _finish_trace(res, base, budget, values)


def _finish_trace(res, base, budget, values) -> dict:
    import layers
    plain_p50 = median(base["latencies_ms"])
    traced_p50 = median(res["latencies_ms"])
    values["trace.overhead_pct"] = (traced_p50 - plain_p50) \
        / plain_p50 * 100.0
    values["trace.unattributed_pct"] = budget["unattributed"] \
        / budget["client"] * 100.0
    res["metrics"] = {name: _metric(name, values[name])
                      for name in PER_LAYER}
    client = budget["client"]
    lines = [f"latency budget over {client * 1e3:.1f} ms of client "
             f"time (self time per layer, % of client time):"]
    for layer, secs in sorted(budget["budget"].items(),
                              key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<24} {secs * 1e3:10.2f} ms "
                     f"{secs / client * 100:6.2f} %")
    lines.append(f"  {'(unattributed)':<24} "
                 f"{budget['unattributed'] * 1e3:10.2f} ms "
                 f"{values['trace.unattributed_pct']:6.2f} % "
                 f"(tolerance {layers.UNATTRIBUTED_TOLERANCE_PCT:g} %)")
    lines.append(f"plain latency_p50_ms {plain_p50:.4f}, traced "
                 f"{traced_p50:.4f}")
    if values["trace.unattributed_pct"] \
            > layers.UNATTRIBUTED_TOLERANCE_PCT:
        res["errors"].append("unattributed share above tolerance")
    res["attempted"] += base["attempted"]
    res["failed"] += base["failed"]
    res["errors"].extend(base["errors"])
    res["notes"] = lines
    return res


# -- ingest workload ---------------------------------------------------------

def ingest_end_to_end(seed, seconds) -> dict:
    import ingest
    res = ingest.run_ingest(seed, seconds)
    metrics, note = _latency_metrics(res["latencies_ms"])
    metrics.update({
        "setup_s": _metric("setup_s", median(res["setups"])),
        "throughput_per_s": _metric("throughput_per_s",
                                    median(res["rates"])),
        "peak_rss_mb": _metric("peak_rss_mb",
                               status_kb("self", "VmHWM") / 1024.0),
    })
    res["metrics"] = metrics
    res["notes"] = [note, f"rows applied {res['rows_applied']} over "
                    f"{res['cycles']} compaction cycles",
                    "rows/s per segment: " + ", ".join(
                        f"{r:.0f}" for r in res["rates"]),
                    "set-ups (s): " + ", ".join(f"{s:.3f}"
                                                for s in res["setups"])]
    return res


def ingest_per_layer(seed, seconds) -> dict:
    import ingest
    import layers
    from shims import SpanRecorder, install
    from repro.storage.json_codec import canonical_json
    # Traced first, in a fresh process, so resident growth is real.
    rec = SpanRecorder()
    patches = install(rec)
    user = [0]
    marks = {"rss_before_kb": status_kb("self", "VmRSS")}
    try:
        res = ingest.run_ingest(
            seed, seconds, segments=1,
            user_bytes=lambda recs: user.__setitem__(0, user[0] + sum(
                len(canonical_json(r.to_document()).encode())
                for r in recs)),
            on_setup=lambda: marks.update(
                rss_after_kb=status_kb("self", "VmRSS")))
    finally:
        patches.undo()
    base = ingest.run_ingest(seed, seconds, segments=1)
    tr = layers.Trace(rec.spans)
    budget = layers.inprocess_budget(tr, res["ops"])
    spans = budget["spans"]
    queries = len(res["latencies_ms"])
    values = layers.span_metrics(spans, queries, 0)
    written = layers.storage_bytes(spans)
    rows_applied = res["rows_applied"]
    rewritten = sum(s[COUNT] for s in spans if s[NAME] == "lsm.compact")
    values.update({
        "scheduler.queue_wait_ms_p50": 0.0,
        "http.client_gap_ms_p50": 0.0,
        "first_estimate_ms_p50": median(budget["first_ms"]),
        "wal.bytes_per_row": written["wal"] / rows_applied,
        "lsm.rows_rewritten_per_row": rewritten / rows_applied,
        "dfs.bytes_written_per_user_byte": written["dfs"] / user[0],
    })
    values.update(layers.setup_metrics(
        tr.spans, ingest.SEED_ROWS, marks["rss_before_kb"],
        marks["rss_after_kb"]))
    return _finish_trace(res, base, budget, values)


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = require_program(root)
    sys.path.insert(0, src)
    if args.workload == "ingest_mixed":
        res = ingest_per_layer(args.seed, args.seconds) if args.trace \
            else ingest_end_to_end(args.seed, args.seconds)
    elif args.trace:
        res = service_per_layer(args.workload, root, src, args.seed,
                                args.seconds)
    else:
        res = service_end_to_end(args.workload, root, src, args.seed,
                                 args.seconds)
    for line in res["notes"]:
        print(line)
    for name, metric in res["metrics"].items():
        base = PER_LAYER.get(name, "")
        print(f"{name:<36} {metric['value']:>14.4f} {metric['unit']:<8}"
              f" {base}")
    for error in res["errors"][:20]:
        print(f"check failed: {error}")
    print(json.dumps({"correct": not res["errors"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
