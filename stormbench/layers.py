"""Per-layer metrics and the latency budget, computed from spans.

Spans come from :mod:`shims`.  A layer's self time is its span's
duration minus what its child spans cover; the budget adds, for every
measured request, the self time of each layer along the path the
client waited on.  For a service request that path is the server's
connection thread (request parsing, handler, socket close) and —
while the handler waits for frames — the engine thread: quanta of the
request's own stream (split by layer), quanta of other streams and
the queue wait before the first quantum (the scheduler's share).
Client time that no span covers is *unattributed*: on the service
workloads that is the client's time outside the connection span
(connect, accept, thread start, the load generator's own work) plus
frame waits no quantum explains.
"""

from __future__ import annotations

import bisect

from common import (COUNT, END, NAME, PARENT, SID, START, TAG, clipped,
                    median, merged, overlap, percentile, root_ids,
                    self_intervals, self_times)
from shims import LAYERS

#: The share of client time the budget may leave unattributed.
UNATTRIBUTED_TOLERANCE_PCT = 10.0


def _dur(span) -> float:
    return span[END] - span[START]


def _p(values, p: float = 50.0) -> float:
    return percentile(values, p) if values else 0.0


class Trace:
    """Indexes over one run's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[SID]: s for s in spans}
        self.root = root_ids(spans)
        self.self_time = self_times(spans)
        self.kids: dict[int, list] = {}
        for s in spans:
            if s[PARENT] in self.by_id:
                self.kids.setdefault(s[PARENT], []).append(s)

    def tree(self, root_sid: int) -> list:
        """The root span and all its descendants."""
        out, todo = [], [self.by_id[root_sid]]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.kids.get(s[SID], ()))
        return out

    def self_iv(self, span):
        return self_intervals(span, [(c[START], c[END])
                                     for c in self.kids.get(span[SID], ())])


def span_metrics(spans, queries: int, streams: int) -> dict:
    """Per-layer metrics every workload reports, from its measured
    spans (``queries`` and ``streams`` are the ratio bases)."""
    by: dict[str, list] = {}
    names = {}
    for s in spans:
        by.setdefault(s[NAME], []).append(s)
        names[s[SID]] = s[NAME]
    self_t = self_times(spans)

    def total_ms(name: str) -> float:
        # Outermost calls only, so a re-entrant entry point is not
        # counted twice.
        return sum(_dur(s) for s in by.get(name, ())
                   if names.get(s[PARENT]) != name) * 1e3

    def durations_ms(name: str) -> list[float]:
        return [_dur(s) * 1e3 for s in by.get(name, ())]

    def counts(name: str) -> int:
        return sum(s[COUNT] for s in by.get(name, ()))

    canon = by.get("index.canonical_set", ())
    draw_ms = total_ms("sampling.draw_batch")
    samples = counts("sampling.draw_batch")
    encodes = by.get("protocol.encode", ())
    applies = durations_ms("updates.apply")
    return {
        "query.parse_us_p50": _p(durations_ms("language.parse")) * 1e3,
        "executor.plan_ms_p50": _p(durations_ms("executor.plan")),
        "optimizer.choose_ms_total": total_ms("optimizer.choose"),
        "optimizer.record_outcome_calls":
            len(by.get("optimizer.record_outcome", ())),
        "index.range_count_calls_per_query":
            len(by.get("index.range_count", ())) / queries,
        "index.range_count_ms_total": total_ms("index.range_count"),
        "index.canonical_set_ms_total": total_ms("index.canonical_set"),
        "index.canonical_hit_rate":
            sum(s[COUNT] for s in canon) / len(canon) if canon else 0.0,
        "sampling.open_stream_ms_total": total_ms("sampling.open_stream"),
        "sampling.draw_batch_ms_total": draw_ms,
        "sampling.samples_drawn": samples,
        "sampling.samples_per_ms": samples / draw_ms if draw_ms else 0.0,
        "estimators.absorb_ms_total": total_ms("estimators.absorb"),
        "estimators.estimate_ms_total": total_ms("estimators.estimate"),
        "estimators.estimate_calls_per_query":
            len(by.get("estimators.estimate", ())) / queries,
        "session.self_ms_total":
            sum(self_t[s[SID]] for s in by.get("session.step", ())) * 1e3,
        "protocol.frames": counts("protocol.frame"),
        "protocol.encode_ms_total": total_ms("protocol.encode"),
        "protocol.bytes_per_frame":
            counts("protocol.encode") / len(encodes) if encodes else 0.0,
        "scheduler.quantum_ms_p50": _p(durations_ms("scheduler.quantum")),
        "scheduler.quanta_per_stream":
            len(by.get("scheduler.quantum", ())) / streams
            if streams else 0.0,
        "service.admit_ms_p50":
            _p([self_t[s[SID]] * 1e3
                for s in by.get("service.submit", ())]),
        "http.handler_ms_p50": _p(durations_ms("http.handler")),
        "updates.apply_ms_p50": _p(applies),
        "updates.apply_ms_p90": _p(applies, 90.0),
        "wal.append_ms_total": total_ms("wal.append"),
        "docstore.write_ms_total": total_ms("docstore.write"),
        "recovery.checkpoint_ms_total": total_ms("recovery.checkpoint"),
        "recovery.checkpoints": len(by.get("recovery.checkpoint", ())),
        "lsm.seal_ms_total": total_ms("lsm.seal"),
        "lsm.compact_ms_total": total_ms("lsm.compact"),
        "lsm.compactions": len(by.get("lsm.compact", ())),
    }


def storage_bytes(spans) -> dict:
    """Bytes handed to the DFS: all writes, and WAL segment appends."""
    total = wal = 0
    for s in spans:
        if s[NAME] == "dfs.write":
            total += s[COUNT]
            if str(s[TAG]).startswith("wal/"):
                wal += s[COUNT]
    return {"dfs": total, "wal": wal}


def _add(budget: dict, layer: str, seconds: float) -> None:
    budget[layer] = budget.get(layer, 0.0) + seconds


def service_budget(tr: Trace, requests, submitted: dict) -> dict:
    """Budget over measured service requests.

    ``requests``: dicts with ``t0``/``t1`` (client) and ``task``.
    Returns per-layer seconds, unattributed and client seconds, and
    per-request client gaps, queue waits and first-estimate times.
    """
    conns = {s[TAG]: s for s in tr.spans
             if s[NAME] == "http.connection" and s[TAG]}
    engine = sorted((s for s in tr.spans
                     if tr.by_id[tr.root[s[SID]]][NAME]
                     == "scheduler.quantum"), key=lambda s: s[START])
    starts = [s[START] for s in engine]
    longest = max((_dur(s) for s in engine), default=0.0)
    quanta: dict[str, list] = {}
    steps: dict[str, list] = {}
    for s in engine:
        task = tr.by_id[tr.root[s[SID]]][TAG]
        if s[NAME] == "scheduler.quantum":
            quanta.setdefault(task, []).append(s)
        elif s[NAME] == "session.step":
            steps.setdefault(task, []).append(s)
    budget: dict[str, float] = {}
    out = {"budget": budget, "unattributed": 0.0, "client": 0.0,
           "client_gap_ms": [], "queue_wait_ms": [], "first_ms": [],
           "spans": []}
    for req in requests:
        task = req["task"]
        conn = conns.get(task)
        own = quanta.get(task)
        if conn is None or not own:
            raise RuntimeError(f"no spans for request {task!r}")
        tree = tr.tree(conn[SID])
        h = next(s for s in tree if s[NAME] == "http.handler")
        client = req["t1"] - req["t0"]
        out["client"] += client
        out["client_gap_ms"].append((client - _dur(h)) * 1e3)
        # perf_counter is CLOCK_MONOTONIC, one clock for the client and
        # the server process: client time outside the connection span
        # is unattributed.
        served = clipped([(conn[START], conn[END])], req["t0"], req["t1"])
        out["unattributed"] += client - sum(b - a for a, b in served)
        waits = []
        for s in tree:
            out["spans"].append(s)
            if s[NAME] == "wait.frame":
                waits.append((s[START], s[END]))
            else:
                _add(budget, LAYERS[s[NAME]], tr.self_time[s[SID]])
        waits = merged(waits)
        first_q = min(q[START] for q in own)
        queued = (submitted[task], first_q)
        out["queue_wait_ms"].append((first_q - submitted[task]) * 1e3)
        first_step = min((s[END] for s in steps.get(task, ())),
                         default=None)
        if first_step is not None:
            out["first_ms"].append((first_step - h[START]) * 1e3)
        lo = bisect.bisect_left(starts, h[START] - longest)
        hi = bisect.bisect_right(starts, h[END])
        own_iv, other_iv = [], [queued]
        for s in engine[lo:hi]:
            mine = tr.by_id[tr.root[s[SID]]][TAG] == task
            if mine:
                if s[START] >= h[START]:
                    out["spans"].append(s)
                _add(budget, LAYERS[s[NAME]],
                     overlap(tr.self_iv(s), waits))
                if s[NAME] == "scheduler.quantum":
                    own_iv.append((s[START], s[END]))
            elif s[NAME] == "scheduler.quantum":
                other_iv.append((s[START], s[END]))
        sched_wait = overlap(waits, merged(other_iv))
        _add(budget, "server.scheduler", sched_wait)
        covered = overlap(waits, merged(own_iv)) + sched_wait
        out["unattributed"] += max(0.0, sum(b - a for a, b in waits)
                                   - covered)
    return out


def inprocess_budget(tr: Trace, ops) -> dict:
    """Budget over in-process client operations (``t0``/``t1``): each
    contains one root span; time outside it is unattributed."""
    roots = sorted((s for s in tr.spans if s[PARENT] not in tr.by_id),
                   key=lambda s: s[START])
    starts = [s[START] for s in roots]
    budget: dict[str, float] = {}
    out = {"budget": budget, "unattributed": 0.0, "client": 0.0,
           "first_ms": [], "spans": []}
    for op in ops:
        i = bisect.bisect_left(starts, op["t0"])
        if i >= len(roots) or roots[i][END] > op["t1"]:
            raise RuntimeError("no root span inside a client operation")
        root = roots[i]
        client = op["t1"] - op["t0"]
        out["client"] += client
        out["unattributed"] += max(0.0, client - _dur(root))
        tree = tr.tree(root[SID])
        out["spans"].extend(tree)
        for s in tree:
            _add(budget, LAYERS[s[NAME]], tr.self_time[s[SID]])
        if root[NAME] == "executor.execute":
            first = min((s[END] for s in tree
                         if s[NAME] == "session.step"), default=None)
            if first is not None:
                out["first_ms"].append((first - root[START]) * 1e3)
    return out


def setup_metrics(spans, n: int, rss_before_kb: int,
                  rss_after_kb: int) -> dict:
    """``workloads`` and ``core.engine`` set-up figures."""
    gen = [s for s in spans if s[NAME] == "workloads.generate"]
    create = [_dur(s) for s in spans if s[NAME] == "engine.create_dataset"]
    return {
        "workloads.generate_s": _dur(gen[0]) if gen else 0.0,
        "engine.create_dataset_s": median(create) if create else 0.0,
        "engine.resident_bytes_per_point":
            (rss_after_kb - rss_before_kb) * 1024.0 / n,
    }

