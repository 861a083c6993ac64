"""Query-service bench: concurrent tenants over the HTTP API.

``python -m repro.bench server [OUT.json]`` stands up the real stack —
:class:`~repro.server.http.StormServer` on an ephemeral port over a
:class:`~repro.server.service.QueryService` and one engine — and
measures it the way a deployment would see it:

* **streams** — 8 tenants each run a round of progressive NDJSON
  streams concurrently; the figure is completed streams per second of
  wall clock, with every stream checked for monotone progress and a
  clean ``end`` frame;
* **one-shot latency** — ``POST /v1/query`` calls fired from
  concurrent clients; p50/p99 of the observed wall time;
* **fairness** — Jain's index ``(Σx)² / (n·Σx²)`` over per-tenant
  scheduler quanta read back from ``storm.server.quanta`` (equal
  weights, so 1.0 is perfect and the gate trips below 0.8);
* **admission** — a deliberately tiny service is saturated and must
  answer 429 (the bench fails if overload is silently absorbed);
* **correctness** — the same seeded stream run alone and run among
  seven noisy neighbours must produce *identical* final estimates
  (scheduling changes when a stream draws, never what).

``tools/check_bench.py`` gates ``server.streams_per_sec`` and
``server.fairness_index`` downward and ``server.query_p50_seconds`` /
``server.query_p99_seconds`` upward against the committed
``BENCH_server.json`` baseline.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.request

from repro.bench.report import metric, percentile, report
from repro.core.engine import StormEngine
from repro.core.records import Record
from repro.server import (QueryService, ServerConfig, StormServer)
from repro.server.protocol import ApiError

__all__ = ["run_server_bench"]

N_RECORDS = 20_000
TENANTS = 8
STREAMS_PER_TENANT = 3
STREAM_QUERY = ("ESTIMATE AVG(v) FROM pts "
                "WHERE REGION(5, 5, 95, 95) SAMPLES 2000")
ONESHOT_QUERY = ("ESTIMATE AVG(v) FROM pts "
                 "WHERE REGION(10, 10, 80, 80) SAMPLES 500")
N_ONESHOT = 48
ONESHOT_CLIENTS = 8
QUANTUM = 64
FAIRNESS_FLOOR = 0.8


def _records(n: int, seed: int = 5) -> list[Record]:
    rng = random.Random(seed)
    return [Record(record_id=i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": rng.gauss(10, 2)})
            for i in range(n)]


def _post(url: str, path: str, body: dict, tenant: str,
          stream: bool = False):
    req = urllib.request.Request(
        url + path, method="POST",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json",
                 "X-Storm-Tenant": tenant})
    with urllib.request.urlopen(req, timeout=300) as resp:
        payload = resp.read()
    if stream:
        return [json.loads(line) for line in payload.splitlines()]
    return json.loads(payload)


def _make_server(**config_kwargs):
    engine = StormEngine(seed=1)
    engine.create_dataset("pts", _records(N_RECORDS), dims=2,
                          build_ls=False)
    config = ServerConfig(max_streams=8, quantum=QUANTUM,
                          **config_kwargs)
    service = QueryService(engine, config)
    return StormServer(service).start()


def _stream_phase(server: StormServer) -> dict:
    """Concurrent progressive streams; throughput + validity."""
    results: list[dict] = []
    errors: list[str] = []
    lock = threading.Lock()

    def client(tenant: str, seed: int) -> None:
        try:
            frames = _post(server.url, "/v1/stream",
                           {"query": STREAM_QUERY, "seed": seed},
                           tenant, stream=True)
            progress = [f["k"] for f in frames
                        if f["frame"] == "progress"]
            ok = (bool(frames)
                  and frames[-1]["frame"] == "end"
                  and progress == sorted(set(progress)))
            with lock:
                results.append({"ok": ok, "frames": len(frames)})
        except Exception as exc:  # noqa: BLE001 — tallied below
            with lock:
                errors.append(f"{tenant}: {exc}")

    threads = []
    started = time.perf_counter()
    for round_no in range(STREAMS_PER_TENANT):
        for t in range(TENANTS):
            threads.append(threading.Thread(
                target=client,
                args=(f"tenant-{t}", 1000 * round_no + t)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    completed = sum(1 for r in results if r["ok"])
    return {
        "streams": len(threads),
        "completed": completed,
        "errors": errors,
        "elapsed_seconds": elapsed,
        "streams_per_sec": completed / elapsed if elapsed else 0.0,
        "frames_total": sum(r["frames"] for r in results),
    }


def _oneshot_phase(server: StormServer) -> dict:
    """p50/p99 of concurrent one-shot query calls."""
    latencies: list[float] = []
    errors: list[str] = []
    lock = threading.Lock()
    work = list(range(N_ONESHOT))

    def client(worker: int) -> None:
        while True:
            with lock:
                if not work:
                    return
                job = work.pop()
            begin = time.perf_counter()
            try:
                doc = _post(server.url, "/v1/query",
                            {"query": ONESHOT_QUERY,
                             "seed": 7000 + job},
                            f"tenant-{worker}")
                took = time.perf_counter() - begin
                ok = doc["result"]["frame"] == "end"
            except Exception as exc:  # noqa: BLE001 — tallied
                with lock:
                    errors.append(str(exc))
                continue
            with lock:
                if ok:
                    latencies.append(took)
                else:
                    errors.append("stream did not end cleanly")

    threads = [threading.Thread(target=client, args=(w,))
               for w in range(ONESHOT_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "queries": len(latencies),
        "errors": errors,
        "query_p50_seconds": percentile(latencies, 0.50),
        "query_p99_seconds": percentile(latencies, 0.99),
    }


def _fairness_index(server: StormServer) -> tuple[float, dict]:
    """Jain's index over per-tenant scheduler quanta."""
    snapshot = server.service.obs.registry.snapshot()
    quanta: dict[str, float] = {}
    for key, value in snapshot["counters"].items():
        if key.startswith("storm.server.quanta{") \
                and "tenant=tenant-" in key:
            quanta[key.split("tenant=", 1)[1].rstrip("}")] = value
    shares = list(quanta.values())
    if not shares:
        return 0.0, {}
    jain = (sum(shares) ** 2) / (len(shares) * sum(s * s
                                                   for s in shares))
    return jain, quanta


def _saturation_probe() -> dict:
    """A tiny service must 429 (not absorb) overload."""
    engine = StormEngine(seed=2)
    engine.create_dataset("pts", _records(4000), dims=2,
                          build_ls=False)
    service = QueryService(engine, ServerConfig(
        max_streams=1, queue_depth=1, quantum=16, stream_buffer=2))
    body = {"query": STREAM_QUERY}
    rejected = 0
    retry_after_seen = False
    try:
        held = [service.submit_stream(f"t{i}", body)
                for i in range(2)]  # capacity: 1 active + 1 queued
        for attempt in range(4):
            try:
                held.append(service.submit_stream("late", body))
            except ApiError as exc:
                if exc.status == 429:
                    rejected += 1
                    retry_after_seen |= (exc.retry_after or 0) >= 1
        for task in held:
            task.drain_frames(timeout=60)
    finally:
        service.shutdown(drain=False)
    return {"rejected_429": rejected,
            "retry_after_seen": retry_after_seen,
            "ok": rejected > 0 and retry_after_seen}


def _determinism_probe() -> dict:
    """Solo vs contended: identical final estimate, same seed."""
    def run(noise: int) -> float:
        engine = StormEngine(seed=1)
        engine.create_dataset("pts", _records(6000), dims=2,
                              build_ls=False)
        service = QueryService(engine, ServerConfig(
            max_streams=8, quantum=QUANTUM))
        try:
            others = [service.submit_stream(f"noise-{i}", {
                "query": STREAM_QUERY, "seed": 50 + i})
                for i in range(noise)]
            probe = service.submit_stream(
                "probe", {"query": STREAM_QUERY, "seed": 424242})
            frames = probe.drain_frames(timeout=120)
            for task in others:
                task.drain_frames(timeout=120)
            assert frames[-1]["frame"] == "end"
            return frames[-1]["estimate"]["value"]
        finally:
            service.shutdown(drain=False)

    solo = run(noise=0)
    contended = run(noise=7)
    return {"solo_estimate": solo,
            "contended_estimate": contended,
            "ok": solo == contended}


def run_server_bench() -> dict:
    server = _make_server()
    try:
        streams = _stream_phase(server)
        oneshot = _oneshot_phase(server)
        fairness, per_tenant = _fairness_index(server)
    finally:
        drained = server.stop()
    saturation = _saturation_probe()
    determinism = _determinism_probe()
    metrics = {
        "server.streams_per_sec": metric(
            streams.pop("streams_per_sec"), "1/s", "higher"),
        "server.query_p50_seconds": metric(
            oneshot.pop("query_p50_seconds"), "s", "lower"),
        "server.query_p99_seconds": metric(
            oneshot.pop("query_p99_seconds"), "s", "lower"),
        "server.fairness_index": metric(fairness, "ratio", "higher"),
    }
    checks = {
        "streams.all_completed":
            streams["completed"] == streams["streams"],
        "streams.no_errors": not streams["errors"],
        "oneshot.all_answered": oneshot["queries"] == N_ONESHOT,
        "oneshot.no_errors": not oneshot["errors"],
        "fairness_at_floor": fairness >= FAIRNESS_FLOOR,
        "saturation.ok": saturation.pop("ok"),
        "determinism.ok": determinism.pop("ok"),
        "drained": drained,
    }
    return report("server", metrics, checks, {
        "config": {"records": N_RECORDS, "tenants": TENANTS,
                   "streams_per_tenant": STREAMS_PER_TENANT,
                   "quantum": QUANTUM,
                   "oneshot_queries": N_ONESHOT},
        "streams": streams,
        "oneshot": oneshot,
        "fairness_per_tenant": per_tenant,
        "saturation": saturation,
        "determinism": determinism,
    })
