"""Service-layer chaos harness: kill, restart, disconnect, wedge.

``python -m repro.bench server_chaos [OUT.json]`` drives a real
socket server (:class:`~repro.server.http.StormServer` on an
ephemeral port) through the failures production traffic produces,
and verifies the resilience contract end to end:

* **disconnect** — a chaos client opens a progressive NDJSON stream
  and drops the connection mid-stream (RST via ``SO_LINGER 0``); the
  server must count ``storm.server.client_disconnects``, cancel the
  stream to reclaim its engine slot, and keep concurrent tenants'
  streams ending cleanly — with no handler traceback;
* **stalled_client** — a chaos client (driven by a
  :class:`~repro.faults.FaultPlan` ``client.read`` delay spec) stops
  reading without closing; the frame buffer fills, backpressure parks
  the stream, and past ``abandon_seconds`` the scheduler reaps it as
  abandoned (``storm.server.abandoned_reaped``);
* **wedged_quantum** — an injected ``server.quantum`` delay wedges
  one scheduler quantum past the watchdog budget; the watchdog must
  fail *that* stream with a terminal ``error`` frame (code
  ``watchdog_timeout``) and hand the engine to a fresh thread while
  every other tenant's stream completes normally;
* **kill_restart_resume** — a durable detached stream is killed
  mid-flight (abrupt stop, no drain) and the journal re-admits it in
  a fresh process; the report records the recovery time and the
  **resume determinism flag**: the resumed stream's full frame
  sequence must be byte-identical to the same stream run without
  interruption (``tools/check_bench.py`` gates this flag exactly);
* **load_shed** — a saturated admission queue sheds its
  lowest-weight queued stream to admit a heavier tenant, and
  equal-weight overload still gets 429 with ``Retry-After`` ≥ 1s.

``tools/check_bench.py`` gates ``server_chaos.recovery_seconds``
upward, ``server_chaos.served_streams`` downward, and every
scenario's ``ok`` (plus ``resume_deterministic``) exactly.
"""

from __future__ import annotations

import json
import random
import shutil
import socket
import struct
import tempfile
import threading
import time
import urllib.request

from repro.bench.report import metric, report
from repro.core.engine import StormEngine
from repro.core.records import Record
from repro.faults import FaultPlan
from repro.server import (QueryService, ServerConfig, StormServer,
                          TenantQuota)
from repro.server.protocol import ApiError, encode_frame

__all__ = ["run_server_chaos"]

N_RECORDS = 6_000
QUANTUM = 16
STREAM_QUERY = ("ESTIMATE AVG(v) FROM pts "
                "WHERE REGION(5, 5, 95, 95) SAMPLES 1500")
RESUME_QUERY = ("ESTIMATE AVG(v) FROM pts "
                "WHERE REGION(5, 5, 95, 95) SAMPLES 2400")
RESUME_SEED = 31337


def _records(n: int, seed: int = 5) -> list[Record]:
    rng = random.Random(seed)
    return [Record(record_id=i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": rng.gauss(10, 2)})
            for i in range(n)]


def _make_server(*, faults=None, **config_kwargs) -> StormServer:
    engine = StormEngine(seed=1)
    engine.create_dataset("pts", _records(N_RECORDS), dims=2,
                          build_ls=False)
    config = ServerConfig(max_streams=8, quantum=QUANTUM,
                          **config_kwargs)
    service = QueryService(engine, config, faults=faults)
    service.recover_streams()
    return StormServer(service).start()


def _post(url: str, path: str, body: dict, tenant: str,
          stream: bool = False, headers: dict | None = None):
    all_headers = {"Content-Type": "application/json",
                   "X-Storm-Tenant": tenant}
    if headers:
        all_headers.update(headers)
    req = urllib.request.Request(
        url + path, method="POST",
        data=json.dumps(body).encode(), headers=all_headers)
    with urllib.request.urlopen(req, timeout=300) as resp:
        payload = resp.read()
    if stream:
        return [json.loads(line) for line in payload.splitlines()]
    return json.loads(payload)


def _get(url: str, path: str, tenant: str) -> dict:
    req = urllib.request.Request(
        url + path, headers={"X-Storm-Tenant": tenant})
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read())


def _counter_total(server: StormServer, name: str) -> float:
    snapshot = server.service.obs.registry.snapshot()
    return sum(v for k, v in snapshot["counters"].items()
               if k == name or k.startswith(name + "{"))


def _raw_stream_socket(server: StormServer, body: dict,
                       tenant: str) -> socket.socket:
    """Open ``POST /v1/stream`` on a raw socket (the chaos client)."""
    sock = socket.create_connection(
        (server.host, server.port), timeout=30)
    payload = json.dumps(body).encode()
    head = (f"POST /v1/stream HTTP/1.1\r\n"
            f"Host: {server.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"X-Storm-Tenant: {tenant}\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n")
    sock.sendall(head.encode() + payload)
    return sock


def _wait(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# -- scenarios --------------------------------------------------------------


def _scenario_disconnect() -> dict:
    """Drop a connection mid-stream; the server reclaims the slot."""
    server = _make_server(abandon_seconds=5.0)
    survivors: list[bool] = []
    lock = threading.Lock()

    def survivor(seed: int) -> None:
        frames = _post(server.url, "/v1/stream",
                       {"query": STREAM_QUERY, "seed": seed},
                       f"steady-{seed}", stream=True)
        with lock:
            survivors.append(bool(frames)
                             and frames[-1]["frame"] == "end")

    try:
        threads = [threading.Thread(target=survivor, args=(s,))
                   for s in (71, 72, 73)]
        for t in threads:
            t.start()
        sock = _raw_stream_socket(
            server, {"query": STREAM_QUERY, "seed": 99}, "flaky")
        sock.recv(1024)  # response headers + the first frames
        # RST on close so the server sees the disconnect on its very
        # next write instead of buffering into a dead socket.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()
        for t in threads:
            t.join(timeout=120)
        reclaimed = _wait(
            lambda: server.service.scheduler.live_count == 0, 15.0)
        disconnects = _counter_total(
            server, "storm.server.client_disconnects")
    finally:
        server.stop(drain=False)
    ok = (len(survivors) == 3 and all(survivors)
          and disconnects >= 1 and reclaimed)
    return {"scenario": "disconnect", "ok": ok,
            "survivors_clean": sum(survivors),
            "client_disconnects": disconnects,
            "slot_reclaimed": reclaimed}


def _scenario_stalled_client() -> dict:
    """A consumer that stops reading is reaped as abandoned.

    Socket buffers would absorb a short stream entirely, so the
    stall is driven at the frame-buffer level: a chaos consumer pops
    a few frames, then stops (per its :class:`FaultPlan`
    ``client.read`` delay spec) without cancelling.  Backpressure
    parks the stream and ``abandon_seconds`` later the scheduler
    reaps it, freeing the slot with no client action at all.
    """
    server = _make_server(abandon_seconds=0.5, stream_buffer=2)
    service = server.service
    # The chaos client consults the same FaultPlan vocabulary the
    # server does: a one-shot client.read delay spec = "stall here".
    client_plan = FaultPlan().delay("client.read", 30.0, nth=3)
    try:
        task = service.submit_stream(
            "sleepy", {"query": STREAM_QUERY, "seed": 11})
        while client_plan.take_delay("client.read") == 0:
            task.pop(timeout=10.0)
        # Stalled: never pop again, never cancel.
        reaped = _wait(
            lambda: _counter_total(
                server, "storm.server.abandoned_reaped") >= 1, 20.0)
        reclaimed = _wait(
            lambda: service.scheduler.live_count == 0, 10.0)
        terminal = task.frames[-1] if task.frames else {}
    finally:
        server.stop(drain=False)
    ok = (reaped and reclaimed
          and terminal.get("frame") == "end"
          and "abandoned" in terminal.get("reason", ""))
    return {"scenario": "stalled_client", "ok": ok,
            "abandoned_reaped": reaped, "slot_reclaimed": reclaimed,
            "terminal_frame": terminal}


def _scenario_wedged_quantum() -> dict:
    """A wedged quantum fails one stream; the engine recovers."""
    plan = FaultPlan().delay("server.quantum", 2.0, nth=40)
    server = _make_server(faults=plan, watchdog_seconds=0.2)
    outcomes: list[str] = []
    lock = threading.Lock()

    def client(tenant: str, seed: int) -> None:
        frames = _post(server.url, "/v1/stream",
                       {"query": STREAM_QUERY, "seed": seed},
                       tenant, stream=True)
        last = frames[-1] if frames else {}
        with lock:
            if last.get("frame") == "end":
                outcomes.append("end")
            else:
                outcomes.append(last.get("code", "none"))

    try:
        threads = [threading.Thread(target=client,
                                    args=(f"tenant-{i}", 200 + i))
                   for i in range(4)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        elapsed = time.perf_counter() - started
        kills = server.service.scheduler.watchdog_kills
    finally:
        server.stop(drain=False)
    ok = (kills == 1
          and outcomes.count("watchdog_timeout") == 1
          and outcomes.count("end") == 3)
    return {"scenario": "wedged_quantum", "ok": ok,
            "watchdog_kills": kills, "outcomes": sorted(outcomes),
            "elapsed_seconds": elapsed}


def _run_durable_stream(journal_dir: str, *, kill_after_frames: int
                        ) -> tuple[list[dict], StormServer | None]:
    """Launch the canonical durable detached stream; kill the server
    after ``kill_after_frames`` frames (0 = run to completion and
    return the full frame list)."""
    server = _make_server(journal_dir=journal_dir)
    session = _post(server.url, "/v1/sessions", {"name": "chaos"},
                    "durable")["session"]
    stream = _post(server.url, f"/v1/sessions/{session}/streams",
                   {"query": RESUME_QUERY, "seed": RESUME_SEED},
                   "durable")["stream"]
    path = f"/v1/sessions/{session}/streams/{stream}?from=0"
    while True:
        doc = _get(server.url, path, "durable")
        if kill_after_frames and len(doc["frames"]) >= \
                kill_after_frames:
            server.stop(drain=False)  # the "kill"
            return doc["frames"], None
        if doc["state"] in ("done", "error", "cancelled"):
            server.stop(drain=False)
            return doc["frames"], None
        time.sleep(0.02)


def _scenario_kill_restart_resume(workdir: str) -> dict:
    """Kill a durable detached stream; restart resumes it
    byte-identically."""
    journal_a = f"{workdir}/journal-live"
    journal_b = f"{workdir}/journal-reference"
    # Uninterrupted reference run (its own journal; same engine seed,
    # same query seed, logical clock — the canonical frame bytes).
    reference, _ = _run_durable_stream(journal_b,
                                       kill_after_frames=0)
    # The victim: killed mid-stream after a handful of frames.
    before_kill, _ = _run_durable_stream(journal_a,
                                         kill_after_frames=8)
    # Restart over the same journal; recovery must re-admit it.
    restart_begin = time.perf_counter()
    server = _make_server(journal_dir=journal_a)
    try:
        sessions = _get(server.url, "/v1/sessions",
                        "durable")["sessions"]
        resumed_frames: list[dict] = []
        recovery_seconds = None
        state = "missing"
        if sessions and sessions[0]["streams"]:
            session = sessions[0]["session"]
            stream = sorted(sessions[0]["streams"])[0]
            path = f"/v1/sessions/{session}/streams/{stream}?from=0"
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                doc = _get(server.url, path, "durable")
                state = doc["state"]
                resumed_frames = doc["frames"]
                if recovery_seconds is None and \
                        len(resumed_frames) >= len(before_kill):
                    # Recovered: the replay has caught back up to
                    # everything the client saw before the kill.
                    recovery_seconds = (time.perf_counter()
                                        - restart_begin)
                if state in ("done", "error", "cancelled"):
                    break
                time.sleep(0.02)
        resumes = _counter_total(server,
                                 "storm.server.resume_streams")
    finally:
        server.stop(drain=False)

    def frame_bytes(frames: list[dict]) -> bytes:
        return b"".join(encode_frame(f) for f in frames)

    prefix_ok = (frame_bytes(resumed_frames[:len(before_kill)])
                 == frame_bytes(before_kill))
    deterministic = (bool(resumed_frames)
                     and frame_bytes(resumed_frames)
                     == frame_bytes(reference))
    ok = (resumes == 1 and state == "done" and prefix_ok
          and deterministic and recovery_seconds is not None)
    return {"scenario": "kill_restart_resume", "ok": ok,
            "resume_deterministic": deterministic,
            "prefix_matches_pre_kill": prefix_ok,
            "frames_before_kill": len(before_kill),
            "frames_reference": len(reference),
            "frames_resumed": len(resumed_frames),
            "resumed_streams": resumes,
            "recovery_seconds": recovery_seconds
            if recovery_seconds is not None else -1.0}


def _scenario_load_shed() -> dict:
    """Saturation sheds the lightest queued stream for a heavier
    tenant; equal weight still gets 429 + Retry-After ≥ 1."""
    engine = StormEngine(seed=2)
    engine.create_dataset("pts", _records(3000), dims=2,
                          build_ls=False)
    service = QueryService(engine, ServerConfig(
        max_streams=1, queue_depth=1, quantum=QUANTUM,
        quotas={"heavy": TenantQuota(weight=4.0)}))
    body = {"query": STREAM_QUERY}
    shed_frame = None
    heavy_admitted = False
    equal_weight_429 = False
    retry_floor_ok = False
    try:
        light_1 = service.submit_stream("light-1", dict(body, seed=1))
        light_2 = service.submit_stream("light-2", dict(body, seed=2))
        # Saturated (1 active + 1 queued): a heavier tenant sheds the
        # queued lightweight instead of being rejected.
        heavy = service.submit_stream("heavy", dict(body, seed=3))
        heavy_admitted = True
        shed_frame = light_2.drain_frames(timeout=10)[-1]
        # ... but an equal-weight newcomer is simply rejected.
        try:
            service.submit_stream("light-3", dict(body, seed=4))
        except ApiError as exc:
            equal_weight_429 = exc.status == 429
            retry_floor_ok = (exc.retry_after or 0) >= 1
        for task in (light_1, heavy):
            task.drain_frames(timeout=60)
    finally:
        service.shutdown(drain=False)
    shed_ok = (shed_frame is not None
               and shed_frame.get("frame") == "error"
               and shed_frame.get("code") == "shed")
    ok = (heavy_admitted and shed_ok and equal_weight_429
          and retry_floor_ok)
    return {"scenario": "load_shed", "ok": ok,
            "heavy_admitted": heavy_admitted,
            "shed_terminal_frame": shed_frame,
            "equal_weight_429": equal_weight_429,
            "retry_after_floor_ok": retry_floor_ok,
            "shed_streams": 1 if shed_ok else 0}


# -- the harness ------------------------------------------------------------


def run_server_chaos() -> dict:
    workdir = tempfile.mkdtemp(prefix="storm-chaos-")
    try:
        scenarios = [
            _scenario_disconnect(),
            _scenario_stalled_client(),
            _scenario_wedged_quantum(),
            _scenario_kill_restart_resume(workdir),
            _scenario_load_shed(),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    by_name = {s["scenario"]: s for s in scenarios}
    resume = by_name["kill_restart_resume"]
    served = (by_name["disconnect"]["survivors_clean"]
              + by_name["wedged_quantum"]["outcomes"].count("end")
              + (1 if resume["ok"] else 0)
              + (2 if by_name["load_shed"]["ok"] else 0))
    checks = {f"scenarios.{s['scenario']}.ok": s.pop("ok")
              for s in scenarios}
    checks["server_chaos.resume_deterministic"] = \
        resume.pop("resume_deterministic")
    return report("server_chaos", {
        "server_chaos.recovery_seconds": metric(
            resume.pop("recovery_seconds"), "s", "lower"),
        "server_chaos.served_streams": metric(served, "count",
                                              "higher"),
    }, checks, {
        "config": {"records": N_RECORDS, "quantum": QUANTUM,
                   "resume_query": RESUME_QUERY,
                   "resume_seed": RESUME_SEED},
        "scenarios": scenarios,
    })
