"""Multi-tenant query service tests.

Covers the PR's acceptance criteria end to end: N concurrent tenants
each receive monotone progressive results whose final estimates match
single-user execution exactly (same seed, same snapshot); streams are
isolated from concurrent ingest; per-tenant quotas and global
admission control reject with 429 (+ Retry-After); graceful shutdown
drains in-flight streams; and — the uniformity claim — a stream
scheduled in quanta among other streams is sample-identical in
distribution to the same stream run alone (chi-square,
``@pytest.mark.stat``).

The HTTP layer is tested over real sockets (ephemeral ports), and the
docs↔routes consistency test fails when ``docs/service.md`` and
:data:`repro.server.http.ROUTES` drift apart.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from scipy import stats

from repro.core.engine import Dataset, StormEngine
from repro.core.estimators.base import Estimate
from repro.core.geometry import Rect
from repro.core.records import Record
from repro.core.session import ProgressPoint
from repro.faults import FaultPlan
from repro.index.cost import CostCounter
from repro.server import (FairScheduler, QueryService, ServerConfig,
                          StormServer, StreamTask, TenantQuota)
from repro.server.http import ROUTES, match_route
from repro.server.protocol import ApiError
from repro.storage.lsm import LSMTree

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

AVG_Q = ("ESTIMATE AVG(v) FROM pts "
         "WHERE REGION(5, 5, 95, 95) SAMPLES 1200")


def make_records(n, seed=5, start_id=0):
    rng = random.Random(seed)
    return [Record(record_id=start_id + i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": rng.gauss(10, 2)})
            for i in range(n)]


def make_engine(n=3000, seed=1, lsm=False):
    engine = StormEngine(seed=seed)
    dataset = engine.create_dataset("pts", make_records(n),
                                    dims=2, build_ls=False)
    if lsm:
        dataset.attach_lsm(LSMTree(dataset, memtable_limit=64,
                                   compact_after_runs=999))
    return engine


def true_mean(engine, lo=5.0, hi=95.0):
    dataset = engine.datasets["pts"]
    rect = Rect((lo, lo), (hi, hi))
    vals = [r.attrs["v"] for r in dataset.records.values()
            if rect.contains_point(r.key(2))]
    return sum(vals) / len(vals)


def final_estimate(frames):
    last = frames[-1]
    assert last["frame"] == "end", last
    return last["estimate"]["value"]


# -- routing ------------------------------------------------------------


class TestRouting:
    def test_exact_match(self):
        assert match_route("GET", "/health") == ("/health", {})
        assert match_route("POST", "/v1/query") == ("/v1/query", {})

    def test_params_extracted(self):
        template, params = match_route(
            "GET", "/v1/sessions/s-3/streams/q-9")
        assert template == "/v1/sessions/{session}/streams/{stream}"
        assert params == {"session": "s-3", "stream": "q-9"}

    def test_method_mismatch_is_405(self):
        assert match_route("DELETE", "/v1/query")[0] == "405"

    def test_unknown_path_is_none(self):
        assert match_route("GET", "/v1/nope") is None

    def test_routes_unique(self):
        pairs = [(m, t) for m, t, _ in ROUTES]
        assert len(pairs) == len(set(pairs))


# -- docs <-> routes consistency ----------------------------------------


def test_every_route_documented():
    """docs/service.md documents exactly the shipped API surface."""
    text = (DOCS / "service.md").read_text()
    for method, template, _ in ROUTES:
        assert f"`{method} {template}`" in text, (
            f"{method} {template} is served but not documented in "
            f"docs/service.md")


def test_no_phantom_routes_documented():
    """Endpoints documented as code spans must actually be served."""
    import re
    text = (DOCS / "service.md").read_text()
    served = {(m, t) for m, t, _ in ROUTES}
    for method, template in re.findall(
            r"`(GET|POST|DELETE|PUT|PATCH) (/[^`]*)`", text):
        assert (method, template) in served, (
            f"docs/service.md documents {method} {template} "
            f"but the server does not route it")


# -- concurrent tenants -------------------------------------------------


class TestConcurrentTenants:
    def test_eight_tenants_progressive_monotone(self):
        engine = make_engine()
        svc = QueryService(engine, ServerConfig(
            max_streams=8, quantum=64))
        truth = true_mean(engine)
        try:
            tasks = [svc.submit_stream(f"tenant-{i}", {
                "query": AVG_Q, "seed": 9000 + i})
                for i in range(8)]
            for task in tasks:
                frames = task.drain_frames(timeout=60)
                progress = [f["k"] for f in frames
                            if f["frame"] == "progress"]
                # Strictly tightening progress; the terminal frame
                # repeats the last snapshot's k.
                assert progress == sorted(set(progress))
                assert frames[-1]["frame"] == "end"
                assert frames[-1]["k"] == progress[-1]
                est = frames[-1]["estimate"]
                half = (est["interval"]["hi"]
                        - est["interval"]["lo"]) / 2
                assert abs(est["value"] - truth) < max(4 * half, 0.5)
        finally:
            svc.shutdown()

    def test_scheduled_matches_single_user_exactly(self):
        """Same seed, same snapshot: contention changes *when* a
        stream draws, never *what* — final estimates are identical."""
        quantum = 48
        solo_engine = make_engine()
        solo = QueryService(solo_engine, ServerConfig(
            max_streams=8, quantum=quantum))
        try:
            baseline = final_estimate(solo.submit_stream(
                "only", {"query": AVG_Q, "seed": 777}
            ).drain_frames(timeout=60))
        finally:
            solo.shutdown()

        busy_engine = make_engine()
        busy = QueryService(busy_engine, ServerConfig(
            max_streams=8, quantum=quantum))
        try:
            noise = [busy.submit_stream(f"noise-{i}", {
                "query": AVG_Q, "seed": 100 + i}) for i in range(6)]
            probe = busy.submit_stream(
                "probe", {"query": AVG_Q, "seed": 777})
            contended = final_estimate(
                probe.drain_frames(timeout=60))
            for task in noise:
                task.drain_frames(timeout=60)
        finally:
            busy.shutdown()
        assert contended == pytest.approx(baseline, abs=0.0)


# -- snapshot isolation under ingest ------------------------------------


class TestIngestIsolation:
    def test_stream_isolated_from_concurrent_inserts(self):
        """A stream's pinned snapshot hides every record ingested
        after its first quantum: the final estimate is identical to
        the same-seed run with no ingest at all."""
        quiet_engine = make_engine(lsm=True)
        quiet = QueryService(quiet_engine, ServerConfig(quantum=32))
        try:
            baseline = final_estimate(quiet.submit_stream(
                "t", {"query": AVG_Q, "seed": 4242}
            ).drain_frames(timeout=60))
        finally:
            quiet.shutdown()

        noisy_engine = make_engine(lsm=True)
        dataset = noisy_engine.datasets["pts"]
        noisy = QueryService(noisy_engine, ServerConfig(quantum=32))
        try:
            task = noisy.submit_stream(
                "t", {"query": AVG_Q, "seed": 4242})
            first = task.pop(timeout=30)  # snapshot now pinned
            assert first is not None
            # Skew hard: +1000 everywhere the query looks.
            for rec in make_records(400, seed=99, start_id=50_000):
                rec.attrs["v"] += 1000.0
                dataset.insert(rec)
            frames = [first] + task.drain_frames(timeout=60)
            assert final_estimate(frames) == pytest.approx(
                baseline, abs=0.0)
        finally:
            noisy.shutdown()


# -- sharded datasets (serve --workers N) -------------------------------


class TestDistributedService:
    """The service over a 3-worker cluster, as ``serve --workers 3``
    builds it."""

    OSM_Q = ("ESTIMATE AVG(altitude) FROM osm "
             "WHERE REGION(-110, 30, -85, 45) SAMPLES 300")

    @staticmethod
    def _engine():
        from repro.cli import build_engine
        return build_engine(["osm"], n=3000, seed=1, workers=3)

    @staticmethod
    def _wallclock_free(frames):
        return [{k: v for k, v in f.items() if k != "elapsed"}
                for f in frames]

    def test_one_shot_query_ends(self):
        svc = QueryService(self._engine(), ServerConfig(quantum=32))
        try:
            doc = svc.run_query("t", {"query": self.OSM_Q, "seed": 3},
                                timeout=60)
        finally:
            svc.shutdown()
        assert doc["result"]["frame"] == "end", doc["result"]
        assert doc["result"]["k"] >= 300

    def test_stopped_query_closes_worker_streams(self):
        engine = self._engine()
        svc = QueryService(engine, ServerConfig(quantum=32))
        try:
            doc = svc.run_query("t", {"query": self.OSM_Q, "seed": 3},
                                timeout=60)
        finally:
            svc.shutdown()
        assert doc["result"]["reason"] == "sample budget reached"
        workers = engine.dataset("osm").cluster.workers
        assert sum(w.open_stream_count() for w in workers) == 0

    def test_stream_matches_solo_session(self):
        from repro.query.executor import QueryExecutor
        from repro.server.protocol import progress_frame, terminal_frame
        quantum = 32
        svc = QueryService(self._engine(), ServerConfig(quantum=quantum))
        try:
            served = svc.submit_stream(
                "t", {"query": self.OSM_Q, "seed": 99}
            ).drain_frames(timeout=60)
        finally:
            svc.shutdown()
        session, stop = QueryExecutor(self._engine()).session(
            self.OSM_Q, rng=random.Random(99), report_every=quantum)
        points = list(session.run(stop))
        solo = [progress_frame(p) for p in points] \
            + [terminal_frame(points[-1])]
        assert served[-1]["frame"] == "end"
        assert self._wallclock_free(served) == self._wallclock_free(solo)

    def test_datasets_doc_lists_the_cluster_sampler(self):
        svc = QueryService(self._engine(), ServerConfig())
        try:
            doc = svc.datasets_doc()["datasets"]["osm"]
        finally:
            svc.shutdown()
        assert doc["kind"] == "DistributedDataset"
        assert doc["samplers"] == ["distributed-rs"]
        assert doc["tiered_ingest"] is False


# -- quotas, admission, backpressure ------------------------------------


class TestAdmission:
    def test_over_quota_rejected(self):
        engine = make_engine()
        svc = QueryService(engine, ServerConfig(
            max_streams=2, queue_depth=4, quantum=16,
            stream_buffer=2,
            quotas={"bob": TenantQuota(max_concurrent_streams=1)}))
        try:
            held = svc.submit_stream("bob", {"query": AVG_Q})
            with pytest.raises(ApiError) as err:
                svc.submit_stream("bob", {"query": AVG_Q})
            assert err.value.status == 429
            assert err.value.code == "over_quota"
            held.drain_frames(timeout=60)
            # The slot freed: bob may submit again.
            svc.submit_stream("bob", {"query": AVG_Q}
                              ).drain_frames(timeout=60)
        finally:
            svc.shutdown()

    def test_saturation_is_429_with_retry_after(self):
        engine = make_engine()
        svc = QueryService(engine, ServerConfig(
            max_streams=2, queue_depth=1, quantum=16,
            stream_buffer=2))
        try:
            tasks = [svc.submit_stream(f"t{i}", {"query": AVG_Q})
                     for i in range(3)]  # 2 active + 1 queued = full
            with pytest.raises(ApiError) as err:
                svc.submit_stream("late", {"query": AVG_Q})
            assert err.value.status == 429
            assert err.value.code == "saturated"
            assert err.value.retry_after >= 1
            for task in tasks:
                task.drain_frames(timeout=60)
        finally:
            svc.shutdown()

    def test_sample_budget_capped_by_quota(self):
        engine = make_engine()
        svc = QueryService(engine, ServerConfig(
            quantum=32,
            quotas={"small": TenantQuota(max_samples=100)}))
        try:
            frames = svc.submit_stream(
                "small", {"query": AVG_Q}).drain_frames(timeout=60)
            # AVG_Q asks for 1200 samples; the quota caps it at 100
            # (stop conditions fire on report boundaries).
            assert frames[-1]["k"] <= 100 + 32
        finally:
            svc.shutdown()

    def test_backpressure_parks_unread_stream(self):
        engine = make_engine()
        svc = QueryService(engine, ServerConfig(
            max_streams=2, quantum=16, stream_buffer=2))
        try:
            slow = svc.submit_stream("slow", {"query": AVG_Q})
            fast = svc.submit_stream("fast", {"query": AVG_Q})
            fast.drain_frames(timeout=60)  # unblocked neighbour ends
            assert slow.pending() <= 2  # parked at the buffer bound
            assert not slow.terminal
            frames = slow.drain_frames(timeout=60)
            assert frames[-1]["frame"] == "end"
        finally:
            svc.shutdown()


# -- shutdown -----------------------------------------------------------


class TestShutdown:
    def test_graceful_drain_finishes_streams(self):
        engine = make_engine()
        svc = QueryService(engine, ServerConfig(
            quantum=64, drain_seconds=30.0))
        tasks = [svc.submit_stream(f"t{i}", {
            "query": AVG_Q, "seed": i}) for i in range(4)]
        consumed = {}
        threads = [threading.Thread(
            target=lambda t=t: consumed.setdefault(
                t.task_id, t.drain_frames(timeout=60)))
            for t in tasks]
        for thread in threads:
            thread.start()
        assert svc.shutdown(drain=True) is True
        for thread in threads:
            thread.join(timeout=30)
        for task in tasks:
            assert consumed[task.task_id][-1]["frame"] == "end"

    def test_draining_rejects_new_work_503(self):
        engine = make_engine()
        svc = QueryService(engine, ServerConfig(quantum=32))
        svc.draining = True  # what shutdown(drain=True) sets first
        with pytest.raises(ApiError) as err:
            svc.submit_stream("t", {"query": AVG_Q})
        assert err.value.status == 503
        assert err.value.code == "shutting_down"
        svc.shutdown(drain=False)

    def test_hard_stop_cancels_with_terminal_frame(self):
        engine = make_engine()
        svc = QueryService(engine, ServerConfig(quantum=16))
        task = svc.submit_stream(
            "t", {"query": AVG_Q.replace("1200", "200000")})
        assert task.pop(timeout=30) is not None
        svc.shutdown(drain=False)
        frames = task.drain_frames(timeout=10)
        assert frames[-1]["frame"] == "end"
        assert "shutdown" in frames[-1]["reason"]


# -- fault injection ----------------------------------------------------


class TestFaults:
    def test_injected_quantum_fault_becomes_error_frame(self):
        engine = make_engine()
        faults = FaultPlan(seed=3).error_rate("server.quantum", 1.0)
        svc = QueryService(engine, ServerConfig(quantum=16),
                           faults=faults)
        try:
            frames = svc.submit_stream(
                "t", {"query": AVG_Q}).drain_frames(timeout=30)
            assert frames[-1]["frame"] == "error"
            assert "server.quantum" in frames[-1]["message"]
        finally:
            svc.shutdown(drain=False)

    def test_one_tenants_fault_does_not_kill_neighbours(self):
        engine = make_engine()
        faults = FaultPlan(seed=3).error_rate("server.quantum", 0.2)
        svc = QueryService(engine, ServerConfig(quantum=32),
                           faults=faults)
        try:
            tasks = [svc.submit_stream(f"t{i}", {"query": AVG_Q})
                     for i in range(4)]
            outcomes = {t.drain_frames(timeout=60)[-1]["frame"]
                        for t in tasks}
            # With a 20% coin some streams die and the scheduler
            # keeps driving the others to their own terminal frame.
            assert outcomes <= {"end", "error"}
            assert all(t.terminal for t in tasks)
        finally:
            svc.shutdown(drain=False)


# -- scheduling does not bias sampling (chi-square) ---------------------


def _recording_task(dataset, rect, seed, draws, quantum, counts,
                    lock):
    """A stream over the real sampler that tallies drawn ids."""
    def gen():
        rng = random.Random(seed)
        stream = dataset.samplers["rs-tree"].sample_stream(rect, rng)
        est = Estimate(value=0.0, std_error=None, interval=None,
                       k=0, q=None)
        k = 0
        while k < draws:
            batch = list(itertools.islice(stream, quantum))
            if not batch:
                break
            with lock:
                for entry in batch:
                    counts[entry.item_id] = counts.get(
                        entry.item_id, 0) + 1
            k += len(batch)
            yield ProgressPoint(k=k, elapsed=0.0, estimate=est,
                                cost=CostCounter(),
                                done=k >= draws)
    return StreamTask(f"tenant-{seed % 7}", gen)


@pytest.mark.stat
def test_scheduled_draws_stay_uniform():
    """Chi-square: ids drawn by streams interleaved under the fair
    scheduler are uniform over P ∩ Q, exactly as when run alone
    (scheduling changes *when* a stream draws, never *what*)."""
    dataset = Dataset("pts", make_records(400, seed=21), dims=2,
                      build_ls=False, seed=21)
    rect = Rect((10.0, 10.0), (90.0, 90.0))
    in_range = {rid for rid, r in dataset.records.items()
                if rect.contains_point(r.key(2))}
    assert len(in_range) > 150
    counts: dict[int, int] = {}
    lock = threading.Lock()
    scheduler = FairScheduler(max_concurrent=8).start()
    draws, streams = 30, 40
    try:
        tasks = [_recording_task(dataset, rect, 5000 + i, draws, 10,
                                 counts, lock)
                 for i in range(streams)]
        for task in tasks:
            scheduler.submit(task)
        assert scheduler.wait_idle(timeout=120)
    finally:
        scheduler.stop()
    total = sum(counts.values())
    assert total == draws * streams
    expected = total / len(in_range)
    chi2 = sum((counts.get(rid, 0) - expected) ** 2 / expected
               for rid in in_range)
    pvalue = stats.chi2.sf(chi2, df=len(in_range) - 1)
    assert pvalue > 0.001


# -- weighted fairness --------------------------------------------------


def test_weighted_tenant_gets_proportional_quanta():
    """Under saturation a weight-2 stream earns ~2x the quanta of a
    weight-1 stream over the contended window."""
    def endless():
        def gen():
            est = Estimate(value=0.0, std_error=None, interval=None,
                           k=0, q=None)
            for k in itertools.count(1):
                yield ProgressPoint(k=k, elapsed=0.0, estimate=est,
                                    cost=CostCounter(), done=False)
        return gen

    scheduler = FairScheduler(max_concurrent=2).start()
    # detached: frames are retained, never backpressure-parked, so
    # the only thing shaping quanta is the deficit round-robin.
    heavy = StreamTask("heavy", endless(), weight=2.0,
                       detached=True)
    light = StreamTask("light", endless(), weight=1.0,
                       detached=True)
    try:
        scheduler.submit(heavy)
        scheduler.submit(light)
        deadline = time.monotonic() + 20
        while (light.quanta < 200
               and time.monotonic() < deadline):
            time.sleep(0.02)
        ratio = heavy.quanta / max(1, light.quanta)
        assert 1.4 < ratio < 2.6, (heavy.quanta, light.quanta)
    finally:
        heavy.cancel()
        light.cancel()
        scheduler.stop()


# -- HTTP layer over real sockets ---------------------------------------


@pytest.fixture(scope="module")
def server():
    engine = make_engine()
    config = ServerConfig(
        max_streams=8, quantum=64,
        tokens={"tok-a": "alice", "tok-b": "bob"},
        quotas={"bob": TenantQuota(max_concurrent_streams=1,
                                   max_samples=500)})
    service = QueryService(engine, config)
    with StormServer(service) as srv:
        yield srv


def _call(server, method, path, body=None, token="tok-a"):
    req = urllib.request.Request(
        server.url + path, method=method,
        data=json.dumps(body).encode() if body is not None else None)
    if token:
        req.add_header("Authorization", f"Bearer {token}")
    if body is not None:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.status, json.loads(resp.read())


def _call_error(server, method, path, body=None, token="tok-a"):
    try:
        _call(server, method, path, body, token)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)
    raise AssertionError("expected an HTTP error")


def _raw_exchange(server, request: bytes) -> tuple[int, bytes]:
    """Send raw request bytes and read the reply to EOF.

    The server closes the connection only after its handler returns,
    so by EOF the request has also been counted in the registry.
    """
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload


class TestHTTP:
    def test_health_needs_no_token(self, server):
        status, doc = _call(server, "GET", "/health", token=None)
        assert status == 200 and doc["status"] == "ok"
        assert doc["streams"]["max_streams"] == 8

    def test_connect_burst_is_not_dropped(self, server):
        # 32 clients connect at once.  A listen backlog smaller than
        # the burst drops SYNs, and every dropped client then waits
        # for the kernel's 1 s SYN retransmit.
        clients = 32
        barrier = threading.Barrier(clients)
        took: list[float] = []
        lock = threading.Lock()

        def client() -> None:
            barrier.wait(timeout=30)
            begin = time.perf_counter()
            status, _ = _call(server, "GET", "/health", token=None)
            with lock:
                took.append(time.perf_counter() - begin
                            if status == 200 else float("inf"))

        threads = [threading.Thread(target=client)
                   for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(took) == clients
        assert max(took) < 0.5

    def test_missing_token_is_401(self, server):
        code, doc, _ = _call_error(server, "GET", "/v1/datasets",
                                   token=None)
        assert code == 401
        assert doc["error"]["code"] == "unauthorized"

    def test_bad_token_is_401(self, server):
        code, doc, _ = _call_error(server, "GET", "/v1/datasets",
                                   token="nope")
        assert code == 401

    def test_unknown_route_is_404(self, server):
        code, doc, _ = _call_error(server, "GET", "/v1/nope")
        assert code == 404
        assert doc["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, server):
        code, doc, _ = _call_error(server, "DELETE", "/v1/query")
        assert code == 405

    def test_datasets_doc(self, server):
        status, doc = _call(server, "GET", "/v1/datasets")
        assert doc["datasets"]["pts"]["records"] == 3000

    def test_one_shot_query(self, server):
        status, doc = _call(server, "POST", "/v1/query", {
            "query": "ESTIMATE COUNT FROM pts "
                     "WHERE REGION(5, 5, 95, 95)"})
        assert status == 200
        assert doc["result"]["frame"] == "end"
        assert doc["result"]["estimate"]["exact"] is True

    def test_explain_runs_inline(self, server):
        status, doc = _call(server, "POST", "/v1/query", {
            "query": "EXPLAIN " + AVG_Q})
        assert status == 200 and "explain" in doc

    def test_bad_query_is_400(self, server):
        code, doc, _ = _call_error(server, "POST", "/v1/query",
                                   {"query": "SELECT nope"})
        assert code == 400
        assert doc["error"]["code"] == "bad_request"

    def test_non_integer_content_length_is_400(self, server):
        status, payload = _raw_exchange(server, (
            b"POST /v1/query HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Authorization: Bearer tok-a\r\n"
            b"Content-Length: abc\r\n"
            b"Connection: close\r\n\r\n"
            b'{"query": "ESTIMATE COUNT FROM pts"}'))
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad_request"

    def test_unknown_dataset_is_404(self, server):
        code, doc, _ = _call_error(
            server, "POST", "/v1/query",
            {"query": "ESTIMATE COUNT FROM ghosts "
                      "WHERE REGION(0, 0, 1, 1)"})
        assert code == 404

    def test_streaming_ndjson(self, server):
        req = urllib.request.Request(
            server.url + "/v1/stream", method="POST",
            data=json.dumps({"query": AVG_Q, "seed": 7}).encode())
        req.add_header("Authorization", "Bearer tok-a")
        with urllib.request.urlopen(req, timeout=60) as resp:
            assert resp.status == 200
            ctype = resp.headers["Content-Type"]
            assert ctype == "application/x-ndjson"
            assert resp.headers["X-Storm-Stream"].startswith("q-")
            frames = [json.loads(line)
                      for line in resp.read().splitlines()]
        ks = [f["k"] for f in frames]
        assert ks == sorted(ks)
        assert frames[-1]["frame"] == "end"
        assert [f["frame"] for f in frames[:-1]] == \
            ["progress"] * (len(frames) - 1)

    def test_session_lifecycle_and_detached_resume(self, server):
        status, doc = _call(server, "POST", "/v1/sessions",
                            {"name": "analysis"})
        assert status == 201
        sid = doc["session"]
        status, doc = _call(
            server, "POST", f"/v1/sessions/{sid}/streams",
            {"query": AVG_Q, "seed": 11})
        assert status == 202
        stream = doc["stream"]
        deadline = time.monotonic() + 60
        seen: list[dict] = []
        cursor = 0
        while time.monotonic() < deadline:
            status, doc = _call(
                server, "GET",
                f"/v1/sessions/{sid}/streams/{stream}"
                f"?from={cursor}")
            seen.extend(doc["frames"])
            cursor = doc["next"]
            if doc["state"] in ("done", "error", "cancelled"):
                break
            time.sleep(0.05)
        assert seen and seen[-1]["frame"] == "end"
        ks = [f["k"] for f in seen]
        assert ks == sorted(ks)
        # Resume from scratch replays the retained frames.
        status, doc = _call(
            server, "GET",
            f"/v1/sessions/{sid}/streams/{stream}?from=0")
        assert doc["frames"] == seen
        status, doc = _call(server, "GET", "/v1/sessions")
        assert sid in [s["session"] for s in doc["sessions"]]
        status, doc = _call(server, "DELETE",
                            f"/v1/sessions/{sid}")
        assert doc == {"closed": sid}

    def test_sessions_do_not_leak_across_tenants(self, server):
        status, doc = _call(server, "POST", "/v1/sessions",
                            {"name": "private"}, token="tok-a")
        sid = doc["session"]
        code, doc, _ = _call_error(
            server, "GET", f"/v1/sessions/{sid}", token="tok-b")
        assert code == 404  # indistinguishable from missing
        status, doc = _call(server, "GET", "/v1/sessions",
                            token="tok-b")
        assert sid not in [s["session"] for s in doc["sessions"]]
        _call(server, "DELETE", f"/v1/sessions/{sid}")

    def test_metrics_have_tenant_labels(self, server):
        _call(server, "POST", "/v1/query", {
            "query": AVG_Q, "seed": 3})
        status, payload = _raw_exchange(
            server, b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n"
                    b"Connection: close\r\n\r\n")
        text = payload.decode()
        assert "storm_server_quanta_total" in text
        assert 'tenant="alice"' in text
        assert "storm_server_latency_seconds" in text
        assert "storm_sample_latency_seconds_bucket" in text
        status, doc = _call(server, "GET", "/metrics.json",
                            token=None)
        assert "window" in doc
        counters = doc["snapshot"]["counters"]
        assert any(k.startswith("storm.server.requests")
                   for k in counters)
        assert counters["storm.server.requests{code=200,"
                        "route=/metrics,tenant=}"] >= 1

    def test_streaming_quota_cap_applies(self, server):
        status, doc = _call(server, "POST", "/v1/query", {
            "query": AVG_Q, "seed": 5}, token="tok-b")
        # bob's quota caps the 1200-sample ask at 500 (stop
        # conditions fire on quantum boundaries).
        assert doc["result"]["k"] <= 500 + 64
