"""Service-layer resilience tests.

Covers the failure modes production traffic produces: per-stream
deadlines (header-driven and defaulted), the quantum watchdog that
fails a wedged stream without stalling other tenants (including the
chi-square check that survivors' draws stay uniform), dead-client
reaping (disconnects over real sockets, abandoned unread streams),
load shedding under saturation with the Retry-After floor, the
one-shot 504 quota-release regression, graceful drain that suspends
— not cancels — detached streams, and the durable-detached-stream
journal: round-trip, torn-tail recovery, and the exact byte-identity
of a resumed stream vs an uninterrupted run.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import struct
import threading
import time

import pytest
from scipy import stats

from repro.core.engine import Dataset, StormEngine
from repro.core.estimators.base import Estimate
from repro.core.geometry import Rect
from repro.core.records import Record
from repro.core.session import ProgressPoint
from repro.faults import FaultPlan
from repro.index.cost import CostCounter
from repro.server import (QueryService, ServerConfig, StormServer,
                          StreamJournal, StreamTask, TenantQuota)
from repro.server.protocol import ApiError, encode_frame
from repro.server.scheduler import FairScheduler

AVG_Q = ("ESTIMATE AVG(v) FROM pts "
         "WHERE REGION(5, 5, 95, 95) SAMPLES 1200")
LONG_Q = ("ESTIMATE AVG(v) FROM pts "
          "WHERE REGION(5, 5, 95, 95) SAMPLES 100000")


def make_records(n, seed=5):
    rng = random.Random(seed)
    return [Record(record_id=i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": rng.gauss(10, 2)})
            for i in range(n)]


def make_engine(n=3000, seed=1):
    engine = StormEngine(seed=seed)
    engine.create_dataset("pts", make_records(n), dims=2,
                          build_ls=False)
    return engine


def endless_gen():
    """A stream that never finishes on its own."""
    def gen():
        est = Estimate(value=0.0, std_error=None, interval=None,
                       k=0, q=None)
        for k in itertools.count(1):
            yield ProgressPoint(k=k, elapsed=0.0, estimate=est,
                                cost=CostCounter(), done=False)
    return gen


def counter_total(service, name):
    snapshot = service.obs.registry.snapshot()
    return sum(v for k, v in snapshot["counters"].items()
               if k == name or k.startswith(name + "{"))


# -- deadlines ----------------------------------------------------------


class TestDeadlines:
    def test_active_stream_past_deadline_fails_cleanly(self):
        scheduler = FairScheduler(max_concurrent=2).start()
        try:
            task = StreamTask("t", endless_gen(), detached=True,
                              deadline_seconds=0.2)
            scheduler.submit(task)
            assert task.wait_terminal(timeout=10)
            final = task.frames[-1]
            assert final["frame"] == "error"
            assert final["code"] == "deadline_exceeded"
        finally:
            scheduler.stop()

    def test_queued_stream_past_deadline_fails_too(self):
        """A deadline covers queue wait: a stream that never reached
        the engine still fails at its deadline."""
        scheduler = FairScheduler(max_concurrent=1).start()
        hog = StreamTask("hog", endless_gen(), detached=True)
        try:
            scheduler.submit(hog)
            queued = StreamTask("t", endless_gen(),
                                deadline_seconds=0.2)
            scheduler.submit(queued)
            assert queued.wait_terminal(timeout=10)
            assert queued.frames[-1]["code"] == "deadline_exceeded"
            assert not hog.terminal
        finally:
            scheduler.stop()

    def test_deadline_frees_quota_slot(self):
        engine = make_engine(800)
        # stream_buffer=2 parks the stream on backpressure (nobody
        # pops), so it is deterministically still live at deadline.
        svc = QueryService(engine, ServerConfig(
            max_streams=1, quantum=16, stream_buffer=2,
            quotas={"t": TenantQuota(max_concurrent_streams=1)}))
        try:
            first = svc.submit_stream("t", {"query": LONG_Q},
                                      deadline=0.2)
            assert first.wait_terminal(timeout=10)
            assert first.frames[-1]["code"] == "deadline_exceeded"
            # The slot must be verifiably free for the next stream.
            time.sleep(0.1)
            second = svc.submit_stream("t", {"query": AVG_Q})
            assert second.drain_frames(
                timeout=60)[-1]["frame"] == "end"
            assert counter_total(
                svc, "storm.server.deadline_exceeded") == 1
        finally:
            svc.shutdown(drain=False)

    def test_default_deadline_from_config(self):
        engine = make_engine(800)
        svc = QueryService(engine, ServerConfig(
            max_streams=1, quantum=16, stream_buffer=2,
            default_deadline=0.2))
        try:
            task = svc.submit_stream("t", {"query": LONG_Q})
            assert task.wait_terminal(timeout=10)
            assert task.frames[-1]["code"] == "deadline_exceeded"
        finally:
            svc.shutdown(drain=False)

    def test_bad_deadline_rejected(self):
        engine = make_engine(400)
        svc = QueryService(engine, ServerConfig(max_streams=1))
        try:
            with pytest.raises(ApiError) as err:
                svc.submit_stream("t", {"query": AVG_Q}, deadline=-1)
            assert err.value.status == 400
        finally:
            svc.shutdown(drain=False)


# -- the quantum watchdog -----------------------------------------------


def wedged_task(tenant="wedged", seconds=5.0):
    """A stream whose first quantum blocks the engine thread."""
    def gen():
        time.sleep(seconds)
        return
        yield  # pragma: no cover — makes this a generator
    return StreamTask(tenant, gen, detached=True)


class TestWatchdog:
    def test_wedged_quantum_fails_only_its_stream(self):
        scheduler = FairScheduler(max_concurrent=4,
                                  watchdog_seconds=0.1).start()
        victim = wedged_task()
        bystander = StreamTask("steady", endless_gen(),
                               detached=True)
        try:
            scheduler.submit(victim)
            scheduler.submit(bystander)
            assert victim.wait_terminal(timeout=10)
            final = victim.frames[-1]
            assert final["frame"] == "error"
            assert final["code"] == "watchdog_timeout"
            # The replacement engine thread keeps other tenants
            # drawing while the stale thread is still asleep.
            before = bystander.samples
            deadline = time.monotonic() + 10
            while bystander.samples <= before \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert bystander.samples > before
            assert scheduler.watchdog_kills == 1
        finally:
            scheduler.stop()

    def test_injected_delay_fault_triggers_watchdog(self):
        """FaultPlan's server.quantum delay spec wedges a real
        sampling quantum; the watchdog recovers the engine."""
        engine = make_engine(800)
        plan = FaultPlan().delay("server.quantum", 5.0, nth=3)
        svc = QueryService(engine, ServerConfig(
            max_streams=2, quantum=16, watchdog_seconds=0.1),
            faults=plan)
        try:
            task = svc.submit_stream("t", {"query": AVG_Q})
            frames = task.drain_frames(timeout=30)
            assert frames[-1]["frame"] == "error"
            assert frames[-1]["code"] == "watchdog_timeout"
            # The engine survived: a fresh stream completes.
            again = svc.submit_stream("t", {"query": AVG_Q})
            assert again.drain_frames(
                timeout=60)[-1]["frame"] == "end"
            assert counter_total(
                svc, "storm.server.watchdog_kills") == 1
        finally:
            svc.shutdown(drain=False)


def _recording_task(dataset, rect, seed, draws, quantum, counts,
                    lock):
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
def test_draws_stay_uniform_after_watchdog_kill():
    """Chi-square: a wedged stream killed by the watchdog leaves the
    surviving streams' draws exactly uniform over P ∩ Q — engine
    takeover changes *when* survivors draw, never *what*."""
    dataset = Dataset("pts", make_records(400, seed=21), dims=2,
                      build_ls=False, seed=21)
    rect = Rect((10.0, 10.0), (90.0, 90.0))
    in_range = {rid for rid, r in dataset.records.items()
                if rect.contains_point(r.key(2))}
    assert len(in_range) > 150
    counts: dict[int, int] = {}
    lock = threading.Lock()
    scheduler = FairScheduler(max_concurrent=8,
                              watchdog_seconds=0.1).start()
    draws, streams = 30, 40
    victim = wedged_task(seconds=3.0)
    try:
        scheduler.submit(victim)
        tasks = [_recording_task(dataset, rect, 5000 + i, draws, 10,
                                 counts, lock)
                 for i in range(streams)]
        for task in tasks:
            scheduler.submit(task)
        assert victim.wait_terminal(timeout=10)
        assert victim.frames[-1]["code"] == "watchdog_timeout"
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


# -- dead-client reaping ------------------------------------------------


class TestAbandonReaping:
    def test_blocked_stream_reaped_after_abandon_seconds(self):
        scheduler = FairScheduler(max_concurrent=2,
                                  abandon_seconds=0.2).start()
        task = StreamTask("t", endless_gen(), buffer_frames=2)
        try:
            scheduler.submit(task)  # nobody ever pops
            assert task.wait_terminal(timeout=10)
            final = task.frames[-1]
            assert final["frame"] == "end"
            assert "abandoned" in final["reason"]
            assert scheduler.wait_idle(timeout=5)
        finally:
            scheduler.stop()

    def test_active_reader_is_never_reaped(self):
        """blocked_since resets whenever the consumer drains, so a
        slow-but-alive reader survives arbitrarily long."""
        scheduler = FairScheduler(max_concurrent=2,
                                  abandon_seconds=0.3).start()
        task = StreamTask("t", endless_gen(), buffer_frames=2)
        try:
            scheduler.submit(task)
            for _ in range(6):
                time.sleep(0.1)
                assert task.pop(timeout=5.0) is not None
            assert not task.terminal
            task.cancel()
            assert task.wait_terminal(timeout=5)
        finally:
            scheduler.stop()

    def test_detached_streams_are_exempt(self):
        scheduler = FairScheduler(max_concurrent=2,
                                  abandon_seconds=0.1).start()
        task = StreamTask("t", endless_gen(), detached=True,
                          buffer_frames=2)
        try:
            scheduler.submit(task)
            time.sleep(0.5)
            assert not task.terminal
        finally:
            scheduler.stop()


def test_client_disconnect_counted_and_slot_reclaimed():
    """A client that drops the NDJSON socket mid-stream is counted in
    storm.server.client_disconnects and its stream is cancelled —
    with no handler traceback."""
    engine = make_engine(2000)
    svc = QueryService(engine, ServerConfig(max_streams=2,
                                            quantum=16))
    server = StormServer(svc).start()
    try:
        payload = json.dumps({"query": LONG_Q}).encode()
        sock = socket.create_connection(
            (server.host, server.port), timeout=30)
        head = (f"POST /v1/stream HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/json\r\n"
                f"X-Storm-Tenant: flaky\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n")
        sock.sendall(head.encode() + payload)
        assert sock.recv(1024)  # headers + the first frames flowed
        # RST on close so the server notices on its next write.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if svc.scheduler.live_count == 0 and counter_total(
                    svc, "storm.server.client_disconnects") >= 1:
                break
            time.sleep(0.05)
        assert counter_total(
            svc, "storm.server.client_disconnects") >= 1
        assert svc.scheduler.live_count == 0
    finally:
        server.stop(drain=False)


# -- load shedding and Retry-After --------------------------------------


class TestLoadShedding:
    def make_service(self):
        engine = make_engine(1500)
        return QueryService(engine, ServerConfig(
            max_streams=1, queue_depth=1, quantum=16,
            quotas={"heavy": TenantQuota(weight=4.0)}))

    def test_heavier_tenant_sheds_lightest_queued(self):
        svc = self.make_service()
        try:
            active = svc.submit_stream("light-1",
                                       {"query": AVG_Q, "seed": 1})
            queued = svc.submit_stream("light-2",
                                       {"query": AVG_Q, "seed": 2})
            heavy = svc.submit_stream("heavy",
                                      {"query": AVG_Q, "seed": 3})
            final = queued.drain_frames(timeout=10)[-1]
            assert final["frame"] == "error"
            assert final["code"] == "shed"
            # Read light-1 to its end so its slot frees now, not when
            # the abandoned-stream reaper fires.
            assert active.drain_frames(timeout=60)[-1]["frame"] == "end"
            assert heavy.drain_frames(
                timeout=60)[-1]["frame"] == "end"
            assert counter_total(
                svc, "storm.server.shed_streams") == 1
        finally:
            svc.shutdown(drain=False)

    def test_equal_weight_still_rejected_with_retry_floor(self):
        svc = self.make_service()
        try:
            svc.submit_stream("light-1", {"query": AVG_Q, "seed": 1})
            svc.submit_stream("light-2", {"query": AVG_Q, "seed": 2})
            with pytest.raises(ApiError) as err:
                svc.submit_stream("light-3",
                                  {"query": AVG_Q, "seed": 3})
            assert err.value.status == 429
            assert err.value.retry_after >= 1
        finally:
            svc.shutdown(drain=False)

    def test_active_streams_are_never_shed(self):
        """Only queued tasks (no engine work done yet) are shed."""
        scheduler = FairScheduler(max_concurrent=2).start()
        active = StreamTask("light", endless_gen(), weight=1.0,
                            detached=True)
        try:
            scheduler.submit(active)
            assert scheduler.shed_lowest(99.0) is None
            assert not active.terminal
        finally:
            scheduler.stop()


def test_retry_after_floor():
    assert ApiError(429, "x", "y", retry_after=0).retry_after == 1
    assert ApiError(429, "x", "y", retry_after=0.2).retry_after == 1
    assert ApiError(429, "x", "y", retry_after=7).retry_after == 7
    assert ApiError(400, "x", "y").retry_after is None


# -- one-shot 504 regression --------------------------------------------


def test_oneshot_timeout_releases_quota_and_generator():
    """The 504 path must verifiably release the tenant's quota slot
    and close the underlying generator, not just request a cancel."""
    engine = make_engine(2000)
    # Stall the second quantum past the client timeout so the query
    # is deterministically still running when the 504 fires.
    plan = FaultPlan().delay("server.quantum", 0.6, nth=2)
    svc = QueryService(engine, ServerConfig(
        max_streams=1, quantum=16,
        quotas={"t": TenantQuota(max_concurrent_streams=1)}),
        faults=plan)
    try:
        with pytest.raises(ApiError) as err:
            svc.run_query("t", {"query": LONG_Q}, timeout=0.2)
        assert err.value.status == 504
        # Slot released: the same tenant admits a new stream at its
        # max_concurrent_streams=1 quota immediately.
        assert svc._tenant_live("t") == 0
        task = svc.submit_stream("t", {"query": AVG_Q})
        assert task.drain_frames(timeout=60)[-1]["frame"] == "end"
        # Engine slot released too (generator closed by the reap).
        assert svc.scheduler.wait_idle(timeout=10)
        assert counter_total(
            svc, "storm.server.query_timeouts") == 1
    finally:
        svc.shutdown(drain=False)


# -- graceful drain with detached streams -------------------------------


def test_drain_suspends_detached_streams_keeps_frames():
    """Graceful drain must retain a detached stream's frames for
    later polling (suspended), not cancel it as a straggler."""
    engine = make_engine(2000)
    # After a few interleaved quanta the engine stalls for longer
    # than the drain budget, so both streams are deterministically
    # still in flight when shutdown gives up waiting.
    plan = FaultPlan().delay("server.quantum", 1.0, nth=8)
    svc = QueryService(engine, ServerConfig(
        max_streams=2, quantum=16, drain_seconds=0.3), faults=plan)
    session = svc.create_session("t", "mine")["session"]
    detached = svc.submit_stream("t", {"query": LONG_Q, "seed": 4},
                                 detached=True, session_id=session)
    attached = svc.submit_stream("t", {"query": LONG_Q, "seed": 5})
    deadline = time.monotonic() + 10
    while len(detached.frames) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(detached.frames) >= 2
    svc.shutdown(drain=True)
    assert detached.state == "suspended"
    # No terminal frame was appended; every progress frame is still
    # poll-able from any index.
    frames, next_index, state = detached.frames_since(0)
    assert state == "suspended"
    assert frames and all(f["frame"] == "progress" for f in frames)
    assert next_index == len(frames)
    # The non-detached straggler was cancelled with a terminal frame.
    assert attached.state == "cancelled"
    assert attached.frames[-1]["frame"] == "end"
    assert attached.frames[-1]["reason"] == "server shutdown"


# -- the stream journal -------------------------------------------------


class TestStreamJournal:
    def test_round_trip_and_close(self, tmp_path):
        journal = StreamJournal(str(tmp_path / "j"))
        task = StreamTask("t", endless_gen(), detached=True,
                          durable=True)
        assert journal.record_open(
            task, query=AVG_Q, seed=7, session_id="s-1",
            session_name="mine")
        pending = journal.pending()
        assert set(pending) == {task.task_id}
        entry = pending[task.task_id]
        assert entry["query"] == AVG_Q
        assert entry["seed"] == 7
        assert entry["session_id"] == "s-1"
        task.state = "done"
        journal.record_close(task)
        assert journal.pending() == {}
        # A fresh journal over the same directory sees the same state.
        reopened = StreamJournal(str(tmp_path / "j"))
        assert reopened.pending() == {}

    def test_progress_records_are_throttled(self, tmp_path):
        journal = StreamJournal(str(tmp_path / "j"),
                                progress_every=8)
        task = StreamTask("t", endless_gen(), detached=True,
                          durable=True)
        journal.record_open(task, query=AVG_Q, seed=1,
                            session_id="s-1", session_name="x")
        base = journal.wal.last_lsn
        for _ in range(20):
            task.frames.append({"frame": "progress"})
            journal.record_progress(task)
        # 20 frames at progress_every=8 -> exactly 2 records.
        assert journal.wal.last_lsn == base + 2
        assert journal.pending()[task.task_id]["frames"] == 16

    def test_torn_journal_recovers_open_streams(self, tmp_path):
        """A crash mid-append (injected) tears the tail; a restart
        truncates it and still resumes every stream whose open record
        committed before the tear."""
        root = str(tmp_path / "j")
        plan = FaultPlan().crash_write("journal/", nth=3)
        journal = StreamJournal(root, faults=plan)
        t1 = StreamTask("t", endless_gen(), detached=True,
                        durable=True)
        t2 = StreamTask("t", endless_gen(), detached=True,
                        durable=True)
        assert journal.record_open(t1, query=AVG_Q, seed=1,
                                   session_id="s-1",
                                   session_name="x")
        assert journal.record_open(t2, query=AVG_Q, seed=2,
                                   session_id="s-1",
                                   session_name="x")
        # Third append crashes mid-write: the journal goes dead
        # instead of taking the engine down.
        t1.state = "done"
        assert not journal.record_close(t1)
        assert journal.dead
        recovered = StreamJournal(root)
        assert set(recovered.pending()) == {t1.task_id, t2.task_id}
        assert not recovered.dead


class TestDurableResume:
    RESUME_Q = ("ESTIMATE AVG(v) FROM pts "
                "WHERE REGION(5, 5, 95, 95) SAMPLES 2000")

    def make_service(self, journal_dir, faults=None):
        engine = make_engine(2000)
        return QueryService(engine, ServerConfig(
            max_streams=2, quantum=16,
            journal_dir=str(journal_dir)), faults=faults)

    def run_to_completion(self, svc, session_id, task):
        deadline = time.monotonic() + 60
        while not task.terminal and time.monotonic() < deadline:
            time.sleep(0.02)
        assert task.state == "done"
        frames, _, _ = task.frames_since(0)
        return frames

    def test_resume_is_byte_identical(self, tmp_path):
        """A detached stream killed mid-flight and resumed after
        restart emits frames byte-identical to an uninterrupted run
        (exact test, the PR's acceptance criterion)."""
        # Reference: the same stream, never interrupted.
        ref_svc = self.make_service(tmp_path / "ref")
        session = ref_svc.create_session("t", "mine")["session"]
        ref_task = ref_svc.submit_stream(
            "t", {"query": self.RESUME_Q, "seed": 31337},
            detached=True, session_id=session)
        reference = self.run_to_completion(ref_svc, session,
                                           ref_task)
        ref_svc.shutdown(drain=False)
        assert len(reference) > 10

        # Victim: killed (no drain) after a handful of frames.  Its
        # sixth quantum stalls, so the kill lands mid-stream however
        # fast the first five run.
        live_dir = tmp_path / "live"
        svc_a = self.make_service(
            live_dir, FaultPlan().delay("server.quantum", 1.0, nth=6))
        session_a = svc_a.create_session("t", "mine")["session"]
        task_a = svc_a.submit_stream(
            "t", {"query": self.RESUME_Q, "seed": 31337},
            detached=True, session_id=session_a)
        deadline = time.monotonic() + 30
        while len(task_a.frames) < 5 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        before_kill, _, _ = task_a.frames_since(0)
        assert 0 < len(before_kill) < len(reference)
        svc_a.shutdown(drain=False)  # the "kill"
        assert task_a.state == "suspended"

        # Restart over the same journal: the stream is re-admitted
        # under its original session and task ids and replays.
        svc_b = self.make_service(live_dir)
        assert svc_b.recover_streams() == 1
        resumed = svc_b.get_task("t", session_a, task_a.task_id)
        frames = self.run_to_completion(svc_b, session_a, resumed)
        svc_b.shutdown(drain=False)

        def as_bytes(frame_list):
            return b"".join(encode_frame(f) for f in frame_list)

        # Everything the client saw before the kill regenerates
        # identically (its ?from=N cursor stays valid) ...
        assert as_bytes(frames[:len(before_kill)]) == \
            as_bytes(before_kill)
        # ... and the whole stream matches the uninterrupted run.
        assert as_bytes(frames) == as_bytes(reference)

    def test_completed_streams_do_not_resume(self, tmp_path):
        svc = self.make_service(tmp_path / "j")
        session = svc.create_session("t", "mine")["session"]
        task = svc.submit_stream(
            "t", {"query": AVG_Q, "seed": 1},
            detached=True, session_id=session)
        self.run_to_completion(svc, session, task)
        svc.shutdown(drain=False)
        svc2 = self.make_service(tmp_path / "j")
        assert svc2.recover_streams() == 0
        svc2.shutdown(drain=False)

    def test_entry_with_legacy_dataset_version_resumes(self, tmp_path):
        """Journals written before ``dataset_version`` was dropped
        carry the key (always null); their streams still resume."""
        journal = StreamJournal(str(tmp_path / "j"))
        journal.wal.append("stream_open", {
            "task_id": "q-7", "tenant": "t", "session_id": "s-1",
            "session_name": "mine", "query": AVG_Q, "seed": 5,
            "weight": 1.0, "label": "avg", "dataset_version": None})
        svc = self.make_service(tmp_path / "j")
        assert svc.recover_streams() == 1
        task = svc.get_task("t", "s-1", "q-7")
        frames = self.run_to_completion(svc, "s-1", task)
        svc.shutdown(drain=False)
        assert frames[-1]["frame"] == "end"

    def test_new_ids_do_not_collide_after_recovery(self, tmp_path):
        svc = self.make_service(tmp_path / "j")
        session = svc.create_session("t", "mine")["session"]
        task = svc.submit_stream(
            "t", {"query": self.RESUME_Q, "seed": 2},
            detached=True, session_id=session)
        svc.shutdown(drain=False)
        svc2 = self.make_service(tmp_path / "j")
        assert svc2.recover_streams() == 1
        fresh = svc2.submit_stream("t", {"query": AVG_Q, "seed": 3})
        assert fresh.task_id != task.task_id
        svc2.shutdown(drain=False)


# -- the deadline header over HTTP --------------------------------------


class TestDeadlineHeader:
    @pytest.fixture()
    def server(self):
        engine = make_engine(1500)
        # The second quantum stalls 0.5s so the stream is
        # deterministically still live when its 0.2s deadline lapses.
        plan = FaultPlan().delay("server.quantum", 0.5, nth=2)
        svc = QueryService(engine, ServerConfig(max_streams=2,
                                                quantum=16),
                           faults=plan)
        server = StormServer(svc).start()
        yield server
        server.stop(drain=False)

    def call(self, server, path, body, headers=None):
        import urllib.request
        all_headers = {"Content-Type": "application/json",
                       "X-Storm-Tenant": "t"}
        if headers:
            all_headers.update(headers)
        req = urllib.request.Request(
            server.url + path, method="POST",
            data=json.dumps(body).encode(), headers=all_headers)
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, resp.read()

    def test_deadline_header_fails_stream_past_it(self, server):
        status, payload = self.call(
            server, "/v1/stream", {"query": LONG_Q},
            headers={"X-Storm-Deadline": "0.2"})
        assert status == 200
        frames = [json.loads(line)
                  for line in payload.splitlines()]
        assert frames[-1]["frame"] == "error"
        assert frames[-1]["code"] == "deadline_exceeded"

    def test_garbage_deadline_header_is_400(self, server):
        import urllib.error
        with pytest.raises(urllib.error.HTTPError) as err:
            self.call(server, "/v1/stream", {"query": AVG_Q},
                      headers={"X-Storm-Deadline": "soon"})
        assert err.value.code == 400

    def test_nonpositive_deadline_header_is_400(self, server):
        import urllib.error
        with pytest.raises(urllib.error.HTTPError) as err:
            self.call(server, "/v1/query", {"query": AVG_Q},
                      headers={"X-Storm-Deadline": "0"})
        assert err.value.code == 400


# -- fault-plan delay specs ---------------------------------------------


class TestDelayFaults:
    def test_delay_round_trips_through_dict(self):
        plan = (FaultPlan(seed=3)
                .delay("server.quantum", 1.5, nth=4)
                .delay("client.read", 30.0))
        spec = plan.to_dict()
        assert spec["delays"] == [
            {"op": "server.quantum", "nth": 4, "seconds": 1.5},
            {"op": "client.read", "nth": 1, "seconds": 30.0}]
        clone = FaultPlan.from_dict(spec)
        assert clone.to_dict() == spec

    def test_take_delay_counts_and_consumes(self):
        plan = FaultPlan().delay("server.quantum", 2.0, nth=3)
        assert plan.take_delay("server.quantum") == 0.0
        assert plan.take_delay("other.op") == 0.0  # exact match only
        assert plan.take_delay("server.quantum") == 0.0
        assert plan.take_delay("server.quantum") == 2.0
        # One-shot: consumed once fired.
        assert plan.take_delay("server.quantum") == 0.0

    def test_stacked_delays_fire_in_configuration_order(self):
        plan = (FaultPlan()
                .delay("op", 1.0, nth=1)
                .delay("op", 2.0, nth=1))
        assert plan.take_delay("op") == 1.0
        assert plan.take_delay("op") == 2.0
        assert plan.take_delay("op") == 0.0
