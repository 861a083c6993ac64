"""The HTTP-agnostic core of the multi-tenant query service.

:class:`QueryService` owns everything between a parsed HTTP request
and the :class:`~repro.server.scheduler.FairScheduler`:

* **authentication** — a token → tenant map (401 without a valid
  token when tokens are configured; open mode maps every caller to a
  self-declared tenant name);
* **named sessions** — server-side per-tenant containers a client
  creates once and then attaches streams to.  Streams launched inside
  a session are *detachable*: the client may disconnect and later
  poll accumulated frames by index (resume), because frames are
  retained on the task, not the socket;
* **quota hooks** — per-tenant :class:`TenantQuota` caps concurrent
  streams, caps the per-query sample budget, and sets the scheduler
  weight (deficit round-robin share under contention);
* **admission control** — the scheduler runs at most
  ``max_streams`` live streams; beyond that, admitted work queues up
  to ``queue_depth`` deep, and past *that* the service rejects with
  429 + ``Retry-After`` (computed from observed stream durations).
  One-shot ``/v1/query`` calls go through the same gate — there is no
  way to sneak unscheduled work onto the engine;
* **graceful shutdown** — draining rejects new work with 503 while
  in-flight streams run to completion (bounded by
  ``drain_seconds``); non-detached stragglers get a terminal shutdown
  frame, detached stragglers are *suspended* with frames retained so
  they stay poll-able (and, when journaled, resume after restart);
* **resilience** — per-stream deadlines (``X-Storm-Deadline`` /
  ``default_deadline``) propagate into the scheduler, a quantum
  watchdog fails wedged streams without stalling other tenants,
  abandoned streams are reaped, and under saturation the service
  sheds the lightest queued stream to admit a heavier tenant before
  falling back to 429 + ``Retry-After`` (clamped to ≥ 1s);
* **durable detached streams** — with a
  :class:`~repro.server.journal.StreamJournal` attached, every
  detached stream's definition is journaled and
  :meth:`QueryService.recover_streams` re-admits open streams on
  restart, replaying them deterministically (byte-identical frames)
  under a logical clock.

Everything here raises :class:`~repro.server.protocol.ApiError`; the
HTTP layer (:mod:`repro.server.http`) translates to status codes.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro.core.engine import StormEngine
from repro.errors import StormError
from repro.obs import Observability
from repro.query.ast import QuerySpec
from repro.query.executor import QueryExecutor
from repro.query.language import parse
from repro.server.journal import StreamJournal
from repro.server.protocol import ApiError
from repro.server.scheduler import (SUSPENDED, FairScheduler,
                                    StreamTask)

__all__ = ["TenantQuota", "ServerConfig", "ServerSession",
           "QueryService"]


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """Per-tenant limits and scheduling share.

    ``max_concurrent_streams`` — live streams (active or queued) this
    tenant may hold at once (None = bounded only by global admission).
    ``max_samples`` — hard cap applied to every query's sample budget
    (un-bounded queries get exactly this cap).
    ``weight`` — deficit-round-robin share under contention.
    """

    max_concurrent_streams: int | None = None
    max_samples: int | None = None
    weight: float = 1.0


@dataclass(slots=True)
class ServerConfig:
    """Service deployment knobs (see docs/operations.md)."""

    #: Streams scheduled concurrently (snapshots pinned at once).
    max_streams: int = 8
    #: Admitted-but-waiting streams beyond that; the 429 line.
    queue_depth: int = 16
    #: Samples per scheduling quantum (the session's report_every).
    quantum: int = 64
    #: Progress frames buffered per attached stream before the
    #: scheduler parks it (slow-client backpressure).
    stream_buffer: int = 64
    #: Seconds graceful shutdown waits for in-flight streams.
    drain_seconds: float = 10.0
    #: Deadline applied to requests that carry none (None = no limit).
    default_deadline: float | None = None
    #: Reap a non-detached stream blocked on an unread buffer this
    #: long (presumed-dead client; None = never).
    abandon_seconds: float | None = 30.0
    #: Fail a single scheduler quantum that runs this long and hand
    #: the engine to a fresh thread (None = no watchdog).
    watchdog_seconds: float | None = 10.0
    #: Directory for the durable-detached-stream journal (None = off).
    journal_dir: str | None = None
    #: auth token -> tenant name; empty means open access.
    tokens: dict[str, str] = field(default_factory=dict)
    #: tenant name -> quota overrides.
    quotas: dict[str, TenantQuota] = field(default_factory=dict)
    #: Quota applied to tenants without an override.
    default_quota: TenantQuota = TenantQuota(
        max_concurrent_streams=4, max_samples=100_000)

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)


class ServerSession:
    """One named per-tenant session holding detachable streams."""

    def __init__(self, session_id: str, tenant: str, name: str):
        self.session_id = session_id
        self.tenant = tenant
        self.name = name
        self.created_at = time.time()
        self.streams: dict[str, StreamTask] = {}

    def to_doc(self) -> dict:
        return {
            "session": self.session_id,
            "tenant": self.tenant,
            "name": self.name,
            "created_at": self.created_at,
            "streams": {
                task_id: {"state": task.state, "k": task.samples,
                          "frames": len(task.frames),
                          "label": task.label}
                for task_id, task in sorted(self.streams.items())},
        }


class QueryService:
    """Sessions + quotas + admission in front of one FairScheduler."""

    def __init__(self, engine: StormEngine,
                 config: ServerConfig | None = None, *,
                 obs: Observability | None = None,
                 faults=None, seed: int = 0):
        self.engine = engine
        self.config = config if config is not None else ServerConfig()
        if obs is not None:
            self.obs = obs
        elif engine.obs.enabled:
            self.obs = engine.obs
        else:
            # The service always runs live: per-tenant counters and
            # latency histograms are part of its contract.
            self.obs = Observability()
        self.executor = QueryExecutor(engine, obs=self.obs)
        self.journal: StreamJournal | None = None
        if self.config.journal_dir is not None:
            self.journal = StreamJournal(self.config.journal_dir,
                                         obs=self.obs, faults=faults)
        self.scheduler = FairScheduler(
            max_concurrent=self.config.max_streams,
            registry=self.obs.registry, faults=faults,
            watchdog_seconds=self.config.watchdog_seconds,
            abandon_seconds=self.config.abandon_seconds,
            on_task_event=self._on_task_event)
        self.scheduler.start()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._sessions: dict[str, ServerSession] = {}
        self._tasks: dict[str, StreamTask] = {}
        self._next_session_id = 1
        self._durations: deque[float] = deque(maxlen=32)
        self.draining = False
        self.started_at = time.time()

    # -- auth ------------------------------------------------------------

    def authenticate(self, token: str | None,
                     tenant_hint: str | None = None) -> str:
        """Resolve the caller's tenant.

        With tokens configured the token is mandatory and names the
        tenant; in open mode the caller self-declares via
        ``tenant_hint`` (default ``"public"``).
        """
        if self.config.tokens:
            if not token:
                raise ApiError(401, "unauthorized",
                               "missing auth token (Authorization: "
                               "Bearer <token>)")
            tenant = self.config.tokens.get(token)
            if tenant is None:
                raise ApiError(401, "unauthorized",
                               "unknown auth token")
            return tenant
        return tenant_hint or "public"

    # -- sessions --------------------------------------------------------

    def create_session(self, tenant: str, name: str = "") -> dict:
        with self._lock:
            session_id = f"s-{self._next_session_id}"
            self._next_session_id += 1
            session = ServerSession(session_id, tenant,
                                    name or session_id)
            self._sessions[session_id] = session
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.server.sessions_created",
                             tenant=tenant).inc()
            registry.gauge("storm.server.sessions").set(
                len(self._sessions))
        return session.to_doc()

    def _session(self, tenant: str, session_id: str) -> ServerSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None or session.tenant != tenant:
            # A foreign session id is indistinguishable from a missing
            # one on purpose: ids must not leak across tenants.
            raise ApiError(404, "not_found",
                           f"no session {session_id!r}")
        return session

    def session_doc(self, tenant: str, session_id: str) -> dict:
        return self._session(tenant, session_id).to_doc()

    def list_sessions(self, tenant: str) -> dict:
        with self._lock:
            docs = [s.to_doc() for s in self._sessions.values()
                    if s.tenant == tenant]
        return {"sessions": sorted(docs,
                                   key=lambda d: d["session"])}

    def close_session(self, tenant: str, session_id: str) -> dict:
        session = self._session(tenant, session_id)
        for task in session.streams.values():
            task.cancel("session closed")
        with self._lock:
            self._sessions.pop(session_id, None)
        registry = self.obs.registry
        if registry.enabled:
            registry.gauge("storm.server.sessions").set(
                len(self._sessions))
        return {"closed": session_id}

    # -- streams ---------------------------------------------------------

    def _parse_spec(self, body: dict, tenant: str) -> QuerySpec:
        query = body.get("query")
        if not query or not isinstance(query, str):
            raise ApiError(400, "bad_request",
                           'body needs a "query" string')
        try:
            spec = parse(query)
        except StormError as exc:
            raise ApiError(400, "bad_request", f"bad query: {exc}")
        if spec.dataset not in self.engine.datasets:
            raise ApiError(404, "not_found",
                           f"no dataset {spec.dataset!r}; available: "
                           f"{sorted(self.engine.datasets)}")
        quota = self.config.quota_for(tenant)
        if quota.max_samples is not None:
            cap = quota.max_samples
            if spec.max_samples is None or spec.max_samples > cap:
                spec = replace(spec, max_samples=cap)
        return spec

    def _tenant_live(self, tenant: str) -> int:
        with self._lock:
            return sum(1 for t in self._tasks.values()
                       if t.tenant == tenant and not t.terminal)

    def retry_after(self) -> int:
        """Seconds a 429'd client should wait: the observed mean
        stream duration scaled by how deep the queue is, clamped to
        [1, 30] — the ≥ 1s floor keeps a momentarily-idle saturated
        server from advertising ``Retry-After: 0`` retry storms."""
        durations = list(self._durations)
        mean = (sum(durations) / len(durations)) if durations else 0.5
        depth = self.scheduler.live_count
        per_slot = max(1, depth // max(1, self.config.max_streams))
        return max(1, min(30, round(mean * per_slot + 0.5)))

    def _admit(self, tenant: str) -> None:
        """Admission control; raises 429/503 instead of queueing
        unboundedly."""
        registry = self.obs.registry
        if self.draining:
            if registry.enabled:
                registry.counter("storm.server.rejected",
                                 reason="shutting_down",
                                 tenant=tenant).inc()
            raise ApiError(503, "shutting_down",
                           "server is draining; no new queries",
                           retry_after=self.config.drain_seconds)
        quota = self.config.quota_for(tenant)
        if quota.max_concurrent_streams is not None and \
                self._tenant_live(tenant) >= \
                quota.max_concurrent_streams:
            if registry.enabled:
                registry.counter("storm.server.rejected",
                                 reason="over_quota",
                                 tenant=tenant).inc()
            raise ApiError(
                429, "over_quota",
                f"tenant {tenant!r} already holds "
                f"{quota.max_concurrent_streams} live stream(s)",
                retry_after=self.retry_after())
        if self.scheduler.live_count >= \
                self.config.max_streams + self.config.queue_depth:
            # Saturated: shed the lightest queued stream if this
            # tenant outweighs it (lowest-weight-first load shedding);
            # otherwise reject with a measured, floor-clamped
            # Retry-After.
            if self.scheduler.shed_lowest(quota.weight) is not None:
                return
            if registry.enabled:
                registry.counter("storm.server.rejected",
                                 reason="saturated",
                                 tenant=tenant).inc()
            raise ApiError(
                429, "saturated",
                f"admission queue full "
                f"({self.config.queue_depth} waiting)",
                retry_after=self.retry_after())

    def submit_stream(self, tenant: str, body: dict, *,
                      detached: bool = False,
                      session_id: str | None = None,
                      deadline: float | None = None) -> StreamTask:
        """Admit one progressive query stream onto the scheduler.

        ``deadline`` (seconds, from the ``X-Storm-Deadline`` header)
        bounds the stream's whole life including queue wait; absent,
        ``config.default_deadline`` applies.  Detached streams are
        journaled (durable) when a journal is attached.
        """
        spec = self._parse_spec(body, tenant)
        if spec.explain:
            raise ApiError(400, "bad_request",
                           "EXPLAIN queries do not stream; POST "
                           "/v1/query instead")
        if deadline is not None and deadline <= 0:
            raise ApiError(400, "bad_request",
                           f"deadline must be > 0 seconds, "
                           f"got {deadline}")
        session = self._session(tenant, session_id) \
            if session_id is not None else None
        self._admit(tenant)
        quota = self.config.quota_for(tenant)
        seed = body.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ApiError(400, "bad_request",
                           '"seed" must be an integer')
        with self._lock:
            if seed is None:
                seed = self._rng.getrandbits(48)
        if deadline is None:
            deadline = self.config.default_deadline
        journal = self.journal
        durable = (detached and session is not None
                   and journal is not None and not journal.dead)
        task = StreamTask(
            tenant, self._make_gen(spec, tenant, seed,
                                   durable=durable),
            weight=quota.weight,
            buffer_frames=self.config.stream_buffer,
            detached=detached, label=spec.task.kind,
            deadline_seconds=deadline, durable=durable,
            meta={"query": body.get("query"), "seed": seed})
        if durable:
            opened = journal.record_open(
                task, query=body["query"], seed=seed,
                session_id=session.session_id,
                session_name=session.name)
            if not opened:
                # Journal is dead: the stream still runs, it just
                # won't survive a restart.
                task.durable = False
        with self._lock:
            self._tasks[task.task_id] = task
            if session is not None:
                session.streams[task.task_id] = task
        try:
            self.scheduler.submit(task)
        except StormError:
            with self._lock:
                self._tasks.pop(task.task_id, None)
                if session is not None:
                    session.streams.pop(task.task_id, None)
            if task.durable and journal is not None:
                task.state = "cancelled"
                journal.record_close(task)
            raise ApiError(503, "shutting_down",
                           "server is draining; no new queries",
                           retry_after=self.config.drain_seconds)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.server.admitted",
                             tenant=tenant).inc()
        return task

    def _make_gen(self, spec: QuerySpec, tenant: str, seed: int, *,
                  durable: bool = False):
        """Build the lazy session generator for one stream.

        The closure body runs on the scheduler thread at the first
        quantum, so session construction — including snapshot pinning
        inside ``range_count`` — never races another stream.  Durable
        streams run under a logical clock (``elapsed`` is always 0.0)
        so a journal replay after restart regenerates every frame
        byte-identically; the trade-off is that wall-clock stop
        budgets (``WITHIN ... SECONDS``) do not advance for them.
        """
        def gen():
            session, stop = self.executor.session(
                spec, rng=random.Random(seed), obs=self.obs,
                report_every=self.config.quantum,
                labels={"tenant": tenant},
                clock=(lambda: 0.0) if durable else None)
            started = time.perf_counter()
            try:
                yield from session.run(stop)
            finally:
                session.close()
                self._durations.append(time.perf_counter() - started)
                registry = self.obs.registry
                if registry.enabled:
                    registry.histogram(
                        "storm.server.stream_seconds",
                        tenant=tenant).observe(
                            time.perf_counter() - started)
        return gen

    # -- scheduler events / journaling -----------------------------------

    def _on_task_event(self, task: StreamTask) -> None:
        """Scheduler callback (off-lock) after a task produced a frame
        or reached a terminal state: journal durable streams, drop
        terminal tasks from the quota-accounting map."""
        journal = self.journal
        if journal is not None and task.durable:
            if not task.terminal:
                journal.record_progress(task)
            elif task.state != SUSPENDED:
                # SUSPENDED is resume-on-restart by definition: the
                # journal entry must stay open.
                journal.record_close(task)
        if task.terminal:
            # The task stays reachable through its session (detached
            # polling); this map only backs _tenant_live accounting,
            # so terminal tasks must leave it.
            with self._lock:
                self._tasks.pop(task.task_id, None)

    def recover_streams(self) -> int:
        """Re-admit journaled detached streams after a restart.

        Sessions are re-created under their original ids, streams
        under their original task ids, and each stream replays from
        scratch with its journaled seed — deterministically, so every
        frame a client saw before the restart regenerates
        byte-identically and ``?from=N`` cursors stay valid.  Returns
        how many streams were resumed.
        """
        journal = self.journal
        if journal is None:
            return 0
        pending = journal.pending()
        if not pending:
            return 0

        def numeric(prefixed: str) -> int:
            try:
                return int(prefixed.split("-", 1)[1])
            except (IndexError, ValueError):
                return 0

        StreamTask.advance_ids(max(numeric(t) for t in pending))
        registry = self.obs.registry
        resumed = 0
        for task_id in sorted(pending, key=numeric):
            entry = pending[task_id]
            tenant = entry.get("tenant", "public")
            session_id = entry.get("session_id", "")
            try:
                spec = self._parse_spec(
                    {"query": entry.get("query")}, tenant)
            except ApiError:
                # Dataset gone or query no longer parses: close the
                # entry so it does not haunt every future restart.
                ghost = StreamTask(tenant, lambda: iter(()),
                                   task_id=task_id, durable=True)
                ghost.state = "error"
                journal.record_close(ghost)
                continue
            with self._lock:
                session = self._sessions.get(session_id)
                if session is None:
                    session = ServerSession(
                        session_id, tenant,
                        entry.get("session_name") or session_id)
                    self._sessions[session_id] = session
                    self._next_session_id = max(
                        self._next_session_id,
                        numeric(session_id) + 1)
            quota = self.config.quota_for(tenant)
            seed = int(entry.get("seed", 0))
            task = StreamTask(
                tenant, self._make_gen(spec, tenant, seed,
                                       durable=True),
                weight=quota.weight,
                buffer_frames=self.config.stream_buffer,
                detached=True, label=spec.task.kind,
                durable=True, task_id=task_id,
                meta={"query": entry.get("query"), "seed": seed,
                      "resumed": True})
            with self._lock:
                self._tasks[task.task_id] = task
                session.streams[task.task_id] = task
            try:
                self.scheduler.submit(task)
            except StormError:
                break
            resumed += 1
            if registry.enabled:
                registry.counter("storm.server.resume_streams",
                                 tenant=tenant).inc()
                registry.counter("storm.server.resume_frames",
                                 tenant=tenant).inc(
                                     int(entry.get("frames", 0)))
        if registry.enabled:
            registry.gauge("storm.server.sessions").set(
                len(self._sessions))
        return resumed

    def get_task(self, tenant: str, session_id: str,
                 task_id: str) -> StreamTask:
        session = self._session(tenant, session_id)
        task = session.streams.get(task_id)
        if task is None:
            raise ApiError(404, "not_found",
                           f"no stream {task_id!r} in session "
                           f"{session_id!r}")
        return task

    def cancel_task(self, tenant: str, session_id: str,
                    task_id: str) -> dict:
        task = self.get_task(tenant, session_id, task_id)
        task.cancel()
        return {"cancelled": task_id}

    # -- one-shot queries ------------------------------------------------

    def run_query(self, tenant: str, body: dict,
                  timeout: float = 120.0,
                  deadline: float | None = None) -> dict:
        """Admit, schedule and fully drain one query; the final doc.

        EXPLAIN (plan-only) queries short-circuit: they draw nothing,
        so they bypass the scheduler and run inline.
        """
        spec = self._parse_spec(body, tenant)
        if spec.explain:
            try:
                result = self.executor.execute(spec)
            except StormError as exc:
                raise ApiError(400, "bad_request", str(exc))
            return {"explain": result.explanation}
        task = self.submit_stream(tenant, body, deadline=deadline)
        frames = task.drain_frames(timeout=timeout)
        final = frames[-1] if frames else None
        if final is None or final.get("frame") not in ("end", "error"):
            # 504: don't just ask for cancellation — wait until the
            # scheduler reaped it (generator closed, engine slot
            # free), then drop it from the quota map, so the tenant's
            # stream-quota slot is verifiably released before the
            # error response goes out.
            task.cancel("client timeout")
            task.wait_terminal(timeout=5.0)
            with self._lock:
                self._tasks.pop(task.task_id, None)
            registry = self.obs.registry
            if registry.enabled:
                registry.counter("storm.server.query_timeouts",
                                 tenant=tenant).inc()
            raise ApiError(504, "timeout",
                           f"query did not finish in {timeout:.0f}s")
        return {"stream": task.task_id,
                "progress_frames": len(frames) - 1,
                "result": final}

    # -- introspection / ops ---------------------------------------------

    def datasets_doc(self) -> dict:
        out = {}
        for name, dataset in sorted(self.engine.datasets.items()):
            out[name] = {
                "records": len(dataset),
                "dims": dataset.dims,
                "kind": type(dataset).__name__,
                "tiered_ingest": dataset.lsm is not None,
                "samplers": sorted(dataset.samplers),
            }
        return {"datasets": out}

    def health_doc(self) -> dict:
        status = "draining" if self.draining else "ok"
        with self._lock:
            sessions = len(self._sessions)
        return {
            "status": status,
            "uptime_seconds": time.time() - self.started_at,
            "sessions": sessions,
            "streams": {
                "active": self.scheduler.active_count,
                "queued": self.scheduler.queued_count,
                "max_streams": self.config.max_streams,
                "queue_depth": self.config.queue_depth,
            },
            "datasets": sorted(self.engine.datasets),
        }

    # -- shutdown --------------------------------------------------------

    def shutdown(self, drain: bool = True) -> bool:
        """Stop the service: optionally drain, then cancel and join.

        Returns True when every in-flight stream finished inside the
        drain budget (False means stragglers were cancelled with a
        shutdown terminal frame).
        """
        self.draining = True
        drained = True
        if drain:
            drained = self.scheduler.drain(self.config.drain_seconds)
        self.scheduler.stop()
        return drained
