"""Timing shims around the program's layer entry points.

The benchmark records spans from its own files: :func:`install`
replaces named entry points of each layer with wrappers that record a
span (name, start, end, id, parent id, tag, thread, count) into an
in-memory :class:`SpanRecorder`.  Nothing inside ``src/`` changes; the
wrappers call the original functions unchanged.

Parents come from a per-thread stack, so a span's parent is the
innermost shimmed call still open on the same thread.  Root spans carry
a tag naming the request they serve: the HTTP connection span is
tagged with the stream id once the service admits it, a scheduler
quantum with the id of the stream it advances, so work on the engine
thread can be joined to the client request that waited for it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

from common import COUNT, SID, TAG

#: Span name -> the module (layer) it belongs to.
LAYERS = {
    "http.connection": "server.http",
    "http.handler": "server.http",
    "service.submit": "server.service",
    "wait.frame": "server.http",
    "protocol.encode": "server.protocol",
    "protocol.frame": "server.protocol",
    "scheduler.quantum": "server.scheduler",
    "language.parse": "query.language",
    "executor.plan": "query.executor",
    "executor.execute": "query.executor",
    "optimizer.choose": "core.optimizer",
    "optimizer.record_outcome": "core.optimizer",
    "index.range_count": "index",
    "index.canonical_set": "index",
    "sampling.open_stream": "core.sampling",
    "sampling.draw_batch": "core.sampling",
    "estimators.absorb": "core.estimators",
    "estimators.estimate": "core.estimators",
    "session.step": "core.session",
    "updates.apply": "updates.manager",
    "wal.append": "storage.wal",
    "docstore.write": "storage.document_store",
    "recovery.checkpoint": "storage.recovery",
    "lsm.seal": "storage.lsm",
    "lsm.compact": "storage.lsm",
    "dfs.write": "storage.dfs",
    "workloads.generate": "workloads",
    "engine.create_dataset": "core.engine",
}


class SpanRecorder:
    """In-memory span sink; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.submitted: dict[str, float] = {}
        self.marks: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag=None) -> list:
        stack = self._stack()
        parent = stack[-1][SID] if stack else 0
        span = [name, time.perf_counter(), 0.0, next(self._ids), parent,
                tag, threading.get_ident(), 0]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.spans.append(span)

    def root(self) -> list | None:
        """The outermost open span on this thread."""
        stack = self._stack()
        return stack[0] if stack else None

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "submitted": self.submitted,
                       "marks": self.marks}, fh)


def _wrap(rec: SpanRecorder, name: str, fn, count=None, tag=None):
    """A wrapper recording one span per call of ``fn``; ``count``
    computes the span's count from (args, result), ``tag`` its tag
    from args."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name, tag(args) if tag is not None else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if count is not None:
            span[COUNT] = count(args, out)
        return out
    return wrapper


class Patches:
    """Attribute replacements, undone in reverse by :meth:`undo`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, rec, owner, attr, name, **kw) -> None:
        self.set(owner, attr, _wrap(rec, name, owner.__dict__[attr], **kw))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def install(rec: SpanRecorder) -> Patches:
    """Shim every layer entry point the benchmark measures."""
    import socketserver

    import repro.core.engine as engine_mod
    import repro.core.estimators.aggregates as aggregates
    import repro.core.optimizer as optimizer
    import repro.core.sampling.base as sampling_base
    import repro.core.sampling.tiered  # noqa: F401 (registers subclass)
    import repro.core.session as session_mod
    import repro.index.rtree as rtree
    import repro.query.executor as executor
    import repro.query.language as language
    import repro.server.http as http
    import repro.server.protocol as protocol
    import repro.server.scheduler as scheduler
    import repro.server.service as service
    import repro.storage.dfs as dfs
    import repro.storage.document_store as docstore
    import repro.storage.lsm as lsm
    import repro.storage.recovery as recovery
    import repro.storage.wal as wal
    import repro.updates.manager as manager
    import repro.workloads.osm as osm

    p = Patches()

    # query.language: `parse` is imported by name where it is used.
    parse = _wrap(rec, "language.parse", language.parse)
    for mod in (language, executor, service):
        p.set(mod, "parse", parse)

    # server.http / server.service / server.protocol / server.scheduler.
    # The connection span is the root of a request thread: it covers
    # reading and parsing the request, the handler and the socket close.
    p.wrap(rec, socketserver.ThreadingMixIn, "process_request_thread",
           "http.connection")
    p.wrap(rec, http._Handler, "_dispatch", "http.handler")

    submit_stream = service.QueryService.__dict__["submit_stream"]

    @functools.wraps(submit_stream)
    def submit(self, tenant, body, **kwargs):
        span = rec.begin("service.submit")
        try:
            task = submit_stream(self, tenant, body, **kwargs)
        finally:
            rec.end(span)
        root = rec.root()
        if root is not None:
            root[TAG] = task.task_id
        return task
    p.set(service.QueryService, "submit_stream", submit)

    sched_submit = scheduler.FairScheduler.__dict__["submit"]

    @functools.wraps(sched_submit)
    def sched_submit_marked(self, task):
        rec.submitted[task.task_id] = time.perf_counter()
        return sched_submit(self, task)
    p.set(scheduler.FairScheduler, "submit", sched_submit_marked)
    p.wrap(rec, scheduler.FairScheduler, "_run_quantum",
           "scheduler.quantum", tag=lambda a: a[1].task_id)
    p.wrap(rec, scheduler.StreamTask, "pop", "wait.frame")
    p.set(http, "encode_frame", _wrap(
        rec, "protocol.encode", protocol.encode_frame,
        count=lambda a, out: len(out)))
    for fname in ("progress_frame", "terminal_frame", "error_frame"):
        p.set(scheduler, fname, _wrap(
            rec, "protocol.frame", getattr(protocol, fname),
            count=lambda a, out: 1))

    # query.executor / core.optimizer
    p.wrap(rec, engine_mod.Dataset, "session", "executor.plan")
    p.wrap(rec, executor.QueryExecutor, "execute", "executor.execute",
           tag=lambda a: "query")
    p.wrap(rec, optimizer.QueryOptimizer, "choose", "optimizer.choose")
    p.wrap(rec, optimizer.QueryOptimizer, "record_outcome",
           "optimizer.record_outcome")

    # index: the count is 1 on a canonical-set cache hit, else 0.
    p.wrap(rec, rtree.RTree, "range_count", "index.range_count")
    canonical = rtree.RTree.__dict__["canonical_set"]

    @functools.wraps(canonical)
    def canonical_set(self, *args, **kwargs):
        hits = self.canon_hits
        span = rec.begin("index.canonical_set")
        try:
            return canonical(self, *args, **kwargs)
        finally:
            rec.end(span)
            span[COUNT] = 1 if self.canon_hits > hits else 0
    p.set(rtree.RTree, "canonical_set", canonical_set)

    # core.sampling: every sampler class that defines the entry point.
    for cls in _subclasses(sampling_base.SpatialSampler):
        if "open_stream" in cls.__dict__:
            p.wrap(rec, cls, "open_stream", "sampling.open_stream")
        if "draw_batch" in cls.__dict__:
            p.wrap(rec, cls, "draw_batch", "sampling.draw_batch",
                   count=lambda a, out: len(out))

    # core.estimators / core.session
    for cls in _subclasses(aggregates.OnlineEstimator):
        if "absorb_entry_batch" in cls.__dict__:
            p.wrap(rec, cls, "absorb_entry_batch", "estimators.absorb")
        if "estimate" in cls.__dict__:
            p.wrap(rec, cls, "estimate", "estimators.estimate")
    run = session_mod.OnlineQuerySession.__dict__["run"]

    @functools.wraps(run)
    def stepped_run(self, *args, **kwargs):
        return _stepped(rec, run(self, *args, **kwargs))
    p.set(session_mod.OnlineQuerySession, "run", stepped_run)

    # updates.manager and storage
    p.wrap(rec, manager.UpdateManager, "apply", "updates.apply",
           tag=lambda a: "apply")
    p.wrap(rec, wal.WriteAheadLog, "append", "wal.append")
    for attr in ("insert_one", "delete_one"):
        p.wrap(rec, docstore.Collection, attr, "docstore.write")
    p.wrap(rec, docstore.DocumentStore, "flush", "docstore.write")
    checkpoint = _wrap(rec, "recovery.checkpoint",
                       recovery.checkpoint_store)
    for mod in (recovery, manager):
        p.set(mod, "checkpoint_store", checkpoint)
    p.wrap(rec, lsm.LSMTree, "seal", "lsm.seal")
    # The count is the bulk-load size: compaction rebuilds the whole
    # main tier from every live record.
    p.wrap(rec, lsm.LSMTree, "compact", "lsm.compact",
           count=lambda a, out: len(a[0].dataset.records))
    for attr in ("write_file", "append_file"):
        p.wrap(rec, dfs.SimulatedDFS, attr, "dfs.write",
               count=lambda a, out: len(a[2]), tag=lambda a: a[1])

    # workloads / core.engine (set-up)
    p.wrap(rec, osm.OSMWorkload, "generate", "workloads.generate")
    p.wrap(rec, engine_mod.StormEngine, "create_dataset",
           "engine.create_dataset")
    return p


def _stepped(rec: SpanRecorder, gen):
    """Re-yield ``gen`` with one ``session.step`` span per step."""
    try:
        while True:
            span = rec.begin("session.step")
            try:
                point = next(gen)
            except StopIteration:
                return
            finally:
                rec.end(span)
            yield point
    finally:
        gen.close()

