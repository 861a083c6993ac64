"""Hierarchical trace spans carrying per-phase cost deltas.

A query's I/O story crosses four accounting domains — the index
:class:`~repro.index.cost.CostCounter`, the DFS
``BlockStats``, the cluster ``NetworkStats`` and wall time — and each
lives on a different object.  A :class:`Span` stitches them together:
when a span opens it snapshots every *source* bound to it, and when it
closes it stores the delta, so one span tree shows exactly which phase
of which query paid which reads.

Sources are duck-typed: anything with ``snapshot()`` and
``delta_from(earlier)`` (``CostCounter``, ``NetworkStats``,
``BlockStats``) binds directly, and a zero-argument callable returning
such a snapshot (``SimulatedDFS.total_stats``) binds the same way.  No
storage or cluster module is imported here, which keeps ``repro.obs``
importable from every layer without cycles.

The tracer's clock is injectable (tests pin it); span ids are
sequential per tracer, so traces are deterministic under a fake clock.
:class:`NullTracer` is the default everywhere: ``begin`` hands back a
shared inert span and the whole trace machinery costs one method call.

**Distributed propagation.**  Every span carries a ``trace_id``: root
spans mint a fresh one, children inherit their parent's, so one query's
whole tree — including the coordinator-side ``worker_pull`` spans the
distributed sampler emits — shares a single id.  A span's
:meth:`Span.context` packages ``(trace_id, span_id)`` as a
:class:`TraceContext`, the value the coordinator sends across the
simulated wire so workers can tag their own per-pull accounting with
the originating trace (see ``repro.distributed.cluster.Worker``).

**Threads.**  The open-span stack is thread-local: spans begun on a
background thread (the profiler, an HTTP request thread) start their
own roots instead of grafting into another thread's open query tree,
so a traced query's leaf deltas keep summing exactly to its session
totals no matter what other threads are doing.  Root/ids bookkeeping is
lock-protected.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["Span", "TraceContext", "Tracer", "NullTracer",
           "NULL_TRACER"]

#: Process-wide trace-id source: deterministic under PYTHONHASHSEED
#: (sequential), unique across tracers within one process.
_TRACE_IDS = itertools.count(1)


def _new_trace_id() -> str:
    return f"{next(_TRACE_IDS):08x}"


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The propagatable identity of one span: what crosses the wire."""

    trace_id: str
    span_id: int


def _snap(source):
    """Opening snapshot of a source (object or zero-arg callable)."""
    return source() if callable(source) else source.snapshot()


def _delta(source, before):
    """Delta accumulated on a source since ``before``."""
    current = source() if callable(source) else source
    return current.delta_from(before)


class Span:
    """One timed phase, with children and per-source deltas.

    ``deltas`` maps the binding name (``"cost"``, ``"io"``, ``"net"``,
    ...) to the delta object recorded at close.  ``cost``/``io``/``net``
    properties are sugar for the conventional names.
    """

    __slots__ = ("span_id", "trace_id", "parent_span_id", "name",
                 "attrs", "start", "end", "children", "deltas",
                 "_sources", "_before")

    def __init__(self, span_id: int, name: str, start: float,
                 attrs: dict, sources: dict, trace_id: str = "",
                 parent_span_id: "int | None" = None):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end: float | None = None
        self.children: list[Span] = []
        self.deltas: dict[str, object] = {}
        self._sources = sources
        self._before = {key: _snap(src) for key, src in sources.items()}

    # -- convenience accessors ----------------------------------------

    @property
    def cost(self):
        """Index cost delta (a CostCounter), when one was bound."""
        return self.deltas.get("cost")

    @property
    def io(self):
        """DFS block-I/O delta (a BlockStats), when one was bound."""
        return self.deltas.get("io")

    @property
    def net(self):
        """Network delta (a NetworkStats), when one was bound."""
        return self.deltas.get("net")

    @property
    def duration(self) -> float:
        """Wall (or injected-clock) seconds this span covered."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def set(self, key: str, value) -> None:
        """Attach/overwrite one attribute after the span opened."""
        self.attrs[key] = value

    def context(self) -> TraceContext:
        """This span's propagatable identity (sent to workers)."""
        return TraceContext(self.trace_id, self.span_id)

    def _close(self, end: float) -> None:
        self.end = end
        for key, src in self._sources.items():
            self.deltas[key] = _delta(src, self._before[key])
        self._sources = {}
        self._before = {}

    # -- tree walking ---------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant (or self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def leaves(self) -> list["Span"]:
        """Descendant spans (or self) with no children."""
        return [s for s in self.walk() if not s.children]

    def to_dict(self, parent_id: int | None = None) -> dict:
        """This span alone as a JSON-ready dict (children by id)."""
        if parent_id is None:
            parent_id = self.parent_span_id
        out: dict = {"span_id": self.span_id,
                     "trace_id": self.trace_id,
                     "parent_id": parent_id,
                     "name": self.name, "start": self.start,
                     "end": self.end, "duration": self.duration}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        for key, delta in self.deltas.items():
            as_dict = getattr(delta, "as_dict", None)
            out[key] = as_dict() if as_dict is not None else vars(delta)
        return out

    def flatten(self, parent_id: int | None = None) -> list[dict]:
        """The whole subtree as JSON-ready dicts, one per span."""
        rows = [self.to_dict(parent_id)]
        for child in self.children:
            rows.extend(child.flatten(self.span_id))
        return rows

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.closed else "open"
        return f"<Span {self.name!r} #{self.span_id} {state}>"


class _SpanHandle:
    """Context-manager sugar over Tracer.begin/end."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._span)


class Tracer:
    """Builds span trees; finished roots accumulate until drained.

    ``begin``/``end`` are the generator-safe API (sessions hold spans
    open across yields); ``span(...)`` wraps them as a context manager
    for straight-line code.  ``end`` accepts out-of-order closes: the
    parent link is fixed at ``begin`` time, so ending an outer span
    while an inner one is still open never corrupts the tree.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @property
    def _stack(self) -> list[Span]:
        """This thread's open-span stack (spans begun on a background
        thread become their own roots, never children of another
        thread's open query)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, *, cost=None, io=None, net=None,
              parent: "Span | None" = None, **attrs) -> Span:
        """Open a span as a child of the innermost open span.

        ``parent`` pins the span under an explicit open span instead
        (it is then not pushed on the stack): the distributed sampler
        uses this to attach per-worker ``worker_pull`` spans directly
        under its ``dist_fanout`` span.
        """
        sources = {}
        if cost is not None:
            sources["cost"] = cost
        if io is not None:
            sources["io"] = io
        if net is not None:
            sources["net"] = net
        stack = self._stack
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if parent is not None:
            span = Span(span_id, name, self.clock(), attrs, sources,
                        trace_id=parent.trace_id,
                        parent_span_id=parent.span_id)
            parent.children.append(span)
            return span
        if stack:
            top = stack[-1]
            span = Span(span_id, name, self.clock(), attrs, sources,
                        trace_id=top.trace_id,
                        parent_span_id=top.span_id)
            top.children.append(span)
        else:
            span = Span(span_id, name, self.clock(), attrs, sources,
                        trace_id=_new_trace_id())
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close a span (idempotent; tolerates out-of-order ends)."""
        if span is None or span.closed:
            return
        span._close(self.clock())
        try:
            self._stack.remove(span)
        except ValueError:
            pass

    def span(self, name: str, *, cost=None, io=None, net=None,
             **attrs) -> _SpanHandle:
        """``with tracer.span("phase", cost=counter) as span: ...``"""
        return _SpanHandle(self, self.begin(name, cost=cost, io=io,
                                            net=net, **attrs))

    @property
    def last_root(self) -> Span | None:
        """The most recently opened root span, if any."""
        return self.roots[-1] if self.roots else None

    def drain(self) -> list[Span]:
        """Return and clear the accumulated root spans."""
        with self._lock:
            roots, self.roots = self.roots, []
        return roots

    def reset(self) -> None:
        """Drop all spans, open and finished (this thread's stack)."""
        with self._lock:
            self.roots = []
            self._next_id = 0
        self._local.stack = []


class _NullSpan(Span):
    """Shared inert span: every mutation is a no-op."""

    __slots__ = ()

    def __init__(self):
        super().__init__(-1, "null", 0.0, {}, {}, trace_id="null")

    def set(self, key: str, value) -> None:
        pass

    def _close(self, end: float) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullHandle:
    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class NullTracer(Tracer):
    """The default tracer: free to call, records nothing."""

    enabled = False

    def begin(self, name: str, *, cost=None, io=None, net=None,
              parent: "Span | None" = None, **attrs) -> Span:
        return _NULL_SPAN

    def end(self, span: Span) -> None:
        pass

    def span(self, name: str, *, cost=None, io=None, net=None,
             **attrs):
        return _NULL_HANDLE


NULL_TRACER = NullTracer()
