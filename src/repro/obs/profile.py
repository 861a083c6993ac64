"""Sampling profiler: periodic stack snapshots, collapsed-stack output.

STORM's latency budget lives or dies in a handful of hot loops (draw
batches, leaf scans, estimator absorption), and the quantile
histograms can say *that* p99 moved but not *why*.  This module is the
why: a background thread wakes at a configurable rate, snapshots every
other thread's Python stack via ``sys._current_frames()``, and
aggregates identical stacks into the flamegraph-standard collapsed
format — one ``frame;frame;...;frame count`` line per distinct stack,
root first — so a bench run can attach hotspot evidence
(``flamegraph.pl`` / speedscope read it directly).

Design points:

* **stdlib only, no tracing overhead** — the profiled code runs
  unmodified; cost is one stack walk per tick on the profiler thread
  (wall-clock sampling, so blocked threads are sampled too);
* **self-exclusion** — the profiler never samples its own thread, and
  it publishes only ``storm.profile.*`` metrics, so ``storm.*``
  engine counters and traced span deltas are never skewed by it
  (regression-tested);
* **deterministic aggregation** — ``collapsed()`` output is sorted by
  count (descending) then stack text, so repeated renders of one run
  are byte-identical.

Surfaces: ``SamplingProfiler`` (start/stop), the ``profiled()``
context manager used by the bench harnesses and the CLI ``--profile``
flag, which write ``*.collapsed`` files next to the bench JSON.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry

__all__ = ["SamplingProfiler", "profiled"]

DEFAULT_HZ = 97.0  # prime-ish, dodges lockstep with periodic work


def _collapse(frame) -> str:
    """One thread's stack as ``module:function`` frames, root first."""
    parts: list[str] = []
    while frame is not None:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Background wall-clock sampler of every other thread's stack.

    ``hz`` bounds the sampling rate (the wait is the tick floor; a
    slow stack walk just lowers the effective rate).  ``registry``
    (optional) receives ``storm.profile.samples`` / ``.stacks`` /
    ``.threads`` so profiler activity is visible on the dashboard and
    the service's /metrics route without touching any engine counter.
    """

    def __init__(self, hz: float = DEFAULT_HZ,
                 registry: "MetricsRegistry | None" = None):
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.hz = hz
        self.registry = registry
        self.stacks: dict[str, int] = {}
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._elapsed: float | None = None

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="storm-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the profiler thread (idempotent)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self._elapsed is None and self._started_at is not None:
            self._elapsed = time.perf_counter() - self._started_at

    def _loop(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        registry = self.registry
        while not self._stop.wait(interval):
            frames = sys._current_frames()
            self.samples += 1
            seen_threads = 0
            for tid, frame in frames.items():
                if tid == own:
                    continue
                seen_threads += 1
                stack = _collapse(frame)
                self.stacks[stack] = self.stacks.get(stack, 0) + 1
            if registry is not None and registry.enabled:
                registry.counter("storm.profile.samples").inc()
                registry.counter("storm.profile.stacks").inc(
                    seen_threads)
                registry.gauge("storm.profile.threads").set(
                    seen_threads)

    # -- output -------------------------------------------------------

    def collapsed(self) -> str:
        """The aggregate as collapsed-stack text (``a;b;c N`` lines),
        hottest stack first, byte-stable for a given aggregate."""
        rows = sorted(self.stacks.items(),
                      key=lambda item: (-item[1], item[0]))
        return "\n".join(f"{stack} {count}" for stack, count in rows)

    def write_collapsed(self, path: str) -> int:
        """Write the collapsed stacks to a file; returns line count."""
        text = self.collapsed()
        with open(path, "w") as f:
            if text:
                f.write(text + "\n")
        return len(self.stacks)

    def top_frames(self, n: int = 5) -> list[tuple[str, int]]:
        """The n hottest *leaf* frames (function-level hotspots):
        (frame, inclusive leaf sample count), hottest first."""
        leaves: dict[str, int] = {}
        for stack, count in self.stacks.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        return sorted(leaves.items(),
                      key=lambda item: (-item[1], item[0]))[:n]

    def summary(self) -> dict[str, object]:
        """Plain-dict run summary (for bench JSON sidecars)."""
        out: dict[str, object] = {
            "hz": self.hz, "samples": self.samples,
            "distinct_stacks": len(self.stacks),
            "top_frames": [list(t) for t in self.top_frames()],
        }
        if self._elapsed is not None:
            out["seconds"] = round(self._elapsed, 4)
        return out


@contextmanager
def profiled(path: "str | None" = None, hz: float = DEFAULT_HZ,
             registry: "MetricsRegistry | None" = None):
    """``with profiled("out.collapsed") as prof:`` — profile the block.

    The profiler is started on entry and stopped on exit; when ``path``
    is given the collapsed stacks are written there (even if the block
    raises, so a crashed bench still leaves its evidence).
    """
    profiler = SamplingProfiler(hz=hz, registry=registry)
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()
        if path is not None:
            profiler.write_collapsed(path)
