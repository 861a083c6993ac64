"""Helpers shared by the benchmark's workloads.

Everything here is pure (no sockets, no processes) so the unit tests in
``stormbench/tests`` can pin it down: the percentile + sample-count
summary, interval arithmetic and span self time, the NDJSON frame
checker, and the brute-force count oracle the correctness gates use.
"""

from __future__ import annotations

import math
import os
import sys

#: Where the program under test lives, relative to the checkout root.
SRC_DIR = "src"


def require_program(root: str) -> str:
    """Absolute path of the program's source tree, or exit non-zero.

    The benchmark builds nothing itself: it runs the package from
    ``src/``.  A checkout without it cannot be measured.
    """
    src = os.path.join(root, SRC_DIR)
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program under {src!r}; run from the root "
              f"of a checkout", file=sys.stderr)
        raise SystemExit(2)
    return src


# -- percentiles -------------------------------------------------------------

def segment_seed(seed: int, segment: int, segments: int) -> int:
    """The seed of every input of one segment of a run.

    Each segment of a run works on its own records and requests, so a
    run's figures average over ``segments`` datasets rather than hang
    on the skew of one (the OSM generator draws its city weights from a
    Dirichlet(0.5) per seed).  Distinct for every (seed, segment).
    """
    return seed * segments + segment


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values, p: float) -> tuple[float, int, int]:
    """``(value, n, beyond)``: the nearest-rank percentile, the sample
    count, and how many samples lie strictly above the percentile's
    rank — the count a tail percentile is resting on."""
    value = percentile(values, p)
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return value, n, n - rank


def median(values) -> float:
    """Nearest-rank median (the value of an actual sample)."""
    return percentile(values, 50.0)


# -- query boxes -------------------------------------------------------------

#: The region the OSM generator draws from (lon, lat extents).
LON_SPAN, LAT_SPAN = 60.0, 25.0


def square(lon, lat, anchor: int, m: int, sub=None):
    """The lon/lat box centred on point ``anchor`` (aspect of the
    region) whose Chebyshev radius reaches its ``m``-th nearest point
    among the indices ``sub`` (all points when None)."""
    import numpy as np
    idx = slice(None) if sub is None else sub
    d = np.maximum(np.abs(lon[idx] - lon[anchor]) / LON_SPAN,
                   np.abs(lat[idx] - lat[anchor]) / LAT_SPAN)
    m = max(1, min(m, len(d)))
    half = float(np.partition(d, m - 1)[m - 1])
    return (lon[anchor] - half * LON_SPAN, lat[anchor] - half * LAT_SPAN,
            lon[anchor] + half * LON_SPAN, lat[anchor] + half * LAT_SPAN)


def fixed(values) -> tuple[str, list[float]]:
    """Fixed-precision text for query bounds plus the exact floats the
    program will parse from it (the oracle must count the same box)."""
    text = [f"{v:.6f}" for v in values]
    return ", ".join(text), [float(s) for s in text]


# -- intervals and spans -----------------------------------------------------

# A span is a list: [name, start, end, span_id, parent_id, tag, thread,
# count]; the count is what the call handled (samples, bytes, hits).
NAME, START, END, SID, PARENT, TAG, THREAD, COUNT = range(8)


def clipped(intervals, lo: float, hi: float) -> list[tuple[float, float]]:
    """The parts of ``intervals`` inside ``[lo, hi]``."""
    out = []
    for a, b in intervals:
        a, b = max(a, lo), min(b, hi)
        if b > a:
            out.append((a, b))
    return out


def self_times(spans) -> dict[int, float]:
    """span id -> self time: the span's duration minus the part of its
    interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT]:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    return {span[SID]: sum(b - a for a, b in self_intervals(
        span, children.get(span[SID], ()))) for span in spans}


def root_ids(spans) -> dict[int, int]:
    """span id -> id of its root span (the outermost recorded span
    above it; spans of one request share their root)."""
    by_id = {span[SID]: span for span in spans}
    out: dict[int, int] = {}
    for span in spans:
        chain = []
        cur = span
        while cur[SID] not in out:
            chain.append(cur[SID])
            parent = by_id.get(cur[PARENT])
            if parent is None:
                out[cur[SID]] = cur[SID]
                break
            cur = parent
        root = out[cur[SID]]
        for sid in chain:
            out[sid] = root
    return out


def self_intervals(span, child_intervals) -> list[tuple[float, float]]:
    """The parts of ``span``'s interval no child covers, in order."""
    out = []
    cur = span[START]
    for lo, hi in sorted(clipped(child_intervals, span[START],
                                 span[END])):
        if lo > cur:
            out.append((cur, lo))
        cur = max(cur, hi)
    if span[END] > cur:
        out.append((cur, span[END]))
    return out


def overlap(a, b) -> float:
    """Length of the intersection of two sorted lists of disjoint
    intervals."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def merged(intervals) -> list[tuple[float, float]]:
    """Sorted disjoint union of ``intervals``."""
    out: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


# -- NDJSON frames -----------------------------------------------------------

def check_frames(frames, stop_reasons) -> list[str]:
    """Problems with one streamed reply (empty list = well formed).

    A reply is zero or more ``progress`` frames whose ``k`` rises
    strictly, then exactly one terminal ``end`` frame whose reason is
    one of ``stop_reasons`` and whose ``k`` is not below the last
    progress frame's.
    """
    problems = []
    if not frames:
        return ["no frames"]
    *body, last = frames
    prev_k = -1
    for i, frame in enumerate(body):
        if frame.get("frame") != "progress":
            problems.append(f"frame {i} is {frame.get('frame')!r} "
                            f"before the terminal frame")
            continue
        k = frame.get("k")
        if not isinstance(k, int) or k <= prev_k:
            problems.append(f"frame {i}: k={k!r} after k={prev_k}")
        else:
            prev_k = k
    if last.get("frame") != "end":
        problems.append(f"terminal frame is {last.get('frame')!r}: "
                        f"{last.get('message', last.get('reason'))}")
        return problems
    if not any(last.get("reason", "").startswith(r)
               for r in stop_reasons):
        problems.append(f"stopped on {last.get('reason')!r}")
    if isinstance(last.get("k"), int) and last["k"] < prev_k:
        problems.append(f"end k={last['k']} below progress k={prev_k}")
    return problems


# -- brute-force oracle ------------------------------------------------------

class BruteForce:
    """Exact in-range counts by a linear scan over column arrays.

    Boxes are closed on every side, as the program's ``Rect`` is.
    ``alive`` masks deleted rows out (the ingest workload keeps one
    slot per record id ever issued).
    """

    def __init__(self, lon, lat, t, alive=None):
        import numpy as np
        self.np = np
        self.lon = np.asarray(lon, dtype=float)
        self.lat = np.asarray(lat, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.alive = None if alive is None \
            else np.asarray(alive, dtype=bool)

    def mask(self, lo, hi):
        m = (self.lon >= lo[0]) & (self.lon <= hi[0]) \
            & (self.lat >= lo[1]) & (self.lat <= hi[1])
        if len(lo) > 2:
            m &= (self.t >= lo[2]) & (self.t <= hi[2])
        if self.alive is not None:
            m &= self.alive
        return m

    def count(self, lo, hi) -> int:
        return int(self.np.count_nonzero(self.mask(lo, hi)))


# -- process memory ----------------------------------------------------------

def status_kb(pid: "int | str", field: str) -> int:
    """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)
