"""Unit tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest stormbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from common import (BruteForce, check_frames, fixed,  # noqa: E402
                    merged, overlap, percentile, root_ids,
                    self_intervals, self_times, square, summarize)


# -- percentile + sample count ----------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0


def test_summarize_counts_samples_beyond_the_percentile():
    values = [float(v) for v in range(1000, 0, -1)]  # unsorted input
    value, n, beyond = summarize(values, 90)
    assert (value, n, beyond) == (900.0, 1000, 100)
    value, n, beyond = summarize(values[:15], 90)
    # 15 samples: rank ceil(13.5) = 14, so one sample lies beyond.
    assert n == 15 and beyond == 1


def test_percentile_rejects_empty_samples():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- self time on a hand-built span tree -------------------------------------

def _span(name, start, end, sid, parent, tag=None):
    return [name, start, end, sid, parent, tag, 1, 0]


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0, 1, 0, "q-1"),
        _span("a", 1.0, 4.0, 2, 1),
        _span("b", 3.0, 6.0, 3, 1),      # overlaps a: union is 1..6
        _span("a.child", 1.5, 2.0, 4, 2),
        _span("late", 9.0, 12.0, 5, 1),  # runs past the root's end
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0 - 1.0)  # 1..6 and 9..10
    assert st[2] == pytest.approx(3.0 - 0.5)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(0.5)
    assert root_ids(spans) == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


def test_self_intervals_and_overlap():
    root = _span("root", 0.0, 10.0, 1, 0)
    gaps = self_intervals(root, [(2.0, 3.0), (5.0, 7.0)])
    assert gaps == [(0.0, 2.0), (3.0, 5.0), (7.0, 10.0)]
    assert overlap(gaps, [(1.0, 4.0), (8.0, 20.0)]) == pytest.approx(4.0)
    assert merged([(5, 6), (0, 2), (1, 3)]) == [(0, 3), (5, 6)]


def test_spans_whose_parent_was_not_recorded_are_roots():
    spans = [_span("orphan", 0.0, 1.0, 7, 99), _span("kid", 0.2, 0.4, 8, 7)]
    assert root_ids(spans) == {7: 7, 8: 7}


# -- NDJSON frame checker ----------------------------------------------------

def _progress(k):
    return {"frame": "progress", "k": k}


def test_frames_well_formed():
    frames = [_progress(64), _progress(128),
              {"frame": "end", "k": 128,
               "reason": "target relative error reached"}]
    assert check_frames(frames, ("target relative error reached",
                                 "exhausted")) == []


def test_frames_catch_non_monotone_k_and_bad_terminal():
    frames = [_progress(64), _progress(64),
              {"frame": "error", "message": "boom"}]
    problems = check_frames(frames, ("exhausted",))
    assert any("k=64 after k=64" in p for p in problems)
    assert any("terminal frame is 'error'" in p for p in problems)


def test_frames_catch_wrong_stop_reason_and_missing_frames():
    frames = [{"frame": "end", "k": 10, "reason": "time budget reached"}]
    assert check_frames(frames, ("exhausted",)) == [
        "stopped on 'time budget reached'"]
    assert check_frames([], ("exhausted",)) == ["no frames"]
    middle_end = [{"frame": "end", "reason": "exhausted"},
                  {"frame": "end", "reason": "exhausted"}]
    assert check_frames(middle_end, ("exhausted",))


# -- brute-force count oracle ------------------------------------------------

def test_oracle_counts_closed_boxes():
    oracle = BruteForce([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0],
                        [5.0, 6.0, 7.0, 8.0])
    assert oracle.count((1.0, 1.0), (2.0, 2.0)) == 2  # edges included
    assert oracle.count((1.0, 1.0, 6.5), (3.0, 3.0, 8.0)) == 2
    assert oracle.count((10.0, 10.0), (11.0, 11.0)) == 0


def test_square_reaches_the_mth_nearest_point_with_the_region_aspect():
    import numpy as np
    lon = np.array([0.0, 6.0, -12.0, 0.0, 30.0])
    lat = np.array([0.0, 0.0, 0.0, 7.5, 0.0])
    # Chebyshev distances from point 0 in region units: 0, .1, .2, .3, .5
    box = square(lon, lat, 0, 3)
    assert box == pytest.approx((-12.0, -5.0, 12.0, 5.0))
    assert square(lon, lat, 0, 99) == pytest.approx((-30.0, -12.5,
                                                     30.0, 12.5))
    assert square(lon, lat, 0, 2, sub=[0, 3, 4]) == pytest.approx(
        (-18.0, -7.5, 18.0, 7.5))
    text, values = fixed(box)
    assert text == "-12.000000, -5.000000, 12.000000, 5.000000"
    assert values == [-12.0, -5.0, 12.0, 5.0]


def test_oracle_matches_the_programs_index():
    import random
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.core.engine import Dataset
    from repro.core.geometry import Rect
    from repro.core.records import Record
    rng = random.Random(5)
    records = [Record(record_id=i, lon=rng.uniform(0, 10),
                      lat=rng.uniform(0, 10), t=rng.uniform(0, 100))
               for i in range(2000)]
    dataset = Dataset("pts", records, build_ls=False)
    alive = [i % 7 != 0 for i in range(2000)]
    for i in range(0, 2000, 7):
        dataset.delete(i)
    oracle = BruteForce([r.lon for r in records], [r.lat for r in records],
                        [r.t for r in records], alive)
    for _ in range(20):
        lo = (rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 80))
        hi = tuple(v + rng.uniform(0.5, 4) for v in lo)
        assert oracle.count(lo, hi) == \
            dataset.tree.range_count(Rect(lo, hi))
