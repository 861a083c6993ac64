"""Equivalence and codec suite for the packed columnar block layer.

The blocks module is a pure fast path: every place it is wired in —
leaf rect scans, estimator absorption, LSM run payloads — must produce
*identical* answers to the per-Record code it replaced.  This suite
pins that contract three ways: block filters against brute-force /
record-list scans (same id sets, 2-d and 3-d, empty and single-record
blocks), columnar estimator absorption against per-record absorption
(mean/sum/KDE agree to 1e-12), and the wire codec against itself
(hypothesis round-trip property; LSM run files restore only from the
block format, and a run file in the old JSON layout is rejected).

Positional scan results are also checked against a brute-force
``Rect.contains_point`` loop written out in the test itself, so the
vectorised mask has a reference independent of the module under test.

The ``backend`` fixture runs most tests on both sides of the split that
remains between numpy and the standard library: blocks hold stdlib
``array`` buffers that numpy views scan, and estimator columns are
folded in by numpy from 16 values up and by a Welford loop below that.
"""

import json
import random
import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import (BLOCK_MAGIC, ColumnBlock, RecordBlock,
                               is_block_payload)
from repro.core.estimators.aggregates import AvgEstimator, SumEstimator
from repro.core.geometry import Rect
from repro.core.records import Record, attribute_getter
from repro.errors import StorageError
from repro.index.rtree import RTree

from tests.conftest import brute_force_range, make_points

#: Batch size below ``RunningStats.add_many``'s vectorisation threshold.
SMALL_BATCH = 8


@pytest.fixture(params=["numpy", "stdlib"])
def backend(request):
    """Which side of the numpy/stdlib split a test feeds its data to.

    ``numpy``: blocks are used as built and estimators get each column
    in one batch, so ``add_many`` takes its vectorised branch.
    ``stdlib``: blocks are first rebuilt from their wire bytes (the
    ``struct``/``array`` codec) and estimators get columns in batches
    of :data:`SMALL_BATCH`, so ``add_many`` runs its Welford loop.
    """
    return request.param


def via(backend, block):
    """``block`` as built, or rebuilt from its encoded bytes."""
    if backend == "stdlib":
        block, _ = type(block).decode(block.encode())
    return block


def _batches(backend, n):
    if backend == "numpy" or n == 0:
        return [slice(0, n)]
    return [slice(i, i + SMALL_BATCH) for i in range(0, n, SMALL_BATCH)]


def absorb_columns(backend, est, lons, lats, ts):
    """``est.absorb_columns`` over the batches ``backend`` selects."""
    return all(est.absorb_columns(lons[s], lats[s],
                                  None if ts is None else ts[s])
               for s in _batches(backend, len(lons)))


def absorb_entries(backend, est, entries, lookup):
    """``est.absorb_entry_batch`` over the batches ``backend`` selects."""
    for s in _batches(backend, len(entries)):
        est.absorb_entry_batch(entries[s], lookup)


def make_records(n, seed=3):
    rng = random.Random(seed)
    return [Record(record_id=i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": round(rng.gauss(10, 2), 6)})
            for i in range(n)]


# ----------------------------------------------------------------------
# leaf-scan equivalence: block filters == record-list scans
# ----------------------------------------------------------------------

class TestScanEquivalence:
    RECTS_2D = [
        Rect((20, 20), (60, 60)),
        Rect((0, 0), (100, 100)),
        Rect((99.5, 99.5), (99.9, 99.9)),   # likely-empty corner
        Rect((50, 50), (50, 50)),           # degenerate point rect
    ]
    RECTS_3D = [
        Rect((20, 20, 20), (60, 60, 60)),
        Rect((0, 0, 0), (100, 100, 100)),
        Rect((-5, -5, -5), (-1, -1, -1)),   # fully outside
    ]

    @pytest.mark.parametrize("dims,rects", [(2, RECTS_2D), (3, RECTS_3D)])
    def test_block_matches_record_list_scan(self, backend, dims, rects):
        points = make_points(1500, seed=dims, dims=dims)
        tree = RTree(dims=dims, leaf_capacity=32)
        tree.bulk_load(points)
        block = via(backend, ColumnBlock.from_points(points, dims))
        for rect in rects:
            want = brute_force_range(points, rect)
            got = {e.item_id for e in tree.range_query(rect)}
            assert got == want
            assert tree.range_count(rect) == len(want)
            hits = block.indices_in(rect.lo, rect.hi)
            assert {block.ids[i] for i in hits} == want
            assert block.count_in(rect.lo, rect.hi) == len(want)
            assert hits == sorted(hits)

    @pytest.mark.parametrize("rect", [
        Rect((10, 10), (70, 70)),
        Rect((10, 10, 10), (70, 70, 70)),
    ], ids=["2d", "3d"])
    def test_positions_match_brute_force(self, rect):
        points = make_points(800, seed=19, dims=rect.dim)
        block = ColumnBlock.from_points(points, rect.dim)
        want = [i for i in range(len(block))
                if rect.contains_point(block.point(i))]
        assert 0 < len(want) < len(block)
        assert block.indices_in(rect.lo, rect.hi) == want

    def test_empty_block(self, backend):
        block = via(backend,
                    ColumnBlock(array("q"), [array("d"), array("d")]))
        assert len(block) == 0
        assert block.indices_in((0, 0), (100, 100)) == []
        assert block.count_in((0, 0), (100, 100)) == 0

    def test_single_record_block(self, backend):
        block = via(backend, ColumnBlock.from_points([(7, (5.0, 6.0))], 2))
        assert block.indices_in((0, 0), (10, 10)) == [0]
        assert block.indices_in((0, 0), (4, 10)) == []
        assert block.point(0) == (5.0, 6.0)

    def test_boundaries_inclusive(self, backend):
        block = via(backend, ColumnBlock.from_points(
            [(1, (0.0, 0.0)), (2, (10.0, 10.0)), (3, (10.0001, 5.0))], 2))
        hits = block.indices_in((0, 0), (10, 10))
        assert {block.ids[i] for i in hits} == {1, 2}

    def test_leaf_blocks_rebuilt_after_mutation(self):
        points = make_points(300, seed=5)
        tree = RTree(dims=2, leaf_capacity=16)
        tree.bulk_load(points)
        rect = Rect((0, 0), (100, 100))
        assert len(tree.range_query(rect)) == 300
        leaves, packed = tree.leaf_block_stats()
        assert packed == leaves > 0
        tree.insert(9999, (50.0, 50.0))
        tree.delete(0, points[0][1])
        got = {e.item_id for e in tree.range_query(rect)}
        assert got == {pid for pid, _ in points[1:]} | {9999}

    def test_vector_filter_counters(self):
        points = make_points(400, seed=9)
        tree = RTree(dims=2, leaf_capacity=16)
        tree.bulk_load(points)
        before = (tree.vector_filters, tree.vector_filter_hits)
        hits = tree.range_query(Rect((10, 10), (90, 90)))
        assert tree.vector_filters > before[0]
        assert tree.vector_filter_hits - before[1] == len(hits)


# ----------------------------------------------------------------------
# estimator equivalence: absorb_columns == per-record absorb
# ----------------------------------------------------------------------

def _entries_and_lookup(records, dims):
    tree = RTree(dims=dims)
    tree.bulk_load([(r.record_id, r.key(dims)) for r in records])
    entries = tree.range_query(Rect((0,) * dims, (100,) * dims
                                    if dims == 2 else (100, 100, 1000)))
    by_id = {r.record_id: r for r in records}
    return entries, by_id.__getitem__


class TestEstimatorEquivalence:
    @pytest.mark.parametrize("column", ["lon", "lat", "t"])
    def test_avg_columns_vs_records(self, backend, column):
        records = make_records(700)
        fast = AvgEstimator(attribute_getter(column))
        assert fast.supports_columns
        ok = absorb_columns(backend, fast, [r.lon for r in records],
                            [r.lat for r in records],
                            [r.t for r in records])
        assert ok and fast.k == len(records)
        slow = AvgEstimator(attribute_getter(column))
        for r in records:
            slow.absorb(r)
        a, b = fast.estimate(), slow.estimate()
        assert a.value == pytest.approx(b.value, abs=1e-12)
        assert a.std_error == pytest.approx(b.std_error, abs=1e-12)

    def test_sum_columns_vs_records(self, backend):
        records = make_records(500, seed=23)
        fast = SumEstimator(attribute_getter("lon"))
        slow = SumEstimator(attribute_getter("lon"))
        for est in (fast, slow):
            est.set_population_size(5000)
        assert absorb_columns(backend, fast, [r.lon for r in records],
                              [r.lat for r in records], None)
        for r in records:
            slow.absorb(r)
        a, b = fast.estimate(), slow.estimate()
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert a.std_error == pytest.approx(b.std_error, rel=1e-12)

    def test_attribute_estimator_falls_back(self, backend):
        records = make_records(50, seed=31)
        est = AvgEstimator(attribute_getter("v"))
        assert not est.supports_columns
        assert not absorb_columns(backend, est, [1.0], [2.0], None)
        entries, lookup = _entries_and_lookup(records, 2)
        absorb_entries(backend, est, entries, lookup)
        slow = AvgEstimator(attribute_getter("v"))
        for r in records:
            slow.absorb(r)
        assert est.k == slow.k == len(records)
        assert est.estimate().value == pytest.approx(
            slow.estimate().value, abs=1e-12)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_entry_batch_matches_per_record(self, backend, dims):
        records = make_records(400, seed=dims * 13)
        entries, lookup = _entries_and_lookup(records, dims)
        assert len(entries) == len(records)
        fast = AvgEstimator(attribute_getter("lon"))
        absorb_entries(backend, fast, entries, lookup)
        slow = AvgEstimator(attribute_getter("lon"))
        for e in entries:
            slow.absorb(lookup(e.item_id))
        assert fast.k == slow.k
        assert fast.estimate().value == pytest.approx(
            slow.estimate().value, abs=1e-12)

    def test_empty_batch_is_noop(self, backend):
        est = AvgEstimator(attribute_getter("lon"))
        absorb_entries(backend, est, [], lambda _: None)
        assert est.k == 0
        assert absorb_columns(backend, est, [], [], None)
        assert est.k == 0

    def test_kde_columns_vs_records(self):
        from repro.core.estimators.kde import GridSpec, OnlineKDE
        records = make_records(300, seed=41)
        grid = GridSpec(0, 0, 100, 100, nx=8, ny=8)
        fast = OnlineKDE(grid)
        assert fast.absorb_columns([r.lon for r in records],
                                   [r.lat for r in records],
                                   [r.t for r in records])
        slow = OnlineKDE(grid)
        for r in records:
            slow.absorb(r)
        assert fast.k == slow.k == len(records)
        a, b = fast.estimate(), slow.estimate()
        assert abs(a.value - b.value).max() <= 1e-12
        assert a.std_error == pytest.approx(b.std_error, abs=1e-12)


# ----------------------------------------------------------------------
# codec: wire-format round trips and corruption handling
# ----------------------------------------------------------------------

class TestCodec:
    def test_column_block_roundtrip_with_meta(self, backend):
        points = make_points(64, seed=2, dims=3)
        block = via(backend, ColumnBlock.from_points(points, 3))
        payload = block.encode(meta={"kind": "leaf", "level": 0})
        assert is_block_payload(payload)
        assert payload[:4] == BLOCK_MAGIC
        back, meta = ColumnBlock.decode(payload)
        assert meta == {"kind": "leaf", "level": 0}
        assert list(back.ids) == [pid for pid, _ in points]
        for i, (_, pt) in enumerate(points):
            assert back.point(i) == pt

    def test_record_block_lazy_attrs(self, backend):
        records = make_records(20)
        payload = via(backend, RecordBlock.from_records(records)).encode()
        back, _ = RecordBlock.decode(payload)
        # Lazy-attrs contract: decoding must not parse the side-table.
        assert back._attrs is None and back._attrs_raw
        assert back.attrs(3) == records[3].attrs
        assert back._attrs is not None and back._attrs_raw is None
        assert list(back.records()) == records

    def test_empty_attrs_encode_to_nothing(self, backend):
        records = [Record(i, lon=float(i), lat=0.0) for i in range(5)]
        block = via(backend, RecordBlock.from_records(records))
        assert block._attrs is None
        back, _ = RecordBlock.decode(block.encode())
        assert back.attrs(0) == {}
        assert list(back.records()) == records

    def test_rejects_bad_magic(self):
        with pytest.raises(StorageError):
            ColumnBlock.decode(b"JUNK" + b"\x00" * 40)

    def test_rejects_truncation(self, backend):
        payload = via(backend, ColumnBlock.from_points(
            make_points(10, seed=1), 2)).encode()
        with pytest.raises(StorageError):
            ColumnBlock.decode(payload[:-5])
        with pytest.raises(StorageError):
            ColumnBlock.decode(payload + b"\x00")

    def test_rejects_ragged_columns(self):
        with pytest.raises(StorageError):
            ColumnBlock(array("q", [1, 2]), [array("d", [0.5])])
        with pytest.raises(StorageError):
            RecordBlock(array("q", [1]), array("d", [1.0]),
                        array("d", [2.0]), array("d", []))

    def test_record_block_wrong_column_count(self, backend):
        payload = via(backend, ColumnBlock.from_points(
            make_points(4, seed=8), 2)).encode()
        with pytest.raises(StorageError):
            RecordBlock.decode(payload)

    @given(st.lists(st.tuples(
        st.integers(min_value=-2**62, max_value=2**62),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.dictionaries(st.text(max_size=8),
                        st.integers(min_value=-1000, max_value=1000),
                        max_size=3)), max_size=40))
    @settings(max_examples=75, deadline=None)
    def test_record_block_roundtrip_property(self, rows):
        records = [Record(record_id=rid, lon=lon, lat=lat, t=t,
                          attrs=attrs)
                   for rid, lon, lat, t, attrs in rows]
        payload = RecordBlock.from_records(records).encode(
            meta={"run_id": 42})
        back, meta = RecordBlock.decode(payload)
        assert meta == {"run_id": 42}
        assert list(back.records()) == records


# ----------------------------------------------------------------------
# LSM run payloads: block format only, legacy JSON rejected
# ----------------------------------------------------------------------

def _sealed_lsm(seed=77, n=40, extra=90):
    from repro.core.engine import Dataset
    from repro.storage.dfs import SimulatedDFS
    from repro.storage.lsm import LSMTree

    base = make_records(n, seed=seed)
    dataset = Dataset("runs", base, dims=2, rs_buffer_size=16,
                      build_ls=False, seed=seed)
    dfs = SimulatedDFS(machines=3, replication=2)
    lsm = LSMTree.open(dataset, dfs=dfs, memtable_limit=32,
                       compact_after_runs=999)
    rng = random.Random(seed + 1)
    for i in range(extra):
        dataset.insert(Record(record_id=1000 + i,
                              lon=rng.uniform(0, 100),
                              lat=rng.uniform(0, 100),
                              t=rng.uniform(0, 1000),
                              attrs={"v": round(rng.gauss(10, 2), 6)}))
    assert lsm.runs, "workload too small to seal a run"
    return dataset, dfs, lsm


def _reopen(dataset, dfs):
    from repro.core.engine import Dataset
    from repro.storage.lsm import LSMTree

    fresh = Dataset("runs", list(dataset.records.values()), dims=2,
                    rs_buffer_size=16, build_ls=False, seed=1)
    return LSMTree.open(fresh, dfs=dfs, memtable_limit=32,
                        compact_after_runs=999)


class TestRunPayloads:
    def test_sealed_run_files_are_blocks(self):
        _, dfs, lsm = _sealed_lsm()
        for run in lsm.runs:
            data = dfs.read_file(run.file)
            assert is_block_payload(data)
            block, meta = RecordBlock.decode(data)
            assert meta["run_id"] == run.run_id
            assert {r.record_id: r for r in block.records()} \
                == run.records

    def test_restore_from_block_payload(self):
        dataset, dfs, lsm = _sealed_lsm()
        reopened = _reopen(dataset, dfs)
        assert {r.run_id: dict(r.records) for r in reopened.runs} \
            == {r.run_id: dict(r.records) for r in lsm.runs}

    def test_legacy_json_run_is_rejected(self):
        from repro.storage.json_codec import canonical_json

        dataset, dfs, lsm = _sealed_lsm()
        # Rewrite every run file in the pre-columnar canonical-JSON
        # layout: restore names the first one in a typed error.
        for run in lsm.runs:
            legacy = canonical_json({
                "run_id": run.run_id,
                "records": [run.records[rid].to_document()
                            for rid in sorted(run.records)],
            }).encode()
            assert not is_block_payload(legacy)
            dfs.write_file(run.file, legacy)
        with pytest.raises(StorageError,
                           match=re.escape(repr(lsm.runs[0].file))):
            _reopen(dataset, dfs)

    def test_is_block_payload_rejects_json(self):
        assert not is_block_payload(json.dumps({"a": 1}).encode())
        assert not is_block_payload(b"")
        assert is_block_payload(BLOCK_MAGIC + b"anything")

