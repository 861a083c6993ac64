"""Property-based fuzz of the tiered ingest path vs a dict oracle.

Hypothesis drives arbitrary interleavings of insert / delete / seal /
compact against an LSM-attached dataset while a plain dict mirrors the
intended live set.  After every operation the merged tiered view must
agree with the oracle exactly: ``range_count`` over the full domain
equals the dict size, and a full without-replacement drain is a
permutation of the dict's keys.  This is Definition 1 as an invariant —
no operation ordering may make the merged sample over- or under-count
any record.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Dataset
from repro.core.geometry import Rect
from repro.core.records import Record
from repro.storage.lsm import LSMTree

EVERYTHING = Rect((0, 0), (100, 100))
WEST = Rect((0, 0), (50, 100))

coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def op_sequence(draw):
    """Insert/delete/re-insert/seal/compact ops over small ids.

    Tracks liveness while generating so deletes always target a live
    id and the sequence is replayable without bookkeeping surprises.
    A re-insert brings a deleted id back, either as the very record
    object that was deleted (``revive``) or as a new record at a new
    point (``insert``): a main-tier victim then has a tombstone beside
    its live copy, and a memtable row has a dead twin in the log.
    """
    n_seed = draw(st.integers(0, 40))
    n = draw(st.integers(5, 80))
    ops = []
    live = set(range(n_seed))
    dead: set[int] = set()
    next_id = 1000
    for _ in range(n):
        kind = draw(st.integers(0, 10))
        if kind == 0:
            ops.append(("seal",))
        elif kind == 1:
            ops.append(("compact",))
        elif kind <= 4 and live:
            victim = draw(st.sampled_from(sorted(live)))
            live.discard(victim)
            dead.add(victim)
            ops.append(("delete", victim))
        elif kind == 5 and dead:
            rid = draw(st.sampled_from(sorted(dead)))
            dead.discard(rid)
            live.add(rid)
            if draw(st.booleans()):
                ops.append(("revive", rid))
            else:
                ops.append(("insert", rid, draw(coord), draw(coord)))
        else:
            lon, lat = draw(coord), draw(coord)
            ops.append(("insert", next_id, lon, lat))
            live.add(next_id)
            next_id += 1
    return n_seed, ops


def apply_op(dataset, lsm, model, graveyard, op, compact=True):
    """Apply one generated op to the dataset and the dict oracle."""
    if op[0] in ("insert", "revive"):
        if op[0] == "revive":
            rec = graveyard.pop(op[1])
        else:
            _, rid, lon, lat = op
            rec = Record(record_id=rid, lon=lon, lat=lat, t=float(rid))
        dataset.insert(rec)
        model[rec.record_id] = rec
    elif op[0] == "delete":
        dataset.delete(op[1])
        graveyard[op[1]] = model.pop(op[1])
    elif op[0] == "seal":
        if lsm.memtable.records:
            lsm.seal()
    elif compact:
        lsm.compact()


def seed_records(n, seed=3):
    rng = random.Random(seed)
    return [Record(record_id=i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=float(i))
            for i in range(n)]


def check_against(dataset, model):
    sampler = dataset.samplers["lsm-tiered"]
    for rect in (EVERYTHING, WEST):
        want = {(rid, (r.lon, r.lat)) for rid, r in model.items()
                if rect.contains_point((r.lon, r.lat))}
        assert sampler.range_count(rect) == len(want)
        got = [(e.item_id, e.point) for e in
               sampler.sample_stream(rect, random.Random(11))]
        assert len(got) == len(set(got)) == len(want)
        assert set(got) == want
        want = {rid for rid, _ in want}
        sampler.range_count(rect)
        wr = sampler.sample_stream_with_replacement(rect,
                                                    random.Random(12))
        assert all(next(wr).item_id in want
                   for _ in range(4 * len(want)))


class TestLSMProperties:
    @given(op_sequence())
    @settings(max_examples=50, deadline=None)
    def test_merged_view_matches_oracle(self, seq):
        n_seed, ops = seq
        base = seed_records(n_seed)
        dataset = Dataset("fuzz", base, dims=2, rs_buffer_size=8,
                          build_ls=False, seed=17)
        lsm = LSMTree(dataset, memtable_limit=16,
                      compact_after_runs=999)
        dataset.attach_lsm(lsm)
        model = {r.record_id: r for r in base}
        graveyard: dict[int, Record] = {}
        for op in ops:
            apply_op(dataset, lsm, model, graveyard, op)
            check_against(dataset, model)
        # End state: tier bookkeeping is internally consistent.
        shape = lsm.tier_shape()
        assert shape["memtable_records"] == len(lsm.memtable.records)
        assert shape["sealed_runs"] == len(lsm.runs)
        live_placed = (len(lsm.memtable.records)
                       + sum(1 for _ in lsm._run_of))
        assert live_placed <= len(model)

    @given(op_sequence())
    @settings(max_examples=25, deadline=None)
    def test_compact_is_transparent(self, seq):
        """Compacting at the end never changes the merged view."""
        n_seed, ops = seq
        base = seed_records(n_seed)
        dataset = Dataset("fuzz", base, dims=2, rs_buffer_size=8,
                          build_ls=False, seed=23)
        lsm = LSMTree(dataset, memtable_limit=16,
                      compact_after_runs=999)
        dataset.attach_lsm(lsm)
        model = {r.record_id: r for r in base}
        graveyard: dict[int, Record] = {}
        for op in ops:
            # Skip generated compacts: this test compacts only once.
            apply_op(dataset, lsm, model, graveyard, op, compact=False)
        check_against(dataset, model)
        lsm.compact()
        assert not lsm.runs and not lsm.tombstones
        check_against(dataset, model)
