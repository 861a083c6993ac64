"""Golden EXPLAIN / EXPLAIN ANALYZE text, byte for byte.

Each case builds a seeded dataset and a fresh executor, runs a fixed
sequence of plan-only ``EXPLAIN`` queries and ``explain_report`` calls,
and compares every string with the one recorded below.  The sequence
matters: ``explain_report`` runs the query, and an optimizer-chosen run
calibrates the optimizer, so the EXPLAIN that follows it shows the
calibrated scores.  The only masked part is the process-global trace id
in the ``workers (trace …)`` header.  The strings were recorded on the
numpy block backend (the ``leaf storage`` rows name it).
"""

import random
import re

import pytest

from repro.core.engine import Dataset, StormEngine
from repro.core.records import Record
from repro.distributed.dataset import DistributedDataset
from repro.query.executor import QueryExecutor
from repro.storage.lsm import LSMTree
from repro.workloads.osm import OSMWorkload

OSM_Q = ("ESTIMATE AVG(altitude) FROM osm "
         "WHERE REGION(-110, 30, -85, 45) SAMPLES 64")
PTS_Q = "ESTIMATE AVG(v) FROM pts WHERE REGION(10, 10, 90, 90) SAMPLES 96"
TIERS_Q = "ESTIMATE COUNT FROM tiers WHERE REGION(10, 10, 80, 80) SAMPLES 48"
METHODS = ("query-first", "sample-first", "random-path", "ls-tree",
           "rs-tree")


def _points(n, seed, start_id=0):
    rng = random.Random(seed)
    return [Record(record_id=start_id + i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 1000),
                   attrs={"v": rng.gauss(10.0, 2.0)})
            for i in range(n)]


def _osm_executor():
    engine = StormEngine(seed=5)
    engine.create_dataset("osm", OSMWorkload(n=1500, seed=5).generate(),
                          dims=2)
    return QueryExecutor(engine, rng=random.Random(6))


def _tiered_executor():
    """Main tree, memtable rows, sealed runs and tombstones."""
    dataset = Dataset("tiers", _points(300, seed=11), dims=2,
                      rs_buffer_size=16, build_ls=False, seed=11)
    LSMTree.open(dataset, memtable_limit=64, compact_after_runs=999)
    for record in _points(260, seed=34, start_id=10_000):
        dataset.insert(record)
    rng = random.Random(79)
    for rid in rng.sample(sorted(dataset.records), 30):
        dataset.delete(rid)
    engine = StormEngine(seed=12)
    engine.register(dataset)
    return QueryExecutor(engine, rng=random.Random(13))


def _distributed_executor():
    engine = StormEngine(seed=21)
    engine.register(DistributedDataset("pts", _points(900, seed=20),
                                       n_workers=3, seed=22,
                                       rs_buffer_size=16))
    return QueryExecutor(engine, rng=random.Random(23))


def _run(executor, steps):
    """Run (kind, query) steps in order; the texts they produce."""
    out = []
    for kind, query in steps:
        if kind == "explain":
            text = executor.execute("EXPLAIN " + query).explanation
        else:
            text = executor.explain_report(query)
        out.append(re.sub(r"workers \(trace [0-9a-f]+\)",
                          "workers (trace *)", text))
    return out


def _using(query, method):
    head, samples = query.rsplit(" SAMPLES ", 1)
    return f"{head} USING {method} SAMPLES {samples}"


CASES = {
    "optimizer": (_osm_executor, [("explain", OSM_Q), ("analyze", OSM_Q),
                                  ("explain", OSM_Q)]),
    **{f"using-{m}": (_osm_executor, [("explain", _using(OSM_Q, m)),
                                      ("analyze", _using(OSM_Q, m))])
       for m in METHODS},
    "lsm": (_tiered_executor, [("explain", TIERS_Q),
                               ("analyze", TIERS_Q)]),
    "distributed": (_distributed_executor,
                    [("explain", PTS_Q), ("analyze", PTS_Q)]),
}

GOLDEN = {'distributed': ['method fixed at build time: distributed-rs',
                          'plan:\n'
                          '  method fixed at build time: distributed-rs\n'
                          'phases (simulated seconds, disk cost model):\n'
                          '  range_count      0.000000s  reads=0 (random=0, '
                          'seq=0) scanned=0 samples=0\n'
                          '  sample_stream    0.000000s  reads=0 (random=0, '
                          'seq=0) scanned=0 samples=0\n'
                          '  dist_fanout      0.062432s  reads=36 (random=6, '
                          'seq=30) scanned=1560 samples=160\n'
                          '  total            0.062432s\n'
                          'workers (trace *):\n'
                          '  0  draws=24 batches=1 retries=0 failovers=0 '
                          'bytes=3904\n'
                          '  1  draws=31 batches=1 retries=0 failovers=0 '
                          'bytes=3904\n'
                          '  2  draws=41 batches=2 retries=0 failovers=0 '
                          'bytes=11648\n'
                          'stop: sample budget reached (k=96 of q=561, '
                          '17.11% of range)\n'
                          'estimate: value=10.379141442599646 ci=[10.028, '
                          '10.7303]@95%'],
          'lsm': ['method fixed by tiered ingest: lsm-tiered (per-tree '
                  'samplers only see the main tier)',
                  'plan:\n'
                  '  method fixed by tiered ingest: lsm-tiered (per-tree '
                  'samplers only see the main tier)\n'
                  'phases (simulated seconds, disk cost model):\n'
                  '  range_count      0.020323s  reads=6 (random=2, seq=4) '
                  'scanned=300 samples=0\n'
                  '  sample_stream    0.000003s  reads=0 (random=0, seq=0) '
                  'scanned=0 samples=31\n'
                  '  total            0.020326s\n'
                  'caches:\n'
                  '  canonical-set  hits=0 misses=1 hit_rate=0.0%\n'
                  'index:\n'
                  '  leaf storage            columnar (5/5 leaves packed, '
                  'numpy backend)\n'
                  '  vectorized filters      5\n'
                  '  vectorized filter hits  158\n'
                  'durability:\n'
                  '  lsm memtable records  4\n'
                  '  lsm sealed runs       4\n'
                  '  lsm run records       256\n'
                  '  lsm tombstones        30\n'
                  '  lsm seals             4\n'
                  'stop: sample budget reached (k=48 of q=279, 17.20% of '
                  'range)\n'
                  'estimate: value=279 ci=[279, 279]@95% (exact)'],
          'optimizer': ['selectivity: q=404, assumed k=64\n'
                        '  query-first   ~0.09734s <-- chosen\n'
                        '  rs-tree       ~0.1068s\n'
                        '  ls-tree       ~0.1757s\n'
                        '  random-path   ~2.304s\n'
                        '  sample-first  ~2.376s',
                        'plan:\n'
                        '  selectivity: q=404, assumed k=64\n'
                        '    query-first   ~0.09734s <-- chosen\n'
                        '    rs-tree       ~0.1068s\n'
                        '    ls-tree       ~0.1757s\n'
                        '    random-path   ~2.304s\n'
                        '    sample-first  ~2.376s\n'
                        'phases (simulated seconds, disk cost model):\n'
                        '  range_count      0.070969s  reads=19 (random=7, '
                        'seq=12) scanned=873 samples=0\n'
                        '  sample_stream    0.070976s  reads=19 (random=7, '
                        'seq=12) scanned=999 samples=64\n'
                        '  total            0.141945s\n'
                        'index:\n'
                        '  leaf storage            columnar (16/24 leaves '
                        'packed, numpy backend)\n'
                        '  vectorized filters      58\n'
                        '  vectorized filter hits  1238\n'
                        'stop: sample budget reached (k=64 of q=404, 15.84% '
                        'of range)\n'
                        'estimate: value=1444.3221959774796 ci=[1293.19, '
                        '1595.45]@95%',
                        'selectivity: q=404, assumed k=64\n'
                        '  rs-tree       ~0.1068s <-- chosen\n'
                        '  query-first   ~0.1107s\n'
                        '  ls-tree       ~0.1757s\n'
                        '  random-path   ~2.304s\n'
                        '  sample-first  ~2.376s'],
          'using-ls-tree': ['selectivity: q=404, assumed k=64\n'
                            '  query-first   ~0.09734s <-- chosen\n'
                            '  rs-tree       ~0.1068s\n'
                            '  ls-tree       ~0.1757s\n'
                            '  random-path   ~2.304s\n'
                            '  sample-first  ~2.376s',
                            'plan:\n'
                            '  method forced via USING: ls-tree\n'
                            'phases (simulated seconds, disk cost model):\n'
                            '  range_count      0.110245s  reads=14 '
                            '(random=11, seq=3) scanned=540 samples=0\n'
                            '  sample_stream    0.120813s  reads=22 '
                            '(random=12, seq=10) scanned=708 samples=64\n'
                            '  total            0.231059s\n'
                            'index:\n'
                            '  leaf storage  columnar (14/24 leaves packed, '
                            'numpy backend)\n'
                            'stop: sample budget reached (k=64 of q=404, '
                            '15.84% of range)\n'
                            'estimate: value=1295.8614146516843 ci=[1186.1, '
                            '1405.62]@95%'],
          'using-query-first': ['selectivity: q=404, assumed k=64\n'
                                '  query-first   ~0.09734s <-- chosen\n'
                                '  rs-tree       ~0.1068s\n'
                                '  ls-tree       ~0.1757s\n'
                                '  random-path   ~2.304s\n'
                                '  sample-first  ~2.376s',
                                'plan:\n'
                                '  method forced via USING: query-first\n'
                                'phases (simulated seconds, disk cost '
                                'model):\n'
                                '  range_count      0.070969s  reads=19 '
                                '(random=7, seq=12) scanned=873 samples=0\n'
                                '  sample_stream    0.070976s  reads=19 '
                                '(random=7, seq=12) scanned=999 samples=64\n'
                                '  total            0.141945s\n'
                                'index:\n'
                                '  leaf storage            columnar (16/24 '
                                'leaves packed, numpy backend)\n'
                                '  vectorized filters      30\n'
                                '  vectorized filter hits  682\n'
                                'stop: sample budget reached (k=64 of q=404, '
                                '15.84% of range)\n'
                                'estimate: value=1444.3221959774796 '
                                'ci=[1293.19, 1595.45]@95%'],
          'using-random-path': ['selectivity: q=404, assumed k=64\n'
                                '  query-first   ~0.09734s <-- chosen\n'
                                '  rs-tree       ~0.1068s\n'
                                '  ls-tree       ~0.1757s\n'
                                '  random-path   ~2.304s\n'
                                '  sample-first  ~2.376s',
                                'plan:\n'
                                '  method forced via USING: random-path\n'
                                'phases (simulated seconds, disk cost '
                                'model):\n'
                                '  range_count      0.070969s  reads=19 '
                                '(random=7, seq=12) scanned=873 samples=0\n'
                                '  sample_stream    7.781136s  reads=790 '
                                '(random=778, seq=12) scanned=16941 '
                                'samples=64\n'
                                '  total            7.852105s\n'
                                'index:\n'
                                '  leaf storage            columnar (14/24 '
                                'leaves packed, numpy backend)\n'
                                '  vectorized filters      28\n'
                                '  vectorized filter hits  556\n'
                                'stop: sample budget reached (k=64 of q=404, '
                                '15.84% of range)\n'
                                'estimate: value=1320.2969335928256 '
                                'ci=[1207.96, 1432.63]@95%'],
          'using-rs-tree': ['selectivity: q=404, assumed k=64\n'
                            '  query-first   ~0.09734s <-- chosen\n'
                            '  rs-tree       ~0.1068s\n'
                            '  ls-tree       ~0.1757s\n'
                            '  random-path   ~2.304s\n'
                            '  sample-first  ~2.376s',
                            'plan:\n'
                            '  method forced via USING: rs-tree\n'
                            'phases (simulated seconds, disk cost model):\n'
                            '  range_count      0.070969s  reads=19 '
                            '(random=7, seq=12) scanned=873 samples=0\n'
                            '  sample_stream    0.070975s  reads=19 '
                            '(random=7, seq=12) scanned=873 samples=64\n'
                            '  total            0.141944s\n'
                            'caches:\n'
                            '  canonical-set  hits=0 misses=1 hit_rate=0.0%\n'
                            'index:\n'
                            '  leaf storage            columnar (14/24 '
                            'leaves packed, numpy backend)\n'
                            '  vectorized filters      28\n'
                            '  vectorized filter hits  556\n'
                            'stop: sample budget reached (k=64 of q=404, '
                            '15.84% of range)\n'
                            'estimate: value=1385.7380901620998 ci=[1264.26, '
                            '1507.21]@95%'],
          'using-sample-first': ['selectivity: q=404, assumed k=64\n'
                                 '  query-first   ~0.09734s <-- chosen\n'
                                 '  rs-tree       ~0.1068s\n'
                                 '  ls-tree       ~0.1757s\n'
                                 '  random-path   ~2.304s\n'
                                 '  sample-first  ~2.376s',
                                 'plan:\n'
                                 '  method forced via USING: sample-first\n'
                                 'phases (simulated seconds, disk cost '
                                 'model):\n'
                                 '  range_count      0.070969s  reads=19 '
                                 '(random=7, seq=12) scanned=873 samples=0\n'
                                 '  sample_stream    2.440809s  reads=254 '
                                 '(random=244, seq=10) scanned=254 '
                                 'samples=64\n'
                                 '  total            2.511778s\n'
                                 'index:\n'
                                 '  leaf storage            columnar (14/24 '
                                 'leaves packed, numpy backend)\n'
                                 '  vectorized filters      14\n'
                                 '  vectorized filter hits  278\n'
                                 'stop: sample budget reached (k=64 of '
                                 'q=404, 15.84% of range)\n'
                                 'estimate: value=1288.1139737895446 '
                                 'ci=[1185.7, 1390.52]@95%']}


@pytest.mark.parametrize("case", sorted(CASES))
def test_explain_text_is_unchanged(case):
    make, steps = CASES[case]
    assert _run(make(), steps) == GOLDEN[case]
