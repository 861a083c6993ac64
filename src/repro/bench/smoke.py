"""Sampling fast-path smoke benchmark: ``python -m repro.bench.smoke``.

Runs the repeated-query workload (the dashboard pattern: the same range
queried over and over) for every sampler on a small synthetic OSM
substrate and writes ``BENCH_sampling.json`` with samples/sec per
sampler plus the canonical-set cache hit rate.  CI runs this as a
regression tripwire; the numbers are laptop-scale indicators, not the
paper's figures (see ``repro.bench.harness`` for those).

``BASELINE_SAMPLES_PER_SEC`` records the same workload measured at the
same scale *before* the fast path landed (linear cumulative source
scans, no canonical-set cache, per-sample session pulls), so the JSON
always carries the speedup context.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time

from repro.bench.harness import build_osm_dataset, fig3a_query
from repro.core.blocks import RecordBlock
from repro.core.estimators.aggregates import AvgEstimator
from repro.core.records import attribute_getter
from repro.obs import profiled
from repro.storage.json_codec import canonical_json

__all__ = ["run_smoke", "main"]

N = 20_000
K = 256
REPEATS = 40
WARMUP = 3
#: Each sampler is measured PASSES times and the fastest pass is
#: recorded: the workload is ~10ms per pass, so a single scheduler
#: blip or GC pause (GC is paused during the timed loop, but the OS
#: isn't) would otherwise dominate the figure.
PASSES = 3

#: The repeated-query workload measured on this substrate (n=20000,
#: K=256, 40 repeats) before the sampling fast path: O(n) source
#: selection, no canonical-set cache, one-at-a-time session pulls.
BASELINE_SAMPLES_PER_SEC = {
    "query-first": 19_610.6,
    "sample-first": 168_448.9,
    "random-path": 3_217.2,
    "ls-tree": 163_904.8,
    "rs-tree": 48_600.0,
}


def _block_encoding_stats(dataset) -> dict:
    """Bytes-per-point of the columnar block encoding vs JSON documents
    (reported under the ``block_cache`` key of the smoke report)."""
    records = list(dataset.records.values())
    if not records:
        return {}
    payload = RecordBlock.from_records(records).encode()
    json_bytes = sum(len(canonical_json(r.to_document()).encode()) + 1
                     for r in records)
    return {
        "bytes_per_point": round(len(payload) / len(records), 2),
        "json_bytes_per_point": round(json_bytes / len(records), 2),
        "points_per_byte_gain": round(json_bytes / len(payload), 2),
    }


def run_smoke(n: int = N, k: int = K, repeats: int = REPEATS,
              seed: int = 17) -> dict:
    """Measure repeated-query samples/sec per sampler; return the report.

    Each repeat runs the full pipeline the session runs — source
    selection (canonical set, cached across repeats), a batched
    ``draw_batch`` pull, and estimator absorption — with the three
    stages timed separately so a regression localises.  The headline
    ``samples_per_sec`` covers selection + draw (what the old
    ``take``-loop measured); absorb is reported alongside.  Each
    sampler records its best of :data:`PASSES` measurement passes.
    """
    dataset, workload = build_osm_dataset(n=n, seed=seed)
    query = fig3a_query(workload).to_rect(dataset.dims)
    results: dict[str, dict] = {}
    for method, sampler in sorted(dataset.samplers.items()):
        seeds = iter(range(1_000_000))
        for _ in range(WARMUP):
            stream = sampler.sample_stream(
                query, random.Random(next(seeds)))
            sampler.draw_batch(stream, k)
            close = getattr(stream, "close", None)
            if close is not None:
                close()
        tree = getattr(sampler, "tree", None)
        from_canon = getattr(sampler, "sample_stream_from_canon", None)
        split_selection = (tree is not None and from_canon is not None
                           and hasattr(tree, "canonical_set"))
        lookup = dataset.lookup
        hits_before = getattr(tree, "canon_hits", 0)
        misses_before = getattr(tree, "canon_misses", 0)
        best: tuple | None = None
        for _ in range(PASSES):
            estimator = AvgEstimator(attribute_getter("lon"))
            sel_s = draw_s = absorb_s = 0.0
            drawn = 0
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                for _ in range(repeats):
                    rng = random.Random(next(seeds))
                    if split_selection:
                        t0 = time.perf_counter()
                        canon = tree.canonical_set(query, tree.cost)
                        t1 = time.perf_counter()
                        stream = from_canon(canon, rng)
                        batch = sampler.draw_batch(stream, k)
                        t2 = time.perf_counter()
                        sel_s += t1 - t0
                    else:
                        t1 = time.perf_counter()
                        stream = sampler.sample_stream(query, rng)
                        batch = sampler.draw_batch(stream, k)
                        t2 = time.perf_counter()
                    estimator.absorb_entry_batch(batch, lookup)
                    t3 = time.perf_counter()
                    draw_s += t2 - t1
                    absorb_s += t3 - t2
                    drawn += len(batch)
            finally:
                if gc_was_enabled:
                    gc.enable()
            if best is None or drawn / (sel_s + draw_s) > best[0]:
                best = (drawn / (sel_s + draw_s),
                        sel_s, draw_s, absorb_s, drawn)
        assert best is not None
        _, sel_s, draw_s, absorb_s, drawn = best
        elapsed = sel_s + draw_s
        entry: dict[str, object] = {
            "samples_per_sec": round(drawn / elapsed, 1),
            "samples": drawn,
            "seconds": round(elapsed, 4),
            "stages": {
                "selection_seconds": round(sel_s, 4),
                "draw_seconds": round(draw_s, 4),
                "absorb_seconds": round(absorb_s, 4),
            },
        }
        baseline = BASELINE_SAMPLES_PER_SEC.get(method)
        if baseline:
            entry["baseline_samples_per_sec"] = baseline
            entry["speedup_vs_baseline"] = round(
                drawn / elapsed / baseline, 2)
        if tree is not None and hasattr(tree, "canon_hits"):
            hits = tree.canon_hits - hits_before
            misses = tree.canon_misses - misses_before
            lookups = hits + misses
            entry["canonical_cache"] = {
                "hits": hits, "misses": misses,
                "hit_rate": round(hits / lookups, 3) if lookups else 0.0,
            }
        results[method] = entry
    return {
        "workload": {"n": n, "k": k, "repeats": repeats,
                     "passes": PASSES, "seed": seed,
                     "pattern": "repeated-query"},
        "block_cache": _block_encoding_stats(dataset),
        "samplers": results,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="repro.bench.smoke",
        description="Sampling fast-path smoke benchmark.")
    parser.add_argument("out", nargs="?", default="BENCH_sampling.json")
    parser.add_argument("--profile", metavar="FILE",
                        help="sample the run with the wall-clock "
                             "profiler and write collapsed stacks "
                             "(flamegraph format) to FILE")
    parser.add_argument("--profile-hz", type=float, default=199.0,
                        help="profiler sampling rate (default 199)")
    args = parser.parse_args(argv)
    out = args.out
    if args.profile:
        with profiled(args.profile, hz=args.profile_hz) as prof:
            report = run_smoke()
        report["profile"] = prof.summary()
        top = prof.top_frames(1)
        if top:
            print(f"profile: {prof.samples} samples, "
                  f"{len(prof.stacks)} stacks -> {args.profile}; "
                  f"hottest frame {top[0][0]} ({top[0][1]})")
    else:
        report = run_smoke()
    with open(out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    bc = report.get("block_cache") or {}
    if bc:
        print(f"block cache {bc['bytes_per_point']:.1f} B/point "
              f"vs {bc['json_bytes_per_point']:.1f} JSON "
              f"({bc['points_per_byte_gain']:.1f}x denser)")
    width = max(len(m) for m in report["samplers"])
    for method, entry in report["samplers"].items():
        line = (f"{method:<{width}}  "
                f"{entry['samples_per_sec']:>12,.1f} samples/s")
        if "speedup_vs_baseline" in entry:
            line += f"  ({entry['speedup_vs_baseline']:.2f}x baseline)"
        stages = entry.get("stages")
        if stages:
            line += (f"  [sel {stages['selection_seconds']:.3f}s"
                     f" draw {stages['draw_seconds']:.3f}s"
                     f" absorb {stages['absorb_seconds']:.3f}s]")
        cache = entry.get("canonical_cache")
        if cache and cache["hits"] + cache["misses"] > 0:
            line += f"  canon hit_rate={cache['hit_rate']:.1%}"
        print(line)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
