"""Chaos harness: liveness + uniformity under injected faults.

``python -m repro.bench.chaos [OUT.json]`` drives the distributed
sampler through escalating per-operation fault rates and through
targeted mid-query crashes, asserting the two properties the
fault-tolerance design promises (``docs/fault_tolerance.md``):

* **liveness** — every session completes: replica failover and
  retry/backoff absorb transient faults, and graceful degradation
  turns a lost shard into reduced ``coverage`` instead of a hang or a
  crash;
* **uniformity** — the surviving merged stream stays uniform: a
  chi-square goodness-of-fit test over many first-k draws must not
  reject at any fault rate (failover re-opens filter already-emitted
  samples, so the conditional stream is still a uniform permutation).

The report lands in ``BENCH_chaos.json`` (CI uploads it as an
artifact).  Scales are smoke-sized: minutes of laptop time, tuned for
a regression tripwire rather than a paper figure.
"""

from __future__ import annotations

import json
import sys

import random

from scipy import stats

from repro.core.geometry import Rect
from repro.core.records import Record
from repro.core.sampling.base import take
from repro.distributed.dist_index import DistributedSTIndex
from repro.distributed.dist_sampler import DistributedSampler
from repro.faults import FaultPlan
from repro.obs import Observability

__all__ = ["run_chaos", "main"]

#: Per-operation error probabilities the sweep escalates through.
FAULT_RATES = (0.0, 0.01, 0.1)
#: Chi-square rejection threshold (0.001 quantile, like the local
#: uniformity suite: false failures stay out, gross bias is caught).
P_THRESHOLD = 1e-3

N_POINTS = 240
N_WORKERS = 4
TRIALS = 400
K = 8


def _chi2_sf(chi2: float, df: int) -> float:
    """Chi-square survival function."""
    return float(stats.chi2.sf(chi2, df=df))


def _grid_records(n: int, seed: int) -> list[Record]:
    """n scattered points with ids 0..n-1 inside a known box."""
    rng = random.Random(seed)
    return [Record(record_id=i,
                   lon=rng.uniform(0.0, 100.0),
                   lat=rng.uniform(0.0, 100.0),
                   t=rng.uniform(0.0, 1000.0))
            for i in range(n)]


def _plan(rate: float, seed: int) -> FaultPlan | None:
    if rate == 0.0:
        return None
    return (FaultPlan(seed=seed)
            .error_rate("worker.range_count", rate)
            .error_rate("worker.open_stream", rate)
            .error_rate("worker.fetch_batch", rate))


def _uniformity_sweep(rates, n: int, workers: int, replication: int,
                      trials: int, k: int, seed: int) -> list[dict]:
    records = _grid_records(n, seed)
    box = Rect((0.0, 0.0, 0.0), (100.0, 100.0, 1000.0))
    out = []
    for rate in rates:
        obs = Observability()
        index = DistributedSTIndex(records, n_workers=workers,
                                   replication=replication, seed=seed,
                                   faults=_plan(rate, seed * 31 + 1))
        sampler = DistributedSampler(index, backoff_seconds=0.001)
        sampler.bind_observability(obs)
        counts: dict[int, int] = {}
        completed = 0
        min_coverage = 1.0
        for trial in range(trials):
            rng = random.Random(seed * 1_000_003 + trial)
            stream = sampler.sample_stream(box, rng)
            drawn = take(stream, k)
            stream.close()
            for entry in drawn:
                counts[entry.item_id] = counts.get(entry.item_id,
                                                   0) + 1
            if len(drawn) == k:
                completed += 1
            min_coverage = min(min_coverage, sampler.coverage)
        total = sum(counts.values())
        expected = total / n
        chi2 = sum((counts.get(i, 0) - expected) ** 2 / expected
                   for i in range(n))
        p_value = _chi2_sf(chi2, df=n - 1)
        reg = obs.registry
        out.append({
            "fault_rate": rate,
            "trials": trials,
            "completed": completed,
            "p_value": p_value,
            "uniform": p_value > P_THRESHOLD,
            "min_coverage": min_coverage,
            "errors": reg.counter("storm.cluster.fault.errors").value,
            "retries": reg.counter(
                "storm.cluster.fault.retries").value,
            "failovers": reg.counter(
                "storm.cluster.fault.failovers").value,
            "degraded": reg.counter(
                "storm.cluster.fault.degraded").value,
        })
    return out


def _crash_scenario(replication: int, n: int, workers: int,
                    seed: int) -> dict:
    """Crash one worker mid-stream; report completion + coverage."""
    records = _grid_records(n, seed)
    box = Rect((0.0, 0.0, 0.0), (100.0, 100.0, 1000.0))
    index = DistributedSTIndex(records, n_workers=workers,
                               replication=replication, seed=seed,
                               faults=FaultPlan(seed=seed))
    # Small batches so shards are never fully buffered before the
    # crash — the coordinator must go back to the dead worker.
    sampler = DistributedSampler(index, batch_size=8,
                                 max_batch_size=16,
                                 backoff_seconds=0.001)
    rng = random.Random(seed)
    stream = sampler.sample_stream(box, rng)
    seen = [e.item_id for e in take(stream, n // 8)]
    index.cluster.crash_worker(1)
    seen.extend(e.item_id for e in stream)
    return {
        "replication": replication,
        "emitted": len(seen),
        "distinct": len(set(seen)),
        "population": n,
        "coverage": sampler.coverage,
        "failovers": sampler.last_faults.get("failovers", 0),
        "leaked_streams": sum(w.open_stream_count()
                              for w in index.cluster.workers),
    }


def run_chaos(n: int = N_POINTS, workers: int = N_WORKERS,
              replication: int = 2, trials: int = TRIALS, k: int = K,
              rates=FAULT_RATES, seed: int = 17) -> dict:
    """The full chaos report: fault-rate sweep + crash scenarios."""
    sweep = _uniformity_sweep(rates, n, workers, replication, trials,
                              k, seed)
    crash_replicated = _crash_scenario(2, n, workers, seed)
    crash_bare = _crash_scenario(1, n, workers, seed)
    ok = all(row["completed"] == row["trials"] and row["uniform"]
             for row in sweep)
    # With a replica the crash must be invisible to the result...
    ok = ok and crash_replicated["distinct"] == n \
        and crash_replicated["coverage"] == 1.0 \
        and crash_replicated["leaked_streams"] == 0
    # ...without one it must degrade, not fail.
    ok = ok and crash_bare["coverage"] < 1.0 \
        and crash_bare["leaked_streams"] == 0
    return {
        "benchmark": "chaos",
        "n": n, "workers": workers, "replication": replication,
        "trials": trials, "k": k,
        "fault_rate_sweep": sweep,
        "crash_with_replica": crash_replicated,
        "crash_without_replica": crash_bare,
        "ok": ok,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI: run the harness, print a summary, write the JSON report."""
    args = sys.argv[1:] if argv is None else argv
    out_path = args[0] if args else "BENCH_chaos.json"
    report = run_chaos()
    for row in report["fault_rate_sweep"]:
        print(f"rate={row['fault_rate']:<5} completed="
              f"{row['completed']}/{row['trials']} "
              f"p={row['p_value']:.4f} retries={row['retries']} "
              f"failovers={row['failovers']} "
              f"degraded={row['degraded']}")
    for key in ("crash_with_replica", "crash_without_replica"):
        row = report[key]
        print(f"{key}: emitted={row['emitted']} "
              f"distinct={row['distinct']}/{row['population']} "
              f"coverage={row['coverage']:.2f} "
              f"failovers={row['failovers']}")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
