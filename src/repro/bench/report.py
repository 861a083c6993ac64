"""The bench report: one layout for every ``repro.bench`` smoke.

``python -m repro.bench NAME [OUT] [--profile FILE]`` runs one smoke
(:data:`SMOKES`), prints its metrics and checks, writes the report to
``OUT`` (default ``BENCH_<NAME>.json``) and exits non-zero when any
check is false.  Every smoke returns the same layout::

    {"bench": NAME,
     "metrics": {name: {"value": v, "unit": u, "better": "higher"|"lower"}},
     "checks": {name: bool},
     "detail": {...}}

``metrics`` are the figures ``tools/check_bench.py`` compares against
the committed baseline, in the direction ``better`` names (the same
``unit``/``better`` vocabulary as ``BENCHMARK.json``); ``checks`` are
correctness conditions that must hold exactly; ``detail`` is free-form
context the gate never reads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from repro.obs import profiled

__all__ = ["SMOKES", "metric", "report", "percentile", "main"]

#: Smoke name -> (module, runner).  Each runner takes no arguments
#: and returns a :func:`report`.
SMOKES = {
    "sampling": ("repro.bench.smoke", "run_smoke"),
    "chaos": ("repro.bench.chaos", "run_chaos"),
    "recovery": ("repro.bench.recovery", "run_recovery_chaos"),
    "updates": ("repro.bench.updates", "run_updates_bench"),
    "server": ("repro.bench.server", "run_server_bench"),
    "server_chaos": ("repro.bench.server_chaos", "run_server_chaos"),
}

PROFILE_HZ = 199.0


def metric(value: float, unit: str, better: str) -> dict:
    """One gated figure; ``better`` is ``"higher"`` or ``"lower"``."""
    return {"value": value, "unit": unit, "better": better}


def report(bench: str, metrics: dict, checks: dict,
           detail: dict) -> dict:
    """The report layout every smoke returns."""
    return {"bench": bench, "metrics": metrics,
            "checks": {name: bool(ok) for name, ok in checks.items()},
            "detail": detail}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       round(q * (len(ordered) - 1)))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one bench smoke and write its report.")
    parser.add_argument("name", choices=sorted(SMOKES))
    parser.add_argument("out", nargs="?",
                        help="report path (default BENCH_<name>.json)")
    parser.add_argument("--profile", metavar="FILE",
                        help="sample the run with the wall-clock "
                             "profiler and write collapsed stacks "
                             "(flamegraph format) to FILE")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    module, runner = SMOKES[args.name]
    run = getattr(importlib.import_module(module), runner)
    if args.profile:
        with profiled(args.profile, hz=PROFILE_HZ) as prof:
            doc = run()
        doc["detail"]["profile"] = prof.summary()
    else:
        doc = run()
    for name, entry in doc["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']} "
              f"({entry['better']} is better)")
    for name, ok in doc["checks"].items():
        print(f"{name}: {'ok' if ok else 'FAIL'}")
    out = args.out or f"BENCH_{args.name}.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return 0 if all(doc["checks"].values()) else 1
