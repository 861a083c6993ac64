#!/usr/bin/env python
"""Bench regression gate: fresh bench JSON vs the committed baseline.

``make smoke-NAME`` (and CI) produce a fresh ``BENCH_<NAME>.json`` in
the one report layout (``repro.bench.report``).  This script compares
every figure under ``metrics`` against the committed baseline, in the
direction its ``better`` names, and fails the build when any regressed
past a tolerance band.  Every entry under ``checks`` must be true — a
wrong recovery is a failure at any speed — and a metric or check the
baseline has but the fresh report lacks is a failure too.

Baselines come from ``git show HEAD:<file>`` by default (the committed
state of the working tree, which is what a CI checkout has), or from
``--baseline PATH`` for testing and local comparisons.

Throughput on shared CI runners is noisy, so the default tolerance is
wide (a fresh run may be 50% below baseline before the gate trips) —
the gate exists to catch order-of-magnitude regressions (an
accidentally-disabled cache, a quadratic loop), not 5% jitter.  Checks
that a metric *improved* never fail.

Usage::

    python tools/check_bench.py BENCH_sampling.json
    python tools/check_bench.py BENCH_*.json
    python tools/check_bench.py fresh.json --baseline old.json \
        --tolerance 0.3
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

DEFAULT_TOLERANCE = 0.5


class BaselineUnavailable(Exception):
    """The baseline could not be loaded (not fatal: gate is skipped)."""


def load_baseline(path: str, baseline_path: "str | None") -> dict:
    """The baseline document: an explicit file, or HEAD's copy."""
    if baseline_path is not None:
        try:
            with open(baseline_path) as f:
                return json.load(f)
        except (OSError, ValueError) as exc:
            raise BaselineUnavailable(
                f"cannot read baseline {baseline_path}: {exc}")
    try:
        proc = subprocess.run(["git", "show", f"HEAD:{path}"],
                              capture_output=True, text=True)
    except OSError as exc:
        # No git binary (bare containers) must mean "record, don't
        # gate", exactly like a file absent from HEAD — not a build
        # failure.
        raise BaselineUnavailable(f"cannot invoke git: {exc}")
    if proc.returncode != 0:
        raise BaselineUnavailable(
            f"no committed baseline for {path} "
            f"({proc.stderr.strip() or 'git show failed'})")
    try:
        return json.loads(proc.stdout)
    except ValueError as exc:
        raise BaselineUnavailable(
            f"committed {path} is not valid JSON: {exc}")


def _metrics(doc: dict) -> dict[str, tuple[float, str]]:
    """``name -> (value, better)`` for every gated figure of a report
    (the layout ``repro.bench.report`` writes)."""
    out: dict[str, tuple[float, str]] = {}
    for name, entry in doc["metrics"].items():
        value, better = entry["value"], entry["better"]
        if not isinstance(value, (int, float)) or \
                better not in ("higher", "lower"):
            raise ValueError(f"malformed metric {name}: {entry!r}")
        out[name] = (value, better)
    return out


def check_file(path: str, baseline_path: "str | None",
               tolerance: float) -> list[str]:
    """Compare one fresh bench file; returns failure messages."""
    with open(path) as f:
        fresh = json.load(f)
    failures = [f"{path}: {name} is false "
                f"(correctness gate, no tolerance)"
                for name, ok in sorted(fresh["checks"].items())
                if not ok]
    fresh_metrics = _metrics(fresh)
    try:
        baseline = load_baseline(path, baseline_path)
    except BaselineUnavailable as exc:
        print(f"note: {exc}; skipping throughput gate for {path}")
        return failures
    failures.extend(
        f"{path}: check {name} is missing from the fresh report"
        for name in sorted(baseline["checks"])
        if name not in fresh["checks"])
    for name, (base, better) in sorted(_metrics(baseline).items()):
        if name not in fresh_metrics:
            failures.append(f"{path}: metric {name} is missing from "
                            f"the fresh report")
            continue
        if base <= 0:
            continue
        value = fresh_metrics[name][0]
        if better == "lower":
            # Wider headroom upward: 1/(1-tol) mirrors the throughput
            # floor, so p99 gating trips at the same relative slowdown.
            bound, kind = base / (1.0 - tolerance), "ceiling"
            regressed = value > bound
        else:
            bound, kind = base * (1.0 - tolerance), "floor"
            regressed = value < bound
        print(f"{path}: {name}  fresh={value:.6g}  baseline={base:.6g}"
              f"  {kind}={bound:.6g}  [{'FAIL' if regressed else 'ok'}]")
        if regressed:
            failures.append(
                f"{path}: {name} regressed: {value:.6g} past the "
                f"{kind} {bound:.6g} (baseline {base:.6g}, "
                f"tolerance {tolerance:.0%})")
    return failures


def gate(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_bench",
        description="Fail when fresh bench results regressed past a "
                    "tolerance band vs the committed baselines.")
    parser.add_argument("files", nargs="+",
                        help="fresh bench JSON file(s) to check")
    parser.add_argument("--baseline", metavar="PATH",
                        help="compare against this file instead of "
                             "HEAD's copy (single-file runs only)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional drop below baseline "
                             f"(default {DEFAULT_TOLERANCE})")
    args = parser.parse_args(argv)
    if args.baseline is not None and len(args.files) != 1:
        parser.error("--baseline only applies to a single file")
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")
    failures: list[str] = []
    for path in args.files:
        try:
            failures.extend(check_file(path, args.baseline,
                                       args.tolerance))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"{path}: unreadable: {exc!r}")
    if failures:
        print("bench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(gate())
