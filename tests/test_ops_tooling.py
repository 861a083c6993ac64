"""Operational tooling: the bench regression gate and the CLI
telemetry surface (stats, stats --watch, --profile, serve)."""

import importlib.util
import json
import pathlib

import pytest

from repro.cli import main

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

_spec = importlib.util.spec_from_file_location(
    "check_bench", TOOLS / "check_bench.py")
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _doc(metrics=None, checks=None, better="higher", unit="1/s"):
    """A bench report in the one layout ``repro.bench.report`` writes;
    ``metrics`` maps name -> value, all in the ``better`` direction."""
    return {"bench": "test",
            "metrics": {name: {"value": value, "unit": unit,
                               "better": better}
                        for name, value in (metrics or {}).items()},
            "checks": dict(checks or {}), "detail": {}}


SAMPLING_DOC = _doc({"samplers.rs-tree.samples_per_sec": 1000.0,
                     "samplers.query-first.samples_per_sec": 800.0})


class TestCheckBench:
    def test_passes_when_at_baseline(self, tmp_path, capsys):
        fresh = _write(tmp_path / "fresh.json", SAMPLING_DOC)
        base = _write(tmp_path / "base.json", SAMPLING_DOC)
        assert check_bench.gate([fresh, "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out
        assert "gate passed" in out

    def test_improvement_never_fails(self, tmp_path):
        better = _doc({"samplers.rs-tree.samples_per_sec": 9999.0,
                       "samplers.query-first.samples_per_sec": 800.0})
        fresh = _write(tmp_path / "fresh.json", better)
        base = _write(tmp_path / "base.json", SAMPLING_DOC)
        assert check_bench.gate([fresh, "--baseline", base]) == 0

    def test_regression_past_tolerance_fails(self, tmp_path, capsys):
        slow = _doc({"samplers.rs-tree.samples_per_sec": 100.0,
                     "samplers.query-first.samples_per_sec": 790.0})
        fresh = _write(tmp_path / "fresh.json", slow)
        base = _write(tmp_path / "base.json", SAMPLING_DOC)
        assert check_bench.gate(
            [fresh, "--baseline", base, "--tolerance", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "rs-tree" in err and "regressed" in err
        # query-first only dropped ~1%: inside the band.
        assert "query-first" not in err

    def test_correctness_flags_have_no_tolerance(self, tmp_path,
                                                 capsys):
        # A recovery bench that got *faster* but recovered the wrong
        # state must still fail.
        checks = {"scenarios.torn_tail.ok": True,
                  "scenarios.kill_mid_checkpoint.ok": False}
        doc = _doc({"replay.ops_per_second": 1e9}, checks)
        base = _doc({"replay.ops_per_second": 1e3},
                    dict(checks, **{"scenarios.kill_mid_checkpoint.ok":
                                    True}))
        fresh = _write(tmp_path / "fresh.json", doc)
        baseline = _write(tmp_path / "base.json", base)
        rc = check_bench.gate([fresh, "--baseline", baseline])
        assert rc == 1
        err = capsys.readouterr().err
        assert "kill_mid_checkpoint.ok is false" in err
        assert "torn_tail" not in err

    def test_missing_baseline_skips_gate(self, tmp_path, capsys):
        fresh = _write(tmp_path / "fresh.json", SAMPLING_DOC)
        rc = check_bench.gate(
            [fresh, "--baseline", str(tmp_path / "nope.json")])
        assert rc == 0
        assert "skipping throughput gate" in capsys.readouterr().out

    def test_unreadable_fresh_file_fails(self, tmp_path):
        assert check_bench.gate([str(tmp_path / "missing.json")]) == 1

    def test_bad_tolerance_rejected(self, tmp_path):
        fresh = _write(tmp_path / "fresh.json", SAMPLING_DOC)
        with pytest.raises(SystemExit):
            check_bench.gate([fresh, "--tolerance", "1.5"])

    def test_baseline_with_multiple_files_rejected(self, tmp_path):
        fresh = _write(tmp_path / "fresh.json", SAMPLING_DOC)
        with pytest.raises(SystemExit):
            check_bench.gate([fresh, fresh, "--baseline", fresh])

    def test_metric_missing_from_fresh_report_fails(self, tmp_path,
                                                    capsys):
        # A smoke that stops reporting a gated figure (or a check)
        # must not slip past the gate by omission.
        base = _doc({"samplers.rs-tree.samples_per_sec": 1000.0},
                    {"drained": True})
        fresh = _write(tmp_path / "fresh.json", _doc())
        baseline = _write(tmp_path / "base.json", base)
        assert check_bench.gate([fresh, "--baseline", baseline]) == 1
        err = capsys.readouterr().err
        assert "samplers.rs-tree.samples_per_sec is missing" in err
        assert "check drained is missing" in err

    def test_old_layout_is_unreadable(self, tmp_path, capsys):
        old = {"samplers": {"rs-tree": {"samples_per_sec": 1000.0}}}
        fresh = _write(tmp_path / "fresh.json", old)
        assert check_bench.gate([fresh]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_committed_baselines_pass_for_committed_files(self):
        # The real gate, exactly as `make check-bench` runs it: every
        # committed file compared against itself via git show.
        repo = TOOLS.parent
        files = sorted(p.name for p in repo.glob("BENCH_*.json"))
        if not files:
            pytest.skip("no committed bench files")
        import os
        cwd = os.getcwd()
        os.chdir(repo)
        try:
            rc = check_bench.gate(files)
        finally:
            os.chdir(cwd)
        assert rc == 0


INGEST_DOC = _doc(
    {"ingest.inserts_per_sec": 50_000.0,
     "ingest.speedup_vs_per_record": 12.0},
    {"speedup_meets_target": True})
INGEST_DOC["metrics"]["ingest.query_p99_seconds"] = {
    "value": 0.005, "unit": "s", "better": "lower"}


def _ingest(**values):
    """INGEST_DOC with some metric values replaced."""
    doc = json.loads(json.dumps(INGEST_DOC))
    for name, value in values.items():
        doc["metrics"][f"ingest.{name}"]["value"] = value
    return doc


class TestCheckBenchIngest:
    """Gating of the updates bench: ingest.* metrics and the
    lower-is-better latency direction."""

    def test_ingest_metrics_extracted(self):
        metrics = check_bench._metrics(INGEST_DOC)
        assert metrics == {
            "ingest.inserts_per_sec": (50_000.0, "higher"),
            "ingest.speedup_vs_per_record": (12.0, "higher"),
            "ingest.query_p99_seconds": (0.005, "lower")}

    def test_throughput_drop_fails(self, tmp_path, capsys):
        fresh = _write(tmp_path / "fresh.json",
                       _ingest(inserts_per_sec=1_000.0))
        base = _write(tmp_path / "base.json", INGEST_DOC)
        assert check_bench.gate([fresh, "--baseline", base]) == 1
        assert "inserts_per_sec" in capsys.readouterr().err

    def test_p99_latency_gates_upward(self, tmp_path, capsys):
        # Ten times the baseline p99 is a regression even though the
        # raw number "went up" — better="lower" inverts direction.
        fresh = _write(tmp_path / "fresh.json",
                       _ingest(query_p99_seconds=0.05))
        base = _write(tmp_path / "base.json", INGEST_DOC)
        assert check_bench.gate([fresh, "--baseline", base]) == 1
        assert "query_p99_seconds" in capsys.readouterr().err

    def test_p99_inside_ceiling_passes(self, tmp_path):
        fresh = _write(tmp_path / "fresh.json",
                       _ingest(query_p99_seconds=0.0051))
        base = _write(tmp_path / "base.json", INGEST_DOC)
        assert check_bench.gate([fresh, "--baseline", base]) == 0

    def test_ok_false_fails_even_without_baseline(self, tmp_path):
        # Correctness is gated unconditionally — "record, don't gate"
        # applies only to throughput comparisons.
        bad = _ingest()
        bad["checks"]["speedup_meets_target"] = False
        fresh = _write(tmp_path / "fresh.json", bad)
        rc = check_bench.gate(
            [fresh, "--baseline", str(tmp_path / "absent.json")])
        assert rc == 1

    def test_missing_git_binary_skips_gate(self, tmp_path, capsys,
                                           monkeypatch):
        # No git in PATH (bare CI containers) must behave exactly
        # like a baseline absent from HEAD: record, don't gate.
        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(check_bench.subprocess, "run", no_git,
                            raising=True)
        fresh = _write(tmp_path / "fresh.json", INGEST_DOC)
        assert check_bench.gate([fresh]) == 0
        assert "skipping throughput gate" in capsys.readouterr().out


QUERY = ("ESTIMATE COUNT FROM osm "
         "WHERE REGION(-125, 25, -65, 50)")


class TestCLITelemetry:
    def test_stats_watch_renders_and_exits(self, capsys):
        rc = main(["stats", "--dataset", "osm", "--n", "300",
                   "--query", QUERY,
                   "--watch", "1", "--watch-count", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "storm metrics @ " in out
        assert "storm.query.latency_seconds" in out

    def test_watch_requires_stats_mode(self, capsys):
        rc = main(["--dataset", "osm", "--n", "100", "--watch", "2"])
        assert rc == 1
        assert "--watch" in capsys.readouterr().err

    def test_watch_rejects_zero_interval(self, capsys):
        rc = main(["stats", "--n", "100", "--watch", "0"])
        assert rc == 1

    def test_profile_writes_collapsed_stacks(self, tmp_path, capsys):
        out = tmp_path / "cli.collapsed"
        rc = main(["--dataset", "osm", "--n", "5000",
                   "--profile", str(out), "--profile-hz", "500",
                   "--query", QUERY])
        assert rc == 0
        assert out.exists()
        # Every line is "frame;frame;... count"; with any luck the
        # run was long enough to catch at least one sample, but an
        # empty file is legal on a fast machine — only the format is
        # asserted.
        for line in out.read_text().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert stack

    def test_serve_duration_exits(self, capsys):
        rc = main(["serve", "--dataset", "osm", "--n", "200",
                   "--port", "0", "--duration", "0.05"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "serving http://127.0.0.1:" in err
        assert "drained cleanly" in err
