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


SAMPLING_DOC = {"samplers": {"rs-tree": {"samples_per_sec": 1000.0},
                             "query-first": {"samples_per_sec": 800.0}}}


class TestCheckBench:
    def test_passes_when_at_baseline(self, tmp_path, capsys):
        fresh = _write(tmp_path / "fresh.json", SAMPLING_DOC)
        base = _write(tmp_path / "base.json", SAMPLING_DOC)
        assert check_bench.main([fresh, "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out
        assert "gate passed" in out

    def test_improvement_never_fails(self, tmp_path):
        better = {"samplers": {
            "rs-tree": {"samples_per_sec": 9999.0}}}
        fresh = _write(tmp_path / "fresh.json", better)
        base = _write(tmp_path / "base.json", SAMPLING_DOC)
        assert check_bench.main([fresh, "--baseline", base]) == 0

    def test_regression_past_tolerance_fails(self, tmp_path, capsys):
        slow = {"samplers": {
            "rs-tree": {"samples_per_sec": 100.0},
            "query-first": {"samples_per_sec": 790.0}}}
        fresh = _write(tmp_path / "fresh.json", slow)
        base = _write(tmp_path / "base.json", SAMPLING_DOC)
        assert check_bench.main(
            [fresh, "--baseline", base, "--tolerance", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "rs-tree" in err and "regressed" in err
        # query-first only dropped ~1%: inside the band.
        assert "query-first" not in err

    def test_correctness_flags_have_no_tolerance(self, tmp_path,
                                                 capsys):
        # A recovery bench that got *faster* but recovered the wrong
        # state must still fail.
        doc = {"ok": False,
               "scenarios": [
                   {"scenario": "torn_tail", "ok": True},
                   {"scenario": "kill_mid_checkpoint", "ok": False}],
               "replay": {"ops_per_second": 1e9}}
        base = dict(doc, ok=True)
        fresh = _write(tmp_path / "fresh.json", doc)
        baseline = _write(tmp_path / "base.json", base)
        rc = check_bench.main([fresh, "--baseline", baseline])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ok is false" in err
        assert "kill_mid_checkpoint" in err
        assert "torn_tail" not in err

    def test_missing_baseline_skips_gate(self, tmp_path, capsys):
        fresh = _write(tmp_path / "fresh.json", SAMPLING_DOC)
        rc = check_bench.main(
            [fresh, "--baseline", str(tmp_path / "nope.json")])
        assert rc == 0
        assert "skipping throughput gate" in capsys.readouterr().out

    def test_unreadable_fresh_file_fails(self, tmp_path):
        assert check_bench.main([str(tmp_path / "missing.json")]) == 1

    def test_bad_tolerance_rejected(self, tmp_path):
        fresh = _write(tmp_path / "fresh.json", SAMPLING_DOC)
        with pytest.raises(SystemExit):
            check_bench.main([fresh, "--tolerance", "1.5"])

    def test_baseline_with_multiple_files_rejected(self, tmp_path):
        fresh = _write(tmp_path / "fresh.json", SAMPLING_DOC)
        with pytest.raises(SystemExit):
            check_bench.main([fresh, fresh, "--baseline", fresh])

    def test_committed_baselines_pass_for_committed_files(self):
        # The real gate, exactly as `make check-bench` runs it: the
        # committed files compared against themselves via git show.
        repo = TOOLS.parent
        sampling = repo / "BENCH_sampling.json"
        recovery = repo / "BENCH_recovery.json"
        if not (sampling.exists() and recovery.exists()):
            pytest.skip("no committed bench files")
        import os
        cwd = os.getcwd()
        os.chdir(repo)
        try:
            rc = check_bench.main(["BENCH_sampling.json",
                                   "BENCH_recovery.json"])
        finally:
            os.chdir(cwd)
        assert rc == 0


INGEST_DOC = {"ok": True,
              "ingest": {"inserts_per_sec": 50_000.0,
                         "speedup_vs_per_record": 12.0,
                         "query_p99_seconds": 0.005}}


class TestCheckBenchIngest:
    """Gating of the updates bench: ingest.* metrics and the
    lower-is-better latency direction."""

    def test_ingest_metrics_extracted(self):
        metrics = check_bench._metrics(INGEST_DOC)
        assert metrics == {"ingest.inserts_per_sec": 50_000.0,
                           "ingest.speedup_vs_per_record": 12.0,
                           "ingest.query_p99_seconds": 0.005}

    def test_throughput_drop_fails(self, tmp_path, capsys):
        slow = {"ok": True,
                "ingest": dict(INGEST_DOC["ingest"],
                               inserts_per_sec=1_000.0)}
        fresh = _write(tmp_path / "fresh.json", slow)
        base = _write(tmp_path / "base.json", INGEST_DOC)
        assert check_bench.main([fresh, "--baseline", base]) == 1
        assert "inserts_per_sec" in capsys.readouterr().err

    def test_p99_latency_gates_upward(self, tmp_path, capsys):
        # Ten times the baseline p99 is a regression even though the
        # raw number "went up" — *_seconds metrics invert direction.
        slow = {"ok": True,
                "ingest": dict(INGEST_DOC["ingest"],
                               query_p99_seconds=0.05)}
        fresh = _write(tmp_path / "fresh.json", slow)
        base = _write(tmp_path / "base.json", INGEST_DOC)
        assert check_bench.main([fresh, "--baseline", base]) == 1
        assert "query_p99_seconds" in capsys.readouterr().err

    def test_p99_inside_ceiling_passes(self, tmp_path):
        near = {"ok": True,
                "ingest": dict(INGEST_DOC["ingest"],
                               query_p99_seconds=0.0051)}
        fresh = _write(tmp_path / "fresh.json", near)
        base = _write(tmp_path / "base.json", INGEST_DOC)
        assert check_bench.main([fresh, "--baseline", base]) == 0

    def test_ok_false_fails_even_without_baseline(self, tmp_path):
        # Correctness is gated unconditionally — "record, don't gate"
        # applies only to throughput comparisons.
        bad = dict(INGEST_DOC, ok=False)
        fresh = _write(tmp_path / "fresh.json", bad)
        rc = check_bench.main(
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
        assert check_bench.main([fresh]) == 0
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
