"""Tests for the storm-query CLI and the bench harness module."""

import pytest

from repro.bench.harness import (Fig3aRunner, Fig3bRunner,
                                 build_osm_dataset, fig3a_query)
from repro.cli import build_engine, main
from repro.errors import StormError


class TestCLI:
    def test_build_engine_defaults(self):
        engine = build_engine(["osm"], n=500, seed=1)
        assert len(engine.dataset("osm")) == 500

    def test_build_engine_unknown_dataset(self):
        with pytest.raises(StormError):
            build_engine(["mystery"], n=10, seed=1)

    def test_one_shot_query(self, capsys):
        rc = main(["--dataset", "osm", "--n", "800", "--query",
                   "ESTIMATE COUNT FROM osm "
                   "WHERE REGION(-125, 25, -65, 50)"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "value=800" in out

    def test_one_shot_bad_query(self, capsys):
        rc = main(["--dataset", "osm", "--n", "200", "--query",
                   "SELECT * FROM osm"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_query(self, capsys):
        rc = main(["--n", "500", "--query",
                   "EXPLAIN ESTIMATE AVG(altitude) FROM osm "
                   "WHERE REGION(-110, 30, -90, 45)"])
        assert rc == 0
        assert "chosen" in capsys.readouterr().out

    def test_multiple_datasets(self):
        engine = build_engine(["osm", "electricity"], n=600, seed=2)
        assert set(engine.datasets) == {"osm", "electricity"}

    def test_repl_loop(self, capsys, monkeypatch):
        lines = iter([
            "",                                     # blank: ignored
            "ESTIMATE COUNT FROM osm "
            "WHERE REGION(-125, 25, -65, 50)",
            "NOT A QUERY",                          # error, keeps going
            "quit",
        ])
        monkeypatch.setattr("builtins.input",
                            lambda prompt="": next(lines))
        rc = main(["--dataset", "osm", "--n", "300"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "value=300" in captured.out
        assert "error:" in captured.err

    def test_repl_eof_exits(self, capsys, monkeypatch):
        def raise_eof(prompt=""):
            raise EOFError
        monkeypatch.setattr("builtins.input", raise_eof)
        assert main(["--dataset", "osm", "--n", "100"]) == 0


class TestBenchHarness:
    @pytest.fixture(scope="class")
    def substrate(self):
        return build_osm_dataset(n=4000, seed=17)

    def test_fig3a_runner_rows(self, substrate):
        dataset, workload = substrate
        runner = Fig3aRunner(dataset, workload,
                             fractions=(0.01, 0.05),
                             methods=("rs-tree", "query-first"))
        result = runner.run()
        assert len(result.rows) == 4
        assert set(result.series) == {"rs-tree", "query-first"}
        table = result.table()
        assert "rs-tree" in table and "k/q" in table
        chart = result.chart(log_y=True)
        assert "log10" in chart

    def test_fig3a_run_one_draws_k(self, substrate):
        dataset, workload = substrate
        runner = Fig3aRunner(dataset, workload)
        wall, simulated, reads = runner.run_one("ls-tree", 50)
        assert wall > 0 and simulated > 0 and reads > 0

    def test_fig3b_runner(self, substrate):
        dataset, workload = substrate
        runner = Fig3bRunner(dataset, workload, max_samples=512)
        result = runner.run()
        assert set(result.series) == {"rs-tree", "ls-tree"}
        for method, points in result.series.items():
            assert len(points) >= 8
            errors = [err for _, err in points]
            half = len(errors) // 2
            # Error trends down: the late half averages below the early
            # half (individual reports are noisy by construction).
            assert sum(errors[half:]) / (len(errors) - half) \
                <= sum(errors[:half]) / half

    def test_fig3a_query_selectivity(self, substrate):
        dataset, workload = substrate
        rect = fig3a_query(workload, selectivity=0.4).to_rect(2)
        q = dataset.tree.range_count(rect)
        assert 0.1 * len(dataset) < q < 0.9 * len(dataset)

    def test_figures_cli(self, capsys):
        from repro.bench.figures import main as bench_main
        rc = bench_main(["fig3a", "--n", "3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out
        assert "ls-tree" in out

    def test_buffer_ablation_runner(self, substrate):
        from repro.bench.harness import BufferAblationRunner
        dataset, workload = substrate
        result = BufferAblationRunner(dataset, workload,
                                      sizes=(8, 64), k=128).run()
        assert len(result.rows) == 2
        reads = {row[0]: row[1] for row in result.rows}
        assert reads[64] <= reads[8]

    def test_scaling_runner(self, substrate):
        from repro.bench.harness import ScalingRunner
        dataset, workload = substrate
        result = ScalingRunner(dataset, workload, workers=(1, 4),
                               k=128).run()
        times = {row[0]: row[1] for row in result.rows}
        assert times[4] < times[1]

    def test_bench_cli_all_subcommands(self, capsys):
        from repro.bench.figures import main as bench_main
        rc = bench_main(["buffer", "--n", "2000"])
        assert rc == 0
        assert "buffer ablation" in capsys.readouterr().out
        rc = bench_main(["scaling", "--n", "2000"])
        assert rc == 0
        assert "scaling" in capsys.readouterr().out


class TestRecoverCLI:
    def make_store(self, tmp_path, with_unflushed_batch=True):
        """A persisted store at a real root, crashed pre-flush."""
        import random

        from repro.core.engine import StormEngine
        from repro.core.records import Record
        from repro.storage.dfs import SimulatedDFS
        from repro.storage.document_store import DocumentStore
        from repro.storage.persistence import (DATASET_PREFIX,
                                               save_engine)
        from repro.storage.wal import WriteAheadLog
        from repro.updates.manager import UpdateBatch, UpdateManager

        root = str(tmp_path / "dfs")
        rng = random.Random(3)
        records = [Record(i, lon=rng.uniform(0, 100),
                          lat=rng.uniform(0, 100),
                          t=rng.uniform(0, 100),
                          attrs={"v": 1.0})
                   for i in range(150)]
        dfs = SimulatedDFS(root=root)
        store = DocumentStore(dfs)
        wal = WriteAheadLog(dfs)
        engine = StormEngine(seed=5)
        engine.create_dataset("alpha", records, build_ls=False)
        save_engine(engine, store, wal=wal)
        if with_unflushed_batch:
            manager = UpdateManager(
                engine.dataset("alpha"), store=store,
                collection=DATASET_PREFIX + "alpha", wal=wal)
            manager.apply(UpdateBatch(deletes=[0], inserts=[
                Record(9_000, lon=1.0, lat=1.0, attrs={"v": 2.0})]))
            # No flush: the batch is committed only in the WAL.
        return root

    def test_recover_subcommand_replays_and_reports(self, tmp_path,
                                                    capsys):
        root = self.make_store(tmp_path)
        assert main(["recover", "--store-root", root]) == 0
        out = capsys.readouterr().out
        assert "recovery:" in out
        assert "batches replayed   1" in out
        # Recovery checkpointed: a second run has nothing to do.
        assert main(["recover", "--store-root", root]) == 0
        out = capsys.readouterr().out
        assert "batches replayed   0" in out

    def test_recover_no_checkpoint_leaves_work(self, tmp_path,
                                               capsys):
        root = self.make_store(tmp_path)
        rc = main(["recover", "--store-root", root,
                   "--no-checkpoint"])
        assert rc == 0
        assert "batches replayed   1" in capsys.readouterr().out
        main(["recover", "--store-root", root, "--no-checkpoint"])
        assert "batches replayed   1" in capsys.readouterr().out

    def test_store_root_load_recovers_then_queries(self, tmp_path,
                                                   capsys):
        root = self.make_store(tmp_path)
        rc = main(["--store-root", root, "--query",
                   "ESTIMATE COUNT FROM alpha "
                   "WHERE REGION(0, 0, 100, 100)"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "recovery:" in captured.err
        assert "150" in captured.out  # -1 delete +1 insert

    def test_store_root_no_wal_skips_recovery(self, tmp_path,
                                              capsys):
        root = self.make_store(tmp_path)
        rc = main(["--store-root", root, "--no-wal", "--query",
                   "ESTIMATE COUNT FROM alpha "
                   "WHERE REGION(0, 0, 100, 100)"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "recovery:" not in captured.err

    def test_store_root_and_dataset_are_exclusive(self, tmp_path,
                                                  capsys):
        rc = main(["--store-root", str(tmp_path), "--dataset", "osm"])
        assert rc == 1
        assert "exclusive" in capsys.readouterr().err


class TestRecoveryBench:
    def test_recovery_chaos_smoke(self, tmp_path, capsys):
        import json

        from repro.bench.report import main as bench_main
        out = tmp_path / "BENCH_recovery.json"
        assert bench_main(["recovery", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["bench"] == "recovery"
        assert report["checks"] == {
            "scenarios.pre-wal-append.ok": True,
            "scenarios.post-append-pre-flush.ok": True,
            "scenarios.mid-checkpoint.ok": True,
            "scenarios.torn-final-segment.ok": True,
            "replay.ok": True}
        for scenario in report["detail"]["scenarios"]:
            assert scenario["state_matches"] is True
        ops = report["metrics"]["replay.ops_per_second"]
        assert ops["value"] > 0 and ops["better"] == "higher"
        assert "replay.ops_per_second" in capsys.readouterr().out
