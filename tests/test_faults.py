"""Fault-injection layer: plans, DFS failover, worker gating, timeouts.

Covers the deterministic fault model itself (logical clock, seeded
coins, serialisation), the DFS replica-walk semantics (who gets
charged, which counters move, when BlockReadError fires), the
coprime placement stride, NetworkModel timeouts and the crash/recover
life cycle of workers.  The end-to-end sampling behavior under faults
lives in test_chaos.py.
"""

import json

import pytest

from repro.core.geometry import Rect
from repro.core.records import Record
from repro.distributed.cluster import NetworkModel, SimulatedCluster
from repro.errors import (BlockReadError, ClusterError, FaultError,
                          NetworkTimeoutError, StorageError, StormError,
                          StreamLostError, WorkerUnavailableError,
                          WriteCrashError)
from repro.faults import CrashWindow, FaultPlan
from repro.obs import Observability
from repro.storage.dfs import SimulatedDFS

BOUNDS = Rect((0, 0, 0), (100, 100, 100))


def records(n, seed=0):
    import random
    rng = random.Random(seed)
    return [Record(record_id=i, lon=rng.uniform(0, 100),
                   lat=rng.uniform(0, 100), t=rng.uniform(0, 100))
            for i in range(n)]


class TestFaultPlan:
    def test_crash_window_schedule_follows_logical_clock(self):
        plan = FaultPlan().crash("worker:1", at=2, until=4)
        assert not plan.is_down("worker:1")  # tick 0
        plan.tick()
        assert not plan.is_down("worker:1")  # tick 1
        plan.tick()
        assert plan.is_down("worker:1")      # tick 2: window opens
        plan.tick()
        assert plan.is_down("worker:1")      # tick 3
        plan.tick()
        assert not plan.is_down("worker:1")  # tick 4: recovered

    def test_permanent_crash_never_recovers(self):
        plan = FaultPlan().crash("worker:0", at=0)
        for _ in range(100):
            plan.tick()
        assert plan.is_down("worker:0")

    def test_windows_validate(self):
        with pytest.raises(StormError):
            FaultPlan().crash("worker:0", at=-1)
        with pytest.raises(StormError):
            FaultPlan().crash("worker:0", at=5, until=5)
        assert not CrashWindow(3).covers(2)
        assert CrashWindow(3).covers(3)

    def test_error_coins_are_seeded_and_deterministic(self):
        a = FaultPlan(seed=42).error_rate("dfs.read", 0.5)
        b = FaultPlan(seed=42).error_rate("dfs.read", 0.5)
        outcomes_a = [a.should_fail("dfs.read") for _ in range(64)]
        outcomes_b = [b.should_fail("dfs.read") for _ in range(64)]
        assert outcomes_a == outcomes_b
        assert any(outcomes_a) and not all(outcomes_a)

    def test_zero_rate_never_consumes_randomness(self):
        plan = FaultPlan(seed=7).error_rate("dfs.read", 1.0)
        # Ops without a rate must not perturb the seeded sequence.
        for _ in range(10):
            assert not plan.should_fail("worker.fetch_batch")
        assert plan.should_fail("dfs.read")

    def test_rate_resolution_exact_beats_prefix_beats_star(self):
        plan = (FaultPlan().error_rate("*", 0.1)
                .error_rate("worker.*", 0.2)
                .error_rate("worker.fetch_batch", 0.3))
        assert plan.rate_for("worker.fetch_batch") == 0.3
        assert plan.rate_for("worker.open_stream") == 0.2
        assert plan.rate_for("dfs.read") == 0.1
        with pytest.raises(StormError):
            plan.error_rate("dfs.read", 1.5)

    def test_slow_nodes_validate_and_default(self):
        plan = FaultPlan().slow("worker:2", 4.0)
        assert plan.latency_multiplier("worker:2") == 4.0
        assert plan.latency_multiplier("worker:0") == 1.0
        with pytest.raises(StormError):
            plan.slow("worker:0", 0.5)

    def test_round_trips_through_dict_and_json(self, tmp_path):
        plan = (FaultPlan(seed=9)
                .crash("worker:1", at=5, until=10)
                .crash("machine:0", at=0)
                .error_rate("dfs.read", 0.25)
                .slow("worker:3", 2.0))
        spec = plan.to_dict()
        clone = FaultPlan.from_dict(spec)
        assert clone.to_dict() == spec
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(spec))
        loaded = FaultPlan.from_json(str(path))
        assert loaded.to_dict() == spec

    def test_from_json_rejects_garbage(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(StormError):
            FaultPlan.from_json(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(StormError):
            FaultPlan.from_json(str(bad))


class TestFaultErrorHierarchy:
    def test_fault_errors_keep_subsystem_handlers_working(self):
        assert issubclass(BlockReadError, FaultError)
        assert issubclass(BlockReadError, StorageError)
        assert issubclass(WorkerUnavailableError, ClusterError)
        assert issubclass(StreamLostError, ClusterError)
        assert issubclass(NetworkTimeoutError, ClusterError)
        assert issubclass(FaultError, StormError)


class TestDFSFailover:
    def make_dfs(self, **kwargs):
        kwargs.setdefault("machines", 4)
        kwargs.setdefault("replication", 2)
        kwargs.setdefault("block_size", 64)
        dfs = SimulatedDFS(**kwargs)
        dfs.write_file("f", bytes(range(256)))
        return dfs

    def test_no_plan_reads_primary_only(self):
        dfs = self.make_dfs()
        dfs.reset_stats()
        assert dfs.read_file("f") == bytes(range(256))
        assert dfs.failover.attempts == 0
        assert dfs.failover.reads == 0

    def test_down_machine_fails_over_without_charging_it(self):
        dfs = self.make_dfs()
        meta = dfs._files["f"]
        primary = meta.placement[0][0]
        replica = meta.placement[0][1]
        dfs.reset_stats()
        dfs.set_fault_plan(FaultPlan().crash(f"machine:{primary}",
                                             at=0))
        dfs.read_block("f", 0)
        assert dfs.failover.attempts == 1
        assert dfs.failover.reads == 1
        # The dead machine served nothing and must not be charged.
        assert dfs.stats[primary].blocks_read == 0
        assert dfs.stats[replica].blocks_read == 1

    def test_injected_read_error_still_charges_the_live_machine(self):
        dfs = self.make_dfs()
        meta = dfs._files["f"]
        primary = meta.placement[0][0]
        dfs.reset_stats()
        # rate 1.0 on the first coin only: fail primary, let the
        # replica through by dropping the rate after one read.
        plan = FaultPlan(seed=1).error_rate("dfs.read", 1.0)
        dfs.set_fault_plan(plan)
        with pytest.raises(BlockReadError):
            dfs.read_block("f", 0)
        # Every replica was attempted, and each live attempt charged
        # the machine that did the (wasted) device read.
        assert dfs.failover.attempts == 2
        assert dfs.failover.exhausted == 1
        assert dfs.stats[primary].blocks_read == 1

    def test_exhausted_replicas_raise_block_read_error(self):
        dfs = self.make_dfs()
        plan = FaultPlan()
        for m in range(4):
            plan.crash(f"machine:{m}", at=0)
        dfs.set_fault_plan(plan)
        with pytest.raises(StorageError):  # BlockReadError is one
            dfs.read_file("f")
        assert dfs.failover.exhausted >= 1

    def test_failover_counters_flow_to_registry(self):
        obs = Observability()
        dfs = SimulatedDFS(machines=4, replication=2, block_size=64,
                           obs=obs)
        dfs.write_file("f", bytes(128))
        primary = dfs._files["f"].placement[0][0]
        dfs.set_fault_plan(FaultPlan().crash(f"machine:{primary}",
                                             at=0))
        dfs.read_block("f", 0)
        reg = obs.registry
        assert reg.counter("storm.dfs.failover.attempts").value == 1
        assert reg.counter("storm.dfs.failover.reads").value == 1

    def test_reset_stats_clears_failover_tallies(self):
        dfs = self.make_dfs()
        dfs.set_fault_plan(
            FaultPlan().crash("machine:0", at=0))
        dfs.read_file("f")
        assert dfs.failover.attempts >= 0
        dfs.reset_stats()
        assert dfs.failover.as_dict() == {
            "attempts": 0, "reads": 0, "exhausted": 0}


class TestPlacementStride:
    def test_stride_is_coprime_and_at_least_replication(self):
        for machines in range(1, 24):
            for replication in range(1, min(machines, 5) + 1):
                stride = SimulatedDFS._placement_stride(machines,
                                                        replication)
                if machines == 1:
                    assert stride == 1
                    continue
                import math
                assert math.gcd(stride, machines) == 1

    def test_primaries_stay_balanced(self):
        dfs = SimulatedDFS(machines=4, replication=2, block_size=64)
        for i in range(16):
            dfs.write_file(f"f{i}", bytes(64))
        primaries = [dfs._files[f"f{i}"].placement[0][0]
                     for i in range(16)]
        counts = {m: primaries.count(m) for m in range(4)}
        assert set(counts.values()) == {4}

    def test_one_crash_degrades_scattered_blocks_not_a_run(self):
        # With the old stride of 1, blocks b and b+1 shared a replica
        # window member; the coprime stride >= replication spreads the
        # windows so consecutive blocks never share any machine.
        dfs = SimulatedDFS(machines=5, replication=2, block_size=16)
        dfs.write_file("f", bytes(16 * 10))
        placement = dfs._files["f"].placement
        for a, b in zip(placement, placement[1:]):
            assert not set(a) & set(b)


class TestNetworkTimeouts:
    def test_check_raises_past_the_deadline(self):
        model = NetworkModel(latency_seconds=1e-3,
                             timeout_seconds=1.5e-3)
        assert model.check(1, 0) > 0
        with pytest.raises(NetworkTimeoutError):
            model.check(2, 0)

    def test_slow_node_multiplier_is_what_times_out(self):
        model = NetworkModel(latency_seconds=1e-3,
                             timeout_seconds=5e-3)
        cluster = SimulatedCluster(2, BOUNDS, network=model)
        cluster.set_fault_plan(FaultPlan().slow("worker:1", 10.0))
        cluster.charge_network(1, 0, node="worker:0")  # fine
        with pytest.raises(NetworkTimeoutError):
            cluster.charge_network(1, 0, node="worker:1")
        # Tallied either way: the bytes were put on the wire.
        assert cluster.network.messages == 2


class TestWorkerFaults:
    def make_cluster(self, n=2, faults=None):
        cluster = SimulatedCluster(n, BOUNDS, faults=faults)
        cluster.workers[0].load(records(40, seed=1))
        return cluster

    def test_crash_makes_gated_ops_fail_then_recover(self):
        cluster = self.make_cluster()
        w = cluster.workers[0]
        box = Rect((0, 0, 0), (100, 100, 100))
        assert w.range_count(box) == 40
        cluster.crash_worker(0)
        with pytest.raises(WorkerUnavailableError):
            w.range_count(box)
        cluster.recover_worker(0)
        assert w.range_count(box) == 40
        assert [x.worker_id for x in cluster.live_workers()] == [0, 1]

    def test_crash_loses_stream_handles(self):
        cluster = self.make_cluster()
        w = cluster.workers[0]
        box = Rect((0, 0, 0), (100, 100, 100))
        handle = w.open_stream(box, seed=3)
        assert w.fetch_batch(handle, 4)
        cluster.crash_worker(0)
        cluster.recover_worker(0)
        assert w.open_stream_count() == 0
        with pytest.raises(StreamLostError):
            w.fetch_batch(handle, 4)

    def test_plan_crash_window_drops_streams_on_observation(self):
        plan = FaultPlan().crash("worker:0", at=2)
        cluster = self.make_cluster(faults=plan)
        w = cluster.workers[0]
        box = Rect((0, 0, 0), (100, 100, 100))
        handle = w.open_stream(box, seed=3)  # tick 1
        with pytest.raises(WorkerUnavailableError):
            w.fetch_batch(handle, 4)         # tick 2: window opens
        assert w.open_stream_count() == 0

    def test_injected_error_is_transient_state_survives(self):
        plan = FaultPlan(seed=5).error_rate("worker.fetch_batch", 1.0)
        cluster = self.make_cluster(faults=plan)
        w = cluster.workers[0]
        box = Rect((0, 0, 0), (100, 100, 100))
        handle = w.open_stream(box, seed=3)
        with pytest.raises(WorkerUnavailableError):
            w.fetch_batch(handle, 4)
        plan.error_rate("worker.fetch_batch", 0.0)
        assert len(w.fetch_batch(handle, 4)) == 4  # handle survived

    def test_replica_hosting_serves_counts_and_lookups(self):
        cluster = self.make_cluster()
        shard = records(40, seed=1)
        cluster.workers[1].host_replica(0, shard)
        box = Rect((0, 0, 0), (100, 100, 100))
        assert cluster.workers[1].has_replica(0)
        assert cluster.workers[1].replica_range_count(0, box) == 40
        assert cluster.workers[1].replica_record(0, shard[0].record_id) \
            == shard[0]
        assert cluster.workers[1].replica_record(0, 10**9) is None
        with pytest.raises(ClusterError):
            cluster.workers[1].host_replica(1, shard)

    def test_replica_reads_charge_the_hosting_worker(self):
        cluster = self.make_cluster()
        host = cluster.workers[1]
        host.host_replica(0, records(40, seed=1))
        before = host.cost.snapshot()
        box = Rect((0, 0, 0), (100, 100, 100))
        host.replica_range_count(0, box)
        assert host.cost.delta_from(before).node_reads > 0


class TestWriteFaults:
    def test_validation(self):
        plan = FaultPlan(seed=1)
        with pytest.raises(StormError):
            plan.crash_write("wal/", nth=0)
        with pytest.raises(StormError):
            plan.torn_write("wal/", keep_fraction=1.5)
        with pytest.raises(StormError):
            plan.torn_write("wal/", nth=-1)

    def test_countdown_consumes_only_first_match(self):
        plan = (FaultPlan(seed=1).crash_write("wal/", nth=2))
        assert plan.take_write_fault("store/x") is None
        assert plan.take_write_fault("wal/a") is None  # 1st of 2
        fault = plan.take_write_fault("wal/b")
        assert fault is not None and fault.keep_fraction is None
        # One-shot: the spec is consumed.
        assert plan.take_write_fault("wal/c") is None

    def test_stacked_faults_fire_in_configuration_order(self):
        plan = (FaultPlan(seed=1)
                .crash_write("wal/", nth=1)
                .torn_write("wal/", nth=1, keep_fraction=0.5))
        first = plan.take_write_fault("wal/a")
        second = plan.take_write_fault("wal/b")
        assert first.keep_fraction is None
        assert second.keep_fraction == 0.5

    def test_round_trips_through_dict(self):
        plan = (FaultPlan(seed=4)
                .crash_write("wal/", nth=3)
                .torn_write("store/", nth=1, keep_fraction=0.25))
        spec = plan.to_dict()
        assert spec["write_faults"] == [
            {"match": "wal/", "nth": 3, "keep_fraction": None},
            {"match": "store/", "nth": 1, "keep_fraction": 0.25}]
        assert FaultPlan.from_dict(spec).to_dict() == spec

    def test_crash_write_lands_no_bytes(self):
        dfs = SimulatedDFS()
        dfs.write_file("wal/seg", b"committed")
        dfs.set_fault_plan(FaultPlan(seed=1).crash_write("wal/"))
        with pytest.raises(WriteCrashError):
            dfs.write_file("wal/seg", b"committedMORE")
        assert dfs.read_file("wal/seg") == b"committed"

    def test_torn_write_keeps_a_prefix_of_new_bytes(self):
        dfs = SimulatedDFS()
        dfs.set_fault_plan(
            FaultPlan(seed=1).torn_write("f", keep_fraction=0.5))
        with pytest.raises(WriteCrashError):
            dfs.write_file("f", b"0123456789")
        assert dfs.read_file("f") == b"01234"

    def test_torn_append_never_tears_committed_bytes(self):
        """An append that tears loses only a suffix of the *new*
        bytes — everything previously committed survives."""
        dfs = SimulatedDFS()
        dfs.append_file("wal/seg", b"OLDBYTES")
        dfs.set_fault_plan(
            FaultPlan(seed=1).torn_write("wal/", keep_fraction=0.5))
        with pytest.raises(WriteCrashError):
            dfs.append_file("wal/seg", b"newnewnew")
        data = dfs.read_file("wal/seg")
        assert data.startswith(b"OLDBYTES")
        assert len(data) < len(b"OLDBYTESnewnewnew")

    def test_rename_is_not_fault_gated(self):
        dfs = SimulatedDFS()
        dfs.write_file("store/a.tmp", b"new")
        dfs.set_fault_plan(FaultPlan(seed=1).crash_write("store/"))
        dfs.rename_file("store/a.tmp", "store/a")  # must not raise
        assert dfs.read_file("store/a") == b"new"

    def test_write_crash_counter_flows_to_registry(self):
        obs = Observability()
        dfs = SimulatedDFS(obs=obs)
        dfs.set_fault_plan(FaultPlan(seed=1).crash_write("wal/"))
        with pytest.raises(WriteCrashError):
            dfs.write_file("wal/seg", b"x")
        registry = obs.registry
        assert registry.counter("storm.dfs.write_crashes").value == 1

    def test_write_crash_error_is_both_hierarchies(self):
        assert issubclass(WriteCrashError, FaultError)
        assert issubclass(WriteCrashError, StorageError)
