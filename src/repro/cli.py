"""storm-query: a small REPL/one-shot CLI over the demo datasets.

The paper's demo runs queries interactively from a map UI; this is the
terminal equivalent.  It loads one or more synthetic workloads, then
either executes a single query (``--query``) or drops into a REPL::

    storm-query --dataset osm --n 20000
    storm> ESTIMATE AVG(altitude) FROM osm WHERE \
           REGION(-114, 37, -109, 42) WITHIN ERROR 2%
    storm> EXPLAIN ESTIMATE COUNT FROM osm WHERE REGION(-114,37,-109,42)
    storm> EXPLAIN ANALYZE ESTIMATE AVG(altitude) FROM osm \
           WHERE REGION(-114, 37, -109, 42)
    storm> stats

Observability hooks:

* ``--trace FILE`` appends one JSONL record per span (plus a final
  metrics snapshot) for every query executed;
* the ``stats`` subcommand (``storm-query stats --dataset osm ...``)
  loads the datasets with a live registry, optionally runs ``--query``,
  and prints the metrics dashboard;
* in the REPL, ``stats`` prints the dashboard of everything run so far
  and ``EXPLAIN ANALYZE <query>`` runs the query under a trace and
  prints the per-phase cost report;
* ``stats --watch N`` re-renders the dashboard every N seconds;
* the ``serve`` subcommand runs the full multi-tenant query service
  over HTTP — progressive NDJSON streams, named sessions, fair
  scheduling and admission control (see docs/service.md) — and is
  the one process that serves ``/metrics`` (Prometheus text),
  ``/metrics.json`` and ``/health``;
* ``--profile FILE`` runs the sampling profiler and writes collapsed
  stacks (flamegraph format) to FILE on exit.

Durability hooks:

* ``--store-root DIR`` loads datasets from a persisted document store
  (a DFS root directory) instead of generating synthetic ones; WAL
  recovery runs first unless ``--no-wal`` is given, and any replay is
  reported before the prompt appears;
* the ``recover`` subcommand (``storm-query recover --store-root DIR``)
  runs crash recovery on a persisted store — truncates torn WAL tails,
  replays committed-but-unflushed batches, prints the
  :class:`~repro.storage.recovery.RecoveryReport` — and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import sys
import time

from repro.core.engine import StormEngine
from repro.distributed.dataset import DistributedDataset
from repro.errors import StormError
from repro.faults import FaultPlan
from repro.obs import (NULL_OBS, Observability, profiled,
                       render_dashboard, write_jsonl)
from repro.query.executor import QueryExecutor
from repro.storage.dfs import SimulatedDFS
from repro.storage.document_store import DocumentStore
from repro.storage.persistence import load_engine
from repro.storage.recovery import recover_store
from repro.storage.wal import WriteAheadLog
from repro.workloads import (ElectricityWorkload, MesoWestWorkload,
                             OSMWorkload, TwitterWorkload)

__all__ = ["main", "build_engine"]

_WORKLOADS = {
    "osm": lambda n, seed: OSMWorkload(n=n, seed=seed).generate(),
    "tweets": lambda n, seed: TwitterWorkload(n=n, seed=seed).generate(),
    "mesowest": lambda n, seed: MesoWestWorkload(
        stations=max(1, n // 25), measurements_per_station=25,
        seed=seed).generate(),
    "electricity": lambda n, seed: ElectricityWorkload(
        units=max(1, n // 12), readings_per_unit=12,
        seed=seed).generate(),
}


def build_engine(datasets: list[str], n: int, seed: int,
                 obs: Observability | None = None,
                 workers: int = 0, replication: int = 1,
                 faults: "FaultPlan | None" = None) -> StormEngine:
    """Load the named synthetic datasets into a fresh engine.

    ``workers > 0`` shards each dataset across a simulated cluster of
    that many workers (``replication`` copies per shard) instead of
    building a local index; ``faults`` attaches a fault-injection plan
    to every cluster (see :mod:`repro.faults`).
    """
    engine = StormEngine(seed=seed, obs=obs)
    for name in datasets:
        maker = _WORKLOADS.get(name)
        if maker is None:
            raise StormError(
                f"unknown dataset {name!r}; pick from "
                f"{sorted(_WORKLOADS)}")
        records = maker(n, seed)
        if workers > 0:
            engine.register(DistributedDataset(
                name, records, n_workers=workers,
                replication=replication, faults=faults, seed=seed,
                obs=engine.obs))
        else:
            engine.create_dataset(name, records)
    return engine


def main(argv: list[str] | None = None) -> int:
    """storm-query entry point: one-shot --query, REPL, stats, or
    recover."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "recover":
        return _recover_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    stats_mode = bool(argv) and argv[0] == "stats"
    if stats_mode:
        argv = argv[1:]
    parser = argparse.ArgumentParser(
        prog="storm-query",
        description="Run STORM keyword queries on synthetic datasets. "
                    "Use the 'stats' subcommand to print the metrics "
                    "dashboard after loading (and optionally querying).")
    parser.add_argument("--dataset", action="append", default=[],
                        help="dataset(s) to load: osm, tweets, mesowest, "
                             "electricity (repeatable)")
    parser.add_argument("--n", type=int, default=20_000,
                        help="records per dataset (default 20000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--query", help="run one query and exit")
    parser.add_argument("--trace", metavar="FILE",
                        help="append per-query span trees and a metrics "
                             "snapshot to FILE as JSONL")
    parser.add_argument("--workers", type=int, default=0,
                        help="shard each dataset across N simulated "
                             "workers (0 = local index, the default)")
    parser.add_argument("--replication", type=int, default=1,
                        help="copies of each shard when --workers is "
                             "set (failover targets; default 1)")
    parser.add_argument("--fault-plan", metavar="FILE",
                        help="JSON fault-injection plan applied to the "
                             "cluster (see docs/fault_tolerance.md); "
                             "needs --workers")
    parser.add_argument("--store-root", metavar="DIR",
                        help="load datasets from a persisted document "
                             "store at DIR (runs WAL recovery first) "
                             "instead of generating synthetic ones")
    parser.add_argument("--no-wal", dest="wal", action="store_false",
                        help="with --store-root: skip WAL recovery and "
                             "load the last checkpoint as-is")
    parser.add_argument("--wal-segment-bytes", type=int, default=65536,
                        help="WAL segment roll threshold in bytes "
                             "(default 65536)")
    parser.add_argument("--profile", metavar="FILE",
                        help="run the sampling profiler and write "
                             "collapsed stacks (flamegraph format) "
                             "to FILE on exit")
    parser.add_argument("--profile-hz", type=float, default=97.0,
                        help="profiler sampling rate (default 97)")
    parser.add_argument("--watch", type=int, metavar="N",
                        help="stats mode: re-render the dashboard "
                             "every N seconds (live registry)")
    parser.add_argument("--watch-count", type=int, default=0,
                        help="stats --watch: stop after this many "
                             "renders (0 = until interrupted)")
    args = parser.parse_args(argv)
    if args.watch is not None and not stats_mode:
        print("error: --watch is only valid with the stats "
              "subcommand", file=sys.stderr)
        return 1
    if args.watch is not None and args.watch < 1:
        print("error: --watch must be >= 1 second", file=sys.stderr)
        return 1
    if args.store_root and args.dataset:
        print("error: --store-root and --dataset are exclusive",
              file=sys.stderr)
        return 1
    datasets = args.dataset or ["osm"]
    faults = None
    if args.fault_plan:
        if args.workers <= 0:
            print("error: --fault-plan needs --workers",
                  file=sys.stderr)
            return 1
        try:
            faults = FaultPlan.from_json(args.fault_plan)
        except StormError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # Instrumentation is opt-in: only --trace / stats / the profiler
    # pay for it.
    live = bool(args.trace or stats_mode or args.profile)
    obs = Observability() if live else NULL_OBS
    try:
        if args.store_root:
            print(f"loading store at {args.store_root} ...",
                  file=sys.stderr)
            engine = _load_persisted(
                args.store_root, seed=args.seed, obs=obs,
                wal=args.wal,
                wal_segment_bytes=args.wal_segment_bytes)
        else:
            print(f"loading {datasets} with n={args.n} ...",
                  file=sys.stderr)
            engine = build_engine(datasets, args.n, args.seed, obs=obs,
                                  workers=args.workers,
                                  replication=args.replication,
                                  faults=faults)
    except StormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    executor = QueryExecutor(engine, rng=random.Random(args.seed))
    trace_file = None
    if args.trace:
        try:
            trace_file = open(args.trace, "a")
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}",
                  file=sys.stderr)
            return 1
    try:
        with contextlib.ExitStack() as stack:
            if args.profile:
                stack.enter_context(profiled(
                    args.profile, hz=args.profile_hz,
                    registry=obs.registry))
            if stats_mode:
                if args.query:
                    rc = _run_one(executor, args.query, trace_file)
                    if rc != 0:
                        return rc
                if args.watch is not None:
                    return _watch_stats(obs.registry, args.watch,
                                        args.watch_count)
                print(render_dashboard(obs.registry))
                return 0
            if args.query:
                return _run_one(executor, args.query, trace_file)
            print("storm> type a query, 'stats', or 'quit'",
                  file=sys.stderr)
            while True:
                try:
                    line = input("storm> ")
                except EOFError:
                    return 0
                if line.strip().lower() in ("quit", "exit"):
                    return 0
                if not line.strip():
                    continue
                if line.strip().lower() == "stats":
                    print(render_dashboard(executor.obs.registry))
                    continue
                _run_one(executor, line, trace_file)
    finally:
        if trace_file is not None:
            # One closing metrics snapshot summarises the session.
            write_jsonl(trace_file, (), registry=obs.registry)
            trace_file.close()


def _watch_stats(registry, interval: int, count: int) -> int:
    """``stats --watch N``: re-render the dashboard every N seconds
    (``count`` bounds the renders; 0 means until interrupted)."""
    renders = 0
    try:
        while True:
            stamp = time.strftime("%H:%M:%S")
            print(render_dashboard(registry,
                                   title=f"storm metrics @ {stamp}"))
            sys.stdout.flush()
            renders += 1
            if count and renders >= count:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _load_persisted(store_root: str, seed: int, obs: Observability,
                    wal: bool, wal_segment_bytes: int):
    """Open a persisted store (with WAL recovery unless disabled) and
    rebuild the engine from it."""
    dfs = SimulatedDFS(root=store_root,
                       obs=obs if obs.enabled else None)
    store = DocumentStore(dfs)
    log = None
    if wal:
        log = WriteAheadLog(dfs, segment_bytes=wal_segment_bytes,
                            obs=obs if obs.enabled else None)
    engine = load_engine(store, seed=seed, wal=log, obs=obs)
    report = getattr(engine, "last_recovery", None)
    if report is not None and (report.batches_replayed
                               or report.bytes_discarded):
        print(report.render(), file=sys.stderr)
    return engine


def _parse_tokens(pairs: list[str]) -> dict[str, str]:
    """``--token TENANT=TOKEN`` pairs -> token -> tenant map."""
    tokens: dict[str, str] = {}
    for pair in pairs:
        tenant, sep, token = pair.partition("=")
        if not sep or not tenant or not token:
            raise StormError(
                f"--token wants TENANT=TOKEN, got {pair!r}")
        tokens[token] = tenant
    return tokens


def _parse_quotas(pairs: list[str]):
    """``--quota TENANT=STREAMS:SAMPLES:WEIGHT`` pairs (each field
    may be empty to keep the default)."""
    from repro.server import TenantQuota
    quotas = {}
    for pair in pairs:
        tenant, sep, spec = pair.partition("=")
        if not sep or not tenant:
            raise StormError(
                f"--quota wants TENANT=STREAMS:SAMPLES:WEIGHT, "
                f"got {pair!r}")
        parts = (spec.split(":") + ["", "", ""])[:3]
        try:
            quotas[tenant] = TenantQuota(
                max_concurrent_streams=int(parts[0])
                if parts[0] else None,
                max_samples=int(parts[1]) if parts[1] else None,
                weight=float(parts[2]) if parts[2] else 1.0)
        except ValueError as exc:
            raise StormError(f"bad --quota {pair!r}: {exc}")
    return quotas


def _serve_main(argv: list[str]) -> int:
    """``storm-query serve``: run the multi-tenant query service.

    Loads datasets with a live registry and serves the full HTTP API
    (see docs/service.md) until interrupted or ``--duration``.
    """
    from repro.server import QueryService, ServerConfig, StormServer
    parser = argparse.ArgumentParser(
        prog="storm-query serve",
        description="Serve the multi-tenant STORM query service: "
                    "progressive NDJSON query streams with fair "
                    "scheduling, admission control, sessions and "
                    "per-tenant metrics (docs/service.md).")
    parser.add_argument("--dataset", action="append", default=[],
                        help="dataset(s) to load (repeatable; "
                             "default osm)")
    parser.add_argument("--n", type=int, default=20_000,
                        help="records per dataset (default 20000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="shard datasets across N simulated "
                             "workers (0 = local index)")
    parser.add_argument("--replication", type=int, default=1)
    parser.add_argument("--port", type=int, default=9189,
                        help="port to bind (0 = ephemeral; "
                             "default 9189)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--max-streams", type=int, default=8,
                        help="streams scheduled concurrently "
                             "(default 8)")
    parser.add_argument("--queue-depth", type=int, default=16,
                        help="admitted-but-waiting streams beyond "
                             "--max-streams; past this the server "
                             "answers 429 (default 16)")
    parser.add_argument("--quantum", type=int, default=64,
                        help="samples per scheduling quantum "
                             "(default 64)")
    parser.add_argument("--stream-buffer", type=int, default=64,
                        help="frames buffered per attached stream "
                             "before backpressure parks it "
                             "(default 64)")
    parser.add_argument("--drain-seconds", type=float, default=10.0,
                        help="graceful-shutdown drain budget "
                             "(default 10)")
    parser.add_argument("--default-deadline", type=float,
                        help="deadline (seconds) applied to requests "
                             "without an X-Storm-Deadline header "
                             "(default: none)")
    parser.add_argument("--abandon-seconds", type=float, default=30.0,
                        help="reap a stream whose client read "
                             "nothing for this long (0 = never; "
                             "default 30)")
    parser.add_argument("--watchdog-seconds", type=float,
                        default=10.0,
                        help="fail a single scheduler quantum that "
                             "runs this long and recover the engine "
                             "(0 = no watchdog; default 10)")
    parser.add_argument("--journal", metavar="DIR",
                        help="journal detached streams under DIR and "
                             "resume them on restart (default: off)")
    parser.add_argument("--token", action="append", default=[],
                        metavar="TENANT=TOKEN",
                        help="auth token for TENANT (repeatable; "
                             "none = open access)")
    parser.add_argument("--quota", action="append", default=[],
                        metavar="TENANT=STREAMS:SAMPLES:WEIGHT",
                        help="per-tenant quota override; empty "
                             "fields keep defaults (repeatable)")
    parser.add_argument("--fault-plan", metavar="FILE",
                        help="JSON fault plan; rate for op "
                             "'server.quantum' fails scheduler "
                             "quanta (chaos testing)")
    parser.add_argument("--duration", type=float,
                        help="serve for this many seconds then "
                             "drain and exit (default: until "
                             "interrupted)")
    args = parser.parse_args(argv)
    faults = None
    if args.fault_plan:
        try:
            faults = FaultPlan.from_json(args.fault_plan)
        except StormError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    obs = Observability()
    try:
        config = ServerConfig(
            max_streams=args.max_streams,
            queue_depth=args.queue_depth,
            quantum=args.quantum,
            stream_buffer=args.stream_buffer,
            drain_seconds=args.drain_seconds,
            default_deadline=args.default_deadline,
            abandon_seconds=args.abandon_seconds or None,
            watchdog_seconds=args.watchdog_seconds or None,
            journal_dir=args.journal,
            tokens=_parse_tokens(args.token),
            quotas=_parse_quotas(args.quota))
        engine = build_engine(args.dataset or ["osm"], args.n,
                              args.seed, obs=obs,
                              workers=args.workers,
                              replication=args.replication)
        service = QueryService(engine, config, obs=obs,
                               faults=faults, seed=args.seed)
        resumed = service.recover_streams()
        if resumed:
            print(f"resumed {resumed} journaled detached "
                  f"stream(s)", file=sys.stderr)
    except StormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    server = StormServer(service, host=args.host, port=args.port)
    try:
        server.start()
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    mode = "token auth" if config.tokens else "open access"
    print(f"serving {server.url} ({mode}; Ctrl-C drains and stops)",
          file=sys.stderr)
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        drained = server.stop()
        print("drained cleanly" if drained
              else "drain budget exceeded; streams cancelled",
              file=sys.stderr)
    return 0


def _recover_main(argv: list[str]) -> int:
    """``storm-query recover``: run crash recovery on a persisted
    store and print the recovery report."""
    parser = argparse.ArgumentParser(
        prog="storm-query recover",
        description="Recover a persisted STORM store: truncate torn "
                    "WAL tails, replay committed-but-unflushed "
                    "batches onto the last checkpoint, and print the "
                    "recovery report.")
    parser.add_argument("--store-root", metavar="DIR", required=True,
                        help="DFS root directory of the store")
    parser.add_argument("--wal-segment-bytes", type=int, default=65536,
                        help="WAL segment roll threshold in bytes "
                             "(default 65536)")
    parser.add_argument("--no-checkpoint", dest="checkpoint",
                        action="store_false",
                        help="inspect-only: replay in memory but do "
                             "not write the recovery checkpoint")
    args = parser.parse_args(argv)
    try:
        dfs = SimulatedDFS(root=args.store_root)
        store = DocumentStore(dfs)
        wal = WriteAheadLog(dfs,
                            segment_bytes=args.wal_segment_bytes)
        report = recover_store(store, wal,
                               checkpoint=args.checkpoint)
    except StormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.render())
    return 0


def _run_one(executor: QueryExecutor, query: str,
             trace_file=None) -> int:
    try:
        stripped = query.strip()
        if stripped.upper().startswith("EXPLAIN ANALYZE"):
            rest = stripped[len("EXPLAIN ANALYZE"):].strip()
            report = executor.explain_report(
                rest, obs=executor.obs if executor.obs.enabled
                else None)
            print(report)
        else:
            result = executor.execute(query)
            print(result.summary())
    except StormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace_file is not None:
            write_jsonl(trace_file, executor.obs.tracer.drain())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
