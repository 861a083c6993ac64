"""LSM-style tiered ingest path over the WAL.

STORM's "management" story is sustained heavy ingest (the live Twitter
and MesoWest firehoses) concurrent with online sampling.  Inserting
records one-by-one into the R-tree bumps its structural version on
every record, which nukes the canonical-set cache and invalidates
in-flight sample streams — exactly what a firehose workload thrashes.
This module layers a tiered, log-structured index on top of the PR 5
durability stack, adapting the hybrid tiered design of "A hybrid index
model for efficient spatio-temporal search in HBase" to sampling:

**Memtable** — new records land in a small in-memory dict and an
insertion-order log.  No tree mutation, no version bump: an insert is
one dict put and one list append.  A query packs only the log rows
added since the previous query into a coordinate column and filters
the column in one numpy pass.

**Sealed runs** — a full memtable is *sealed* into an immutable run
and flushed to the DFS with the temp-write + ``rename_file`` commit
primitive.  A run is flat, like the memtable: a query scans it with
one vectorised pass over a packed column block.  A ``MANIFEST.json``
(also committed by rename) names the live runs, the persisted
tombstones and the WAL LSN from which replay must resume.

**Compaction** — sealed runs and tombstones fold into the main tree in
one atomic swap (a single columnar bulk load = one version bump for
thousands of records; the dataset keeps no LS forest under an LSM, so
that is the only index rebuilt), the manifest empties, and — via the
update manager's checkpoint — covered WAL segments are pruned.

**Snapshots** — a sample stream pins the tiers it opened with: the
main tree's canonical set with its tombstone mask, and one list of the
live in-range entries of the memtable and every sealed run
(:class:`~repro.core.sampling.tiered.TieredSampler` builds these).
Because a compaction *replaces* the main tree's node graph rather than
mutating it, pinned snapshots survive both sealing and compaction:
concurrent ingest never invalidates an in-flight stream, and the
canonical-set cache stays hot between compactions.

Deletes are routed by residence tier: a memtable-resident record is
removed in place; a run- or main-resident record gets a *tombstone*
tagged with the tier that holds the dead copy.  A snapshot leaves
masked run copies out of its flat list, and the main-tier stream
filters drawn entries against the main tombstones, which keeps the
merged stream exactly uniform over the live set (rejecting a fixed
subset of a uniform without-replacement stream is itself uniform
without replacement over the remainder).  Main-tier victims are also
kept as an id set and an append-only key list, so a snapshot copies
the set and counts the in-rect dead copies with one numpy pass instead
of visiting every tombstone.

Crash recovery (:meth:`LSMTree.open` on a recovered store) rebuilds
runs from the manifest, replays committed WAL batches **into the
memtable** (not the main tree), and bulk-loads the main tree from the
remaining live records — see ``docs/architecture.md`` ("Tiered ingest
& snapshots") for the torn-state analysis at each crash point.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.blocks import (ColumnBlock, RecordBlock, box_mask,
                               is_block_payload)
from repro.core.records import Record
from repro.errors import StorageError
from repro.index.rtree import Entry
from repro.storage.json_codec import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import Dataset
    from repro.core.geometry import Rect
    from repro.storage.dfs import SimulatedDFS
    from repro.storage.wal import WriteAheadLog

__all__ = ["Memtable", "SealedRun", "LSMTree", "LSM_PREFIX",
           "MAIN_TIER"]

LSM_PREFIX = "lsm/"

#: Tombstone victim tag for the main tree (runs use their integer id).
MAIN_TIER = "main"


class _PointColumn:
    """An append-only column of points for one-pass rect filters.

    The points live in a ``(dims, capacity)`` float64 array that
    doubles when full, so extending it by ``k`` points costs ``O(k)``
    amortised, and :meth:`indices_in` is one numpy pass per axis.
    """

    __slots__ = ("_data", "rows")

    def __init__(self, dims: int):
        self._data = np.empty((dims, 64))
        #: Points stored so far.
        self.rows = 0

    def extend(self, points: list) -> None:
        """Append ``points`` (equal-length coordinate sequences)."""
        rows = self.rows
        need = rows + len(points)
        data = self._data
        if need > data.shape[1]:
            grown = np.empty((len(data), max(need, 2 * data.shape[1])))
            grown[:, :rows] = data[:, :rows]
            self._data = data = grown
        data[:, rows:need] = np.asarray(points, dtype=np.float64).T
        self.rows = need

    def indices_in(self, lo: Sequence[float], hi: Sequence[float]
                   ) -> list[int]:
        """Ascending positions of the points inside the closed box."""
        return np.flatnonzero(
            box_mask(self._data[:, :self.rows], lo, hi)).tolist()

    def count_in(self, lo: Sequence[float], hi: Sequence[float]) -> int:
        """Number of points inside the closed box ``[lo, hi]``."""
        return int(np.count_nonzero(
            box_mask(self._data[:, :self.rows], lo, hi)))


class Memtable:
    """In-memory ingest buffer: an insertion-order dict plus a log.

    An insert is one dict put and one list append.  The log keeps
    every inserted record in insertion order, removed ones included;
    :meth:`in_range` packs only the rows appended since the previous
    read into a coordinate column and filters the whole column in one
    numpy pass, so a read costs the new rows plus the hits, not one
    Python containment test per row.  A removed row stays in the log
    until the memtable is cleared or its removed rows outnumber its
    live ones; a read drops every row that is no longer the live record
    of its id.  Hilbert ordering is deferred to the seal, whose bulk
    load batch-encodes and sorts the whole buffer at once.
    """

    __slots__ = ("records", "_dims", "_log", "_removed", "_column")

    def __init__(self, dims: int):
        self.records: dict[int, Record] = {}
        self._dims = dims
        self._restart_log()

    def _restart_log(self) -> None:
        """Start the log (and its column) over from the live records."""
        self._log: list[Record] = list(self.records.values())
        #: Rows of ``_log`` whose record was removed since.
        self._removed = 0
        self._column = _PointColumn(self._dims)

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self.records

    def insert(self, record: Record) -> None:
        if record.record_id in self.records:
            raise StorageError(
                f"record {record.record_id} already in memtable")
        self.records[record.record_id] = record
        self._log.append(record)

    def remove(self, record_id: int) -> Record | None:
        record = self.records.pop(record_id, None)
        if record is not None:
            self._removed += 1
            if self._removed > len(self.records):
                self._restart_log()
        return record

    def in_range(self, rect: "Rect") -> list[Entry]:
        """Entries of the live memtable records inside the closed
        rect, in insertion order (the dict order of ``records``)."""
        dims = self._dims
        log = self._log
        column = self._column
        if column.rows < len(log):
            column.extend([r.key(dims) for r in log[column.rows:]])
        rows = [log[i] for i in column.indices_in(rect.lo, rect.hi)]
        if self._removed:
            live = self.records
            rows = [r for r in rows if live.get(r.record_id) is r]
            # A record removed and re-inserted as the same object has
            # two rows; keep the later one, where ``records`` has it.
            rows = list({r.record_id: r
                         for r in reversed(rows)}.values())[::-1]
        return [Entry(r.record_id, r.key(dims)) for r in rows]

    def clear(self) -> None:
        self.records.clear()
        self._restart_log()


class SealedRun:
    """An immutable sealed memtable, scanned flat like the memtable.

    Runs never change after sealing; a tombstone tagged with this
    run's id masks a dead copy inside it until compaction retires the
    whole run.

    The packed ``(id, key)`` column block that :meth:`in_range` scans
    is built on the first read, not at seal time: sealing is on the
    ingest hot path, and many runs are compacted before any query
    touches them.
    """

    __slots__ = ("run_id", "records", "file", "_dims", "_entries",
                 "_block")

    def __init__(self, run_id: int, records: Iterable[Record], dims: int,
                 file: str | None = None):
        self.run_id = run_id
        self.records: dict[int, Record] = {
            r.record_id: r for r in records}
        self._dims = dims
        self._entries: list[Entry] | None = None
        self._block: ColumnBlock | None = None
        self.file = file

    def in_range(self, rect: "Rect") -> list[Entry]:
        """Entries inside the closed rect, including tombstone-masked
        ones (the snapshot drops those)."""
        if self._block is None:
            dims = self._dims
            self._entries = [Entry(rid, r.key(dims))
                             for rid, r in self.records.items()]
            self._block = ColumnBlock.from_entries(self._entries, dims)
        entries = self._entries
        return [entries[i]
                for i in self._block.indices_in(rect.lo, rect.hi)]

    def __len__(self) -> int:
        return len(self.records)

    def to_payload(self) -> bytes:
        """Serialised run file contents (columnar block wire format).

        One :class:`~repro.core.blocks.RecordBlock` per run: packed
        id/lon/lat/t columns plus the JSON attrs side-table, ~5-10x
        denser than the per-record JSON documents it replaced.
        Restores accept only this format (see
        ``LSMTree._restore_runs``).
        """
        block = RecordBlock.from_records(
            self.records[rid] for rid in sorted(self.records))
        return block.encode(meta={"run_id": self.run_id})


class LSMTree:
    """Coordinator of the tiered ingest path for one dataset.

    Attach with :meth:`LSMTree.open`; afterwards the dataset routes
    ``insert``/``delete`` here instead of mutating the main tree, and
    ``Dataset.plan`` answers every default query with the snapshot-
    pinned :class:`~repro.core.sampling.tiered.TieredSampler`.

    Parameters
    ----------
    dataset:
        The owning :class:`~repro.core.engine.Dataset`.
    dfs / prefix:
        Where runs and the manifest persist (``None`` keeps the tiers
        purely in memory — placement is then reconstructed from the
        WAL alone after a crash).
    wal:
        The write-ahead log whose LSNs stamp the manifest.  The LSM
        never appends to it — the update manager's batch append is
        still the single commit point.
    memtable_limit:
        Seal threshold: an insert that fills the memtable to this size
        seals it into a run.
    compact_after_runs:
        ``should_compact()`` turns true once this many sealed runs
        accumulate (the update manager checkpoints, then compacts).
    """

    def __init__(self, dataset: "Dataset",
                 dfs: "SimulatedDFS | None" = None,
                 wal: "WriteAheadLog | None" = None,
                 prefix: str = LSM_PREFIX,
                 memtable_limit: int = 1024,
                 compact_after_runs: int = 4):
        if memtable_limit < 1:
            raise StorageError("memtable_limit must be >= 1")
        if compact_after_runs < 1:
            raise StorageError("compact_after_runs must be >= 1")
        if not prefix:
            raise StorageError("LSM prefix cannot be empty")
        self.dataset = dataset
        self.dfs = dfs
        self.wal = wal
        self.prefix = prefix
        self.memtable_limit = memtable_limit
        self.compact_after_runs = compact_after_runs
        self.obs = dataset.obs
        self.memtable = Memtable(dataset.dims)
        self.runs: list[SealedRun] = []
        #: record id -> run id holding its live copy.
        self._run_of: dict[int, int] = {}
        #: record id -> {tier: key of the dead copy it masks}.  Tiers
        #: are :data:`MAIN_TIER` or an integer run id.
        self.tombstones: dict[int, dict[object, tuple]] = {}
        self._reset_main_dead()
        self._next_run_id = 1
        #: LSN of the last fully applied batch (the update manager
        #: advances it); seals stamp it into the manifest so replay
        #: never splits a batch between a run and the memtable.
        self.applied_lsn = 0
        #: Manifest replay origin: WAL batches with LSN above this are
        #: replayed into the memtable on recovery.
        self.replay_lsn = 0
        self.seals = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # attach / recover
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, dataset: "Dataset",
             dfs: "SimulatedDFS | None" = None,
             wal: "WriteAheadLog | None" = None,
             prefix: str = LSM_PREFIX, **kwargs) -> "LSMTree":
        """Attach a tiered ingest path to a dataset, recovering tiers.

        On a fresh dataset this is a cheap attach.  On a restart after
        a crash (the dataset rebuilt from a recovered document store)
        it is the LSM half of recovery: load the manifest, rebuild the
        sealed runs from their files, replay committed WAL batches
        above the manifest's replay LSN **into the memtable**, carve
        the run- and memtable-resident records out of the main tree
        with one bulk load, and sweep orphan files from interrupted
        seals.  Every crash point of seal/flush/compact lands in a
        state this procedure repairs (see the crash-matrix suite).

        The dataset's LS forest is dropped first, so neither that
        bulk load nor any later compaction rebuilds it.
        """
        lsm = cls(dataset, dfs=dfs, wal=wal, prefix=prefix, **kwargs)
        dataset._drop_forest()
        manifest = lsm._load_manifest()
        if manifest is not None:
            lsm._restore_runs(manifest)
            if wal is not None:
                lsm._replay_wal_tail()
        elif wal is not None:
            # No manifest: nothing ever reached an LSM tier, so every
            # committed WAL record is already applied conventionally
            # (the dataset's own bulk load covers it).  Replaying the
            # log into the memtable would double-place those records.
            lsm.replay_lsn = lsm.applied_lsn = wal.last_lsn
        if lsm.runs or lsm.memtable.records:
            lsm._rebuild_main_tier()
        lsm._sweep_orphans(manifest)
        dataset.attach_lsm(lsm)
        lsm._publish_gauges()
        return lsm

    def _manifest_name(self) -> str:
        return self.prefix + "MANIFEST.json"

    def _run_file_name(self, run_id: int) -> str:
        return f"{self.prefix}run-{run_id:08d}.run"

    def _load_manifest(self) -> dict | None:
        if self.dfs is None or not self.dfs.exists(self._manifest_name()):
            return None
        try:
            manifest = json.loads(self.dfs.read_file(
                self._manifest_name()))
        except ValueError as exc:
            raise StorageError(f"corrupt LSM manifest: {exc}")
        self.replay_lsn = int(manifest.get("replay_lsn", 0))
        self.applied_lsn = self.replay_lsn
        self._next_run_id = int(manifest.get("next_run_id", 1))
        return manifest

    def _restore_runs(self, manifest: dict) -> None:
        """Rebuild sealed runs and their tombstones from the manifest.

        Tombstones whose victim is the main tree are dropped: the main
        tier is rebuilt from the live document set, so the dead copies
        they masked no longer exist.  Run-victim tombstones survive —
        run files still physically hold the dead copies.
        """
        assert self.dfs is not None
        for spec in manifest.get("runs", []):
            name = spec["file"]
            if not self.dfs.exists(name):
                # Crash between manifest write and run rename cannot
                # happen (the run renames first); a missing file means
                # external damage — fail loudly rather than under-count.
                raise StorageError(f"manifest names missing run {name!r}")
            data = self.dfs.read_file(name)
            if not is_block_payload(data):
                raise StorageError(
                    f"run file {name!r} is not a columnar block payload")
            block, meta = RecordBlock.decode(data)
            records = list(block.records())
            registry = self.obs.registry
            if registry.enabled:
                registry.counter("storm.blocks.decoded").inc()
            run = SealedRun(int(meta["run_id"]), records,
                            self.dataset.dims, file=name)
            self.runs.append(run)
        live_runs = {run.run_id for run in self.runs}
        for spec in manifest.get("tombstones", []):
            rid = int(spec["id"])
            for tier_name, key in spec["victims"].items():
                if tier_name == MAIN_TIER:
                    continue
                tier = int(tier_name)
                if tier not in live_runs:
                    continue
                self.tombstones.setdefault(rid, {})[tier] = tuple(key)
        # The recovered document store is the authority on liveness:
        # recovery replays every committed batch into it, and its own
        # re-checkpoint may prune the WAL segments carrying deletes
        # whose run-victim tombstones were never manifest-persisted.
        # Cross-check each run copy against the store-backed records
        # and tombstone any copy that is dead or stale there.
        records = self.dataset.records
        for run in self.runs:
            for rid, rec in run.records.items():
                if run.run_id in self.tombstones.get(rid, {}):
                    continue
                live = records.get(rid)
                if live is None \
                        or live.to_document() != rec.to_document():
                    self.tombstones.setdefault(rid, {})[run.run_id] = \
                        rec.key(self.dataset.dims)
                    continue
                self._run_of[rid] = run.run_id

    def _replay_wal_tail(self) -> None:
        """Replay committed batches above ``replay_lsn`` into the
        memtable — never into the main tree.

        Inserts whose record already lives in a sealed run are skipped
        (a seal that raced the crash already made them durable);
        deletes route exactly like live deletes.  Replay is idempotent
        because routing looks at the reconstructed tier state.
        """
        assert self.wal is not None
        records, _ = self.wal.scan()
        replayed = 0
        for rec in records:
            if rec.type != "batch" or rec.lsn <= self.replay_lsn:
                continue
            for rid in rec.payload.get("deletes", ()):
                rid = int(rid)
                if rid in self.memtable:
                    self.memtable.remove(rid)
                elif rid in self._run_of:
                    run_id = self._run_of.pop(rid)
                    run = next(r for r in self.runs
                               if r.run_id == run_id)
                    key = run.records[rid].key(self.dataset.dims)
                    self.tombstones.setdefault(rid, {})[run_id] = key
                # else: the document store already applied it and the
                # main tier rebuild below never sees the record.
                replayed += 1
            for doc in rec.payload.get("inserts", ()):
                rid = int(doc["_id"])
                if rid in self._run_of or rid in self.memtable:
                    continue
                self.memtable.insert(Record.from_document(doc))
                replayed += 1
            self.applied_lsn = rec.lsn
        registry = self.obs.registry
        if registry.enabled and replayed:
            registry.counter("storm.lsm.replayed_ops").inc(replayed)

    def _rebuild_main_tier(self) -> None:
        """Bulk-load the main tree from records no other tier holds."""
        tiered = set(self._run_of) | set(self.memtable.records)
        self.dataset._rebuild_indexes(
            [r for rid, r in self.dataset.records.items()
             if rid not in tiered])

    def _sweep_orphans(self, manifest: dict | None) -> None:
        """Delete files an interrupted seal/compact left behind."""
        if self.dfs is None:
            return
        keep = {self._manifest_name()}
        keep.update(run.file for run in self.runs
                    if run.file is not None)
        swept = 0
        for name in self.dfs.list_files(self.prefix):
            if name not in keep:
                self.dfs.delete_file(name)
                swept += 1
        registry = self.obs.registry
        if registry.enabled and swept:
            registry.counter("storm.lsm.orphans_swept").inc(swept)

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------

    def insert(self, record: Record) -> None:
        """Route one insert into the memtable (sealing when full).

        The caller (``Dataset.insert``) has already stored the record
        in ``dataset.records``; durability comes from the update
        manager's WAL append, which precedes every call here.
        """
        self.memtable.insert(record)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.lsm.inserts").inc()
        if len(self.memtable) >= self.memtable_limit:
            self.seal()
        elif registry.enabled:
            registry.gauge("storm.lsm.memtable.records").set(
                len(self.memtable))

    def delete(self, record: Record) -> None:
        """Route one delete: in-place for memtable residents, a
        tier-tagged tombstone for run or main residents."""
        rid = record.record_id
        if rid in self.memtable:
            self.memtable.remove(rid)
        elif rid in self._run_of:
            run_id = self._run_of.pop(rid)
            self.tombstones.setdefault(rid, {})[run_id] = \
                record.key(self.dataset.dims)
        else:
            key = record.key(self.dataset.dims)
            self.tombstones.setdefault(rid, {})[MAIN_TIER] = key
            if rid not in self.main_dead:
                self.main_dead.add(rid)
                self._main_dead_keys.append(key)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.lsm.deletes").inc()
            registry.gauge("storm.lsm.tombstones").set(
                len(self.tombstones))
            registry.gauge("storm.lsm.memtable.records").set(
                len(self.memtable))

    def seal(self) -> SealedRun | None:
        """Freeze the memtable into an immutable run and persist it.

        Durable order: run temp file → run rename → manifest temp →
        manifest rename (the commit point).  A crash before the
        manifest rename leaves at worst an orphan run file that the
        WAL tail still covers; recovery sweeps the orphan and replays
        the records back into the memtable.
        """
        if not self.memtable.records:
            return None
        run_id = self._next_run_id
        self._next_run_id += 1
        frozen = list(self.memtable.records.values())
        file = self._run_file_name(run_id) if self.dfs is not None \
            else None
        run = SealedRun(run_id, frozen, self.dataset.dims, file=file)
        if self.dfs is not None:
            payload = run.to_payload()
            tmp = run.file + ".tmp"
            self.dfs.write_file(tmp, payload)
            self.dfs.rename_file(tmp, run.file)
            registry = self.obs.registry
            if registry.enabled:
                registry.counter("storm.blocks.encoded").inc()
                registry.counter("storm.blocks.encoded_bytes").inc(
                    len(payload))
                registry.counter("storm.blocks.encoded_points").inc(
                    len(run.records))
        self.runs.append(run)
        for rid in run.records:
            self._run_of[rid] = run_id
        self.memtable.clear()
        self.replay_lsn = max(self.replay_lsn, self.applied_lsn)
        self._write_manifest()
        self.seals += 1
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.lsm.seals").inc()
        self._publish_gauges()
        return run

    def _reset_main_dead(self) -> None:
        #: ids whose dead copy sits in the main tree (the main-victim
        #: tombstones), and the keys of those copies in delete order,
        #: packed lazily into ``_main_dead_column`` by
        #: :meth:`main_dead_in`.
        self.main_dead: set[int] = set()
        self._main_dead_keys: list[tuple] = []
        self._main_dead_column = _PointColumn(self.dataset.dims)

    def main_dead_in(self, rect: "Rect") -> int:
        """How many dead main-tree copies lie inside the closed rect:
        one numpy pass over their keys, packing only the ones added
        since the previous call."""
        keys = self._main_dead_keys
        column = self._main_dead_column
        if column.rows < len(keys):
            column.extend(keys[column.rows:])
        return column.count_in(rect.lo, rect.hi)

    def should_compact(self) -> bool:
        """Whether enough runs accumulated to warrant a compaction."""
        return len(self.runs) >= self.compact_after_runs

    def compact(self) -> int:
        """Fold every sealed run and tombstone into the main tree.

        One atomic swap: the new record set bulk-loads into a fresh
        node graph (a single structural version bump), the old graph
        stays alive for pinned snapshots, runs and tombstones clear,
        and the manifest empties.  Returns how many run records moved.

        WAL segment pruning rides on the update manager's checkpoint
        (it persists the manifest *before* pruning); a standalone
        compaction only rewrites the manifest.
        """
        if not self.runs and not self.tombstones:
            return 0
        moved = sum(len(run) for run in self.runs)
        old_files = [run.file for run in self.runs
                     if run.file is not None]
        self.runs.clear()
        self._run_of.clear()
        self.tombstones.clear()
        self._reset_main_dead()
        self.replay_lsn = max(self.replay_lsn, self.applied_lsn)
        self._rebuild_main_tier()
        self._write_manifest()
        if self.dfs is not None:
            for name in old_files:
                if self.dfs.exists(name):
                    self.dfs.delete_file(name)
        self.compactions += 1
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.lsm.compactions").inc()
            registry.counter("storm.lsm.compacted_records").inc(moved)
        self._publish_gauges()
        return moved

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def _manifest_payload(self) -> bytes:
        tombs = []
        for rid in sorted(self.tombstones):
            victims = {str(tier): list(key) for tier, key
                       in self.tombstones[rid].items()}
            tombs.append({"id": rid, "victims": victims})
        return canonical_json({
            "replay_lsn": self.replay_lsn,
            "next_run_id": self._next_run_id,
            "runs": [{"id": run.run_id, "file": run.file,
                      "count": len(run)} for run in self.runs],
            "tombstones": tombs,
        }).encode()

    def _write_manifest(self) -> None:
        """Atomically commit the tier state (temp write + rename)."""
        if self.dfs is None:
            return
        name = self._manifest_name()
        self.dfs.write_file(name + ".tmp", self._manifest_payload())
        self.dfs.rename_file(name + ".tmp", name)

    def checkpoint_manifest(self, replay_lsn: int) -> None:
        """Advance the replay origin as part of a store checkpoint.

        Called by :func:`~repro.storage.recovery.checkpoint_store`
        *before* WAL pruning: once the store durably holds every batch
        up to ``replay_lsn``, recovery no longer needs to replay them
        into the memtable (the main-tier rebuild reads them from the
        store), and the tombstones they produced are persisted here —
        so pruning those segments is safe.
        """
        self.replay_lsn = max(self.replay_lsn, int(replay_lsn))
        self._write_manifest()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def run_records(self) -> int:
        """Records currently held by sealed runs (incl. masked)."""
        return sum(len(run) for run in self.runs)

    def tier_shape(self) -> dict[str, int]:
        """Gauge snapshot of the tier sizes (EXPLAIN / metrics)."""
        return {
            "memtable_records": len(self.memtable),
            "sealed_runs": len(self.runs),
            "run_records": self.run_records(),
            "tombstones": len(self.tombstones),
            "seals": self.seals,
            "compactions": self.compactions,
        }

    def _publish_gauges(self) -> None:
        registry = self.obs.registry
        if not registry.enabled:
            return
        registry.gauge("storm.lsm.memtable.records").set(
            len(self.memtable))
        registry.gauge("storm.lsm.runs").set(len(self.runs))
        registry.gauge("storm.lsm.run_records").set(self.run_records())
        registry.gauge("storm.lsm.tombstones").set(len(self.tombstones))

    def __repr__(self) -> str:
        return (f"<LSMTree memtable={len(self.memtable)} "
                f"runs={len(self.runs)} "
                f"tombstones={len(self.tombstones)} "
                f"replay_lsn={self.replay_lsn}>")
