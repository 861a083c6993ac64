"""Simulated distributed file system.

Files are byte sequences striped into fixed-size blocks; each block is
placed (with replication) on simulated machines round-robin, mirroring an
HDFS-style layout.  All reads and writes are tallied per machine, which is
what the distributed experiments report.

The DFS is in-memory by default; give it a root directory to also persist
file contents to real disk (the document store uses this for durability
tests).

Every block read charges the replica that serves it, so the
experiments account raw device I/O.

With a :class:`~repro.faults.FaultPlan` attached, block reads are
*fault-gated*: a read tries the primary replica first and fails over
down the replica list, charging each failed attempt on the machine
that made it (the device did the work even though the payload was
lost; crashed machines charge nothing — the request never reached a
disk).  Failed attempts, failover-served reads and replica-exhausted
reads are tallied in :class:`FailoverStats` and the
``storm.dfs.failover.*`` counters; when every replica fails the read
raises :class:`~repro.errors.BlockReadError`.

Writes are fault-gated too: a :meth:`~repro.faults.FaultPlan.
crash_write` / :meth:`~repro.faults.FaultPlan.torn_write` schedule
kills the ``nth`` write under a file-name prefix, leaving either the
old contents (crash before any byte) or a *torn prefix* of the new
ones, and raises :class:`~repro.errors.WriteCrashError` — the injected
crash the durability layer (:mod:`repro.storage.wal`) recovers from.
:meth:`SimulatedDFS.rename_file` is the atomic commit primitive
(metadata-only, never torn): writers prepare a temp file and rename it
over the target, so readers observe either the old or the new file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from urllib.parse import quote, unquote

from repro.errors import BlockReadError, StorageError, WriteCrashError
from repro.faults import FaultPlan
from repro.obs import NULL_OBS, Observability

__all__ = ["BlockStats", "FailoverStats", "SimulatedDFS"]


@dataclass
class BlockStats:
    """I/O tallies for one simulated machine."""

    blocks_read: int = 0
    blocks_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def reset(self) -> None:
        self.blocks_read = 0
        self.blocks_written = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def merge(self, other: "BlockStats") -> None:
        """Fold another machine's tallies into this one."""
        self.blocks_read += other.blocks_read
        self.blocks_written += other.blocks_written
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written

    def snapshot(self) -> "BlockStats":
        """An independent copy of the tallies."""
        return BlockStats(self.blocks_read, self.blocks_written,
                          self.bytes_read, self.bytes_written)

    def delta_from(self, earlier: "BlockStats") -> "BlockStats":
        """Tallies accumulated since an earlier snapshot."""
        return BlockStats(
            self.blocks_read - earlier.blocks_read,
            self.blocks_written - earlier.blocks_written,
            self.bytes_read - earlier.bytes_read,
            self.bytes_written - earlier.bytes_written)

    def as_dict(self) -> dict[str, int]:
        """The tallies as a plain dict (for exporters)."""
        return {"blocks_read": self.blocks_read,
                "blocks_written": self.blocks_written,
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written}


@dataclass
class FailoverStats:
    """Replica-failover tallies for fault-gated block reads."""

    #: Read attempts that failed (machine down or injected error).
    attempts: int = 0
    #: Reads ultimately served by a non-primary replica.
    reads: int = 0
    #: Reads that failed on every replica (raised BlockReadError).
    exhausted: int = 0

    def reset(self) -> None:
        self.attempts = 0
        self.reads = 0
        self.exhausted = 0

    def as_dict(self) -> dict[str, int]:
        """The tallies as a plain dict (for exporters)."""
        return {"attempts": self.attempts, "reads": self.reads,
                "exhausted": self.exhausted}


@dataclass(slots=True)
class _FileMeta:
    data: bytes
    # block index -> list of machine ids holding a replica
    placement: list[list[int]] = field(default_factory=list)


class SimulatedDFS:
    """Block-oriented file store with replication and I/O accounting."""

    def __init__(self, machines: int = 4, block_size: int = 8192,
                 replication: int = 3, root: str | None = None,
                 obs: "Observability | None" = None,
                 faults: "FaultPlan | None" = None):
        if machines < 1:
            raise StorageError("need at least one machine")
        if block_size < 1:
            raise StorageError("block size must be positive")
        if not 1 <= replication <= machines:
            raise StorageError(
                "replication must be between 1 and the machine count")
        self.machines = machines
        self.block_size = block_size
        self.replication = replication
        self.root = root
        self.obs = obs if obs is not None else NULL_OBS
        self.faults = faults
        self.stats = [BlockStats() for _ in range(machines)]
        self.failover = FailoverStats()
        self._files: dict[str, _FileMeta] = {}
        self._next_machine = 0
        self._stride = self._placement_stride(machines, replication)
        if root is not None:
            os.makedirs(root, exist_ok=True)
            self._load_from_root()

    def set_fault_plan(self, faults: "FaultPlan | None") -> None:
        """Attach (or detach) a fault plan after construction."""
        self.faults = faults

    # -- placement ---------------------------------------------------------

    @staticmethod
    def _placement_stride(machines: int, replication: int) -> int:
        """Primary-machine advance between consecutive blocks.

        Must be coprime with the machine count so every machine still
        hosts an equal share of primaries; preferring a stride >= the
        replication factor keeps consecutive blocks' replica *windows*
        as disjoint as the geometry allows, so one machine crash
        degrades scattered blocks instead of replica-0 of a long run.
        """
        if machines == 1:
            return 1
        want = max(replication, 2)
        for stride in range(want, want + machines):
            if math.gcd(stride, machines) == 1:
                return stride % machines
        return 1  # unreachable: some value in any n consecutive is coprime

    def _place_block(self) -> list[int]:
        replicas = []
        for i in range(self.replication):
            replicas.append((self._next_machine + i) % self.machines)
        self._next_machine = (self._next_machine
                              + self._stride) % self.machines
        return replicas

    def _disk_path(self, name: str) -> str:
        """The file under ``root`` that holds ``name``: percent-encoded
        (``/`` included), so :meth:`_load_from_root` decodes it back to
        exactly the same name."""
        assert self.root is not None
        return os.path.join(self.root, quote(name, safe=""))

    def _load_from_root(self) -> None:
        assert self.root is not None
        for fname in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, fname)
            if not os.path.isfile(path):
                continue
            with open(path, "rb") as f:
                data = f.read()
            name = unquote(fname)
            meta = _FileMeta(data=data)
            for _ in range(self._block_count(len(data))):
                meta.placement.append(self._place_block())
            self._files[name] = meta

    def _block_count(self, size: int) -> int:
        return max(1, -(-size // self.block_size))

    # -- fault gating ------------------------------------------------------

    def _serve_block(self, name: str, block: int,
                     replicas: list[int], nbytes: int) -> int:
        """The machine that serves a block read, walking the replica
        list on faults.

        Without a fault plan this is always the primary.  With one,
        each attempt advances the plan's clock; a failed attempt on a
        *live* machine still charges that machine's ``BlockStats`` (the
        device performed the read — the payload was lost), while a
        crashed machine charges nothing.  Raises
        :class:`~repro.errors.BlockReadError` when every replica fails.
        """
        plan = self.faults
        if plan is None:
            return replicas[0]
        registry = self.obs.registry
        for position, machine in enumerate(replicas):
            plan.tick()
            if plan.is_down(f"machine:{machine}"):
                self.failover.attempts += 1
                if registry.enabled:
                    registry.counter(
                        "storm.dfs.failover.attempts").inc()
                continue
            if plan.should_fail("dfs.read"):
                self.failover.attempts += 1
                self.stats[machine].blocks_read += 1
                self.stats[machine].bytes_read += nbytes
                if registry.enabled:
                    registry.counter(
                        "storm.dfs.failover.attempts").inc()
                continue
            if position:
                self.failover.reads += 1
                if registry.enabled:
                    registry.counter("storm.dfs.failover.reads").inc()
            return machine
        self.failover.exhausted += 1
        if registry.enabled:
            registry.counter("storm.dfs.failover.exhausted").inc()
        raise BlockReadError(
            f"block {block} of {name!r}: all {len(replicas)} replicas "
            f"failed at tick {plan.now}")

    # -- file operations -----------------------------------------------------

    def write_file(self, name: str, data: bytes,
                   _preserve: int = 0) -> None:
        """Create or replace a file (charges writes on every replica).

        ``_preserve`` marks a prefix of ``data`` that is *old* content
        (appends pass the existing length): an injected torn write
        never loses preserved bytes, only a suffix of the new ones —
        mirroring how a real append tears.  Raises
        :class:`~repro.errors.WriteCrashError` when a scheduled write
        fault fires.
        """
        if not name:
            raise StorageError("file name cannot be empty")
        plan = self.faults
        if plan is not None:
            fault = plan.take_write_fault(name)
            if fault is not None:
                plan.tick()
                registry = self.obs.registry
                if registry.enabled:
                    registry.counter("storm.dfs.write_crashes").inc()
                if fault.keep_fraction is None:
                    raise WriteCrashError(
                        f"injected crash before write of {name!r} "
                        f"at tick {plan.now}")
                preserve = min(_preserve, len(data))
                keep = preserve + int(fault.keep_fraction
                                      * (len(data) - preserve))
                self._commit_write(name, data[:keep])
                raise WriteCrashError(
                    f"injected torn write of {name!r}: kept {keep} of "
                    f"{len(data)} bytes at tick {plan.now}")
        self._commit_write(name, data)

    def _commit_write(self, name: str, data: bytes) -> None:
        """Apply a write that survived fault gating."""
        meta = _FileMeta(data=data)
        n_blocks = self._block_count(len(data))
        written_blocks = written_bytes = 0
        for i in range(n_blocks):
            replicas = self._place_block()
            meta.placement.append(replicas)
            chunk = len(data[i * self.block_size:(i + 1)
                             * self.block_size])
            for m in replicas:
                self.stats[m].blocks_written += 1
                self.stats[m].bytes_written += chunk
                written_blocks += 1
                written_bytes += chunk
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.dfs.blocks_written").inc(
                written_blocks)
            registry.counter("storm.dfs.bytes_written").inc(
                written_bytes)
        self._files[name] = meta
        if self.root is not None:
            with open(self._disk_path(name), "wb") as f:
                f.write(data)

    def append_file(self, name: str, data: bytes) -> None:
        """Append bytes (new blocks placed fresh, existing untouched).

        An injected torn write can only lose a suffix of the appended
        bytes — the pre-existing contents always survive."""
        if name not in self._files:
            self.write_file(name, data)
            return
        old = self._files[name].data
        self.write_file(name, old + data, _preserve=len(old))

    def rename_file(self, old: str, new: str) -> None:
        """Atomically rename a file, replacing any existing target.

        This is the durability layer's commit primitive: it is
        metadata-only (no block I/O is charged, the placed blocks move
        with the file) and is deliberately *not* fault-gated — a
        rename either happens or it doesn't, it cannot tear.  Writers
        that need atomic replacement write ``name + ".tmp"`` and
        rename it over ``name``.
        """
        if not new:
            raise StorageError("file name cannot be empty")
        meta = self._get(old)
        del self._files[old]
        self._files[new] = meta
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.dfs.renames").inc()
        if self.root is not None:
            os.replace(self._disk_path(old), self._disk_path(new))

    def read_file(self, name: str) -> bytes:
        """Read a whole file (charges one replica per block — the
        primary, or a failover replica under an active fault plan)."""
        meta = self._get(name)
        for i, replicas in enumerate(meta.placement):
            chunk = meta.data[i * self.block_size:(i + 1)
                              * self.block_size]
            m = self._serve_block(name, i, replicas, len(chunk))
            self.stats[m].blocks_read += 1
            self.stats[m].bytes_read += len(chunk)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.dfs.blocks_read").inc(
                len(meta.placement))
            registry.counter("storm.dfs.bytes_read").inc(len(meta.data))
        return meta.data

    def read_block(self, name: str, block: int) -> bytes:
        """Read one block of a file (charges its primary replica —
        failing over down the replica list when a fault plan takes
        machines out)."""
        meta = self._get(name)
        if not 0 <= block < len(meta.placement):
            raise StorageError(
                f"block {block} out of range for {name!r}")
        data = meta.data[block * self.block_size:(block + 1)
                         * self.block_size]
        m = self._serve_block(name, block, meta.placement[block],
                              len(data))
        self.stats[m].blocks_read += 1
        self.stats[m].bytes_read += len(data)
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.dfs.blocks_read").inc()
            registry.counter("storm.dfs.bytes_read").inc(len(data))
        return data

    def delete_file(self, name: str) -> None:
        """Remove a file (error when absent)."""
        self._get(name)
        del self._files[name]
        if self.root is not None:
            path = self._disk_path(name)
            if os.path.exists(path):
                os.remove(path)

    def exists(self, name: str) -> bool:
        """Whether a file exists."""
        return name in self._files

    def list_files(self, prefix: str = "") -> list[str]:
        """Sorted file names with the given prefix."""
        return sorted(n for n in self._files if n.startswith(prefix))

    def file_size(self, name: str) -> int:
        """File length in bytes."""
        return len(self._get(name).data)

    def block_count(self, name: str) -> int:
        """Number of blocks a file occupies."""
        return len(self._get(name).placement)

    def _get(self, name: str) -> _FileMeta:
        meta = self._files.get(name)
        if meta is None:
            raise StorageError(f"no such file: {name!r}")
        return meta

    # -- accounting ----------------------------------------------------------

    def total_stats(self) -> BlockStats:
        """All machines' tallies merged into one fresh
        :class:`BlockStats` (callers should use this instead of
        hand-summing ``dfs.stats``).  The returned object is an
        independent snapshot, so it also binds directly to trace spans
        (``tracer.span(..., io=dfs.total_stats)``)."""
        total = BlockStats()
        for s in self.stats:
            total.merge(s)
        return total

    def total_blocks_read(self) -> int:
        """Blocks read across all machines."""
        return self.total_stats().blocks_read

    def total_blocks_written(self) -> int:
        """Blocks written across all machines (replicas included)."""
        return self.total_stats().blocks_written

    def reset_stats(self) -> None:
        """Zero every machine's I/O tallies (and the failover ones)."""
        for s in self.stats:
            s.reset()
        self.failover.reset()

    def balance(self) -> float:
        """Storage balance: max/mean blocks written per machine (1.0 is
        perfectly balanced)."""
        written = [s.blocks_written for s in self.stats]
        mean = sum(written) / len(written)
        if mean == 0:
            return 1.0
        return max(written) / mean
