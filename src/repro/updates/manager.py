"""Batch application of inserts/deletes across store and indexes.

With a :class:`~repro.storage.wal.WriteAheadLog` attached, the manager
is *durable*: every batch is appended to the log (deletes before
inserts) **before** any store or index mutation, so the append
returning is the commit point — a crash afterwards is repaired by
replay (:mod:`repro.storage.recovery`), a crash during the append
leaves the batch uncommitted and untouched.  :meth:`UpdateManager.
flush` then becomes an atomic checkpoint (flush-commit record +
segment pruning), optionally driven automatically every
``checkpoint_every`` batches.

Durations use the monotonic ``time.perf_counter`` clock — wall-clock
time can step backwards under NTP and would make throughput figures
negative or infinite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.engine import Dataset
from repro.core.records import Record
from repro.errors import UpdateError
from repro.obs import Observability
from repro.storage.document_store import DocumentStore
from repro.storage.recovery import checkpoint_store
from repro.storage.wal import WriteAheadLog

__all__ = ["UpdateBatch", "UpdateResult", "UpdateManager"]


@dataclass(slots=True)
class UpdateBatch:
    """A set of changes applied together."""

    inserts: list[Record] = field(default_factory=list)
    deletes: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.inserts) + len(self.deletes)

    def validate(self, dataset: Dataset) -> None:
        """Reject batches that cannot apply cleanly (before mutating).

        A batch may delete an id and re-insert the same id: that is a
        *replace*, and :meth:`UpdateManager.apply` (and WAL replay)
        guarantee the delete lands before the insert.
        """
        insert_ids = [r.record_id for r in self.inserts]
        if len(insert_ids) != len(set(insert_ids)):
            raise UpdateError("batch inserts contain duplicate ids")
        delete_ids = set(self.deletes)
        if len(delete_ids) != len(self.deletes):
            raise UpdateError("batch deletes contain duplicate ids")
        for rid in insert_ids:
            if rid in dataset.records and rid not in delete_ids:
                raise UpdateError(
                    f"insert id {rid} already exists in dataset")
        for rid in self.deletes:
            if rid not in dataset.records:
                raise UpdateError(f"delete id {rid} not in dataset")


@dataclass(slots=True)
class UpdateResult:
    """Outcome of one applied batch."""

    inserted: int
    deleted: int
    seconds: float

    def throughput(self) -> float:
        """Applied operations per second.

        A zero-op batch reports 0.0 (not ``inf``/``nan``); a non-empty
        batch timed at zero elapsed seconds reports ``inf`` — the
        monotonic clock guarantees ``seconds`` is never negative."""
        total = self.inserted + self.deleted
        if total == 0:
            return 0.0
        return total / self.seconds if self.seconds > 0 else float("inf")


class UpdateManager:
    """Applies updates to a dataset (and its backing collection).

    Deletes are applied before inserts so a batch can atomically replace
    a record (delete old id + insert the new version under the same id).
    """

    def __init__(self, dataset: Dataset,
                 store: DocumentStore | None = None,
                 collection: str | None = None,
                 obs: Observability | None = None,
                 wal: "WriteAheadLog | None" = None,
                 checkpoint_every: int | None = None):
        if (store is None) != (collection is None):
            raise UpdateError(
                "provide both store and collection, or neither")
        if wal is not None and store is None:
            raise UpdateError(
                "a WAL needs a store/collection to recover into")
        if checkpoint_every is not None:
            if wal is None:
                raise UpdateError("checkpoint_every needs a wal")
            if checkpoint_every < 1:
                raise UpdateError("checkpoint_every must be >= 1")
        self.dataset = dataset
        self.store = store
        self.collection = collection
        # Durability: batches are logged here before any mutation.
        self.wal = wal
        self.checkpoint_every = checkpoint_every
        self._batches_since_checkpoint = 0
        #: LSN of the most recently committed batch (0 before any).
        self.last_lsn = 0
        # Falls back to the dataset's sink so one engine-level
        # Observability captures update traffic too.
        self.obs = obs if obs is not None else dataset.obs
        self.applied_batches = 0
        self.total_inserted = 0
        self.total_deleted = 0

    def _coll(self):
        assert self.store is not None and self.collection is not None
        return self.store.collection(self.collection)

    def apply(self, batch: UpdateBatch) -> UpdateResult:
        """Validate then apply one batch everywhere.

        With a WAL attached the batch is appended to the log *first*;
        the append returning is the commit point.  Deletes apply
        before inserts — in the log, in the store and in the indexes —
        so a delete+reinsert of one id is a replace.
        """
        batch.validate(self.dataset)
        name = self.dataset.name
        if len(batch) == 0:
            # A no-op batch must be a true no-op: no WAL record, no
            # checkpoint-cadence tick, and — critically — no index
            # version bump invalidating canonical-set caches.
            return UpdateResult(inserted=0, deleted=0, seconds=0.0)
        start = time.perf_counter()
        if self.wal is not None:
            assert self.collection is not None
            self.last_lsn = self.wal.append_batch(
                self.collection,
                deletes=batch.deletes,
                inserts=(r.to_document() for r in batch.inserts),
                dataset=name)
        with self.obs.tracer.span("update_batch", dataset=name,
                                  inserts=len(batch.inserts),
                                  deletes=len(batch.deletes)):
            for rid in batch.deletes:
                self.dataset.delete(rid)
                if self.store is not None:
                    self._coll().delete_one(rid)
            for record in batch.inserts:
                self.dataset.insert(record)
                if self.store is not None:
                    self._coll().insert_one(record.to_document())
            self.applied_batches += 1
            self.total_inserted += len(batch.inserts)
            self.total_deleted += len(batch.deletes)
            lsm = self.dataset.lsm
            if lsm is not None:
                # The whole batch is now applied: any seal triggered by
                # a *later* batch may safely stamp this LSN as its
                # replay origin (a mid-batch seal keeps the previous
                # batch's LSN, so replay never splits a batch).
                lsm.applied_lsn = max(lsm.applied_lsn, self.last_lsn)
                if lsm.should_compact():
                    # Checkpoint first so the store durably covers
                    # every run record, then fold runs into the main
                    # tree and prune the WAL segments the checkpoint
                    # released.
                    self.flush()
                    lsm.compact()
        self._batches_since_checkpoint += 1
        if self.checkpoint_every is not None \
                and self._batches_since_checkpoint \
                >= self.checkpoint_every:
            self.flush()
        elapsed = time.perf_counter() - start
        registry = self.obs.registry
        if registry.enabled:
            registry.counter("storm.updates.batches",
                             dataset=name).inc()
            registry.counter("storm.updates.inserted",
                             dataset=name).inc(len(batch.inserts))
            registry.counter("storm.updates.deleted",
                             dataset=name).inc(len(batch.deletes))
            registry.histogram("storm.updates.batch_seconds",
                               dataset=name).observe(elapsed)
        return UpdateResult(inserted=len(batch.inserts),
                            deleted=len(batch.deletes), seconds=elapsed)

    # -- conveniences -----------------------------------------------------

    def insert(self, record: Record) -> UpdateResult:
        """Apply a single-record insert batch."""
        return self.apply(UpdateBatch(inserts=[record]))

    def delete(self, record_id: int) -> UpdateResult:
        """Apply a single-id delete batch."""
        return self.apply(UpdateBatch(deletes=[record_id]))

    def insert_stream(self, records: Iterable[Record],
                      batch_size: int = 256) -> list[UpdateResult]:
        """Apply a long insert stream in batches (the live-tweets demo)."""
        if batch_size < 1:
            raise UpdateError("batch_size must be >= 1")
        results = []
        pending: list[Record] = []
        for record in records:
            pending.append(record)
            if len(pending) >= batch_size:
                results.append(self.apply(UpdateBatch(inserts=pending)))
                pending = []
        if pending:
            results.append(self.apply(UpdateBatch(inserts=pending)))
        return results

    def flush(self) -> None:
        """Persist the backing collection (if any) to the DFS.

        With a WAL this is a full atomic checkpoint: the store flushes
        under the log's high-water LSN, a flush-commit record lands in
        the log, and fully covered segments are pruned."""
        if self.store is None or self.collection is None:
            return
        if self.wal is not None:
            checkpoint_store(self.store, self.wal, obs=self.obs,
                             lsm=self.dataset.lsm)
        else:
            self.store.flush(self.collection)
        self._batches_since_checkpoint = 0
