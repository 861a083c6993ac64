"""Persisting engine datasets through the storage engine.

STORM's storage engine owns the records (JSON documents on the DFS); the
in-memory indexes are derived state.  ``save_engine`` writes every
dataset's records plus a manifest of its index parameters;
``load_engine`` reads them back and rebuilds the indexes — the restart
path of the system.

Both directions are crash-consistent.  ``save_engine`` builds each
replacement collection *off to the side* and relies on the document
store's atomic flush (temp-write + rename), so a crash mid-save leaves
every previously committed dataset intact — the old drop-then-reinsert
sequence could erase a dataset entirely.  With a
:class:`~repro.storage.wal.WriteAheadLog` attached, the manifest is
stamped with the checkpoint LSN and ``load_engine`` first runs WAL
recovery (:func:`~repro.storage.recovery.recover_store`), replaying
committed-but-unflushed update batches on top of the last checkpoint;
the resulting :class:`~repro.storage.recovery.RecoveryReport` rides on
the returned engine as ``engine.last_recovery``.
"""

from __future__ import annotations

from repro.core.engine import StormEngine
from repro.core.records import Record
from repro.errors import StorageError
from repro.obs import Observability
from repro.storage.document_store import Collection, DocumentStore
from repro.storage.recovery import checkpoint_store, recover_store
from repro.storage.wal import WriteAheadLog

__all__ = ["save_engine", "load_engine", "DATASET_PREFIX",
           "MANIFEST_COLLECTION"]

DATASET_PREFIX = "ds_"
MANIFEST_COLLECTION = "_datasets"


def save_engine(engine: StormEngine, store: DocumentStore,
                wal: "WriteAheadLog | None" = None) -> None:
    """Write every dataset's records + manifest; flushes to the DFS.

    Each dataset collection is rebuilt off to the side and registered
    with :meth:`~repro.storage.document_store.DocumentStore.
    put_collection`, so the previous DFS file survives untouched until
    the atomic flush renames over it — a crash at any point leaves
    every dataset loadable.  With ``wal`` given the save doubles as a
    checkpoint: manifest entries carry ``checkpoint_lsn`` and the
    flush goes through :func:`~repro.storage.recovery.
    checkpoint_store` (flush-commit record + segment pruning).
    """
    manifest = store.collection(MANIFEST_COLLECTION)
    flushed: list[str] = []
    for name, dataset in engine.datasets.items():
        coll_name = DATASET_PREFIX + name
        coll = Collection(coll_name)
        coll.insert_many(r.to_document()
                         for r in dataset.records.values())
        store.put_collection(coll)
        entry = {
            "_id": name,
            "name": name,
            "dims": dataset.dims,
            "record_count": len(dataset),
            "leaf_capacity": dataset.tree.leaf_capacity,
            "branch_capacity": dataset.tree.branch_capacity,
            "has_ls": dataset.build_ls,
            "checkpoint_lsn": wal.last_lsn if wal is not None else None,
        }
        manifest.upsert_one(entry)
        flushed.append(coll_name)
    if wal is not None:
        checkpoint_store(store, wal)
        return
    for coll_name in flushed:
        store.flush(coll_name)
    store.flush(MANIFEST_COLLECTION)


def load_engine(store: DocumentStore, seed: int = 0,
                wal: "WriteAheadLog | None" = None,
                obs: "Observability | None" = None) -> StormEngine:
    """Rebuild an engine (datasets + indexes) from a saved store.

    With ``wal`` given, WAL recovery runs first: the torn tail is
    truncated and committed-but-unflushed batches are replayed into
    the store, so the rebuilt indexes reflect exactly the committed
    prefix of the log.  The recovery report is attached to the
    returned engine as ``engine.last_recovery`` (None without a WAL).
    """
    report = None
    if wal is not None:
        report = recover_store(
            store, wal, obs=obs,
            manifest_collection=MANIFEST_COLLECTION,
            dataset_prefix=DATASET_PREFIX)
    engine = StormEngine(seed=seed, obs=obs)
    manifest = store.collection(MANIFEST_COLLECTION)
    for entry in manifest.find():
        name = entry["name"]
        coll_name = DATASET_PREFIX + name
        if coll_name not in store.collections:
            raise StorageError(
                f"manifest lists {name!r} but collection "
                f"{coll_name!r} is missing")
        records = [Record.from_document(doc)
                   for doc in store.collection(coll_name).find()]
        if len(records) != entry.get("record_count", len(records)):
            raise StorageError(
                f"dataset {name!r}: manifest says "
                f"{entry['record_count']} records, store has "
                f"{len(records)}")
        engine.create_dataset(
            name, records, dims=int(entry.get("dims", 3)),
            leaf_capacity=int(entry.get("leaf_capacity", 64)),
            branch_capacity=int(entry.get("branch_capacity", 16)),
            build_ls=bool(entry.get("has_ls", True)))
    engine.last_recovery = report
    return engine
