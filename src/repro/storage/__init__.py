"""Storage engine substrate.

The paper's STORM "builds on a cluster of commodity machines ... uses a DFS
(distributed file system) as its storage engine" and keeps records as JSON
documents in a distributed MongoDB.  This package reproduces that stack in
simulation:

``dfs``
    A block-oriented simulated DFS: named files striped into fixed-size
    blocks across simulated machines, with replication and per-machine I/O
    accounting.  Optionally persists to a local directory.
``document_store``
    An embedded JSON document store with Mongo-style filter queries,
    persisted as JSON-lines files on the DFS.
``json_codec``
    The paper's "free data module": conversion between arbitrary source
    record formats and the JSON document format.
``catalog``
    Metadata about imported/indexed datasets, itself stored as documents.
``wal``
    A checksummed, segment-based write-ahead log on the DFS: the commit
    point of every update batch, with atomic checkpoints and torn-tail
    detection.
``recovery``
    The crash-recovery driver: truncate torn WAL tails, replay
    committed-but-unflushed batches, report a ``RecoveryReport``.
``lsm``
    The tiered ingest path: WAL-backed memtable, sealed immutable
    runs (flat column blocks, committed by temp-write + rename) and
    compaction into the main tree, with snapshot-pinned sampling.
"""

from repro.storage.catalog import Catalog, DatasetInfo
from repro.storage.dfs import BlockStats, SimulatedDFS
from repro.storage.document_store import Collection, DocumentStore
from repro.storage.json_codec import (canonical_json,
                                      documents_to_records,
                                      records_to_documents,
                                      rows_to_documents)
from repro.storage.lsm import LSMTree, Memtable, SealedRun
from repro.storage.recovery import (RecoveryReport, checkpoint_store,
                                    recover_store)
from repro.storage.wal import TornTail, WalRecord, WriteAheadLog

__all__ = [
    "BlockStats",
    "Catalog",
    "Collection",
    "DatasetInfo",
    "DocumentStore",
    "LSMTree",
    "Memtable",
    "RecoveryReport",
    "SealedRun",
    "SimulatedDFS",
    "TornTail",
    "WalRecord",
    "WriteAheadLog",
    "canonical_json",
    "checkpoint_store",
    "documents_to_records",
    "records_to_documents",
    "recover_store",
    "rows_to_documents",
]
