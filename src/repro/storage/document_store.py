"""Embedded JSON document store (the MongoDB stand-in).

Collections hold JSON documents (dicts); queries use a Mongo-style filter
language::

    coll.find({"borough": "manhattan"})
    coll.find({"kwh": {"$gte": 900, "$lt": 1200}})
    coll.find({"$or": [{"a": 1}, {"b": {"$in": [2, 3]}}]})

Documents persist as JSON-lines files on the :class:`SimulatedDFS`;
:meth:`DocumentStore.flush` writes, construction reloads.  The store is
the system of record STORM indexes — the data connector imports into it,
and the update manager routes inserts/deletes through it.

Flushes are *atomic*: each collection is written to a ``.tmp`` sibling
and renamed over the target, so a crash mid-flush leaves the previous
file intact (stale ``.tmp`` leftovers are swept on load).  Serialisation
goes through :func:`~repro.storage.json_codec.canonical_json`, which
raises a typed :class:`~repro.errors.StorageError` on values JSON
cannot represent instead of silently coercing them.  A collection
keeps each document's encoded line from the last flush and drops it
on every write to that id, so a flush re-encodes only the documents
written since the one before.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import StorageError
from repro.storage.dfs import SimulatedDFS
from repro.storage.json_codec import canonical_json

__all__ = ["DocumentStore", "Collection", "matches_filter"]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "$eq": lambda v, t: v == t,
    "$ne": lambda v, t: v != t,
    "$gt": lambda v, t: v is not None and v > t,
    "$gte": lambda v, t: v is not None and v >= t,
    "$lt": lambda v, t: v is not None and v < t,
    "$lte": lambda v, t: v is not None and v <= t,
    "$in": lambda v, t: v in t,
    "$nin": lambda v, t: v not in t,
    "$exists": lambda v, t: (v is not None) == bool(t),
}


def matches_filter(doc: Mapping[str, Any], flt: Mapping[str, Any]) -> bool:
    """Evaluate a Mongo-style filter against one document."""
    for key, condition in flt.items():
        if key == "$and":
            if not all(matches_filter(doc, sub) for sub in condition):
                return False
        elif key == "$or":
            if not any(matches_filter(doc, sub) for sub in condition):
                return False
        elif key == "$not":
            if matches_filter(doc, condition):
                return False
        elif key.startswith("$"):
            raise StorageError(f"unknown top-level operator {key!r}")
        else:
            value = doc.get(key)
            if isinstance(condition, Mapping):
                for op, target in condition.items():
                    comparator = _COMPARATORS.get(op)
                    if comparator is None:
                        raise StorageError(f"unknown operator {op!r}")
                    try:
                        if not comparator(value, target):
                            return False
                    except TypeError:
                        return False  # incomparable types never match
            else:
                if value != condition:
                    return False
    return True


class Collection:
    """One named set of JSON documents with unique ``_id``s."""

    def __init__(self, name: str):
        self.name = name
        self._docs: dict[Any, dict[str, Any]] = {}
        #: ``_id`` -> the document's encoded JSON line, as of the last
        #: :meth:`to_jsonl`.  Every write drops its id's line; its keys
        #: are always a subset of ``_docs``.
        self._lines: dict[Any, bytes] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._docs)

    # -- writes -------------------------------------------------------------

    def insert_one(self, doc: Mapping[str, Any]) -> Any:
        """Insert a document, assigning ``_id`` when missing.

        Returns the document id.
        """
        stored = dict(doc)
        if "_id" not in stored:
            while self._next_id in self._docs:
                self._next_id += 1
            stored["_id"] = self._next_id
            self._next_id += 1
        if stored["_id"] in self._docs:
            raise StorageError(
                f"duplicate _id {stored['_id']!r} in "
                f"collection {self.name!r}")
        self._docs[stored["_id"]] = stored
        return stored["_id"]

    def insert_many(self, docs: Iterable[Mapping[str, Any]]) -> list[Any]:
        """Insert several documents; returns their ids."""
        return [self.insert_one(d) for d in docs]

    def replace_one(self, doc_id: Any, doc: Mapping[str, Any]) -> None:
        """Replace the document with the given id."""
        if doc_id not in self._docs:
            raise StorageError(f"no document with _id {doc_id!r}")
        stored = dict(doc)
        stored["_id"] = doc_id
        self._docs[doc_id] = stored
        self._lines.pop(doc_id, None)

    def delete_one(self, doc_id: Any) -> bool:
        """Delete by id; returns whether it existed."""
        self._lines.pop(doc_id, None)
        return self._docs.pop(doc_id, None) is not None

    def upsert_one(self, doc: Mapping[str, Any]) -> Any:
        """Insert, or replace the existing document with the same
        ``_id`` (WAL replay is idempotent because of this)."""
        stored = dict(doc)
        if "_id" not in stored:
            return self.insert_one(stored)
        self._docs[stored["_id"]] = stored
        self._lines.pop(stored["_id"], None)
        return stored["_id"]

    def delete_many(self, flt: Mapping[str, Any]) -> int:
        """Delete every document matching the filter; returns the count."""
        doomed = [d["_id"] for d in self._docs.values()
                  if matches_filter(d, flt)]
        for doc_id in doomed:
            del self._docs[doc_id]
            self._lines.pop(doc_id, None)
        return len(doomed)

    # -- reads ------------------------------------------------------------------

    def get(self, doc_id: Any) -> dict[str, Any]:
        """Fetch one document by id (a copy)."""
        doc = self._docs.get(doc_id)
        if doc is None:
            raise StorageError(f"no document with _id {doc_id!r}")
        return dict(doc)

    def find(self, flt: Mapping[str, Any] | None = None
             ) -> Iterator[dict[str, Any]]:
        """Iterate documents matching a Mongo-style filter (copies)."""
        flt = flt or {}
        for doc in self._docs.values():
            if matches_filter(doc, flt):
                yield dict(doc)

    def find_one(self, flt: Mapping[str, Any] | None = None
                 ) -> dict[str, Any] | None:
        """First match or None."""
        return next(self.find(flt), None)

    def count(self, flt: Mapping[str, Any] | None = None) -> int:
        if not flt:
            return len(self._docs)
        return sum(1 for _ in self.find(flt))

    def distinct(self, field: str) -> list[Any]:
        """Sorted distinct values of one field."""
        return sorted({d.get(field) for d in self._docs.values()
                       if field in d}, key=repr)

    # -- (de)serialisation --------------------------------------------------------

    def to_jsonl(self) -> bytes:
        """Serialise to JSON-lines bytes (deterministic: sorted keys,
        ids in insertion order).  Raises :class:`StorageError` on a
        document JSON cannot represent — never coerces silently.

        Only documents written since the last call are encoded; the
        others reuse their cached line.  Stored documents are values:
        a nested object changed in place without a write is not seen.
        """
        lines = self._lines
        out = []
        for doc_id, doc in self._docs.items():
            line = lines.get(doc_id)
            if line is None:
                line = lines[doc_id] = canonical_json(doc).encode()
            out.append(line)
        if out:
            out.append(b"")
        return b"\n".join(out)

    @classmethod
    def from_jsonl(cls, name: str, payload: bytes) -> "Collection":
        """Rebuild a collection from JSON-lines bytes."""
        coll = cls(name)
        for line in payload.decode().splitlines():
            line = line.strip()
            if line:
                coll.insert_one(json.loads(line))
        return coll


class DocumentStore:
    """A set of collections persisted on the simulated DFS."""

    PREFIX = "store/"

    def __init__(self, dfs: SimulatedDFS | None = None):
        self.dfs = dfs if dfs is not None else SimulatedDFS()
        self.collections: dict[str, Collection] = {}
        self._load()

    def _file_name(self, collection: str) -> str:
        return f"{self.PREFIX}{collection}.jsonl"

    def _load(self) -> None:
        for name in self.dfs.list_files(self.PREFIX):
            if name.endswith(".tmp"):
                # A crash between temp-write and rename left this
                # behind; the target still holds the committed state.
                self.dfs.delete_file(name)
                continue
            coll_name = name[len(self.PREFIX):-len(".jsonl")]
            self.collections[coll_name] = Collection.from_jsonl(
                coll_name, self.dfs.read_file(name))

    def collection(self, name: str) -> Collection:
        """Get or create a collection."""
        if not name:
            raise StorageError("collection name cannot be empty")
        if name not in self.collections:
            self.collections[name] = Collection(name)
        return self.collections[name]

    def put_collection(self, coll: Collection) -> Collection:
        """Register a pre-built collection, replacing any in-memory
        collection with the same name.  The backing DFS file is left
        untouched until the next :meth:`flush` — callers building a
        replacement (``save_engine``) stay crash-safe this way."""
        if not coll.name:
            raise StorageError("collection name cannot be empty")
        self.collections[coll.name] = coll
        return coll

    def drop(self, name: str) -> None:
        """Delete a collection (and its DFS file)."""
        if name not in self.collections:
            raise StorageError(f"no collection named {name!r}")
        del self.collections[name]
        file_name = self._file_name(name)
        if self.dfs.exists(file_name):
            self.dfs.delete_file(file_name)

    def list_collections(self) -> list[str]:
        """Sorted collection names."""
        return sorted(self.collections)

    def flush(self, name: str | None = None) -> None:
        """Persist one collection (or all) to the DFS, atomically.

        Each collection is serialised into a ``.tmp`` sibling and
        renamed over the target file, so a crash (injected or real)
        mid-write never leaves a half-written or missing collection —
        readers see the previous committed contents until the rename.
        """
        names = [name] if name is not None else list(self.collections)
        for coll_name in names:
            coll = self.collections.get(coll_name)
            if coll is None:
                raise StorageError(f"no collection named {coll_name!r}")
            target = self._file_name(coll_name)
            tmp = target + ".tmp"
            self.dfs.write_file(tmp, coll.to_jsonl())
            self.dfs.rename_file(tmp, target)
