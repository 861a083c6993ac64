"""Unit tests for the storage engine (DFS, document store, codec,
catalog)."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 rule)

from repro.core.records import Record
from repro.errors import SchemaError, StorageError
from repro.storage.catalog import Catalog, DatasetInfo
from repro.storage.dfs import SimulatedDFS
from repro.storage.document_store import (Collection, DocumentStore,
                                          matches_filter)
from repro.storage.json_codec import (canonical_json,
                                      documents_to_records, flatten,
                                      records_to_documents,
                                      rows_to_documents)


class TestDFS:
    def test_write_read_roundtrip(self):
        dfs = SimulatedDFS()
        dfs.write_file("a.txt", b"hello world")
        assert dfs.read_file("a.txt") == b"hello world"

    def test_blocks_and_sizes(self):
        dfs = SimulatedDFS(block_size=4)
        dfs.write_file("a", b"123456789")
        assert dfs.block_count("a") == 3
        assert dfs.file_size("a") == 9

    def test_read_block(self):
        dfs = SimulatedDFS(block_size=4)
        dfs.write_file("a", b"abcdefgh")
        assert dfs.read_block("a", 1) == b"efgh"
        with pytest.raises(StorageError):
            dfs.read_block("a", 5)

    def test_replication_charges_all_replicas(self):
        dfs = SimulatedDFS(machines=4, replication=3, block_size=1024)
        dfs.write_file("a", b"x")
        assert dfs.total_blocks_written() == 3

    def test_append(self):
        dfs = SimulatedDFS()
        dfs.append_file("log", b"one")
        dfs.append_file("log", b"two")
        assert dfs.read_file("log") == b"onetwo"

    def test_delete_and_exists(self):
        dfs = SimulatedDFS()
        dfs.write_file("a", b"x")
        assert dfs.exists("a")
        dfs.delete_file("a")
        assert not dfs.exists("a")
        with pytest.raises(StorageError):
            dfs.read_file("a")

    def test_list_files_prefix(self):
        dfs = SimulatedDFS()
        dfs.write_file("store/a", b"1")
        dfs.write_file("store/b", b"2")
        dfs.write_file("other", b"3")
        assert dfs.list_files("store/") == ["store/a", "store/b"]

    def test_persistence_roundtrip(self, tmp_path):
        root = str(tmp_path / "dfs")
        dfs = SimulatedDFS(root=root)
        dfs.write_file("store/coll.jsonl", b'{"a": 1}\n')
        reloaded = SimulatedDFS(root=root)
        assert reloaded.read_file("store/coll.jsonl") == b'{"a": 1}\n'

    def test_persisted_names_reload_unchanged(self, tmp_path):
        root = str(tmp_path / "dfs")
        dfs = SimulatedDFS(root=root)
        names = ["store/ds__x.jsonl", "store/ds_a__b.jsonl", "_lead",
                 "__", "a/b/c", "pct%2Fname", "wal/seg__0001.log"]
        for i, name in enumerate(names):
            dfs.write_file(name, str(i).encode())
        reloaded = SimulatedDFS(root=root)
        assert reloaded.list_files() == sorted(names)
        for i, name in enumerate(names):
            assert reloaded.read_file(name) == str(i).encode()

    def test_engine_with_underscore_dataset_reloads(self, tmp_path):
        from repro.core.engine import StormEngine
        from repro.storage.persistence import load_engine, save_engine
        root = str(tmp_path / "dfs")
        engine = StormEngine(seed=1)
        records = [Record(i, lon=float(i), lat=float(i) / 2)
                   for i in range(40)]
        engine.create_dataset("_x", records, dims=2)
        save_engine(engine, DocumentStore(SimulatedDFS(root=root)))
        again = load_engine(DocumentStore(SimulatedDFS(root=root)))
        assert set(again.dataset("_x").records) == set(range(40))

    def test_balance(self):
        dfs = SimulatedDFS(machines=4, replication=1)
        for i in range(16):
            dfs.write_file(f"f{i}", b"x")
        assert dfs.balance() == pytest.approx(1.0)

    def test_rejects_bad_config(self):
        with pytest.raises(StorageError):
            SimulatedDFS(machines=0)
        with pytest.raises(StorageError):
            SimulatedDFS(machines=2, replication=3)


class TestFilters:
    DOC = {"a": 5, "b": "x", "c": None}

    def test_equality(self):
        assert matches_filter(self.DOC, {"a": 5})
        assert not matches_filter(self.DOC, {"a": 6})

    def test_comparisons(self):
        assert matches_filter(self.DOC, {"a": {"$gt": 4, "$lte": 5}})
        assert not matches_filter(self.DOC, {"a": {"$lt": 5}})

    def test_in_nin(self):
        assert matches_filter(self.DOC, {"b": {"$in": ["x", "y"]}})
        assert matches_filter(self.DOC, {"b": {"$nin": ["z"]}})

    def test_exists(self):
        assert matches_filter(self.DOC, {"a": {"$exists": True}})
        assert matches_filter(self.DOC, {"zz": {"$exists": False}})
        # None counts as missing.
        assert matches_filter(self.DOC, {"c": {"$exists": False}})

    def test_or_and_not(self):
        assert matches_filter(self.DOC,
                              {"$or": [{"a": 1}, {"b": "x"}]})
        assert matches_filter(self.DOC,
                              {"$and": [{"a": 5}, {"b": "x"}]})
        assert matches_filter(self.DOC, {"$not": {"a": 6}})

    def test_incomparable_types_never_match(self):
        assert not matches_filter({"a": "text"}, {"a": {"$gt": 5}})

    def test_unknown_operator_raises(self):
        with pytest.raises(StorageError):
            matches_filter(self.DOC, {"a": {"$regex": "x"}})
        with pytest.raises(StorageError):
            matches_filter(self.DOC, {"$xor": []})


class TestCollection:
    def test_insert_assigns_ids(self):
        coll = Collection("c")
        i1 = coll.insert_one({"a": 1})
        i2 = coll.insert_one({"a": 2})
        assert i1 != i2
        assert coll.get(i1)["a"] == 1

    def test_duplicate_id_rejected(self):
        coll = Collection("c")
        coll.insert_one({"_id": 7})
        with pytest.raises(StorageError):
            coll.insert_one({"_id": 7})

    def test_find_and_count(self):
        coll = Collection("c")
        coll.insert_many([{"x": i} for i in range(10)])
        assert coll.count({"x": {"$gte": 5}}) == 5
        assert len(list(coll.find())) == 10

    def test_find_returns_copies(self):
        coll = Collection("c")
        cid = coll.insert_one({"x": 1})
        doc = coll.find_one()
        doc["x"] = 99
        assert coll.get(cid)["x"] == 1

    def test_replace_delete(self):
        coll = Collection("c")
        cid = coll.insert_one({"x": 1})
        coll.replace_one(cid, {"x": 2})
        assert coll.get(cid)["x"] == 2
        assert coll.delete_one(cid)
        assert not coll.delete_one(cid)

    def test_delete_many(self):
        coll = Collection("c")
        coll.insert_many([{"x": i} for i in range(10)])
        assert coll.delete_many({"x": {"$lt": 3}}) == 3
        assert len(coll) == 7

    def test_distinct(self):
        coll = Collection("c")
        coll.insert_many([{"k": "a"}, {"k": "b"}, {"k": "a"}])
        assert coll.distinct("k") == ["a", "b"]

    def test_jsonl_roundtrip(self):
        coll = Collection("c")
        coll.insert_many([{"x": 1, "s": "hi"}, {"x": 2}])
        again = Collection.from_jsonl("c", coll.to_jsonl())
        assert sorted(d["x"] for d in again.find()) == [1, 2]


class TestDocumentStore:
    def test_flush_and_reload(self):
        dfs = SimulatedDFS()
        store = DocumentStore(dfs)
        store.collection("tweets").insert_many(
            [{"text": "hello"}, {"text": "world"}])
        store.flush()
        reloaded = DocumentStore(dfs)
        assert reloaded.collection("tweets").count() == 2

    def test_drop(self):
        store = DocumentStore()
        store.collection("a").insert_one({"x": 1})
        store.flush()
        store.drop("a")
        assert "a" not in store.list_collections()
        with pytest.raises(StorageError):
            store.drop("a")

    def test_flush_unknown_collection(self):
        store = DocumentStore()
        with pytest.raises(StorageError):
            store.flush("nope")

    def test_empty_name_rejected(self):
        with pytest.raises(StorageError):
            DocumentStore().collection("")


class TestJsonCodec:
    def test_flatten(self):
        assert flatten({"a": {"b": 1}, "c": 2}) == {"a.b": 1, "c": 2}

    def test_rows_to_documents(self):
        docs = list(rows_to_documents([{"geo": {"lon": 1, "lat": 2}}]))
        assert docs == [{"geo.lon": 1, "geo.lat": 2}]

    def test_documents_to_records(self):
        docs = [{"lon": 1.0, "lat": 2.0, "t": 3.0, "v": 9}]
        (record,) = documents_to_records(docs, "lon", "lat", "t")
        assert record.lon == 1.0 and record.t == 3.0
        assert record.attrs == {"v": 9}

    def test_missing_coordinates_raise(self):
        with pytest.raises(SchemaError):
            list(documents_to_records([{"lat": 2.0}], "lon", "lat"))

    def test_bad_coordinates_raise(self):
        with pytest.raises(SchemaError):
            list(documents_to_records([{"lon": "x", "lat": 1.0}],
                                      "lon", "lat"))

    def test_record_roundtrip(self):
        record = Record(5, lon=1.0, lat=2.0, t=3.0, attrs={"v": 7})
        (doc,) = records_to_documents([record])
        (back,) = documents_to_records([doc], "lon", "lat", "t")
        assert back == record


class TestCatalog:
    def make(self):
        store = DocumentStore()
        return store, Catalog(store)

    def info(self, name="osm"):
        return DatasetInfo(name=name, source="csv:x", mode="import",
                           lon_field="lon", lat_field="lat",
                           time_field="t", record_count=10)

    def test_register_get(self):
        _, catalog = self.make()
        catalog.register(self.info())
        assert catalog.get("osm").record_count == 10

    def test_duplicate_register_rejected(self):
        _, catalog = self.make()
        catalog.register(self.info())
        with pytest.raises(StorageError):
            catalog.register(self.info())

    def test_update(self):
        _, catalog = self.make()
        catalog.register(self.info())
        updated = self.info()
        updated.record_count = 20
        catalog.update(updated)
        assert catalog.get("osm").record_count == 20

    def test_remove_and_names(self):
        _, catalog = self.make()
        catalog.register(self.info("a"))
        catalog.register(self.info("b"))
        assert catalog.names() == ["a", "b"]
        catalog.remove("a")
        assert catalog.names() == ["b"]
        with pytest.raises(StorageError):
            catalog.get("a")

    def test_persists_through_store(self):
        store, catalog = self.make()
        catalog.register(self.info())
        catalog.flush()
        again = Catalog(DocumentStore(store.dfs))
        assert again.get("osm").source == "csv:x"


class TestDFSRename:
    def test_rename_replaces_target_atomically(self):
        dfs = SimulatedDFS()
        dfs.write_file("store/a.jsonl", b"old")
        dfs.write_file("store/a.jsonl.tmp", b"new contents")
        dfs.rename_file("store/a.jsonl.tmp", "store/a.jsonl")
        assert dfs.read_file("store/a.jsonl") == b"new contents"
        assert not dfs.exists("store/a.jsonl.tmp")

    def test_rename_missing_source_raises(self):
        with pytest.raises(StorageError):
            SimulatedDFS().rename_file("nope", "somewhere")

    def test_rename_charges_no_block_io(self):
        dfs = SimulatedDFS()
        dfs.write_file("a", b"x" * 100)
        written = dfs.total_blocks_written()
        dfs.rename_file("a", "b")
        assert dfs.total_blocks_written() == written
        assert dfs.read_file("b") == b"x" * 100

    def test_rename_persists_on_disk_root(self, tmp_path):
        dfs = SimulatedDFS(root=str(tmp_path / "dfs"))
        dfs.write_file("store/a.tmp", b"payload")
        dfs.rename_file("store/a.tmp", "store/a")
        again = SimulatedDFS(root=str(tmp_path / "dfs"))
        assert again.read_file("store/a") == b"payload"
        assert not again.exists("store/a.tmp")


class TestJsonFidelity:
    """Round-trip fidelity: what goes into a collection comes back
    byte-identical through flush/reload — or raises a typed error.
    No silent coercion (the old ``default=str`` path) is allowed."""

    def roundtrip(self, doc):
        coll = Collection("c")
        coll.insert_one(doc)
        payload = coll.to_jsonl()
        again = Collection.from_jsonl("c", payload)
        assert again.to_jsonl() == payload
        return again.get(doc["_id"]), payload

    def test_unicode_keys_and_values(self):
        doc = {"_id": 1, "城市": "北京", "emoji": "🌧️",
               "naïve": {"ключ": "значение"}}
        back, _ = self.roundtrip(doc)
        assert back == doc

    def test_nan_and_infinities_round_trip(self):
        import math
        doc = {"_id": 1, "nan": float("nan"),
               "pinf": float("inf"), "ninf": float("-inf")}
        back, _ = self.roundtrip(doc)
        assert math.isnan(back["nan"])
        assert back["pinf"] == float("inf")
        assert back["ninf"] == float("-inf")

    def test_deeply_nested_payload(self):
        doc = {"_id": 1, "payload": {
            "a": [1, 2.5, None, True, {"b": [[], {}, "x"]}],
            "c": {"d": {"e": {"f": [0.1, -7, "λ"]}}}}}
        back, _ = self.roundtrip(doc)
        assert back == doc

    def test_float_precision_survives(self):
        doc = {"_id": 1, "v": 0.1 + 0.2, "w": 1e-308, "x": 1e308}
        back, _ = self.roundtrip(doc)
        assert back["v"] == doc["v"]
        assert back["w"] == doc["w"] and back["x"] == doc["x"]

    def test_serialisation_is_deterministic(self):
        coll = Collection("c")
        coll.insert_one({"_id": 1, "b": 2, "a": 1})
        assert coll.to_jsonl() == b'{"_id": 1, "a": 1, "b": 2}\n'

    def test_non_serialisable_raises_typed_error(self):
        coll = Collection("c")
        coll.insert_one({"_id": 1, "v": {1, 2, 3}})
        with pytest.raises(StorageError):
            coll.to_jsonl()
        coll2 = Collection("c")
        coll2.insert_one({"_id": 1, "v": b"raw bytes"})
        with pytest.raises(StorageError):
            coll2.to_jsonl()

    def test_canonical_json_error_names_the_problem(self):
        with pytest.raises(StorageError) as err:
            canonical_json({"when": object()})
        assert "not JSON-serialisable" in str(err.value)

    def test_fidelity_through_dfs_flush_and_reload(self, tmp_path):
        dfs = SimulatedDFS(root=str(tmp_path / "dfs"))
        store = DocumentStore(dfs)
        doc = {"_id": 7, "城市": "東京",
               "coords": [float("inf"), float("-inf")],
               "nested": {"α": [1.5, {"β": None}]}}
        store.collection("c").insert_one(doc)
        store.flush("c")
        raw = dfs.read_file("store/c.jsonl")
        again = DocumentStore(SimulatedDFS(root=str(tmp_path / "dfs")))
        assert again.collection("c").to_jsonl() == raw
        back = again.collection("c").get(7)
        assert back["城市"] == "東京"
        assert back["coords"] == [float("inf"), float("-inf")]


def fresh_jsonl(coll):
    """What a flush of ``coll`` must write: every document encoded
    anew, in insertion order."""
    return b"".join(canonical_json(doc).encode() + b"\n"
                    for doc in coll._docs.values())


class CollectionLineCacheMachine(RuleBasedStateMachine):
    """Interleaves every write path with flushes: the cached lines
    never let a stale encoding into the payload."""

    ids = st.integers(0, 6)
    values = st.integers(0, 3)

    def __init__(self):
        super().__init__()
        self.coll = Collection("c")

    @rule(doc_id=ids, v=values)
    def insert_one(self, doc_id, v):
        if doc_id not in self.coll._docs:
            self.coll.insert_one({"_id": doc_id, "v": v})

    @rule(v=values)
    def insert_auto_id(self, v):
        self.coll.insert_one({"v": v, "auto": True})

    @rule(doc_id=ids, v=values)
    def upsert_one(self, doc_id, v):
        self.coll.upsert_one({"_id": doc_id, "v": v, "up": True})

    @rule(doc_id=ids, v=values)
    def replace_one(self, doc_id, v):
        if doc_id in self.coll._docs:
            self.coll.replace_one(doc_id, {"v": v, "re": [v]})

    @rule(doc_id=ids)
    def delete_one(self, doc_id):
        self.coll.delete_one(doc_id)

    @rule(v=values)
    def delete_many(self, v):
        self.coll.delete_many({"v": v})

    @rule()
    def flush(self):
        assert self.coll.to_jsonl() == fresh_jsonl(self.coll)

    @invariant()
    def lines_only_for_live_ids(self):
        assert set(self.coll._lines) <= set(self.coll._docs)

    def teardown(self):
        assert self.coll.to_jsonl() == fresh_jsonl(self.coll)


TestCollectionLineCache = CollectionLineCacheMachine.TestCase
TestCollectionLineCache.settings = settings(max_examples=60,
                                            stateful_step_count=30,
                                            deadline=None)


class TestLineCacheErrors:
    def test_unserialisable_document_is_never_cached(self):
        store = DocumentStore()
        coll = store.collection("c")
        coll.insert_one({"_id": 0, "v": 1})
        coll.insert_one({"_id": 1, "v": {1, 2}})
        coll.insert_one({"_id": 2, "v": 3})
        for _ in range(2):
            with pytest.raises(StorageError):
                store.flush("c")
            assert 1 not in coll._lines
        coll.replace_one(1, {"v": 2})
        store.flush("c")
        assert store.dfs.read_file("store/c.jsonl") == (
            b'{"_id": 0, "v": 1}\n{"_id": 1, "v": 2}\n'
            b'{"_id": 2, "v": 3}\n')
