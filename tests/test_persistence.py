"""Tests for saving/loading engines through the storage engine."""

import random

import pytest

from repro.core.engine import StormEngine
from repro.core.records import Record, STRange
from repro.core.session import StopCondition
from repro.errors import StorageError
from repro.storage.dfs import SimulatedDFS
from repro.storage.document_store import DocumentStore
from repro.storage.persistence import (DATASET_PREFIX, load_engine,
                                       save_engine)


def sample_records(n=600, seed=95):
    rng = random.Random(seed)
    return [Record(i, lon=rng.uniform(0, 100), lat=rng.uniform(0, 100),
                   t=rng.uniform(0, 100),
                   attrs={"v": round(rng.gauss(5, 2), 6),
                          "tag": rng.choice(["x", "y"])})
            for i in range(n)]


def build_engine():
    engine = StormEngine(seed=11)
    engine.create_dataset("alpha", sample_records(600, 95))
    engine.create_dataset("beta", sample_records(300, 96), dims=2,
                          build_ls=False)
    return engine


class TestSaveLoadRoundTrip:
    def test_records_survive(self):
        engine = build_engine()
        store = DocumentStore()
        save_engine(engine, store)
        again = load_engine(store)
        assert set(again.datasets) == {"alpha", "beta"}
        for name in ("alpha", "beta"):
            a = engine.dataset(name).records
            b = again.dataset(name).records
            assert a == b

    def test_index_parameters_survive(self):
        engine = build_engine()
        store = DocumentStore()
        save_engine(engine, store)
        again = load_engine(store)
        assert again.dataset("beta").dims == 2
        assert again.dataset("beta").forest is None
        assert again.dataset("alpha").forest is not None

    def test_ls_choice_survives_tiered_ingest(self):
        """Tiered ingest drops the forest, not the dataset's choice to
        build one: a reload without an LSM serves ``ls-tree`` again."""
        from repro.storage.lsm import LSMTree
        engine = build_engine()
        alpha = engine.dataset("alpha")
        LSMTree.open(alpha)
        assert alpha.forest is None
        store = DocumentStore()
        save_engine(engine, store)
        again = load_engine(store)
        assert "ls-tree" in again.dataset("alpha").samplers
        assert again.dataset("alpha").forest is not None
        assert "ls-tree" not in again.dataset("beta").samplers

    def test_queries_agree_after_reload(self):
        engine = build_engine()
        store = DocumentStore()
        save_engine(engine, store)
        again = load_engine(store)
        window = STRange(10, 10, 90, 90, 0, 100)
        exact_a = engine.avg("alpha", "v", window,
                             stop=StopCondition(max_samples=10**9),
                             rng=random.Random(1))
        exact_b = again.avg("alpha", "v", window,
                            stop=StopCondition(max_samples=10**9),
                            rng=random.Random(2))
        assert exact_a.estimate.value \
            == pytest.approx(exact_b.estimate.value)
        assert exact_a.estimate.q == exact_b.estimate.q

    def test_persists_through_dfs(self, tmp_path):
        """Full durability: engine -> store -> real files -> reload."""
        root = str(tmp_path / "dfs")
        engine = build_engine()
        save_engine(engine, DocumentStore(SimulatedDFS(root=root)))
        again = load_engine(DocumentStore(SimulatedDFS(root=root)))
        assert len(again.dataset("alpha")) == 600

    def test_resave_overwrites(self):
        engine = build_engine()
        store = DocumentStore()
        save_engine(engine, store)
        engine.dataset("alpha").insert(
            Record(10_000, lon=1.0, lat=1.0, attrs={"v": 0.0,
                                                    "tag": "x"}))
        save_engine(engine, store)
        again = load_engine(store)
        assert len(again.dataset("alpha")) == 601

    def test_missing_collection_detected(self):
        engine = build_engine()
        store = DocumentStore()
        save_engine(engine, store)
        store.drop(DATASET_PREFIX + "alpha")
        with pytest.raises(StorageError):
            load_engine(store)

    def test_count_mismatch_detected(self):
        engine = build_engine()
        store = DocumentStore()
        save_engine(engine, store)
        store.collection(DATASET_PREFIX + "alpha").delete_one(0)
        with pytest.raises(StorageError):
            load_engine(store)
