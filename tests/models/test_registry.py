"""Unit tests for the model registry and the mixed tuple store."""

import pytest

from repro.errors import ModelError
from repro.models.mixed import MixedTupleStore
from repro.models.registry import (
    FOCUS_MODELS,
    MEASURED_MODELS,
    MODEL_CLASSES,
    create_model,
)
from repro.nf2.oid import Rid
from repro.nf2.schema import RelationSchema, int_attr, str_attr
from repro.nf2.serializer import DASDBS_FORMAT
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine
from repro.storage.longobj import LongObjectAddress


class TestRegistry:
    def test_all_paper_models_present(self):
        assert set(MODEL_CLASSES) == {
            "DSM",
            "DASDBS-DSM",
            "NSM",
            "NSM+index",
            "DASDBS-NSM",
        }

    def test_measured_models_subset(self):
        assert set(MEASURED_MODELS) <= set(MODEL_CLASSES)
        assert "NSM+index" not in MEASURED_MODELS  # analytical only

    def test_focus_models_drop_nsm(self):
        assert "NSM" not in FOCUS_MODELS  # Section 5.3 drops plain NSM

    def test_create_model(self):
        engine = StorageEngine(buffer_pages=16)
        model = create_model("DSM", engine)
        assert model.name == "DSM"
        assert model.engine is engine

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError):
            create_model("XSM", StorageEngine(buffer_pages=16))

    def test_names_match_classes(self):
        engine = StorageEngine(buffer_pages=16)
        for name, cls in MODEL_CLASSES.items():
            assert cls.name == name
            assert create_model(name, engine).name == name


ITEM = RelationSchema.flat("Item", int_attr("v"), str_attr("pad", 100))
WRAPPER = RelationSchema("Wrapper", (int_attr("RootKey"),), (ITEM,))


def wrapper_tuple(key, n_items):
    items = [NestedTuple(ITEM, {"v": i, "pad": "x" * 50}) for i in range(n_items)]
    return NestedTuple(WRAPPER, {"RootKey": key}, {"Item": items})


def read(store, handle):
    """One stored tuple, read and decoded in full."""
    return store.serializer.decode_nested(WRAPPER, store.read_record(handle))


class TestMixedTupleStore:
    @pytest.fixture
    def store(self):
        engine = StorageEngine(buffer_pages=64)
        return MixedTupleStore(engine, "Wrap", WRAPPER, DASDBS_FORMAT)

    def test_small_tuples_go_to_heap(self, store):
        handle = store.insert(wrapper_tuple(1, 2))
        assert isinstance(handle, Rid)
        assert read(store, handle) == wrapper_tuple(1, 2)

    def test_large_tuples_go_to_long_store(self, store):
        big = wrapper_tuple(2, 30)  # 30 * ~150 B exceeds one page
        handle = store.insert(big)
        assert isinstance(handle, LongObjectAddress)
        assert read(store, handle) == big

    def test_read_many_mixes_kinds(self, store):
        small = store.insert(wrapper_tuple(1, 1))
        large = store.insert(wrapper_tuple(2, 30))
        values = store.read_many([large, small])
        assert [v["RootKey"] for v in values] == [2, 1]

    def test_read_many_single_call_for_heap_pages(self, store):
        handles = [store.insert(wrapper_tuple(i, 2)) for i in range(20)]
        store.heap.buffer.clear()
        store.heap.segment.disk.metrics.reset()
        store.read_many(handles)
        assert store.heap.segment.disk.metrics.snapshot().read_calls == 1

    def test_scan_yields_everything(self, store):
        handles = [store.insert(wrapper_tuple(i, 1 if i % 2 else 25)) for i in range(5)]
        longs = [h for h in handles if isinstance(h, LongObjectAddress)]
        assert len(longs) == 3
        decode = store.serializer.decode_nested
        keys = sorted(decode(WRAPPER, blob)["RootKey"] for blob in store.scan_records(longs))
        assert keys == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("n_items", [2, 30], ids=["heap", "long"])
    def test_patch_rewrites_the_root_attribute_only(self, store, n_items):
        handle = store.insert(wrapper_tuple(7, n_items))
        store.patch(handle, store.serializer.compile_patch(WRAPPER, {"RootKey": 8}))
        assert read(store, handle) == wrapper_tuple(8, n_items)

    def test_n_pages_counts_both_segments(self, store):
        store.insert(wrapper_tuple(1, 1))
        store.insert(wrapper_tuple(2, 30))
        assert store.n_pages == store.heap.n_pages + store.long_store.segment.n_pages
        assert store.heap.count_records() == 1
        assert store.long_store.segment.n_pages >= 2
