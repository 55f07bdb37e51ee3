"""Unit tests for the model registry and a stored relation's records."""

import pytest

from repro.errors import ModelError
from repro.models.addressing import Relation
from repro.models.registry import (
    FOCUS_MODELS,
    MEASURED_MODELS,
    MODEL_CLASSES,
    create_model,
)
from repro.nf2.oid import Rid
from repro.nf2.schema import RelationSchema, int_attr, str_attr
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer
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
SERIALIZER = NF2Serializer(DASDBS_FORMAT)


def wrapper_tuple(key, n_items):
    items = [NestedTuple(ITEM, {"v": i, "pad": "x" * 50}) for i in range(n_items)]
    return NestedTuple(WRAPPER, {"RootKey": key}, {"Item": items})


def insert(store, value):
    return store.insert(SERIALIZER.encode_nested(value), value)


def decode(blob):
    return SERIALIZER.decode_nested(WRAPPER, blob)


def read(store, handle):
    """One stored tuple, read and decoded in full."""
    return decode(store.read_record(handle))


class TestMixedRelation:
    """A relation with a long store: records that fit a page go to the
    heap, larger ones to private header and data pages."""

    @pytest.fixture
    def store(self):
        engine = StorageEngine(buffer_pages=64)
        return Relation(engine, "Wrap", DASDBS_FORMAT)

    def test_small_tuples_go_to_heap(self, store):
        handle = insert(store, wrapper_tuple(1, 2))
        assert isinstance(handle, Rid)
        assert read(store, handle) == wrapper_tuple(1, 2)

    def test_large_tuples_go_to_long_store(self, store):
        big = wrapper_tuple(2, 30)  # 30 * ~150 B exceeds one page
        handle = insert(store, big)
        assert isinstance(handle, LongObjectAddress)
        assert read(store, handle) == big

    def test_read_records_mixes_kinds(self, store):
        small = insert(store, wrapper_tuple(1, 1))
        large = insert(store, wrapper_tuple(2, 30))
        values = [decode(blob) for blob in store.read_records([large, small, large])]
        assert [v["RootKey"] for v in values] == [2, 1, 2]

    def test_read_records_single_call_for_heap_pages(self, store):
        handles = [insert(store, wrapper_tuple(i, 2)) for i in range(20)]
        store.heap.buffer.clear()
        store.heap.segment.disk.metrics.reset()
        assert len([decode(blob) for blob in store.read_records(handles)]) == 20
        assert store.heap.segment.disk.metrics.snapshot().read_calls == 1

    def test_scan_yields_everything(self, store):
        handles = [insert(store, wrapper_tuple(i, 1 if i % 2 else 25)) for i in range(5)]
        longs = [h for h in handles if isinstance(h, LongObjectAddress)]
        assert len(longs) == 3
        keys = sorted(decode(blob)["RootKey"] for blob in store.scan_records(longs))
        assert keys == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("n_items", [2, 30], ids=["heap", "long"])
    def test_patch_rewrites_the_root_attribute_only(self, store, n_items):
        handle = insert(store, wrapper_tuple(7, n_items))
        store.patch(handle, SERIALIZER.compile_patch(WRAPPER, {"RootKey": 8}))
        assert read(store, handle) == wrapper_tuple(8, n_items)

    def test_n_pages_counts_both_segments(self, store):
        insert(store, wrapper_tuple(1, 1))
        insert(store, wrapper_tuple(2, 30))
        assert store.n_pages == store.heap.n_pages + store.long_store.segment.n_pages
        assert store.heap.count_records() == 1
        assert store.long_store.segment.n_pages >= 2


class TestHeapOnlyRelation:
    @pytest.fixture
    def store(self):
        return Relation(StorageEngine(buffer_pages=64), "Rows")

    def test_every_record_goes_to_the_heap(self, store):
        handles = [insert(store, wrapper_tuple(i, 2)) for i in range(5)]
        assert all(isinstance(handle, Rid) for handle in handles)
        assert store.long_store is None and store.n_pages == store.heap.n_pages

    def test_read_records_is_the_heap_batch_read(self, store):
        handles = [insert(store, wrapper_tuple(i, 2)) for i in range(5)]
        records = store.read_records([handles[3], handles[0], handles[3]])
        assert isinstance(records, list)
        assert [decode(blob)["RootKey"] for blob in records] == [3, 0, 3]

    def test_patch_updates_in_place(self, store):
        handle = insert(store, wrapper_tuple(7, 2))
        store.patch(handle, SERIALIZER.compile_patch(WRAPPER, {"RootKey": 8}))
        assert read(store, handle) == wrapper_tuple(8, 2)
