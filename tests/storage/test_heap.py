"""Unit tests for heap files."""

import pytest

from repro.errors import StorageError
from repro.nf2.oid import Rid
from repro.storage import StorageEngine


@pytest.fixture
def heap():
    return StorageEngine(buffer_pages=50).new_heap("r")


class TestInsertRead:
    def test_roundtrip(self, heap):
        rid = heap.insert(b"hello")
        assert heap.read(rid) == b"hello"

    def test_records_pack_onto_pages(self, heap):
        rids = [heap.insert(b"x" * 170) for _ in range(22)]
        # 2012 usable / 174 -> 11 per page -> 2 pages for 22 records.
        assert heap.n_pages == 2
        assert rids[0].page_id == rids[10].page_id
        assert rids[0].page_id != rids[11].page_id

    def test_oversized_record_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.insert(b"x" * 4000)

    def test_read_foreign_page_rejected(self, heap):
        heap.insert(b"x")
        with pytest.raises(StorageError):
            heap.read(Rid(9999, 0))

    def test_variable_sizes_fill_pages(self, heap):
        sizes = [100, 900, 800, 300, 50]
        rids = [heap.insert(bytes([i]) * s) for i, s in enumerate(sizes)]
        for i, (rid, size) in enumerate(zip(rids, sizes)):
            assert heap.read(rid) == bytes([i]) * size

    def test_count_records(self, heap):
        for i in range(7):
            heap.insert(bytes([i]))
        assert heap.count_records() == 7


class TestReadMany:
    def test_single_call_for_page_set(self, heap):
        rids = [heap.insert(bytes([i]) * 400) for i in range(12)]  # several pages
        heap.segment.disk.metrics.reset()
        heap.buffer.clear()
        heap.segment.disk.metrics.reset()
        records = heap.read_many(rids)
        assert records == [bytes([i]) * 400 for i in range(12)]
        snap = heap.segment.disk.metrics.snapshot()
        assert snap.read_calls == 1

    def test_order_preserved_with_duplicates(self, heap):
        a = heap.insert(b"a")
        b = heap.insert(b"b")
        assert heap.read_many([b, a, b]) == [b"b", b"a", b"b"]

    def test_empty_list(self, heap):
        assert heap.read_many([]) == []


class TestUpdate:
    def test_same_size_update(self, heap):
        rid = heap.insert(b"aaaa")
        heap.update(rid, b"bbbb")
        assert heap.read(rid) == b"bbbb"

    def test_update_deferred_write(self, heap):
        rid = heap.insert(b"aaaa")
        heap.buffer.flush()
        heap.segment.disk.metrics.reset()
        heap.update(rid, b"cccc")
        assert heap.segment.disk.metrics.snapshot().pages_written == 0
        heap.buffer.flush()
        assert heap.segment.disk.metrics.snapshot().pages_written == 1

    def test_update_write_through(self, heap):
        """The DASDBS page-pool path: one immediate single-page write."""
        rid = heap.insert(b"aaaa")
        heap.buffer.flush()
        heap.segment.disk.metrics.reset()
        heap.update(rid, b"dddd", write_through=True)
        snap = heap.segment.disk.metrics.snapshot()
        assert snap.write_calls == 1
        assert snap.pages_written == 1
        heap.buffer.flush()
        assert heap.segment.disk.metrics.snapshot().pages_written == 1  # no double write

    def test_delete(self, heap):
        rid = heap.insert(b"x")
        heap.delete(rid)
        assert heap.count_records() == 0


class TestScan:
    def test_scan_in_storage_order(self, heap):
        payloads = [bytes([i]) * 50 for i in range(30)]
        for payload in payloads:
            heap.insert(payload)
        assert [record for _, record in heap.scan()] == payloads

    def test_scan_fixes_each_page_once(self, heap):
        for i in range(30):
            heap.insert(bytes([i]) * 150)
        heap.segment.disk.metrics.reset()
        list(heap.scan())
        assert heap.segment.disk.metrics.snapshot().page_fixes == heap.n_pages


class TestZeroCopyReads:
    """read_many's zero-copy contract: views, decoded immediately."""

    def test_read_many_returns_memoryviews(self, heap):
        rids = [heap.insert(bytes([i]) * 40) for i in range(6)]
        records = heap.read_many(rids)
        assert all(isinstance(record, memoryview) for record in records)
        assert [bytes(record) for record in records] == [
            bytes([i]) * 40 for i in range(6)
        ]

    def test_views_alias_the_live_page(self, heap):
        """Documents the contract: a view reflects later page mutations,
        which is why callers must decode before the next write."""
        rid = heap.insert(b"aaaa")
        (view,) = heap.read_many([rid])
        heap.update(rid, b"bbbb")
        assert bytes(view) == b"bbbb"

    def test_read_many_after_update_and_delete(self, heap):
        rids = [heap.insert(bytes([i]) * 20) for i in range(8)]
        heap.update(rids[2], b"\xaa" * 20)
        heap.delete(rids[5])
        live = [rid for rid in rids if rid != rids[5]]
        records = heap.read_many(live)
        assert bytes(records[2]) == b"\xaa" * 20
        assert bytes(records[-1]) == bytes([7]) * 20
