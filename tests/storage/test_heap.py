"""Unit tests for heap files."""

import pytest

from repro.errors import StorageError
from repro.models.addressing import Relation
from repro.nf2.oid import Rid
from repro.storage import StorageEngine
from repro.storage.buffer import ReferenceString


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


# -- the page primitive ---------------------------------------------------------------


def _packed(heap):
    for i in range(60):
        heap.insert(bytes([i]) * (20 + 37 * i % 300))


def _deleted(heap):
    rids = [heap.insert(bytes([i]) * (20 + 37 * i % 300)) for i in range(60)]
    for rid in rids[::3]:
        heap.delete(rid)
    # a page whose every slot is deleted stays in the segment, empty
    for rid in rids:
        if rid.page_id == rids[-1].page_id and rid not in rids[::3]:
            heap.delete(rid)


def _moved(heap):
    rids = [heap.insert(bytes([i]) * 150) for i in range(60)]
    heap.move_records(rids[:24], max_pages=2)
    assert rids[0].page_id not in heap.segment  # emptied by the move, and freed


STATES = {"packed": _packed, "deleted": _deleted, "moved": _moved}

#: Which pages a case scans: all of them, or an explicit subset, as a
#: shard scans the units it owns.
SUBSETS = {"all": None, "shard-unit": slice(None, None, 2)}


def _built(state: str):
    """A fresh 8-page-buffer engine with one relation in ``state``."""
    engine = StorageEngine(buffer_pages=8)
    relation = Relation(engine, "r")
    STATES[state](relation.heap)
    engine.restart_buffer()
    return engine, relation


def _per_record(heap, page_ids=None):
    """The reference: the per-record scan by ``(Rid, record)`` that
    ``HeapFile.scan`` and ``scan_pages`` were before the page batches,
    over every page or an explicit page list."""
    for page_id in heap.segment.page_ids if page_ids is None else page_ids:
        heap._require_page(page_id)
        page = heap.buffer.fix_view(page_id)
        try:
            records = page.records()
        finally:
            heap.buffer.unfix(page_id)
        for slot, record in records:
            yield Rid(page_id, slot), record


def _recorded(state: str, run) -> tuple[list, list]:
    engine, relation = _built(state)
    references = ReferenceString()
    references.record(engine)
    return run(relation), list(references.events())


def _pages(relation, subset):
    cut = SUBSETS[subset]
    return None if cut is None else relation.heap.segment.page_ids[cut]


@pytest.mark.parametrize("state", STATES)
class TestScanPages:
    """``scan_pages`` is every full pass; it must read exactly what the
    per-record scan reads, in the same order, with the same fixes."""

    @pytest.mark.parametrize("subset", SUBSETS)
    def test_yields_the_per_record_scan(self, state, subset):
        _, relation = _built(state)
        heap, pages = relation.heap, _pages(relation, subset)
        flat = [
            (Rid(page_id, slot), record)
            for page_id, slots, records in heap.scan_pages(pages)
            for slot, record in zip(slots, records)
        ]
        assert flat == list(_per_record(heap, pages))
        assert all(type(record) is bytes for _, record in flat)
        if pages is None:
            assert list(heap.scan()) == flat

    @pytest.mark.parametrize("subset", SUBSETS)
    def test_scan_records_asks_the_buffer_what_the_reference_asks(self, state, subset):
        _, relation = _built(state)
        pages = _pages(relation, subset)
        got = _recorded(state, lambda r: list(r.scan_records((), pages)))
        want = _recorded(state, lambda r: [blob for _, blob in _per_record(r.heap, pages)])
        assert got == want and got[1]

    def test_select_and_count_records(self, state):
        def key_of(blob, attr):
            return blob[0] % 4

        keys = {1, 2}
        got = _recorded(state, lambda r: r.select(keys, key_of, "k"))
        want = _recorded(
            state, lambda r: [(rid, b) for rid, b in _per_record(r.heap) if key_of(b, "k") in keys]
        )
        assert got == want and got[0]
        assert [*_recorded(state, lambda r: list(r.heap.scan()))[1]] == want[1]
        counted = _recorded(state, lambda r: r.heap.count_records())
        scanned = _recorded(state, lambda r: sum(1 for _ in _per_record(r.heap)))
        assert counted == scanned

    def test_a_foreign_page_is_refused_in_its_turn(self, state):
        engine, relation = _built(state)
        heap, other = relation.heap, engine.new_heap("other")
        first, *_ = heap.segment.page_ids
        scan = heap.scan_pages([first, other.insert(b"x").page_id])
        assert next(scan)[0] == first
        with pytest.raises(StorageError):
            next(scan)


def test_an_emptied_page_yields_an_empty_batch():
    _, relation = _built("deleted")
    *_, (_, slots, records) = relation.heap.scan_pages()
    assert list(slots) == records == []
