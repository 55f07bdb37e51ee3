"""Unit tests for the long-object store (header/data page split)."""

import pytest

from repro.errors import InvalidAddressError, StorageError
from repro.nf2.serializer import DASDBS_FORMAT
from repro.storage import StorageEngine
from repro.storage.longobj import LongObjectStore


@pytest.fixture
def store():
    engine = StorageEngine(buffer_pages=100)
    return LongObjectStore(engine.new_segment("objects"), DASDBS_FORMAT)


def cold(store):
    """Flush + drop the buffer and reset metrics: next access is cold."""
    store.buffer.clear()
    store.segment.disk.metrics.reset()


SECTIONS = [b"R" * 150, b"P" * 1000, b"S" * 3400]


class TestStoreAndRead:
    def test_roundtrip_all_sections(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        assert store.read(addr) == SECTIONS

    def test_roundtrip_after_cold_restart(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        cold(store)
        assert store.read(addr) == SECTIONS

    def test_single_section_read(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        cold(store)
        assert store.read(addr, [1]) == [SECTIONS[1]]

    def test_section_subsets(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        assert store.read(addr, [0, 2]) == [SECTIONS[0], SECTIONS[2]]

    def test_empty_sections_allowed(self, store):
        addr = store.store([b"", b"abc", b""], n_subtuples=1)
        assert store.read(addr) == [b"", b"abc", b""]

    def test_no_sections_rejected(self, store):
        with pytest.raises(StorageError):
            store.store([], n_subtuples=0)

    def test_unknown_section_rejected(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        with pytest.raises(InvalidAddressError):
            store.read(addr, [7])

    def test_bad_address_rejected(self, store):
        store.store(SECTIONS, n_subtuples=13)
        from repro.storage.longobj import LongObjectAddress

        data_page = store.segment.page_ids[-1]  # a data page, not a header
        with pytest.raises(InvalidAddressError):
            store.read_directory(LongObjectAddress((data_page,)))

    def test_pages_exclusive_per_object(self, store):
        a = store.store(SECTIONS, n_subtuples=13)
        b = store.store(SECTIONS, n_subtuples=13)
        pages_a = set(a.header_page_ids) | set(store.read_directory(a).data_page_ids)
        pages_b = set(b.header_page_ids) | set(store.read_directory(b).data_page_ids)
        assert pages_a.isdisjoint(pages_b)


class TestIOAccounting:
    def test_full_read_two_calls(self, store):
        """DASDBS reads header pages and data pages in separate calls."""
        addr = store.store(SECTIONS, n_subtuples=13)
        cold(store)
        store.read(addr)
        snap = store.segment.disk.metrics.snapshot()
        assert snap.read_calls == 2
        # 1 header + ceil(4550/2012) = 3 data pages
        assert snap.pages_read == 4

    def test_partial_read_fewer_pages(self, store):
        """Equation 5: only the data pages of requested sections load."""
        addr = store.store(SECTIONS, n_subtuples=13)
        cold(store)
        store.read(addr, [0])  # root section: first data page only
        snap = store.segment.disk.metrics.snapshot()
        assert snap.read_calls == 2
        assert snap.pages_read == 2  # header + one data page

    def test_prefix_sections_one_data_page(self, store):
        """Root + Platform sections of a benchmark-like object share the
        first data page — 'the header page and a single data page'."""
        addr = store.store([b"R" * 150, b"P" * 900, b"S" * 3400], n_subtuples=13)
        cold(store)
        store.read(addr, [0, 1])
        assert store.segment.disk.metrics.snapshot().pages_read == 2

    def test_pages_of(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        header, data = store.pages_of(addr)
        assert header == 1
        assert data == 3

    def test_directory_forces_header_pages(self, store):
        """Thousands of sub-tuple entries push the directory past one page."""
        addr = store.store([b"x" * 100], n_subtuples=300)  # 32+12+2400 B directory
        header, _ = store.pages_of(addr)
        assert header == 2

    def test_pages_for_sections(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        assert store.pages_for_sections(addr, [0]) == 1
        assert store.pages_for_sections(addr, [0, 1]) == 1
        assert store.pages_for_sections(addr, [0, 1, 2]) == 3


class TestUpdates:
    def test_replace_same_sizes(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        new_sections = [b"r" * 150, b"p" * 1000, b"s" * 3400]
        store.replace(addr, new_sections)
        assert store.read(addr) == new_sections

    def test_replace_dirties_all_pages(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        store.buffer.flush()
        store.segment.disk.metrics.reset()
        store.replace(addr, SECTIONS)
        store.buffer.flush()
        assert store.segment.disk.metrics.snapshot().pages_written == 4

    def test_replace_size_change_rejected(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        with pytest.raises(StorageError):
            store.replace(addr, [b"too short", SECTIONS[1], SECTIONS[2]])

    def test_patch_section_deferred(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        store.buffer.flush()
        store.segment.disk.metrics.reset()
        store.patch_section(addr, 0, b"Q" * 150)
        assert store.segment.disk.metrics.snapshot().pages_written == 0
        store.buffer.flush()
        assert store.segment.disk.metrics.snapshot().pages_written == 1
        assert store.read(addr, [0]) == [b"Q" * 150]

    def test_patch_section_write_through_pool(self, store):
        """Section 5.3: the change-attribute page pool writes immediately."""
        addr = store.store(SECTIONS, n_subtuples=13)
        store.buffer.flush()
        store.segment.disk.metrics.reset()
        store.patch_section(addr, 0, b"W" * 150, write_through=True)
        snap = store.segment.disk.metrics.snapshot()
        assert snap.write_calls == 1
        assert snap.pages_written == 1

    def test_patch_wrong_size_rejected(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        with pytest.raises(StorageError):
            store.patch_section(addr, 0, b"tiny")

    def test_patch_section_spanning_pages(self, store):
        addr = store.store(SECTIONS, n_subtuples=13)
        new_sight = b"Z" * 3400  # spans two data pages
        store.patch_section(addr, 2, new_sight)
        assert store.read(addr, [2]) == [new_sight]


def _patterned(length: int, salt: int) -> bytes:
    """Non-repeating-looking bytes, so a misplaced slice cannot pass."""
    return bytes((salt + index * 7 + index // 251) % 256 for index in range(length))


@pytest.fixture(params=["memory", "mmap"])
def cold_store(request, tmp_path):
    """A store whose next read is cold; mmap frames come back read-only."""
    kwargs = {}
    if request.param == "mmap":
        kwargs = {"backend": "mmap", "backend_path": str(tmp_path / "long.pages")}
    with StorageEngine(buffer_pages=700, **kwargs) as engine:
        yield LongObjectStore(engine.new_segment("objects"), DASDBS_FORMAT)


def _restart(store):
    store.buffer.clear()
    store._directories.clear()


class TestSingleCopyRead:
    """``read``/``read_directory`` decode straight out of fixed frames."""

    def test_frames_are_read_only_on_mmap(self, cold_store, request):
        addr = cold_store.store(SECTIONS, n_subtuples=13)
        _restart(cold_store)
        assert cold_store.read(addr) == SECTIONS
        frame = cold_store.buffer._frames[addr.root_page_id].data
        if request.node.callspec.params["cold_store"] == "mmap":
            assert isinstance(frame, memoryview) and frame.readonly
        else:
            assert isinstance(frame, bytearray)

    def test_padded_directory_over_several_header_pages(self, cold_store):
        sections = [_patterned(150, 1), _patterned(900, 2), _patterned(2500, 3)]
        addr = cold_store.store(sections, n_subtuples=600)
        assert len(addr.header_page_ids) > 1
        _restart(cold_store)
        directory = cold_store.read_directory(addr)
        assert directory.section_lengths == (150, 900, 2500)
        assert directory.section_offsets == (0, 150, 1050)
        assert cold_store.read(addr) == sections
        assert cold_store.buffer.fixed_pages() == []

    def test_directory_entries_straddling_header_pages(self, cold_store):
        payload = cold_store.payload_per_page
        sections = [_patterned(40, 5), _patterned(payload * 520 + 17, 6), b"tail"]
        addr = cold_store.store(sections, n_subtuples=0)
        # 4 bytes per data page id: the id list alone outgrows one page.
        assert len(addr.header_page_ids) > 1
        stored = cold_store._directories[addr.root_page_id]
        _restart(cold_store)
        assert cold_store.read_directory(addr) == stored
        assert cold_store.read(addr) == sections
        assert cold_store.read(addr, [2, 0]) == [sections[2], sections[0]]
        assert cold_store.buffer.fixed_pages() == []

    def test_section_straddling_data_pages(self, cold_store):
        payload = cold_store.payload_per_page
        sections = [
            _patterned(payload - 10, 1),  # ends 10 bytes short of the boundary
            _patterned(20, 2),  # straddles page 0 / page 1
            _patterned(2 * payload + 5, 3),  # covers a whole page and two partial ones
        ]
        addr = cold_store.store(sections, n_subtuples=3)
        _restart(cold_store)
        assert cold_store.read(addr) == sections
        _restart(cold_store)
        assert cold_store.read(addr, [1]) == [sections[1]]
        assert all(type(blob) is bytes for blob in cold_store.read(addr))

    def test_zero_length_sections(self, cold_store):
        payload = cold_store.payload_per_page
        sections = [b"", _patterned(payload, 4), b"", _patterned(9, 5), b""]
        addr = cold_store.store(sections, n_subtuples=2)
        _restart(cold_store)
        assert cold_store.read(addr) == sections
        assert cold_store.read(addr, [0, 2, 4]) == [b"", b"", b""]

    def test_subset_reads_only_the_overlapping_pages(self, cold_store):
        addr = cold_store.store(SECTIONS, n_subtuples=13)
        _restart(cold_store)
        metrics = cold_store.segment.disk.metrics
        metrics.reset()
        assert cold_store.read(addr, [1, 0]) == [SECTIONS[1], SECTIONS[0]]
        assert metrics.snapshot().pages_read == 1 + 1  # header + first data page
        assert cold_store.buffer.fixed_pages() == []

    def test_bad_section_id_leaves_nothing_fixed(self, cold_store):
        addr = cold_store.store(SECTIONS, n_subtuples=13)
        _restart(cold_store)
        for bad in ([3], [-1], [0, 9]):
            with pytest.raises(InvalidAddressError):
                cold_store.read(addr, bad)
        assert cold_store.buffer.fixed_pages() == []

    def test_bad_magic_leaves_nothing_fixed(self, cold_store):
        from repro.storage.longobj import LongObjectAddress

        addr = cold_store.store(SECTIONS, n_subtuples=13)
        data_page = cold_store._directories[addr.root_page_id].data_page_ids[0]
        _restart(cold_store)
        for bogus in (
            LongObjectAddress((data_page,)),
            LongObjectAddress((data_page, addr.root_page_id)),
        ):
            with pytest.raises(InvalidAddressError):
                cold_store.read(bogus)
            with pytest.raises(InvalidAddressError):
                cold_store.read_directory(bogus)
        assert cold_store.buffer.fixed_pages() == []
