"""Unit tests for the buffer manager: fixing, eviction, write-back."""

import pytest

from repro.errors import BufferError_, BufferFullError, InvalidAddressError
from repro.storage.backends import contiguous_runs
from repro.storage.buffer import BufferManager, make_policy
from repro.storage.disk import SimulatedDisk


def make(capacity=4, policy="lru", page_size=128):
    disk = SimulatedDisk(page_size=page_size)
    return disk, BufferManager(disk, capacity=capacity, policy=policy)


class TestFixUnfix:
    def test_miss_then_hit(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.fix(pid)
        buf.unfix(pid)
        disk.metrics.reset()
        buf.fix(pid)
        buf.unfix(pid)
        snap = disk.metrics.snapshot()
        assert snap.buffer_hits == 1
        assert snap.pages_read == 0

    def test_fix_counts(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.fix(pid)
        buf.fix(pid)
        assert buf.fixed_pages() == [pid]
        buf.unfix(pid)
        assert buf.fixed_pages() == [pid]
        buf.unfix(pid)
        assert buf.fixed_pages() == []

    def test_unfix_without_fix_rejected(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.fix(pid)
        buf.unfix(pid)
        with pytest.raises(BufferError_):
            buf.unfix(pid)

    def test_unfix_non_resident_rejected(self):
        disk, buf = make()
        with pytest.raises(InvalidAddressError):
            buf.unfix(42)

    def test_page_data_requires_fix(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.fix(pid)
        assert len(buf.page_data(pid)) == 128
        buf.unfix(pid)
        with pytest.raises(BufferError_):
            buf.page_data(pid)

    def test_dirty_written_on_flush(self):
        disk, buf = make()
        pid = disk.allocate()
        data = buf.fix(pid)
        data[0] = 0xAB
        buf.unfix(pid, dirty=True)
        buf.flush()
        assert disk.read_page(pid)[0] == 0xAB

    def test_capacity_must_be_positive(self):
        disk = SimulatedDisk(page_size=128)
        with pytest.raises(BufferError_):
            BufferManager(disk, capacity=0)


class TestFixMany:
    def test_one_call_for_all_misses(self):
        disk, buf = make(capacity=8)
        pids = disk.allocate_many(5)
        disk.metrics.reset()
        buf.fix_many(pids)
        snap = disk.metrics.snapshot()
        assert snap.read_calls == 1
        assert snap.pages_read == 5
        assert snap.page_fixes == 5
        for pid in pids:
            buf.unfix(pid)

    def test_mixed_hits_and_misses(self):
        disk, buf = make(capacity=8)
        pids = disk.allocate_many(4)
        buf.fix(pids[0])
        buf.unfix(pids[0])
        disk.metrics.reset()
        buf.fix_many(pids)
        snap = disk.metrics.snapshot()
        assert snap.pages_read == 3
        assert snap.buffer_hits == 1
        for pid in pids:
            buf.unfix(pid)

    def test_duplicates_fixed_per_occurrence(self):
        disk, buf = make(capacity=8)
        pid = disk.allocate()
        frames = buf.fix_many([pid, pid])
        assert list(frames) == [pid]
        buf.unfix(pid)
        buf.unfix(pid)  # two occurrences, two unfixes

    def test_requested_resident_page_survives_room_making(self):
        """Regression: making room for misses must not evict a requested
        resident (unfixed) page."""
        disk, buf = make(capacity=3)
        a, b, c, d = disk.allocate_many(4)
        buf.fix(a)
        buf.unfix(a)  # a resident, unfixed → eviction candidate
        buf.fix(b)
        buf.unfix(b)
        buf.fix(c)
        buf.unfix(c)
        frames = buf.fix_many([a, d])  # needs room; must not evict a
        assert set(frames) == {a, d}
        buf.unfix(a)
        buf.unfix(d)

    def test_over_capacity_request_rejected(self):
        disk, buf = make(capacity=2)
        pids = disk.allocate_many(3)
        with pytest.raises(BufferFullError):
            buf.fix_many(pids)


class TestEviction:
    def test_lru_evicts_least_recent(self):
        disk, buf = make(capacity=2, policy="lru")
        a, b, c = disk.allocate_many(3)
        buf.fix(a)
        buf.unfix(a)
        buf.fix(b)
        buf.unfix(b)
        buf.fix(a)
        buf.unfix(a)  # a more recent than b
        buf.fix(c)
        buf.unfix(c)  # evicts b
        assert buf.is_resident(a)
        assert not buf.is_resident(b)

    def test_fifo_ignores_recency(self):
        disk, buf = make(capacity=2, policy="fifo")
        a, b, c = disk.allocate_many(3)
        buf.fix(a)
        buf.unfix(a)
        buf.fix(b)
        buf.unfix(b)
        buf.fix(a)
        buf.unfix(a)  # recency irrelevant for FIFO
        buf.fix(c)
        buf.unfix(c)  # evicts a (first in)
        assert not buf.is_resident(a)
        assert buf.is_resident(b)

    def test_fixed_pages_never_evicted(self):
        disk, buf = make(capacity=2)
        a, b, c = disk.allocate_many(3)
        buf.fix(a)  # keep fixed
        buf.fix(b)
        buf.unfix(b)
        buf.fix(c)
        buf.unfix(c)  # must evict b, not a
        assert buf.is_resident(a)
        buf.unfix(a)

    def test_all_fixed_raises(self):
        disk, buf = make(capacity=2)
        a, b, c = disk.allocate_many(3)
        buf.fix(a)
        buf.fix(b)
        with pytest.raises(BufferFullError):
            buf.fix(c)

    def test_dirty_eviction_writes_back(self):
        disk, buf = make(capacity=1)
        a, b = disk.allocate_many(2)
        data = buf.fix(a)
        data[0] = 0x77
        buf.unfix(a, dirty=True)
        buf.fix(b)
        buf.unfix(b)  # evicts dirty a
        assert disk.read_page(a)[0] == 0x77
        assert disk.metrics.evictions == 1

    def test_clock_second_chance(self):
        disk, buf = make(capacity=2, policy="clock")
        a, b, c = disk.allocate_many(3)
        buf.fix(a)
        buf.unfix(a)
        buf.fix(b)
        buf.unfix(b)
        buf.fix(c)
        buf.unfix(c)
        assert buf.resident_pages == 2

    def test_random_policy_deterministic_capacity(self):
        disk, buf = make(capacity=2, policy="random")
        for pid in disk.allocate_many(6):
            buf.fix(pid)
            buf.unfix(pid)
        assert buf.resident_pages == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(BufferError_):
            make_policy("mru")

    def test_policy_kwargs_pass_through(self):
        """Ablations can vary the random-replacement seed."""
        seeded = make_policy("random", seed=7)
        default = make_policy("random")
        pages = list(range(20))
        for policy in (seeded, default):
            for pid in pages:
                policy.on_insert(pid)
        assert list(seeded.victims()) != list(default.victims())

    def test_policy_kwargs_deterministic_per_seed(self):
        a, b = make_policy("random", seed=7), make_policy("random", seed=7)
        for policy in (a, b):
            for pid in range(20):
                policy.on_insert(pid)
        assert list(a.victims()) == list(b.victims())

    def test_policy_rejects_unknown_kwargs(self):
        with pytest.raises(BufferError_):
            make_policy("lru", seed=7)


class TestFlush:
    def test_flush_batches_contiguous(self):
        disk, buf = make(capacity=10)
        pids = disk.allocate_many(6)
        for pid in pids:
            data = buf.fix(pid)
            data[0] = 1
            buf.unfix(pid, dirty=True)
        disk.metrics.reset()
        buf.flush()
        snap = disk.metrics.snapshot()
        assert snap.write_calls == 1  # one contiguous run
        assert snap.pages_written == 6

    def test_flush_splits_non_contiguous(self):
        disk, buf = make(capacity=10)
        pids = disk.allocate_many(5)
        for pid in (pids[0], pids[2], pids[4]):
            data = buf.fix(pid)
            data[0] = 1
            buf.unfix(pid, dirty=True)
        disk.metrics.reset()
        buf.flush()
        assert disk.metrics.snapshot().write_calls == 3

    def test_flush_idempotent(self):
        disk, buf = make()
        pid = disk.allocate()
        data = buf.fix(pid)
        data[0] = 1
        buf.unfix(pid, dirty=True)
        buf.flush()
        disk.metrics.reset()
        buf.flush()
        assert disk.metrics.snapshot().write_calls == 0

    def test_write_through_clears_dirty(self):
        disk, buf = make()
        pid = disk.allocate()
        data = buf.fix(pid)
        data[0] = 9
        buf.unfix(pid, dirty=True)
        buf.write_through(pid)
        assert disk.read_page(pid)[0] == 9
        disk.metrics.reset()
        buf.flush()
        assert disk.metrics.snapshot().write_calls == 0

    def test_batch_cap_respected(self):
        disk = SimulatedDisk(page_size=128)
        buf = BufferManager(disk, capacity=80, write_batch_max=8)
        pids = disk.allocate_many(20)
        for pid in pids:
            data = buf.fix(pid)
            data[0] = 1
            buf.unfix(pid, dirty=True)
        disk.metrics.reset()
        buf.flush()
        assert disk.metrics.snapshot().write_calls == 3  # 8 + 8 + 4

    def test_clear_flushes_and_drops(self):
        disk, buf = make()
        pid = disk.allocate()
        data = buf.fix(pid)
        data[0] = 5
        buf.unfix(pid, dirty=True)
        buf.clear()
        assert buf.resident_pages == 0
        assert disk.read_page(pid)[0] == 5

    def test_clear_with_fixed_pages_rejected(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.fix(pid)
        with pytest.raises(BufferError_):
            buf.clear()
        buf.unfix(pid)


class TestNewPage:
    def test_new_page_no_read_io(self):
        disk, buf = make()
        pid = disk.allocate()
        disk.metrics.reset()
        buf.new_page(pid)
        buf.unfix(pid, dirty=True)
        assert disk.metrics.snapshot().pages_read == 0

    def test_new_page_twice_rejected(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.new_page(pid)
        buf.unfix(pid)
        with pytest.raises(BufferError_):
            buf.new_page(pid)


def test_contiguous_batches_helper():
    assert list(contiguous_runs([1, 2, 3, 7, 8, 10], 32)) == [[1, 2, 3], [7, 8], [10]]
    assert list(contiguous_runs([], 32)) == []
    assert list(contiguous_runs([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]


class TestCachedViews:
    """fix_view/view_of: one SlottedPage wrapper per residency."""

    def test_view_is_cached_per_residency(self):
        disk, buf = make()
        pid = disk.allocate()
        view = buf.fix_view(pid)
        assert buf.view_of(pid) is view
        buf.unfix(pid)
        assert buf.fix_view(pid) is view  # still resident, still cached
        buf.unfix(pid)

    def test_view_survives_mutation_through_itself(self):
        disk, buf = make()
        pid = disk.allocate()
        view = buf.fix_view(pid)
        slot = view.insert(b"abc")
        assert buf.view_of(pid) is view
        assert view.read(slot) == b"abc"
        buf.unfix(pid, dirty=True)

    def test_raw_page_data_invalidates_the_view(self):
        disk, buf = make()
        pid = disk.allocate()
        view = buf.fix_view(pid)
        view.insert(b"abc")
        raw = buf.page_data(pid)  # raw access may mutate behind the view
        raw[:] = bytes(len(raw))
        fresh = buf.view_of(pid)
        assert fresh is not view
        assert fresh.n_slots == 0
        buf.unfix(pid, dirty=True)

    def test_eviction_builds_a_fresh_view(self):
        disk, buf = make(capacity=1)
        a, b = disk.allocate(), disk.allocate()
        view = buf.fix_view(a)
        view.insert(b"abc")
        buf.unfix(a, dirty=True)
        buf.fix(b)
        buf.unfix(b)  # evicts a (capacity 1)
        again = buf.fix_view(a)
        assert again is not view
        assert again.read(0) == b"abc"
        buf.unfix(a)

    def test_view_of_requires_fix(self):
        disk, buf = make()
        pid = disk.allocate()
        buf.fix(pid)
        buf.unfix(pid)
        with pytest.raises(BufferError_):
            buf.view_of(pid)
        with pytest.raises(InvalidAddressError):
            buf.view_of(4242)
