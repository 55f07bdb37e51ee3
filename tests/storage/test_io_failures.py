"""Real I/O failures on the page path surface typed and lose nothing.

ROADMAP 9b, the part the page path owns: an ``OSError`` out of
``preadv``/``pwritev`` or a short transfer becomes a
:class:`~repro.errors.StorageError` (never a bare ``OSError``), a failed
write-back keeps the victim, and a failed read leaves neither a frame
for the pages it could not deliver nor a leaked fix on the pages that
were pinned meanwhile — so the very next attempt succeeds.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.errors import StorageError, StorageFaultError, TransientIOError
from repro.fault.backend import FaultyBackend
from repro.fault.plan import FaultPlan
from repro.storage.backends import FileBackend, MemoryBackend
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.page import seal_page

PAGE = 256


def _fill(value: int) -> bytes:
    return bytes([value]) * PAGE


def _sealed(value: int) -> bytes:
    data = bytearray(_fill(value))
    seal_page(data)
    return bytes(data)


def _failing(monkeypatch, name: str, code: int, times: int = 1):
    """Make ``os.<name>`` raise ``OSError(code)`` for the next ``times`` calls."""
    real = getattr(os, name)
    left = [times]

    def flaky(*args):
        if left[0] > 0:
            left[0] -= 1
            raise OSError(code, os.strerror(code))
        return real(*args)

    monkeypatch.setattr(os, name, flaky)


def _fix_counts(buffer: BufferManager) -> dict[int, int]:
    return {pid: frame.fix_count for pid, frame in buffer._frames.items()}


@pytest.fixture
def file_disk(tmp_path):
    disk = SimulatedDisk(
        page_size=PAGE, backend="file", backend_path=str(tmp_path / "disk.pages")
    )
    pids = disk.allocate_many(6)
    disk.write_pages([(pid, _fill(pid + 1)) for pid in pids])
    yield disk, pids
    disk.close()


class TestOSErrorsAreTyped:
    @pytest.mark.parametrize("code", [errno.EIO, errno.ENOSPC])
    def test_pwritev_failure_is_a_storage_error(self, tmp_path, monkeypatch, code):
        with FileBackend(PAGE, path=str(tmp_path / "b.pages")) as backend:
            backend.allocate_run(0, 4)
            runs = (
                [(1, _fill(7))],
                [(1, _fill(7)), (2, _fill(8))],
                [(3, _fill(9)), (0, _fill(6))],
            )
            for items in runs:
                _failing(monkeypatch, "pwritev", code)
                with pytest.raises(StorageError) as caught:
                    backend.write_run(items)
                assert not isinstance(caught.value, OSError)
                assert isinstance(caught.value.__cause__, OSError)
                assert caught.value.__cause__.errno == code
                backend.write_run(items)  # the retry goes through
                assert backend.read_run([pid for pid, _ in items]) == [d for _, d in items]

    @pytest.mark.parametrize("code", [errno.EIO, errno.EBADF])
    def test_preadv_failure_is_a_storage_error(self, tmp_path, monkeypatch, code):
        with FileBackend(PAGE, path=str(tmp_path / "b.pages")) as backend:
            backend.allocate_run(0, 4)
            for page_ids in ([2], [0, 1, 2], [3, 1]):
                _failing(monkeypatch, "preadv", code)
                with pytest.raises(StorageError) as caught:
                    backend.read_run(page_ids)
                assert not isinstance(caught.value, OSError)
                assert caught.value.__cause__.errno == code
                assert backend.read_run(page_ids) == [bytes(PAGE)] * len(page_ids)

    def test_allocation_zeroing_failure_is_typed_too(self, tmp_path, monkeypatch):
        with FileBackend(PAGE, path=str(tmp_path / "b.pages")) as backend:
            backend.allocate_run(0, 4)
            _failing(monkeypatch, "pwritev", errno.ENOSPC)
            with pytest.raises(StorageError, match="No space left"):
                backend.allocate_run(1, 2)  # recycled region: re-zeroed by a write

    def test_short_read_on_a_truncated_file(self, file_disk):
        disk, pids = file_disk
        os.ftruncate(disk.backend._fd, 2 * PAGE + PAGE // 2)
        with pytest.raises(StorageError, match="short read"):
            disk.backend.read_run([2])
        with pytest.raises(StorageError, match="short read"):
            disk.backend.read_run([1, 2, 3])
        assert disk.backend.read_run([0, 1]) == [_fill(1), _fill(2)]


class TestFailedWriteBackKeepsTheVictim:
    @pytest.mark.parametrize("policy", ["lru", "clock", "2q"])
    def test_eviction(self, file_disk, monkeypatch, policy):
        disk, pids = file_disk
        buffer = BufferManager(disk, capacity=2, policy=policy)
        for pid in pids[:2]:
            buffer.fix(pid)
            buffer.page_data(pid)[:] = _fill(0xA0 + pid)
            buffer.unfix(pid, dirty=True)
        before = disk.metrics.snapshot()
        _failing(monkeypatch, "pwritev", errno.ENOSPC)
        with pytest.raises(StorageError, match="No space left"):
            buffer.fix(pids[2])
        # Nothing was lost: both dirty pages are still resident, dirty
        # and known to the policy; no eviction was counted.
        assert sorted(_fix_counts(buffer)) == pids[:2]
        assert all(buffer._frames[pid].dirty for pid in pids[:2])
        assert sorted(set(buffer.policy.victims())) == pids[:2]
        assert disk.metrics.snapshot().evictions == before.evictions
        assert not buffer.is_resident(pids[2])
        # The retry succeeds and the victim's bytes reach the disk.
        assert bytes(buffer.fix(pids[2])) == _fill(pids[2] + 1)
        buffer.unfix(pids[2])
        buffer.flush()
        assert disk.read_pages(pids[:2]) == [_fill(0xA0 + pid) for pid in pids[:2]]

    def test_flush_and_write_through(self, file_disk, monkeypatch):
        disk, pids = file_disk
        buffer = BufferManager(disk, capacity=4)
        for pid in pids[:3]:
            buffer.fix(pid)
            buffer.page_data(pid)[:] = _fill(0xB0 + pid)
            buffer.unfix(pid, dirty=True)
        for retry in (buffer.flush, lambda: buffer.write_through(pids[0])):
            _failing(monkeypatch, "pwritev", errno.EIO)
            with pytest.raises(StorageError):
                retry()
            assert all(buffer._frames[pid].dirty for pid in pids[:3])
        buffer.flush()
        assert not any(frame.dirty for frame in buffer._frames.values())
        assert disk.read_pages(pids[:3]) == [_fill(0xB0 + pid) for pid in pids[:3]]


class TestFailedReadLeavesNoTrace:
    """``fix``/``fix_many`` after a failed read: no frame, no leaked fix."""

    def _check_clean_then_retry(self, buffer, pids, resident, failed, want):
        assert _fix_counts(buffer)[resident] == 0, "leaked fix on a pinned resident"
        assert not any(buffer.is_resident(pid) for pid in failed)
        frames = buffer.fix_many(pids)
        assert {pid: bytes(data) for pid, data in frames.items()} == want
        assert all(count == 1 for count in _fix_counts(buffer).values())
        buffer.unfix_many(pids)

    def test_os_error_and_short_read(self, file_disk, monkeypatch):
        disk, pids = file_disk
        buffer = BufferManager(disk, capacity=4)
        buffer.fix(pids[0])
        buffer.unfix(pids[0])
        want = {pid: _fill(pid + 1) for pid in pids[:4]}
        # An EIO out of preadv, first on the one-page path, then batched.
        _failing(monkeypatch, "preadv", errno.EIO, times=2)
        with pytest.raises(StorageError):
            buffer.fix(pids[1])
        with pytest.raises(StorageError):
            buffer.fix_many(pids[:4])
        self._check_clean_then_retry(buffer, pids[:4], pids[0], pids[1:4], want)
        # A short read: the file lost its tail under the buffer.
        buffer.clear()
        buffer.fix(pids[0])
        buffer.unfix(pids[0])
        size = os.fstat(disk.backend._fd).st_size
        os.ftruncate(disk.backend._fd, 3 * PAGE)
        with pytest.raises(StorageError, match="short read"):
            buffer.fix(pids[3])
        with pytest.raises(StorageError, match="short read"):
            buffer.fix_many(pids[:4])
        os.ftruncate(disk.backend._fd, size)
        disk.backend.write_run([(pids[3], _fill(pids[3] + 1))])
        self._check_clean_then_retry(buffer, pids[:4], pids[0], pids[1:4], want)

    def test_transient_read_fault(self):
        plan = FaultPlan(seed=5, read=1.0)
        disk = SimulatedDisk(page_size=PAGE, backend=FaultyBackend(MemoryBackend(PAGE), plan))
        pids = disk.allocate_many(4)
        disk.write_pages([(pid, _fill(pid + 1)) for pid in pids])
        buffer = BufferManager(disk, capacity=4)
        buffer.fix(pids[0])
        buffer.unfix(pids[0])
        plan.arm()
        with pytest.raises(TransientIOError):
            buffer.fix(pids[1])
        with pytest.raises(TransientIOError):
            buffer.fix_many(pids)
        plan.disarm()
        want = {pid: _fill(pid + 1) for pid in pids}
        self._check_clean_then_retry(buffer, pids, pids[0], pids[1:], want)

    @pytest.mark.parametrize("backend", ["memory", "file", "mmap"])
    def test_checksum_failure_on_the_kth_page(self, backend, tmp_path):
        path = None if backend == "memory" else str(tmp_path / "disk.pages")
        disk = SimulatedDisk(page_size=PAGE, backend=backend, backend_path=path)
        pids = disk.allocate_many(5)
        disk.write_pages([(pid, _sealed(pid + 1)) for pid in pids])
        buffer = BufferManager(disk, capacity=5)
        buffer.enable_checksums(set(pids))
        buffer.fix(pids[0])
        buffer.unfix(pids[0])
        torn = bytearray(_sealed(pids[2] + 1))
        torn[100] ^= 0xFF
        disk.write_pages([(pids[2], torn)])
        with pytest.raises(StorageFaultError, match=f"page {pids[2]} "):
            buffer.fix(pids[2])
        with pytest.raises(StorageFaultError, match=f"page {pids[2]} "):
            buffer.fix_many(pids[:4])  # resident, good, torn, good
        disk.write_pages([(pids[2], _sealed(pids[2] + 1))])
        want = {pid: _sealed(pid + 1) for pid in pids[:4]}
        self._check_clean_then_retry(buffer, pids[:4], pids[0], pids[2:4], want)
        disk.close()
