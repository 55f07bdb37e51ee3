"""Who copies: the buffer-ownership contract of ``read_run``/``write_run``.

The page path hands buffers across the backend seam without copying
them "just in case": ``write_run`` receives the buffer manager's live
frames, and ``read_run`` may hand out a fresh ``bytearray`` the buffer
manager adopts as the frame.  That is only sound if every backend —
the decorators included — keeps its side of the contract written on
:class:`~repro.storage.backends.DiskBackend`.  These tests are what
proves none of them keeps a caller's buffer or shares one it returned.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.fault.backend import FaultyBackend
from repro.fault.plan import FaultPlan
from repro.storage.backends import (
    DirectBackend,
    FileBackend,
    MemoryBackend,
    MmapBackend,
    TraceBackend,
)
from repro.storage.buffer import BufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.iosched import IOScheduler

#: 512-aligned, so the direct backend really runs O_DIRECT where the
#: filesystem allows it; "direct-fallback" forces the buffered path.
PAGE = 512
N_PAGES = 6


def _armed_no_faults(inner):
    plan = FaultPlan(seed=3)  # armed, every probability zero
    plan.arm()
    return FaultyBackend(inner, plan)


def _direct_fallback(page_size, path):
    backend = DirectBackend(page_size, path=path)
    backend._disable_o_direct("forced by the contract test")
    return backend


BACKENDS = {
    "memory": lambda path: MemoryBackend(PAGE),
    "file": lambda path: FileBackend(PAGE, path=path),
    "mmap": lambda path: MmapBackend(PAGE, path=path),
    "direct": lambda path: DirectBackend(PAGE, path=path),
    "direct-fallback": lambda path: _direct_fallback(PAGE, path),
    "trace-memory": lambda path: TraceBackend(MemoryBackend(PAGE)),
    "trace-file": lambda path: TraceBackend(FileBackend(PAGE, path=path)),
    "iosched-memory": lambda path: IOScheduler(MemoryBackend(PAGE)),
    "iosched-file": lambda path: IOScheduler(FileBackend(PAGE, path=path)),
    "faulty-memory": lambda path: _armed_no_faults(MemoryBackend(PAGE)),
    "faulty-file": lambda path: _armed_no_faults(FileBackend(PAGE, path=path)),
}

#: Backends whose ``read_run`` hands out owned ``bytearray`` buffers.
OWNING = {"file", "direct", "direct-fallback", "trace-file", "iosched-file", "faulty-file"}


@pytest.fixture(params=list(BACKENDS))
def backend(request, tmp_path):
    b = BACKENDS[request.param](str(tmp_path / "disk.pages"))
    b.label = request.param
    b.allocate_run(0, N_PAGES)
    yield b
    b.close()


def _fill(value: int) -> bytes:
    return bytes([value]) * PAGE


def _read(backend, page_ids) -> list[bytes]:
    return [bytes(image) for image in backend.read_run(page_ids)]


class TestWriteRunRetainsNothing:
    """Mutating the caller's buffer after ``write_run`` changes nothing."""

    @pytest.mark.parametrize(
        "page_ids", [[2], [1, 2, 3], [4, 0, 2]], ids=["one", "stretch", "scattered"]
    )
    def test_later_reads_sync_and_snapshot_see_the_written_bytes(
        self, backend, page_ids
    ):
        buffers = [bytearray(_fill(0x10 + pid)) for pid in page_ids]
        backend.write_run(list(zip(page_ids, buffers)))
        for buffer in buffers:
            buffer[:] = _fill(0xEE)  # the frame lives on and is mutated
        want = [_fill(0x10 + pid) for pid in page_ids]
        assert _read(backend, page_ids) == want
        backend.sync()
        assert _read(backend, page_ids) == want
        image = backend.snapshot()
        assert [image[pid] for pid in page_ids] == want

    def test_trace_events_hold_copies(self):
        trace = TraceBackend(MemoryBackend(PAGE))
        trace.allocate_run(0, 1)
        buffer = bytearray(_fill(0x42))
        trace.write_run([(0, buffer)])
        buffer[:] = _fill(0xEE)
        (event,) = [e for e in trace.events if e.op == "write"]
        assert event.data == (_fill(0x42),)


class TestReadRunSharesNothing:
    """What ``read_run`` returned is immutable, or the caller's alone."""

    def test_images_are_immutable_or_owned(self, backend):
        backend.write_run([(pid, _fill(0x20 + pid)) for pid in range(N_PAGES)])
        backend.sync()  # the scheduler's overlay would serve staged bytes
        for page_ids in ([3], [1, 2, 3], [5, 0, 3]):
            first = backend.read_run(page_ids)
            owned = 0
            for image in first:
                if type(image) is bytearray:
                    image[:] = _fill(0xEE)  # ours now: scribble on it
                    owned += 1
                else:
                    assert type(image) is bytes or image.readonly
            if backend.label in OWNING:
                assert owned == len(page_ids)
            assert _read(backend, page_ids) == [_fill(0x20 + pid) for pid in page_ids]
            second = backend.read_run(page_ids)
            for a, b in zip(first, second):
                assert type(a) is not bytearray or a is not b

    def test_empty_run(self, backend):
        assert backend.read_run([]) == []
        backend.write_run([])


class TestSnapshotsStayImmutable:
    def test_every_snapshot_image_is_bytes_or_none(self, backend):
        disk = SimulatedDisk(page_size=PAGE, backend=backend)
        pids = disk.allocate_many(4)
        disk.write_pages([(pid, bytearray(_fill(pid + 1))) for pid in pids])
        disk.free(pids[1])
        image = disk.snapshot().image
        assert len(image) >= len(pids)
        assert all(page is None or type(page) is bytes for page in image)
        assert image[pids[1]] is None and image[pids[2]] == _fill(pids[2] + 1)
        hash(image)  # shareable between clones: hashable all the way down

    def test_direct_snapshot_survives_the_mid_flight_fallback(
        self, tmp_path, monkeypatch
    ):
        b = DirectBackend(PAGE, path=str(tmp_path / "direct.pages"))
        b.allocate_run(0, 3)
        b.write_run([(pid, _fill(pid + 1)) for pid in range(3)])
        # Take the direct branch even where the filesystem refused
        # O_DIRECT: what is under test is the EINVAL hand-over to the
        # buffered FileBackend reader, whose buffers are bytearrays.
        b.o_direct = True
        real_preadv = os.preadv
        refused = []

        def refuse_once(fd, buffers, offset):
            if not refused:
                refused.append(offset)
                raise OSError(errno.EINVAL, "Invalid argument")
            return real_preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", refuse_once)
        image = b.snapshot()
        assert refused and not b.o_direct and "preadv" in b.fallback_reason
        assert all(type(page) is bytes for page in image)
        assert list(image) == [_fill(pid + 1) for pid in range(3)]
        b.close()


class TestTheBufferAdoptsWhatItIsHanded:
    """One page-sized allocation per miss, and it *is* the frame."""

    @pytest.fixture
    def spied(self, backend):
        disk = SimulatedDisk(page_size=PAGE, backend=backend)
        pids = disk.allocate_many(4)
        disk.write_pages([(pid, _fill(pid + 1)) for pid in pids])
        disk.sync()  # past the scheduler's overlay, which serves staged bytes
        handed: list = []
        read_run = backend.read_run

        def spy(page_ids):
            out = read_run(page_ids)
            handed.extend(out)
            return out

        backend.read_run = spy
        return disk, BufferManager(disk, capacity=3), pids, handed

    def test_fix_and_fix_many_adopt_owned_buffers(self, backend, spied):
        disk, buffer, pids, handed = spied
        frame = buffer.fix(pids[0])
        frames = buffer.fix_many(pids[1:3])
        got = [frame, frames[pids[1]], frames[pids[2]]]
        assert [bytes(data) for data in got] == [_fill(pid + 1) for pid in pids[:3]]
        assert len(handed) == 3
        if backend.label in OWNING:
            assert all(type(data) is bytearray for data in got)
            assert all(data is image for data, image in zip(got, handed))
        elif not backend.zero_copy:
            # An immutable image is copied exactly once, into the frame.
            assert all(type(data) is bytearray for data in got)
            assert all(type(image) is bytes for image in handed)

    def test_an_evicted_frames_buffer_is_never_written_through_later(
        self, backend, spied
    ):
        disk, buffer, pids, _ = spied
        buffer.fix(pids[0])
        held = buffer.page_data(pids[0])  # mutable on every backend
        held[:] = _fill(0x77)
        buffer.unfix(pids[0], dirty=True)
        buffer.fix_many(pids[1:4])  # capacity 3: evicts and writes page 0
        buffer.unfix_many(pids[1:4])
        held[:] = _fill(0xEE)  # a stale holder scribbles on the old frame
        assert bytes(buffer.fix(pids[0])) == _fill(0x77)
        buffer.unfix(pids[0])
        buffer.flush()
        assert bytes(disk.read_pages([pids[0]])[0]) == _fill(0x77)
