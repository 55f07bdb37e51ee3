"""Pluggable disk backends: where page bytes actually live.

The :class:`~repro.storage.disk.SimulatedDisk` owns the *accounting*
(what counts as an I/O call, Equation 1's ``X_calls``/``X_pages``) and
the allocation bookkeeping; a :class:`DiskBackend` owns the *bytes*.
Separating the two lets the same benchmark run against

* :class:`MemoryBackend` — an in-memory page store (the original
  simulator; every existing table and figure reproduces bit-for-bit),
* :class:`FileBackend` — real ``os.pread``/``os.pwrite`` against a
  single backing file, so one simulated I/O call over a contiguous run
  of pages becomes one vectorized syscall on real hardware,
* :class:`MmapBackend` — the backing file memory-mapped; reads return
  **zero-copy** ``memoryview`` slices of the mapping (the buffer
  manager keeps them as frame data until a frame is dirtied, see
  :mod:`repro.storage.buffer`), writes are slice assignments into the
  mapping — no read/write syscalls at all once the pages are mapped,
* :class:`DirectBackend` — ``O_DIRECT`` file I/O through an aligned
  bounce pool, so the measured wall clock excludes the OS page cache
  (with a graceful buffered fallback where the filesystem refuses
  direct I/O),
* :class:`TraceBackend` — a decorator that forwards to an inner
  backend while recording every call to a replayable JSONL trace.

Backends are deliberately dumb: no metrics, no allocation validation,
no error policy.  All of that stays in ``SimulatedDisk`` so that the
counters of Tables 4–6 are identical no matter which backend runs
underneath — the whole point of the comparison.
"""

from __future__ import annotations

import errno
import io
import json
import mmap
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeAlias

try:  # pragma: no cover - fcntl exists on every POSIX platform we run on
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.errors import InvalidAddressError, StorageError
from repro.storage.constants import PAGE_SIZE

#: Whether the platform offers one-syscall vectored positional I/O.
_HAS_VECTORED = hasattr(os, "preadv") and hasattr(os, "pwritev")


def _iov_max() -> int:
    """Per-syscall buffer-count limit of preadv/pwritev (IOV_MAX)."""
    try:
        return os.sysconf("SC_IOV_MAX")
    except (AttributeError, OSError, ValueError):  # pragma: no cover
        return 1024


#: Longest stretch one vectored syscall may carry.
_IOV_MAX = _iov_max()

#: Per-pread ceiling of FileBackend.snapshot (well under the ~2 GiB
#: single-read(2) limit; short reads are looped over regardless).
_SNAPSHOT_CHUNK = 128 * 1024 * 1024

#: Initial capacity (in pages) of the mmap backend's mapping; the
#: mapping doubles whenever an allocation outgrows it, so remaps are
#: O(log n) over an engine's lifetime.
_MMAP_INITIAL_PAGES = 64

#: O_DIRECT transfer alignment (offset and length): the logical block
#: size of virtually every device.  Memory alignment is stricter in
#: principle, which is why the bounce pool allocates page-aligned
#: anonymous mappings rather than malloc'd bytes.
_DIRECT_ALIGN = 512

#: Per-syscall transfer ceiling of the O_DIRECT bounce pool (one pool
#: buffer serves reads and writes; stretches longer than this loop).
_DIRECT_CHUNK = 32 * 1024 * 1024

#: Backend names accepted by :func:`make_backend` (and therefore by
#: ``StorageEngine(backend=...)``, ``BenchmarkConfig.backend`` and the
#: CLI ``--backend`` flag).
BACKEND_NAMES = ("memory", "file", "mmap", "direct", "trace")


#: A backend snapshot image: a dense tuple of page images indexed by
#: page id.  ``None`` marks a hole — a page with no backing bytes; the
#: disk layer guarantees unallocated pages are never read.  The format
#: restores into any backend (build in memory, clone onto a file), but
#: backends differ in how they represent *freed* pages (memory keeps a
#: None hole, a file keeps its extent's stale bytes); it is
#: ``SimulatedDisk.snapshot`` that masks freed pages to None, making
#: its ``DiskSnapshot.image`` canonical across backends.
PageImage: TypeAlias = tuple["bytes | None", ...]

#: One page image crossing the ``read_run``/``write_run`` seam (see the
#: ownership contract on :class:`DiskBackend`).
PageBuffer: TypeAlias = "bytes | bytearray | memoryview"


class DiskBackend:
    """Protocol of a page-byte store (run-granular).

    A *run* is the unit of one I/O call: ``read_run``/``write_run`` are
    invoked exactly once per call the disk charges to the metrics, with
    the page ids in request order.  ``allocate_run`` prepares a
    contiguous range of zeroed pages, ``free`` releases one page, and
    ``sync`` forces everything to stable storage (the "database
    disconnect" of Section 5.2 maps to flush + sync).

    **Who copies** (the buffer-ownership contract of the page path):

    * ``read_run`` returns, per page, either an *immutable image*
      (``bytes`` or a read-only ``memoryview`` — the caller copies
      before mutating) or a *fresh* ``bytearray`` *the caller owns*: the
      backend keeps no reference to it, so the buffer manager adopts it
      as the frame without another copy.  A page id repeated within one
      run may yield the same object twice.
    * ``write_run`` may not retain a caller's buffer beyond the call:
      the caller goes on mutating it (the buffer manager hands down the
      live frame).  A backend that keeps page images — in RAM, in a
      trace, in a write overlay — copies them first.

    ``snapshot``/``restore`` move the whole page store in and out of a
    canonical image (see :data:`PageImage`); they are lifecycle
    operations, not I/O calls, and are never charged to the metrics.
    Snapshot images are immutable ``bytes`` on every backend.
    """

    #: Registry name of the backend class ("memory", "file", ...).
    name = "abstract"

    #: Whether ``read_run`` returns zero-copy ``memoryview`` slices of
    #: backend-owned storage instead of independent ``bytes``.  The
    #: buffer manager consults this to keep such views as frame data
    #: (copy-on-write materialisation on the first mutation) instead of
    #: copying every miss into a fresh bytearray.  Decorator backends
    #: forward their inner backend's value.
    zero_copy = False

    def allocate_run(self, start: int, count: int) -> None:
        """Provide zeroed storage for pages ``start .. start+count-1``."""
        raise NotImplementedError

    def read_run(self, page_ids: Sequence[int]) -> list[PageBuffer]:
        """Return the images of ``page_ids`` (one I/O call)."""
        raise NotImplementedError

    def write_run(self, items: Sequence[tuple[int, PageBuffer]]) -> None:
        """Store the given page images (one I/O call), retaining none."""
        raise NotImplementedError

    def free(self, page_id: int) -> None:
        """Release one page's storage."""
        raise NotImplementedError

    def snapshot(self) -> PageImage:
        """The whole page store as a canonical :data:`PageImage`."""
        raise NotImplementedError

    def restore(self, image: PageImage) -> None:
        """Replace the whole page store with a canonical image.

        The backend must copy (or otherwise own) the image's storage:
        later writes through this backend may never mutate the caller's
        image, and the caller may restore the same image into many
        backends (the clone-many half of build-once/clone-many).
        """
        raise NotImplementedError

    def sync(self) -> None:
        """Force written data to stable storage (no-op where moot)."""

    def close(self) -> None:
        """Release OS resources (files, descriptors).  Idempotent."""


class MemoryBackend(DiskBackend):
    """The original in-memory page store, now a dense page list.

    Pages live in a list indexed by page id (ids are allocated densely
    from zero; freed pages leave ``None`` holes, and the disk layer
    never hands out a freed id again).  The list layout is what makes
    the two hot operations cheap:

    * a *contiguous* run — the common case: one object's pages, a flush
      batch, a sequential scan — is served by a single C-level list
      slice instead of one dict lookup per page;
    * :meth:`snapshot`/:meth:`restore` are one shallow list copy (page
      images are immutable ``bytes``, so sharing them is safe).
    """

    name = "memory"

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        self.page_size = page_size
        self._pages: list[bytes | None] = []

    def allocate_run(self, start: int, count: int) -> None:
        pages = self._pages
        end = start + count
        if end > len(pages):
            pages.extend([None] * (end - len(pages)))
        # One shared zero-page object per backend: allocation is a
        # pointer store per page, and pickled images stay compact.
        zero = bytes(self.page_size)
        pages[start:end] = [zero] * count

    def read_run(self, page_ids: Sequence[int]) -> list[bytes]:
        pages = self._pages
        if len(page_ids) > 1 and _is_stretch(page_ids):
            # Contiguous ascending run: one slice, zero per-page lookups.
            return pages[page_ids[0] : page_ids[0] + len(page_ids)]
        return [pages[page_id] for page_id in page_ids]

    def write_run(self, items: Sequence[tuple[int, bytes]]) -> None:
        pages = self._pages
        n = len(items)
        if n > 1:
            first = items[0][0]
            if items[-1][0] == first + n - 1 and all(
                item[0] == first + index for index, item in enumerate(items)
            ):
                pages[first : first + n] = [bytes(data) for _, data in items]
                return
        for page_id, data in items:
            pages[page_id] = bytes(data)

    def free(self, page_id: int) -> None:
        if 0 <= page_id < len(self._pages):
            self._pages[page_id] = None

    def snapshot(self) -> PageImage:
        return tuple(self._pages)

    def restore(self, image: PageImage) -> None:
        self._pages = list(image)


class FileBackend(DiskBackend):
    """Real file I/O: pages live at ``page_id * page_size`` in one file.

    Every run is split into maximal contiguous page-id stretches; each
    stretch is issued as **one** vectorized syscall (``os.preadv`` /
    ``os.pwritev``), so the simulator's I/O-call count lower-bounds the
    syscall count and equals it whenever the run is contiguous — the
    mapping the paper's Equation 1 assumes for ``d1``.

    With ``path=None`` an anonymous temporary file is used and removed
    on :meth:`close` (the common case: one throwaway file per benchmark
    engine).  A named ``path`` persists for inspection.

    ``fsync=True`` forces every write run to stable storage before
    returning — the durability the journal's commit point assumes when
    the journal itself lives on a file.  It is off by default: the
    benchmarks model durability at the simulation layer, and an fsync
    per run would serialise the measurement on real disk latency.

    The backend is a context manager; ``with FileBackend(...) as b:``
    closes (and for anonymous files removes) the backing file on exit.
    """

    name = "file"

    def __init__(
        self,
        page_size: int = PAGE_SIZE,
        path: str | None = None,
        fsync: bool = False,
    ) -> None:
        self.page_size = page_size
        self.fsync = fsync
        self._fd: int | None = None
        if path is None:
            fd, self.path = tempfile.mkstemp(prefix="repro-disk-", suffix=".pages")
            self._unlink_on_close = True
        else:
            # O_TRUNC: a backend is a fresh page store; stale bytes from a
            # previous run must not satisfy allocate_run's zeroing contract.
            fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
            self.path = path
            self._unlink_on_close = False
        self._fd = fd
        self._size_pages = 0

    # -- protocol ---------------------------------------------------------

    def allocate_run(self, start: int, count: int) -> None:
        fd = self._require_open()
        end = start + count
        if end > self._size_pages:
            # ftruncate zero-fills only beyond the old end-of-file; any
            # recycled pages below it must be re-zeroed explicitly.
            recycled = max(0, self._size_pages - start)
            os.ftruncate(fd, end * self.page_size)
            self._size_pages = end
            if recycled:
                self._write_stretch(fd, start, [bytes(self.page_size)] * recycled)
        else:
            # Fully recycled region (e.g. after free): re-zero it.
            self._write_stretch(fd, start, [bytes(self.page_size)] * count)

    def read_run(self, page_ids: Sequence[int]) -> list[PageBuffer]:
        fd = self._require_open()
        if not page_ids:
            return []
        if _is_stretch(page_ids):
            # The common run — one page, or one object's adjacent pages —
            # is one syscall whose buffers are the result: no regrouping.
            return self._read_stretch(fd, page_ids[0], len(page_ids))
        out: dict[int, PageBuffer] = {}
        for stretch in contiguous_runs(page_ids, max_len=_IOV_MAX):
            out.update(zip(stretch, self._read_stretch(fd, stretch[0], len(stretch))))
        return [out[page_id] for page_id in page_ids]

    def write_run(self, items: Sequence[tuple[int, PageBuffer]]) -> None:
        fd = self._require_open()
        if len(items) == 1:
            # The eviction write-back: one page is one stretch as it is.
            page_id, image = items[0]
            self._write_stretch(fd, page_id, (image,))
        elif items:
            page_ids, images = zip(*items)
            if _is_stretch(page_ids):
                self._write_stretch(fd, page_ids[0], images)
            else:
                by_id = dict(items)
                for stretch in contiguous_runs(page_ids, max_len=_IOV_MAX):
                    self._write_stretch(fd, stretch[0], [by_id[p] for p in stretch])
        if self.fsync:
            os.fsync(fd)

    def free(self, page_id: int) -> None:
        # The file keeps its extent; the disk layer guarantees freed
        # pages are never read, and allocate_run re-zeroes on reuse.
        pass

    def snapshot(self) -> PageImage:
        """Copy the backing file into a page image.

        Reads loop over bounded chunks: a single ``read(2)`` returns at
        most ~2 GiB on Linux (and may legally return short), so one
        unbounded ``pread`` would make snapshots of large extensions
        impossible.
        """
        fd = self._require_open()
        page_size = self.page_size
        total = self._size_pages * page_size
        chunks: list[bytes] = []
        pos = 0
        while pos < total:
            chunk = os.pread(fd, min(total - pos, _SNAPSHOT_CHUNK), pos)
            if not chunk:
                raise StorageError(
                    f"backing file truncated at byte {pos} of {total} "
                    "during snapshot"
                )
            chunks.append(chunk)
            pos += len(chunk)
        blob = b"".join(chunks)
        return tuple(
            blob[index * page_size : (index + 1) * page_size]
            for index in range(self._size_pages)
        )

    def restore(self, image: PageImage) -> None:
        """Rewrite the backing file from a canonical page image."""
        fd = self._require_open()
        os.ftruncate(fd, len(image) * self.page_size)
        self._size_pages = len(image)
        if image:
            zero = bytes(self.page_size)
            self._write_stretch(
                fd, 0, [zero if page is None else page for page in image]
            )

    def sync(self) -> None:
        if self._fd is not None:
            os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            if self._unlink_on_close:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass

    def __enter__(self) -> "FileBackend":
        self._require_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        if getattr(self, "_fd", None) is not None:
            self.close()

    # -- internals --------------------------------------------------------

    def _require_open(self) -> int:
        if self._fd is None:
            raise StorageError(f"{self.name} backend is closed")
        return self._fd

    def _read_stretch(self, fd: int, start: int, count: int) -> list[PageBuffer]:
        """One contiguous read of ``count`` pages at page ``start``.

        The kernel fills one fresh ``bytearray`` per page and those very
        buffers are returned — the caller owns them (see the contract on
        :class:`DiskBackend`).  Stretches beyond ``IOV_MAX`` (a direct
        snapshot chunk falling back to buffered I/O) split into several
        calls.
        """
        if count > _IOV_MAX:
            images: list[PageBuffer] = []
            for base in range(0, count, _IOV_MAX):
                images += self._read_stretch(
                    fd, start + base, min(_IOV_MAX, count - base)
                )
            return images
        page_size = self.page_size
        try:
            if _HAS_VECTORED:
                buffers = [bytearray(page_size) for _ in range(count)]
                got = os.preadv(fd, buffers, start * page_size)
            else:  # pragma: no cover - non-vectored platforms
                blob = os.pread(fd, count * page_size, start * page_size)
                got = len(blob)
                buffers = [
                    bytearray(blob[i * page_size : (i + 1) * page_size])
                    for i in range(count)
                ]
        except OSError as exc:
            raise _io_failure("read", count, start, exc) from exc
        if got != count * page_size:
            raise StorageError(f"short read at page {start}: {got} bytes")
        return buffers

    def _write_stretch(
        self, fd: int, start: int, images: Sequence[PageBuffer]
    ) -> None:
        """One contiguous write of ``images`` at page ``start``.

        The images go to the kernel as they are (``pwritev`` takes any
        buffer) and are not kept.  Stretches beyond ``IOV_MAX`` — only
        allocation and restore produce them — split into several calls.
        """
        count = len(images)
        if count > _IOV_MAX:
            for base in range(0, count, _IOV_MAX):
                self._write_stretch(fd, start + base, images[base : base + _IOV_MAX])
            return
        page_size = self.page_size
        try:
            if _HAS_VECTORED:
                written = os.pwritev(fd, images, start * page_size)
            else:  # pragma: no cover - non-vectored platforms
                written = os.pwrite(fd, b"".join(images), start * page_size)
        except OSError as exc:
            raise _io_failure("write", count, start, exc) from exc
        if written != count * page_size:
            raise StorageError(f"short write at page {start}: {written} bytes")
        if start + count > self._size_pages:
            self._size_pages = start + count


class MmapBackend(FileBackend):
    """The backing file memory-mapped: reads are zero-copy, writes are
    slice assignments — no per-run syscalls at all.

    ``read_run`` returns read-only ``memoryview`` slices of the mapping
    (one slice per page, so contiguity is irrelevant); the buffer
    manager keeps those views as frame data and only materialises a
    private ``bytearray`` when a frame is first dirtied
    (:attr:`zero_copy`).  ``write_run`` assigns into the mapping, which
    is ``MAP_SHARED`` over the backing file, so :meth:`sync` (mmap
    flush + fsync) still gives file-backed durability.

    Growth remaps: the mapping's capacity doubles whenever an
    allocation outgrows it.  Outgrown mappings are *retired*, not
    closed — frames may still hold exported views into them, and
    ``MAP_SHARED`` mappings of one file are coherent, so a retired
    view keeps seeing the current page bytes.  Retired mappings are
    closed at :meth:`close` (or left to the garbage collector if views
    are still exported then).

    File lifecycle (anonymous tempfile vs named path, O_TRUNC,
    unlink-on-close, context manager) is inherited from
    :class:`FileBackend`.
    """

    name = "mmap"
    zero_copy = True

    def __init__(
        self,
        page_size: int = PAGE_SIZE,
        path: str | None = None,
        fsync: bool = False,
    ) -> None:
        super().__init__(page_size, path=path, fsync=fsync)
        self._map: mmap.mmap | None = None
        self._view: memoryview | None = None
        self._retired: list[mmap.mmap] = []
        self._capacity_pages = 0

    # -- protocol ---------------------------------------------------------

    def allocate_run(self, start: int, count: int) -> None:
        self._require_open()
        end = start + count
        self._ensure_capacity(end)
        # ftruncate (inside the remap) zero-fills everything beyond the
        # old end-of-file; recycled pages below the high-water mark must
        # be re-zeroed explicitly, exactly as in FileBackend.
        recycled_end = min(end, self._size_pages)
        if start < recycled_end:
            page_size = self.page_size
            self._map[start * page_size : recycled_end * page_size] = bytes(
                (recycled_end - start) * page_size
            )
        self._size_pages = max(self._size_pages, end)

    def read_run(self, page_ids: Sequence[int]) -> list[bytes]:
        self._require_open()
        view = self._view
        if view is None:
            raise StorageError("mmap backend holds no pages yet")
        page_size = self.page_size
        return [
            view[page_id * page_size : (page_id + 1) * page_size]
            for page_id in page_ids
        ]

    def write_run(self, items: Sequence[tuple[int, bytes]]) -> None:
        self._require_open()
        mapping = self._map
        if mapping is None:
            raise StorageError("mmap backend holds no pages yet")
        page_size = self.page_size
        for page_id, data in items:
            offset = page_id * page_size
            mapping[offset : offset + page_size] = data
        if self.fsync:
            mapping.flush()

    def snapshot(self) -> PageImage:
        self._require_open()
        mapping = self._map
        if mapping is None:
            return ()
        page_size = self.page_size
        return tuple(
            mapping[index * page_size : (index + 1) * page_size]
            for index in range(self._size_pages)
        )

    def restore(self, image: PageImage) -> None:
        self._require_open()
        count = len(image)
        self._size_pages = count
        if not count:
            return
        self._ensure_capacity(count)
        mapping = self._map
        page_size = self.page_size
        zero = bytes(page_size)
        position = 0
        for page in image:
            mapping[position : position + page_size] = (
                zero if page is None else page
            )
            position += page_size

    def sync(self) -> None:
        if self._fd is not None:
            if self._map is not None:
                self._map.flush()
            os.fsync(self._fd)

    def close(self) -> None:
        if self._fd is None:
            return
        self._view = None
        mapping, self._map = self._map, None
        if mapping is not None:
            self._retired.append(mapping)
        still_exported: list[mmap.mmap] = []
        for retired in self._retired:
            try:
                retired.close()
            except BufferError:
                # Exported frame views keep the mapping alive; dropping
                # our reference leaves cleanup to their refcounts.
                still_exported.append(retired)
        self._retired = still_exported
        self._capacity_pages = 0
        super().close()

    # -- internals --------------------------------------------------------

    def _ensure_capacity(self, pages: int) -> None:
        if pages <= self._capacity_pages:
            return
        capacity = max(self._capacity_pages, _MMAP_INITIAL_PAGES)
        while capacity < pages:
            capacity *= 2
        self._remap(capacity)

    def _remap(self, capacity_pages: int) -> None:
        fd = self._require_open()
        os.ftruncate(fd, capacity_pages * self.page_size)
        self._view = None
        old, self._map = self._map, None
        if old is not None:
            try:
                old.close()
            except BufferError:
                self._retired.append(old)
        self._map = mmap.mmap(fd, capacity_pages * self.page_size)
        self._view = memoryview(self._map).toreadonly()
        self._capacity_pages = capacity_pages


class DirectBackend(FileBackend):
    """``O_DIRECT`` file I/O: every transfer bypasses the OS page cache.

    Direct I/O requires aligned everything — file offset, transfer
    length and the *user memory* the kernel DMAs into.  Offsets and
    lengths are page-sized (the constructor insists ``page_size`` is a
    multiple of the 512-byte logical block); memory alignment comes
    from a reusable *bounce pool*: one anonymous ``mmap`` (page-aligned
    by construction) that reads land in and writes are staged through,
    grown geometrically and reused across calls.

    ``fallback=True`` (the default) degrades gracefully to buffered
    I/O — identical bytes, identical counters, just page-cached — when
    the platform or filesystem refuses direct I/O (tmpfs, overlayfs,
    page size not block-aligned, no ``O_DIRECT`` at all).
    :attr:`o_direct` tells whether direct I/O is actually active and
    :attr:`fallback_reason` why not; CI probes these to skip loudly
    rather than silently measure the page cache.  ``fallback=False``
    raises :class:`~repro.errors.StorageError` instead of degrading.
    """

    name = "direct"

    def __init__(
        self,
        page_size: int = PAGE_SIZE,
        path: str | None = None,
        fsync: bool = False,
        fallback: bool = True,
    ) -> None:
        super().__init__(page_size, path=path, fsync=fsync)
        self.fallback = fallback
        self.o_direct = False
        self.fallback_reason: str | None = None
        self._bounce: mmap.mmap | None = None
        self._bounce_len = 0
        if fcntl is None or not hasattr(os, "O_DIRECT"):  # pragma: no cover
            self._note_fallback("platform lacks O_DIRECT")
        elif page_size % _DIRECT_ALIGN:
            self._note_fallback(
                f"page size {page_size} is not a multiple of {_DIRECT_ALIGN}"
            )
        else:
            try:
                flags = fcntl.fcntl(self._fd, fcntl.F_GETFL)
                fcntl.fcntl(self._fd, fcntl.F_SETFL, flags | os.O_DIRECT)
                if fcntl.fcntl(self._fd, fcntl.F_GETFL) & os.O_DIRECT:
                    self.o_direct = True
                else:  # pragma: no cover - kernels that silently ignore
                    self._note_fallback("kernel ignored F_SETFL O_DIRECT")
            except OSError as exc:
                self._note_fallback(f"filesystem refused O_DIRECT: {exc}")
        if not self.o_direct and not fallback:
            self.close()
            raise StorageError(
                f"O_DIRECT unavailable ({self.fallback_reason}) and "
                "fallback is disabled"
            )

    @staticmethod
    def probe(directory: str | None = None, page_size: int = 4096) -> bool:
        """Whether direct I/O actually works on ``directory``'s filesystem.

        Exercises a real allocate/write/read round trip through a
        throwaway backend (the ``F_SETFL`` handshake can succeed on
        filesystems that later reject the transfers), so the answer
        reflects transfers, not flags.  Used by CI to decide between
        running the O_DIRECT gate and skipping it loudly.
        """
        fd, path = tempfile.mkstemp(
            prefix="repro-odirect-probe-", suffix=".pages", dir=directory
        )
        os.close(fd)
        try:
            with DirectBackend(page_size, path=path) as backend:
                backend.allocate_run(0, 4)
                payload = bytes(range(256)) * (page_size // 256)
                backend.write_run([(1, payload)])
                if bytes(backend.read_run([1])[0]) != payload:
                    return False
                return backend.o_direct
        except StorageError:  # pragma: no cover - hostile filesystems
            return False
        finally:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover
                pass

    def close(self) -> None:
        if self._bounce is not None:
            self._bounce.close()
            self._bounce = None
            self._bounce_len = 0
        super().close()

    # -- internals --------------------------------------------------------

    def _note_fallback(self, reason: str) -> None:
        self.o_direct = False
        self.fallback_reason = reason

    def _disable_o_direct(self, reason: str) -> None:
        """Drop to buffered I/O mid-flight (EINVAL from a transfer)."""
        if self._fd is not None and fcntl is not None:
            try:
                flags = fcntl.fcntl(self._fd, fcntl.F_GETFL)
                fcntl.fcntl(self._fd, fcntl.F_SETFL, flags & ~os.O_DIRECT)
            except OSError:  # pragma: no cover
                pass
        self._note_fallback(reason)

    def _bounce_for(self, nbytes: int) -> mmap.mmap:
        if self._bounce is None or self._bounce_len < nbytes:
            if self._bounce is not None:
                self._bounce.close()
            size = max(nbytes, 1 << 20)
            self._bounce = mmap.mmap(-1, size)
            self._bounce_len = size
        return self._bounce

    def _read_stretch(self, fd: int, start: int, count: int) -> list[PageBuffer]:
        if not self.o_direct:
            return super()._read_stretch(fd, start, count)
        page_size = self.page_size
        chunk_pages = max(1, _DIRECT_CHUNK // page_size)
        images: list[PageBuffer] = []
        for base in range(0, count, chunk_pages):
            n = min(chunk_pages, count - base)
            nbytes = n * page_size
            view = memoryview(self._bounce_for(nbytes))[:nbytes]
            try:
                got = os.preadv(fd, [view], (start + base) * page_size)
            except OSError as exc:
                view.release()
                if exc.errno == errno.EINVAL and self.fallback:
                    self._disable_o_direct(f"preadv rejected direct I/O: {exc}")
                    images.extend(
                        super()._read_stretch(fd, start + base, count - base)
                    )
                    return images
                raise _io_failure("direct read", n, start + base, exc) from exc
            if got != nbytes:
                view.release()
                raise StorageError(
                    f"short read at page {start + base}: {got} bytes"
                )
            # The bounce pool is reused by the next call, so each page
            # leaves it as a fresh bytearray the caller owns.
            images.extend(
                bytearray(view[i * page_size : (i + 1) * page_size])
                for i in range(n)
            )
            view.release()
        return images

    def _write_stretch(
        self, fd: int, start: int, images: Sequence[PageBuffer]
    ) -> None:
        if not self.o_direct:
            super()._write_stretch(fd, start, images)
            return
        page_size = self.page_size
        chunk_pages = max(1, _DIRECT_CHUNK // page_size)
        for base in range(0, len(images), chunk_pages):
            chunk = images[base : base + chunk_pages]
            nbytes = len(chunk) * page_size
            bounce = self._bounce_for(nbytes)
            position = 0
            for data in chunk:
                bounce[position : position + page_size] = data
                position += page_size
            view = memoryview(bounce)[:nbytes]
            try:
                written = os.pwritev(fd, [view], (start + base) * page_size)
            except OSError as exc:
                view.release()
                if exc.errno == errno.EINVAL and self.fallback:
                    self._disable_o_direct(f"pwritev rejected direct I/O: {exc}")
                    super()._write_stretch(fd, start + base, images[base:])
                    return
                raise _io_failure(
                    "direct write", len(chunk), start + base, exc
                ) from exc
            view.release()
            if written != nbytes:
                raise StorageError(
                    f"short write at page {start + base}: {written} bytes"
                )
        self._size_pages = max(self._size_pages, start + len(images))

    def snapshot(self) -> PageImage:
        if not self.o_direct:
            return super().snapshot()
        # The buffered snapshot path reads into malloc'd (unaligned)
        # memory, which direct I/O rejects; reuse the aligned stretch
        # reader instead.
        fd = self._require_open()
        images: list[bytes] = []
        chunk_pages = max(1, _DIRECT_CHUNK // self.page_size)
        for base in range(0, self._size_pages, chunk_pages):
            count = min(chunk_pages, self._size_pages - base)
            # The stretch reader hands out owned bytearrays; a snapshot
            # image is immutable bytes on every backend.
            images.extend(map(bytes, self._read_stretch(fd, base, count)))
        return tuple(images)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded backend call: ``(op, page_ids, t)`` plus payload."""

    seq: int
    t: float
    op: str
    pages: tuple[int, ...]
    data: tuple[bytes, ...] | None = None


class TraceBackend(DiskBackend):
    """Decorator backend: forwards every call and records it.

    The trace is kept in memory (:attr:`events`) and, when ``path`` is
    given, streamed to a JSONL file — one JSON object per line, in call
    order:

    .. code-block:: text

        {"seq": 0, "t": 0.0000, "op": "allocate", "pages": [0, 1, 2]}
        {"seq": 1, "t": 0.0001, "op": "write", "pages": [0, 1],
         "data": ["<hex page image>", "<hex page image>"]}
        {"seq": 2, "t": 0.0002, "op": "read", "pages": [0]}
        {"seq": 3, "t": 0.0003, "op": "free", "pages": [0]}
        {"seq": 4, "t": 0.0004, "op": "sync", "pages": []}

    ``seq`` is the call number, ``t`` the monotonic time in seconds
    since the first call, ``op`` one of ``allocate`` / ``read`` /
    ``write`` / ``free`` / ``sync``, and ``pages`` the page ids of the
    call in request order — so ``len(lines with op in (read, write))``
    is ``X_calls`` and the summed lengths of their ``pages`` is
    ``X_pages``, Equation 1 straight off the trace.  Write records
    carry the page images hex-encoded so the trace is *replayable*:
    :func:`replay_trace` rebuilds identical page contents on any
    backend.

    When streaming to a file, write payloads live only in the file
    (replay with :func:`load_trace`); the in-memory :attr:`events`
    keep payloads only when no ``path`` is given, so a long run does
    not hold every written page in RAM twice.
    """

    name = "trace"

    def __init__(self, inner: DiskBackend | None = None, path: str | None = None) -> None:
        self.inner = inner if inner is not None else MemoryBackend()
        self.events: list[TraceEvent] = []
        self.path = path
        self._file: io.TextIOBase | None = None
        if path is not None:
            self._file = open(path, "w", encoding="utf-8")
        self._t0: float | None = None

    @property
    def zero_copy(self) -> bool:
        """Forward the inner backend's zero-copy contract (mmap etc.)."""
        return self.inner.zero_copy

    # -- protocol ---------------------------------------------------------

    def allocate_run(self, start: int, count: int) -> None:
        self.inner.allocate_run(start, count)
        self._record("allocate", tuple(range(start, start + count)))

    def read_run(self, page_ids: Sequence[int]) -> list[bytes]:
        out = self.inner.read_run(page_ids)
        self._record("read", tuple(page_ids))
        return out

    def write_run(self, items: Sequence[tuple[int, bytes]]) -> None:
        items = list(items)
        self.inner.write_run(items)
        self._record(
            "write",
            tuple(page_id for page_id, _ in items),
            tuple(bytes(data) for _, data in items),
        )

    def free(self, page_id: int) -> None:
        self.inner.free(page_id)
        self._record("free", (page_id,))

    def snapshot(self) -> PageImage:
        """Snapshot the inner backend; the trace records the event."""
        image = self.inner.snapshot()
        self._record("snapshot", ())
        return image

    def restore(self, image: PageImage) -> None:
        """Restore the inner backend; the trace records the event.

        Page images are deliberately not written to the trace (a
        restore is a lifecycle operation, not an I/O call, and its
        payload would dwarf the trace); a trace that contains a
        ``restore`` therefore cannot be replayed from the event stream
        alone — :func:`replay_trace` refuses it with a clear error.
        """
        self.inner.restore(image)
        self._record("restore", ())

    def sync(self) -> None:
        self.inner.sync()
        self._record("sync", ())
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self.inner.close()

    # -- recording --------------------------------------------------------

    def _record(
        self, op: str, pages: tuple[int, ...], data: tuple[bytes, ...] | None = None
    ) -> None:
        now = time.monotonic()
        if self._t0 is None:
            self._t0 = now
        event = TraceEvent(len(self.events), now - self._t0, op, pages, data)
        if self._file is not None:
            self._file.write(json.dumps(_event_to_json(event)) + "\n")
            # The file holds the payloads; keeping them in memory too
            # would grow RAM by every page ever written.  Replay a
            # streamed trace from the file (load_trace), not from
            # ``events``.
            if data is not None:
                event = TraceEvent(event.seq, event.t, op, pages, None)
        self.events.append(event)


def _event_to_json(event: TraceEvent) -> dict:
    record: dict = {
        "seq": event.seq,
        "t": round(event.t, 6),
        "op": event.op,
        "pages": list(event.pages),
    }
    if event.data is not None:
        record["data"] = [image.hex() for image in event.data]
    return record


def load_trace(source: str | Iterable[str]) -> list[TraceEvent]:
    """Parse a JSONL trace (a path or an iterable of lines)."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    events = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        events.append(
            TraceEvent(
                seq=record["seq"],
                t=record["t"],
                op=record["op"],
                pages=tuple(record["pages"]),
                data=(
                    tuple(bytes.fromhex(image) for image in record["data"])
                    if "data" in record
                    else None
                ),
            )
        )
    return events


def replay_trace(
    source: str | Iterable[str] | Sequence[TraceEvent],
    backend: DiskBackend,
) -> int:
    """Re-apply a recorded trace against ``backend``; returns the count.

    Allocations, writes, frees and syncs are re-issued verbatim (writes
    restore the recorded page images); reads are re-issued too, so a
    replay exercises the same call pattern the original run produced —
    the input Darmont-style clustering studies need.
    """
    if isinstance(source, str):
        events = load_trace(source)
    else:
        items = list(source)
        if items and isinstance(items[0], TraceEvent):
            events = items  # type: ignore[assignment]
        else:
            events = load_trace(items)  # type: ignore[arg-type]
    for event in events:
        if event.op == "allocate":
            if event.pages:
                backend.allocate_run(event.pages[0], len(event.pages))
        elif event.op == "write":
            if event.data is None:
                raise StorageError(
                    "write event has no payload; a streamed trace keeps "
                    "payloads in its file — replay it via load_trace(path)"
                )
            backend.write_run(list(zip(event.pages, event.data)))
        elif event.op == "read":
            backend.read_run(event.pages)
        elif event.op == "free":
            backend.free(event.pages[0])
        elif event.op == "sync":
            backend.sync()
        elif event.op == "snapshot":
            pass  # taking a snapshot does not change the page store
        elif event.op == "restore":
            raise StorageError(
                "trace contains a snapshot restore, whose page images are "
                "not recorded; replay the trace of the original build "
                "instead (or run it with snapshots disabled)"
            )
        else:
            raise StorageError(f"unknown trace op {event.op!r}")
    return len(events)


def make_backend(
    spec: str | DiskBackend,
    page_size: int = PAGE_SIZE,
    path: str | None = None,
) -> DiskBackend:
    """Instantiate a backend from a name (or pass an instance through).

    ``path`` is the backing file for ``file``/``mmap``/``direct`` and
    the JSONL output for ``trace`` (which wraps a fresh
    :class:`MemoryBackend`).
    """
    if isinstance(spec, DiskBackend):
        return spec
    if spec == "memory":
        return MemoryBackend(page_size)
    if spec == "file":
        return FileBackend(page_size, path=path)
    if spec == "mmap":
        return MmapBackend(page_size, path=path)
    if spec == "direct":
        return DirectBackend(page_size, path=path)
    if spec == "trace":
        return TraceBackend(MemoryBackend(page_size), path=path)
    raise StorageError(
        f"unknown disk backend {spec!r} (known: {', '.join(BACKEND_NAMES)})"
    )


def _io_failure(what: str, count: int, start: int, exc: OSError) -> StorageError:
    """The typed form of an ``OSError`` out of a positional transfer
    (raise it ``from`` the original, which keeps the errno)."""
    return StorageError(f"{what} of {count} page(s) at page {start} failed: {exc}")


def _is_stretch(page_ids: Sequence[int]) -> bool:
    """Whether non-empty ``page_ids`` is one ascending run of adjacent,
    non-negative ids — checked, not assumed."""
    first = page_ids[0]
    count = len(page_ids)
    return (
        first >= 0
        and page_ids[-1] == first + count - 1
        and (count <= 2 or list(page_ids) == list(range(first, first + count)))
    )


def contiguous_runs(
    page_ids: Sequence[int], max_len: int | None = None
) -> Iterable[list[int]]:
    """Split page ids into maximal runs of adjacent ids.

    ``max_len`` caps a run's length (the buffer manager's write-batch
    limit); None = unbounded (the file backend's syscall grouping).
    Negative page ids are addressing bugs, not data, and raise
    :class:`~repro.errors.InvalidAddressError`.
    """
    run: list[int] = []
    for page_id in page_ids:
        if page_id < 0:
            raise InvalidAddressError(f"negative page id {page_id}")
        if run and (
            page_id != run[-1] + 1 or (max_len is not None and len(run) >= max_len)
        ):
            yield run
            run = []
        run.append(page_id)
    if run:
        yield run
