"""Simulated disk: a page store with I/O-call accounting.

The disk charges every transfer to a
:class:`~repro.storage.metrics.MetricsCollector`: one *call* per
:meth:`read_pages`/:meth:`write_pages` invocation and one *page* per
page transferred.  This is exactly the split of Equation 1:
``C_disk = d1 * X_calls + d2 * X_pages``.

Where the page bytes live is delegated to a pluggable
:class:`~repro.storage.backends.DiskBackend` (in-memory dict, a real
backing file, or a trace recorder — see :mod:`repro.storage.backends`).
Allocation bookkeeping and accounting stay here, so the counters are
identical for every backend.

An optional :class:`DiskGeometry` converts the two counters into an
estimated service time, used by the extended cost reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import InvalidAddressError, StorageError
from repro.storage.backends import (
    DiskBackend,
    PageBuffer,
    contiguous_runs,
    make_backend,
)
from repro.storage.constants import PAGE_SIZE
from repro.storage.metrics import MetricsCollector, MetricsSnapshot


@dataclass(frozen=True)
class DiskSnapshot:
    """A restorable image of a disk: page bytes plus allocation state.

    ``image`` is the canonical backend page image (a dense tuple of
    page bytes indexed by page id, ``None`` for holes — see
    :data:`~repro.storage.backends.PageImage`), so a snapshot taken
    over one backend restores onto any other.  Everything here is
    immutable and picklable: the benchmark snapshot store spills these
    to disk for process-pool workers.
    """

    page_size: int
    next_page_id: int
    allocated: frozenset[int]
    image: tuple

    @property
    def n_pages(self) -> int:
        return len(self.allocated)


@dataclass(frozen=True)
class DiskGeometry:
    """A simple disk service-time model (per I/O call and per page).

    ``positioning_ms`` is the average seek plus rotational delay paid
    once per I/O call; ``transfer_ms_per_page`` is paid per page.
    Defaults approximate a late-1980s SCSI disk like the one in the
    authors' Sun 3/60 (≈25 ms positioning, ≈2 ms per 2 KB page).
    """

    positioning_ms: float = 25.0
    transfer_ms_per_page: float = 2.0

    def service_time_ms(self, calls: int | float, pages: int | float) -> float:
        """Estimated total service time for the given counters."""
        return self.positioning_ms * calls + self.transfer_ms_per_page * pages

    def service_time_of(self, snapshot: MetricsSnapshot) -> float:
        """Estimated service time for a metrics snapshot."""
        return self.service_time_ms(snapshot.io_calls, snapshot.io_pages)


class SimulatedDisk:
    """Page-granular storage with explicit allocation and I/O accounting.

    Pages are identified by monotonically increasing integers.  A read
    or write of several pages in one method invocation counts as one
    I/O call — higher layers (the buffer manager) decide how operations
    group into calls, mirroring how DASDBS "uses separate I/O calls to
    retrieve the root page ..., the additional header pages ..., and
    the data pages" (Section 5.2).

    ``backend`` selects where the bytes live ("memory", "file",
    "trace", or a :class:`~repro.storage.backends.DiskBackend`
    instance); the accounting is backend-independent.
    """

    def __init__(
        self,
        page_size: int = PAGE_SIZE,
        metrics: MetricsCollector | None = None,
        backend: str | DiskBackend = "memory",
        backend_path: str | None = None,
    ) -> None:
        if page_size <= 64:
            raise StorageError("page size unreasonably small")
        self.page_size = page_size
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.backend = make_backend(backend, page_size, path=backend_path)
        self._allocated: set[int] = set()
        self._next_id = 0

    # -- allocation ---------------------------------------------------------

    def allocate(self) -> int:
        """Allocate one new zeroed page and return its id."""
        return self.allocate_many(1)[0]

    def allocate_many(self, count: int) -> list[int]:
        """Allocate ``count`` consecutive pages (contiguous ids)."""
        if count < 0:
            raise StorageError("cannot allocate a negative number of pages")
        if count == 0:
            return []
        start = self._next_id
        self._next_id += count
        self.backend.allocate_run(start, count)
        page_ids = list(range(start, start + count))
        self._allocated.update(page_ids)
        return page_ids

    def free(self, page_id: int) -> None:
        """Release a page.  Freed pages may not be read again."""
        self._require(page_id)
        self._allocated.discard(page_id)
        self.backend.free(page_id)

    @property
    def peek_next_page_id(self) -> int:
        """The id the next allocation will hand out (no side effects).

        The journaled reorganisation paths stage their destination page
        images in memory before allocating anything, so they need to
        know the ids those pages *will* get.
        """
        return self._next_id

    def ensure_allocated(self, start: int, count: int) -> None:
        """Idempotently make the run ``[start, start+count)`` allocated.

        Recovery replays a journaled batch whose allocation may have
        happened fully, partially (the in-memory bookkeeping advanced
        but the crash beat the backend call), or not at all.  Only the
        *missing* pages are backend-allocated — re-allocating a page
        the crashed run already wrote would zero it.  That is safe even
        under the journal's invariant violation window because every
        page of a journaled alloc run also appears in the record's
        writes, which are re-applied afterwards.
        """
        if count <= 0:
            return
        missing = [
            page_id
            for page_id in range(start, start + count)
            if page_id not in self._allocated
        ]
        for run in contiguous_runs(missing):
            self.backend.allocate_run(run[0], len(run))
        self._allocated.update(range(start, start + count))
        self._next_id = max(self._next_id, start + count)

    def free_if_allocated(self, page_id: int) -> None:
        """Free a page, silently skipping one already freed.

        The idempotent companion of :meth:`free`, for recovery replay:
        a crashed batch may have freed some of its source pages already.
        """
        if page_id in self._allocated:
            self.free(page_id)

    @property
    def allocated_pages(self) -> int:
        """Number of currently allocated pages."""
        return len(self._allocated)

    def is_allocated(self, page_id: int) -> bool:
        return page_id in self._allocated

    # -- transfers ------------------------------------------------------------

    def read_pages(self, page_ids: Sequence[int]) -> list[PageBuffer]:
        """Read several pages in **one** I/O call.

        Each image is the backend's, uncopied: immutable, or a fresh
        ``bytearray`` the caller owns (the ownership contract on
        :class:`~repro.storage.backends.DiskBackend`).
        """
        if not page_ids:
            return []
        # One set containment check for the whole run (C speed) instead
        # of a _require call per page; the per-page loop runs only to
        # name the offender once a violation is known.
        if not self._allocated.issuperset(page_ids):
            for page_id in page_ids:
                self._require(page_id)
        self.metrics.record_read_call(len(page_ids))
        return self.backend.read_run(page_ids)

    def read_page(self, page_id: int) -> PageBuffer:
        """Read one page in one I/O call."""
        return self.read_pages([page_id])[0]

    def write_pages(self, items: Iterable[tuple[int, PageBuffer]]) -> None:
        """Write several pages in **one** I/O call.

        The page buffers go down to the backend as they are — no staging
        copy: a backend may not keep them beyond the call, so the caller
        is free to hand in live frames and go on mutating them after.
        """
        if type(items) is not list:
            items = list(items)
        if not items:
            return
        # Validation stays ahead of the backend write so a bad page in a
        # batch never half-applies the batch (one pass, as for reads).
        page_size = self.page_size
        allocated = self._allocated
        unallocated = None
        for page_id, data in items:
            if len(data) != page_size:
                raise StorageError(
                    f"page {page_id}: write of {len(data)} bytes, expected {page_size}"
                )
            if page_id not in allocated and unallocated is None:
                unallocated = page_id
        if unallocated is not None:
            self._require(unallocated)
        self.metrics.record_write_call(len(items))
        self.backend.write_run(items)

    def write_page(self, page_id: int, data: PageBuffer) -> None:
        """Write one page in one I/O call."""
        self.write_pages([(page_id, data)])

    # -- snapshot / restore -----------------------------------------------------

    def snapshot(self) -> DiskSnapshot:
        """A restorable image of every page plus allocation bookkeeping.

        Taking a snapshot is a lifecycle operation, not an I/O call: no
        metric moves.  Callers that want dirty buffered pages included
        must flush the buffer first (``StorageEngine.flush``).
        """
        allocated = self._allocated
        # Canonicalise: a backend may represent freed-but-extant pages
        # either as None (memory) or as their stale bytes (a file keeps
        # its extent), so unallocated indices are masked to None here —
        # snapshots of the same disk state are identical no matter
        # which backend held the bytes.
        image = tuple(
            page if index in allocated else None
            for index, page in enumerate(self.backend.snapshot())
        )
        return DiskSnapshot(
            page_size=self.page_size,
            next_page_id=self._next_id,
            allocated=frozenset(allocated),
            image=image,
        )

    def restore(self, snapshot: DiskSnapshot) -> None:
        """Reset pages and allocation state to a snapshot.  No I/O is
        charged; any buffered frames over this disk are stale afterwards
        and must be dropped (``BufferManager.reset``)."""
        if snapshot.page_size != self.page_size:
            raise StorageError(
                f"snapshot of {snapshot.page_size}-byte pages cannot restore "
                f"onto a disk with {self.page_size}-byte pages"
            )
        self.backend.restore(snapshot.image)
        self._allocated = set(snapshot.allocated)
        self._next_id = snapshot.next_page_id

    # -- lifecycle -------------------------------------------------------------

    def sync(self) -> None:
        """Force written pages to stable storage (not an I/O call)."""
        self.backend.sync()

    def close(self) -> None:
        """Release backend resources (backing files, descriptors)."""
        self.backend.close()

    # -- internals -------------------------------------------------------------

    def _require(self, page_id: int) -> None:
        if page_id not in self._allocated:
            raise InvalidAddressError(f"page {page_id} is not allocated")
