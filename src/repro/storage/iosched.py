"""Cross-session I/O coalescing: fewer, larger calls — same counters.

The serving layer runs one granted operation at a time, so the
per-page-run batches that ``HeapFile.read_many`` and the
``BufferManager`` miss paths compute arrive at the backend one run at a
time, in grant order — interleaved across sessions and therefore often
adjacent or overlapping on disk without ever being contiguous *within*
one run.  :class:`IOScheduler` is a decorator backend that sits
**below** :class:`~repro.storage.disk.SimulatedDisk`'s accounting and
re-batches that stream:

* **reads** are sorted and de-duplicated before they hit the inner
  backend, so runs that interleave pages from several sessions collapse
  into maximal contiguous stretches (one vectored syscall each);
* **writes** are staged in RAM and flushed in page order once
  ``flush_pages`` pages accumulate (or at ``flush``/``sync``/snapshot
  boundaries), merging adjacent write runs from different sessions into
  fewer, larger vectored calls; staged pages serve read-after-write
  from the overlay in the meantime.

Because the scheduler decorates the backend *underneath* the simulated
disk — which has already charged ``record_read_call``/``write`` before
the backend sees anything — the paper's counters (Equation 1's
``X_calls``/``X_pages``, buffer fixes, stored bytes) cannot move by
construction.  The :attr:`~IOScheduler.submitted_runs` /
:attr:`~IOScheduler.coalesced_runs` pair quantifies the win: how many
contiguous stretches the un-scheduled stream would have issued versus
how many actually reached the inner backend.

The scheduler's RAM staging is why it refuses to compose with fault
injection (``BenchmarkConfig`` rejects ``io_scheduler`` + ``faults``):
a simulated crash must lose everything that has not reached the
backend, and deferred writes sitting in the overlay would survive it.
``StorageEngine.recover`` additionally calls :meth:`drop_pending` so
manual compositions crash honestly too.
"""

from __future__ import annotations

from typing import Sequence

from repro.storage.backends import DiskBackend, PageImage, contiguous_runs

#: Staged-page threshold at which deferred writes auto-flush.  Small
#: enough to bound overlay RAM, large enough to merge the write bursts
#: a flush/eviction storm produces.
FLUSH_PAGES = 256


class IOScheduler(DiskBackend):
    """Decorator backend that coalesces runs into fewer inner calls."""

    name = "iosched"

    def __init__(self, inner: DiskBackend, flush_pages: int = FLUSH_PAGES) -> None:
        self.inner = inner
        self.flush_pages = flush_pages
        #: Deferred writes: page id -> latest staged image (insertion
        #: order is irrelevant; flush re-sorts by page id).
        self._pending: dict[int, bytes] = {}
        #: Contiguous stretches the raw run stream would have issued.
        self.submitted_runs = 0
        #: Contiguous stretches actually issued to the inner backend.
        self.coalesced_runs = 0

    @property
    def zero_copy(self) -> bool:
        """Forward the inner backend's zero-copy contract (mmap etc.).

        Overlay hits return staged ``bytes`` rather than mapping views;
        both are immutable buffers, which is all the buffer manager's
        copy-on-write path requires.
        """
        return self.inner.zero_copy

    @property
    def pending_pages(self) -> int:
        """Number of pages currently staged in the write overlay."""
        return len(self._pending)

    # -- protocol ---------------------------------------------------------

    def allocate_run(self, start: int, count: int) -> None:
        # Allocation zeroes the range; staged writes to recycled pages
        # predate the reallocation and must not leak into it.
        for page_id in range(start, start + count):
            self._pending.pop(page_id, None)
        self.inner.allocate_run(start, count)

    def read_run(self, page_ids: Sequence[int]) -> list[bytes]:
        page_ids = list(page_ids)
        self.submitted_runs += sum(1 for _ in contiguous_runs(page_ids))
        pending = self._pending
        missing = sorted({p for p in page_ids if p not in pending})
        by_id: dict[int, bytes] = {}
        if missing:
            self.coalesced_runs += sum(1 for _ in contiguous_runs(missing))
            for page_id, image in zip(missing, self.inner.read_run(missing)):
                by_id[page_id] = image
        return [
            pending[p] if p in pending else by_id[p] for p in page_ids
        ]

    def write_run(self, items: Sequence[tuple[int, bytes]]) -> None:
        items = list(items)
        self.submitted_runs += sum(
            1 for _ in contiguous_runs([page_id for page_id, _ in items])
        )
        for page_id, data in items:
            self._pending[page_id] = bytes(data)
        if len(self._pending) >= self.flush_pages:
            self._flush_pending()

    def free(self, page_id: int) -> None:
        self._pending.pop(page_id, None)
        self.inner.free(page_id)

    def snapshot(self) -> PageImage:
        """Flush the overlay first: a snapshot is a durability point."""
        self._flush_pending()
        return self.inner.snapshot()

    def restore(self, image: PageImage) -> None:
        self._pending.clear()
        self.inner.restore(image)

    def sync(self) -> None:
        self._flush_pending()
        self.inner.sync()

    def close(self) -> None:
        self._flush_pending()
        self.inner.close()

    # -- scheduler lifecycle ----------------------------------------------

    def flush(self) -> None:
        """Issue all staged writes to the inner backend now."""
        self._flush_pending()

    def drop_pending(self) -> None:
        """Discard staged writes without issuing them (crash recovery).

        After a simulated crash only what reached the inner backend
        survives; the overlay is RAM and dies with the process.
        """
        self._pending.clear()

    # -- internals --------------------------------------------------------

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        ordered = sorted(self._pending)
        self.coalesced_runs += sum(1 for _ in contiguous_runs(ordered))
        self.inner.write_run(
            [(page_id, self._pending[page_id]) for page_id in ordered]
        )
        self._pending.clear()
