"""Heap files: slotted-page storage for records that fit on one page.

A heap file stores small tuples, several per page (the parameter ``k``
of the cost model).  Bulk loading appends records back to back, so the
tuples of one object form a physical cluster — the layout assumed by
Equations 6 and 7 ("tuples that belong to the same root or parent are
likely to be stored clustered together").
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import PageOverflowError, StorageError
from repro.nf2.oid import Rid
from repro.storage.journal import JournalRecord, apply_record
from repro.storage.page import SlottedPage, seal_page
from repro.storage.segment import Segment


class HeapFile:
    """Record storage over a segment of slotted pages."""

    def __init__(self, segment: Segment) -> None:
        self.segment = segment
        self.buffer = segment.buffer
        self.page_size = segment.disk.page_size
        #: Last destination page of :meth:`move_records`, reused by the
        #: next batch while it has room.  Online reclustering moves many
        #: *small* batches; without the shared tail every batch would
        #: open a fresh page per segment and a 3-record batch would own
        #: a whole page — fragmenting the hot region the moves are
        #: trying to build.  With it, successive batches pack back to
        #: back exactly like one big recluster rewrite.
        self._move_tail: int | None = None

    # -- writing ---------------------------------------------------------------

    def insert(self, record: bytes) -> Rid:
        """Append a record, filling the current last page first.

        Records never span pages ("The tuples themselves do not span
        disk pages", Section 3.3); a record larger than one page is an
        error — large objects belong in the long-object store.
        """
        if len(record) > SlottedPage.max_record_size(self.page_size):
            raise StorageError(
                f"record of {len(record)} bytes exceeds the page capacity; "
                "use LongObjectStore for multi-page objects"
            )
        page_id = self.segment.last_page()
        if page_id is not None:
            page = self.buffer.fix_view(page_id)
            try:
                slot = page.insert(record)
            except PageOverflowError:
                self.buffer.unfix(page_id)
            else:
                self.buffer.unfix(page_id, dirty=True)
                return Rid(page_id, slot)
        page_id = self.segment.allocate_page()
        page = self.buffer.view_of(page_id)
        slot = page.insert(record)
        self.buffer.unfix(page_id, dirty=True)
        return Rid(page_id, slot)

    def update(self, rid: Rid, record: bytes, write_through: bool = False) -> None:
        """Replace the record at ``rid``.

        With ``write_through`` the modified page is written to disk
        immediately in its own call — the DASDBS page-pool behaviour of
        the ``change attribute`` operation (Section 5.3).  Otherwise the
        page is only marked dirty and written back on flush/eviction.
        """
        self._require_page(rid.page_id)
        page = self.buffer.fix_view(rid.page_id)
        try:
            page.update(rid.slot, record)
        finally:
            self.buffer.unfix(rid.page_id, dirty=True)
        if write_through:
            self.buffer.write_through(rid.page_id)

    def delete(self, rid: Rid) -> None:
        """Delete the record at ``rid``."""
        self._require_page(rid.page_id)
        page = self.buffer.fix_view(rid.page_id)
        try:
            page.delete(rid.slot)
        finally:
            self.buffer.unfix(rid.page_id, dirty=True)

    # -- reorganisation ---------------------------------------------------------

    def recluster(self, rid_order: list[Rid]) -> dict[Rid, Rid]:
        """Rewrite the heap so records appear in ``rid_order``.

        The trace-driven clustering operator: the records are re-packed
        back to back into freshly allocated pages in exactly the given
        order (adjacent entries share pages, the property the placement
        policies exploit), and the old pages are freed.  Record ids are
        preserved logically via the returned **forwarding map**
        ``{old_rid: new_rid}`` — callers that hold rids (model address
        tables, indexes) remap through it.

        ``rid_order`` must be a permutation of the live records; a
        partial or duplicated order would silently drop or clone data,
        so it is rejected.  The rewrite goes through the ordinary
        buffer paths (reads charge fixes, new pages start dirty), so it
        must run outside measured intervals — which the workload
        executor's cold-start-and-reset discipline guarantees.
        """
        records = {rid: blob for rid, blob in self.scan()}
        if len(rid_order) != len(records) or set(rid_order) != set(records):
            raise StorageError(
                f"recluster order must be a permutation of the live records "
                f"of segment {self.segment.name!r} "
                f"({len(rid_order)} given, {len(records)} live)"
            )
        if self.segment.journal is not None:
            return self._recluster_journaled(records, rid_order)
        old_pages = self.segment.page_ids
        forwarding: dict[Rid, Rid] = {}
        page_id: int | None = None
        for old_rid in rid_order:
            record = records[old_rid]
            slot = -1
            if page_id is not None:
                try:
                    slot = self.buffer.view_of(page_id).insert(record)
                except PageOverflowError:
                    self.buffer.unfix(page_id, dirty=True)
                    page_id = None
            if page_id is None:
                page_id = self.segment.allocate_page()
                slot = self.buffer.view_of(page_id).insert(record)
            forwarding[old_rid] = Rid(page_id, slot)
        if page_id is not None:
            self.buffer.unfix(page_id, dirty=True)
        self.segment.release_pages(old_pages)
        self._move_tail = None
        return forwarding

    def move_records(self, rids: list[Rid], max_pages: int) -> dict[Rid, Rid]:
        """Move ``rids`` onto at most ``max_pages`` freshly allocated pages.

        The *bounded* sibling of :meth:`recluster`, built for online
        reorganisation under live traffic: instead of rewriting the
        whole heap it relocates just the given records — adjacent
        entries share destination pages, exactly like recluster — and
        **stops** once the page budget is spent, leaving the remaining
        records where they are.  Source pages that end up empty are
        freed.  Returns the same ``{old_rid: new_rid}`` forwarding shape
        as :meth:`recluster`; it is deliberately *partial* (only moved
        records appear), so callers remap with ``forwarding.get(rid,
        rid)`` exactly as they already do for the full rewrite.

        Moves go through the ordinary buffer paths (source reads charge
        fixes, destinations start dirty), so a move that runs inside a
        measured interval shows up in the counters — that is the online
        reclusterer's honest cost accounting, not an accident.  All
        pages must be unfixed at entry (the serving layer's grant
        protocol guarantees trigger points sit between operations).
        """
        if max_pages <= 0 or not rids:
            return {}
        if len(set(rids)) != len(rids):
            raise StorageError("move_records rids must be distinct")
        for rid in rids:
            self._require_page(rid.page_id)
        if self.segment.journal is not None:
            return self._move_records_journaled(rids, max_pages)
        forwarding: dict[Rid, Rid] = {}
        # Resume on the previous batch's unfilled destination (free
        # against the page budget — it was already paid for).  The fix
        # goes through the ordinary buffer path, so re-reading an
        # evicted tail is charged like any other access.
        dest: int | None = None
        dest_dirty = False
        if self._move_tail is not None and self._move_tail in self.segment:
            dest = self._move_tail
            self.buffer.fix(dest)
        pages_used = 0
        for rid in rids:
            page = self.buffer.fix_view(rid.page_id)
            try:
                record = page.read(rid.slot)
            finally:
                self.buffer.unfix(rid.page_id)
            slot = -1
            if dest is not None:
                try:
                    slot = self.buffer.view_of(dest).insert(record)
                except PageOverflowError:
                    self.buffer.unfix(dest, dirty=dest_dirty)
                    dest = None
                    dest_dirty = False
            if dest is None:
                if pages_used >= max_pages:
                    break
                dest = self.segment.allocate_page()
                pages_used += 1
                slot = self.buffer.view_of(dest).insert(record)
            dest_dirty = True
            source = self.buffer.fix_view(rid.page_id)
            try:
                source.delete(rid.slot)
            finally:
                self.buffer.unfix(rid.page_id, dirty=True)
            forwarding[rid] = Rid(dest, slot)
        if dest is not None:
            self.buffer.unfix(dest, dirty=dest_dirty)
            self._move_tail = dest
        emptied = []
        for page_id in sorted({rid.page_id for rid in forwarding}):
            page = self.buffer.fix_view(page_id)
            try:
                live = page.live_records
            finally:
                self.buffer.unfix(page_id)
            if live == 0:
                emptied.append(page_id)
        if emptied:
            self.segment.release_pages(emptied)
        return forwarding

    # -- crash-consistent reorganisation -----------------------------------------
    #
    # With a journal attached to the segment the reorganisation
    # operators become all-or-nothing: the whole batch is staged as
    # in-memory page images first, logged as ONE intent record, the
    # journal flush is the commit point, and only then does any disk
    # page change — via the journal's idempotent, read-back-verified
    # apply.  A crash at any backend operation either precedes the
    # flush (the batch never happened) or is rolled forward by
    # ``StorageEngine.recover``.  A page never appears in both the
    # record's writes and its frees, so replay after partial frees
    # cannot write an unallocated page.

    def _recluster_journaled(
        self, records: dict[Rid, bytes], rid_order: list[Rid]
    ) -> dict[Rid, Rid]:
        segment = self.segment
        journal = segment.journal
        start = segment.disk.peek_next_page_id
        images: list[bytearray] = []
        page: SlottedPage | None = None
        forwarding: dict[Rid, Rid] = {}
        for old_rid in rid_order:
            record = records[old_rid]
            slot = -1
            if page is not None:
                try:
                    slot = page.insert(record)
                except PageOverflowError:
                    page = None
            if page is None:
                data = bytearray(self.page_size)
                images.append(data)
                page = SlottedPage(data, self.page_size)
                slot = page.insert(record)
            forwarding[old_rid] = Rid(start + len(images) - 1, slot)
        seal = self.buffer.checksums_enabled_for(segment)
        writes = []
        for index, data in enumerate(images):
            if seal:
                seal_page(data)
            writes.append((start + index, bytes(data)))
        intent = JournalRecord(
            batch_id=journal.next_batch_id(),
            op="recluster",
            segment=segment.name,
            alloc_start=start,
            alloc_count=len(images),
            writes=tuple(writes),
            frees=tuple(segment.page_ids),
            page_ids=tuple(range(start, start + len(images))),
            forwarding=tuple(
                ((old.page_id, old.slot), (new.page_id, new.slot))
                for old, new in forwarding.items()
            ),
        )
        journal.log(intent)
        journal.flush()
        apply_record(intent, segment)
        journal.complete(intent.batch_id)
        self._move_tail = None
        return forwarding

    def _move_records_journaled(
        self, rids: list[Rid], max_pages: int
    ) -> dict[Rid, Rid]:
        segment = self.segment
        journal = segment.journal
        buffer = self.buffer
        start = segment.disk.peek_next_page_id
        images: dict[int, bytearray] = {}
        views: dict[int, SlottedPage] = {}

        def staged_view(page_id: int) -> SlottedPage:
            # Copy-on-first-touch staging of an existing page: the live
            # frame is never mutated, so an abort leaves nothing stale.
            view = views.get(page_id)
            if view is None:
                data = bytearray(buffer.fix(page_id))
                buffer.unfix(page_id)
                images[page_id] = data
                view = views[page_id] = SlottedPage(data, self.page_size)
            return view

        new_ids: list[int] = []
        dest_id: int | None = None
        dest_view: SlottedPage | None = None
        if self._move_tail is not None and self._move_tail in segment:
            dest_id = self._move_tail
            dest_view = staged_view(dest_id)
        pages_used = 0
        forwarding: dict[Rid, Rid] = {}
        for rid in rids:
            record = self.read(rid)
            slot = -1
            if dest_view is not None:
                try:
                    slot = dest_view.insert(record)
                except PageOverflowError:
                    dest_view = None
            if dest_view is None:
                if pages_used >= max_pages:
                    break
                dest_id = start + len(new_ids)
                new_ids.append(dest_id)
                data = bytearray(self.page_size)
                images[dest_id] = data
                dest_view = views[dest_id] = SlottedPage(data, self.page_size)
                pages_used += 1
                slot = dest_view.insert(record)
            forwarding[rid] = Rid(dest_id, slot)
        if not forwarding:
            return {}
        for rid in forwarding:
            staged_view(rid.page_id).delete(rid.slot)
        emptied = {
            page_id
            for page_id in {rid.page_id for rid in forwarding}
            if views[page_id].live_records == 0
        }
        seal = self.buffer.checksums_enabled_for(segment)
        writes = []
        for page_id in sorted(images):
            if page_id in emptied:
                continue
            data = images[page_id]
            if seal:
                seal_page(data)
            writes.append((page_id, bytes(data)))
        surviving = [pid for pid in segment.page_ids if pid not in emptied]
        intent = JournalRecord(
            batch_id=journal.next_batch_id(),
            op="move",
            segment=segment.name,
            alloc_start=start,
            alloc_count=len(new_ids),
            writes=tuple(writes),
            frees=tuple(sorted(emptied)),
            page_ids=tuple(surviving + new_ids),
            forwarding=tuple(
                ((old.page_id, old.slot), (new.page_id, new.slot))
                for old, new in forwarding.items()
            ),
        )
        journal.log(intent)
        journal.flush()
        apply_record(intent, segment)
        journal.complete(intent.batch_id)
        if dest_view is not None:
            self._move_tail = dest_id
        return forwarding

    # -- reading -----------------------------------------------------------------

    def read(self, rid: Rid) -> bytes:
        """Read one record by record id (one page fix)."""
        self._require_page(rid.page_id)
        page = self.buffer.fix_view(rid.page_id)
        try:
            return page.read(rid.slot)
        finally:
            self.buffer.unfix(rid.page_id)

    def read_many(self, rids: list[Rid]) -> list[memoryview]:
        """Read several records; all missing pages load in one I/O call.

        This is DASDBS's set-oriented record access: the page set of
        the record list is fetched together.  The requested records are
        grouped by page — one cached page view per distinct page, not a
        fresh wrapper per rid — and returned as **zero-copy views** into
        the page buffers.  Callers must decode each record immediately
        (the models deserialise on the spot); the views alias live
        buffer frames and go stale at the next mutation of their page.

        A record set spanning more distinct pages than the buffer has
        frames cannot be pinned all at once; it is served in page
        chunks of the buffer's capacity instead
        (:meth:`~repro.storage.buffer.BufferManager.read_views`) — one
        I/O call per chunk, the minimum a buffer that small can
        honestly do.

        **Evicted-frame aliasing.**  Every fix is released before this
        returns, and on the chunked path the pages of an earlier chunk
        are evicted by a later one — so returned views routinely point
        into frames that are no longer resident.  They stay correct
        because a view keeps its frame's buffer alive and the buffer
        manager never pools or recycles frame buffers (an evicted
        frame's ``bytearray`` is dropped, not handed to the next miss).
        Anything that reuses frame memory would change bytes under
        these views.
        """
        unique_pages = list(dict.fromkeys([rid.page_id for rid in rids]))
        for page_id in unique_pages:
            self._require_page(page_id)
        views = self.buffer.read_views(unique_pages)
        return [views[rid.page_id].read_view(rid.slot) for rid in rids]

    def scan(self) -> Iterator[tuple[Rid, bytes]]:
        """Full scan in page order; each page is fixed exactly once."""
        for page_id in self.segment.page_ids:
            page = self.buffer.fix_view(page_id)
            try:
                records = page.records()
            finally:
                self.buffer.unfix(page_id)
            for slot, record in records:
                yield Rid(page_id, slot), record

    def scan_pages(self, page_ids: list[int]) -> Iterator[tuple[Rid, bytes]]:
        """Scan only the given pages, each fixed exactly once.

        The partial sibling of :meth:`scan`, built for sharded
        scatter-gather scans: each shard walks the disjoint page subset
        it owns, so the union of all shards' ``scan_pages`` calls fixes
        exactly the pages one full :meth:`scan` would — the invariant
        behind the per-shard counter roll-up summing to the unsharded
        totals.
        """
        for page_id in page_ids:
            self._require_page(page_id)
            page = self.buffer.fix_view(page_id)
            try:
                records = page.records()
            finally:
                self.buffer.unfix(page_id)
            for slot, record in records:
                yield Rid(page_id, slot), record

    # -- statistics -----------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return self.segment.n_pages

    def count_records(self) -> int:
        """Number of live records (costs a full scan's fixes)."""
        return sum(1 for _ in self.scan())

    def _require_page(self, page_id: int) -> None:
        if page_id not in self.segment:
            raise StorageError(
                f"page {page_id} does not belong to segment {self.segment.name!r}"
            )
