"""Long-object store: multi-page objects with header/data page split.

Implements the DASDBS storage concept the paper builds on (Sections 3.2
and 4): "if a nested tuple is too large to be stored on a single page,
the structure information is mapped onto a set of header pages, which is
disjoint from the set of data pages that store the data".

An object is stored as

* one or more **header pages** holding the object directory: the list of
  data pages and, per *section*, the byte range it occupies in the data
  stream.  The directory is padded to the size DASDBS would need for its
  per-sub-tuple address entries (``StorageFormat.directory_size``), which
  is what makes large objects waste space — the paper's distinction
  between primed (no waste) and unprimed rows of Table 3;
* **data pages** exclusively owned by the object ("the pages that store
  the tuple will not be shared by other tuples"), holding the sections
  back to back.

A *section* is a separately addressable part of the object (here: the
root attributes, the Platform sub-tree, the Sightseeing sub-tree).  DSM
reads all pages of the object; DASDBS-DSM reads the header and then only
the data pages overlapping the requested sections.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import ceil
from typing import Mapping, Sequence

from repro.errors import InvalidAddressError, StorageError
from repro.nf2.serializer import StorageFormat
from repro.storage.constants import PAGE_HEADER_SIZE
from repro.storage.segment import Segment

_DIR_MAGIC = 0x0B1E
#: magic, section count, data page count, padded directory size.
_DIR_HEADER = struct.Struct("<HHII")


@dataclass(frozen=True)
class LongObjectAddress:
    """Physical address of a long object: its header page ids.

    Only the first header page is the object's public address; the
    remaining header page ids are carried here so the engine does not
    need a page-table lookup to find them (DASDBS reads the root page
    first and the additional header pages next — we charge the same two
    call groups).
    """

    header_page_ids: tuple[int, ...]

    @property
    def root_page_id(self) -> int:
        return self.header_page_ids[0]


@dataclass(frozen=True)
class ObjectDirectory:
    """Decoded object directory.

    ``encoded`` is the memo :meth:`LongObjectStore.read_directory`
    checks a root frame against: the directory's encoding (header
    struct, page ids, section pairs — no padding) when it fits in the
    root page, else empty (the memo does not apply).
    """

    data_page_ids: tuple[int, ...]
    section_offsets: tuple[int, ...]
    section_lengths: tuple[int, ...]
    encoded: bytes = field(default=b"", compare=False, repr=False)

    @property
    def n_sections(self) -> int:
        return len(self.section_lengths)

    @property
    def data_bytes(self) -> int:
        return sum(self.section_lengths)

    def section_range(self, index: int) -> tuple[int, int]:
        """(start, end) byte range of a section in the data stream."""
        return (
            self.section_offsets[index],
            self.section_offsets[index] + self.section_lengths[index],
        )


class LongObjectStore:
    """Store for objects larger than one page, with sectioned access."""

    def __init__(self, segment: Segment, fmt: StorageFormat) -> None:
        self.segment = segment
        self.buffer = segment.buffer
        self.format = fmt
        self.page_size = segment.disk.page_size
        self.payload_per_page = self.page_size - PAGE_HEADER_SIZE
        self._directories: dict[int, ObjectDirectory] = {}

    # -- writing --------------------------------------------------------------

    def store(self, sections: Sequence[bytes], n_subtuples: int) -> LongObjectAddress:
        """Store a new object and return its address.

        ``n_subtuples`` sizes the directory the way DASDBS would (one
        address entry per sub-tuple), which determines how many header
        pages the object needs and therefore its wasted space.
        """
        if not sections:
            raise StorageError("an object needs at least one section")
        payload = self.payload_per_page

        dir_size = self.format.directory_size(len(sections), n_subtuples)
        data_bytes = sum(len(section) for section in sections)
        n_data_pages = ceil(data_bytes / payload) if data_bytes else 0
        encoded_min = self._directory_encoding_size(len(sections), n_data_pages)
        dir_size = max(dir_size, encoded_min)
        n_header_pages = max(1, ceil(dir_size / payload))

        header_ids = [self.segment.allocate_page() for _ in range(n_header_pages)]
        data_ids = [self.segment.allocate_page() for _ in range(n_data_pages)]

        offsets: list[int] = []
        pos = 0
        for section in sections:
            offsets.append(pos)
            pos += len(section)
        lengths = tuple(len(section) for section in sections)

        blob = bytearray(
            _DIR_HEADER.pack(_DIR_MAGIC, len(sections), n_data_pages, dir_size)
        )
        blob += struct.pack(f"<{n_data_pages}I", *data_ids)
        for offset, length in zip(offsets, lengths):
            blob += struct.pack("<II", offset, length)
        directory = ObjectDirectory(
            tuple(data_ids),
            tuple(offsets),
            lengths,
            bytes(blob) if encoded_min <= payload else b"",
        )
        blob += bytes(dir_size - len(blob))
        self._scatter(header_ids, bytes(blob))
        self._scatter(data_ids, b"".join(sections))

        for page_id in header_ids + data_ids:
            self.buffer.unfix(page_id, dirty=True)

        address = LongObjectAddress(tuple(header_ids))
        self._directories[address.root_page_id] = directory
        return address

    def _scatter(self, page_ids: list[int], stream: bytes) -> None:
        payload = self.payload_per_page
        if len(stream) > payload * len(page_ids):
            raise StorageError("object stream larger than its allocated pages")
        for index, page_id in enumerate(page_ids):
            chunk = stream[index * payload : (index + 1) * payload]
            data = self.buffer.page_data(page_id)
            data[PAGE_HEADER_SIZE : PAGE_HEADER_SIZE + len(chunk)] = chunk

    # -- reading ----------------------------------------------------------------

    def read_directory(self, address: LongObjectAddress) -> ObjectDirectory:
        """Fix the header pages (one I/O call) and decode the directory.

        A memoised directory whose encoding equals the root frame's
        prefix byte for byte is returned as is; any other root is decoded
        (and memoised).  The memo is a cache checked against the page,
        never trusted on its own: a torn or foreign root falls through to
        the decode and its magic check.
        """
        header_ids = address.header_page_ids
        root_id = header_ids[0]
        frames = self.buffer.fix_many(header_ids)
        try:
            cached = self._directories.get(root_id)
            if cached is not None:
                memo = cached.encoded
                if memo and frames[root_id][PAGE_HEADER_SIZE : PAGE_HEADER_SIZE + len(memo)] == memo:
                    return cached
            directory = self._decode_directory(address, frames)
        finally:
            self.buffer.unfix_many(header_ids)
        self._directories[root_id] = directory
        return directory

    def _decode_directory(
        self, address: LongObjectAddress, frames: dict[int, bytearray]
    ) -> ObjectDirectory:
        """Decode straight from the fixed root frame; the header payloads
        are joined first only when the encoded entries run past the root
        page (more than ~500 data pages)."""
        header_ids = address.header_page_ids
        blob = memoryview(frames[header_ids[0]])[PAGE_HEADER_SIZE:]
        magic, n_sections, n_data_pages, _ = _DIR_HEADER.unpack_from(blob, 0)
        if magic != _DIR_MAGIC:
            raise InvalidAddressError(
                f"page {address.root_page_id} does not hold an object directory"
            )
        size = self._directory_encoding_size(n_sections, n_data_pages)
        if size > len(blob):
            encoded = b""
            blob = b"".join(memoryview(frames[pid])[PAGE_HEADER_SIZE:] for pid in header_ids)
        else:
            encoded = bytes(blob[:size])
        # One unpack: the data page ids, then (offset, length) pairs.
        entries = struct.unpack_from(
            f"<{n_data_pages + 2 * n_sections}I", blob, _DIR_HEADER.size
        )
        return ObjectDirectory(
            entries[:n_data_pages],
            entries[n_data_pages::2],
            entries[n_data_pages + 1 :: 2],
            encoded,
        )

    def read(
        self,
        address: LongObjectAddress,
        section_ids: Sequence[int] | None = None,
        copy: Sequence[int] | None = None,
    ) -> list[bytes]:
        """Read an object: fix the pages of ``section_ids``, copy ``copy``.

        The header pages are fetched in one I/O call; the needed data
        pages in a second call.  With ``section_ids=None`` every section
        (all data pages) is fixed — the DSM behaviour.  With a subset,
        only the data pages overlapping those sections are transferred —
        the DASDBS-DSM behaviour (Equation 5).

        ``copy`` names the sections returned (default: the fixed ones),
        so a model transfers what the paper reads and materialises only
        what it decodes; each must lie among the fixed sections.  Each is
        copied once, out of the fixed frames: one ``join`` of its
        per-page frame slices.

        When the memoised directory matches the resident root frame and
        every header and needed data page is resident, the two calls
        become one ``fix_many``/``unfix_many`` over the same pages in the
        same order: nothing can miss or be evicted, so fixes, hits,
        policy accesses and fix listeners see exactly the two-call
        sequence.  Anything else — a miss, a memo mismatch, a bad section
        id — takes the two-call path and fails where it always did.
        """
        out = self._read_resident(address, section_ids, copy)
        if out is not None:
            return out
        directory = self.read_directory(address)
        wanted, needed_ids = self._plan(directory, section_ids, copy)
        frames = self.buffer.fix_many(needed_ids)
        try:
            return self._copy_sections(directory, frames, wanted)
        finally:
            self.buffer.unfix_many(needed_ids)

    def _read_resident(
        self,
        address: LongObjectAddress,
        section_ids: Sequence[int] | None,
        copy: Sequence[int] | None,
    ) -> list[bytes] | None:
        """:meth:`read` in one fix call, or None where it does not apply."""
        header_ids = address.header_page_ids
        directory = self._directories.get(header_ids[0])
        if directory is None or not directory.encoded:
            return None
        buffer = self.buffer
        memo = directory.encoded
        root = buffer.peek(header_ids[0])
        if root is None or root[PAGE_HEADER_SIZE : PAGE_HEADER_SIZE + len(memo)] != memo:
            return None
        try:
            wanted, needed_ids = self._plan(directory, section_ids, copy)
        except InvalidAddressError:
            # A bad section id, or a torn directory whose bytes were
            # memoised: the two-call path raises it, after today's fixes.
            return None
        is_resident = buffer.is_resident
        if not (all(map(is_resident, header_ids)) and all(map(is_resident, needed_ids))):
            return None
        fixed = [*header_ids, *needed_ids]
        frames = buffer.fix_many(fixed)
        try:
            return self._copy_sections(directory, frames, wanted)
        finally:
            buffer.unfix_many(fixed)

    def _plan(
        self,
        directory: ObjectDirectory,
        section_ids: Sequence[int] | None,
        copy: Sequence[int] | None,
    ) -> tuple[Sequence[int], list[int]]:
        """(sections to copy, data page ids to fix) of one read."""
        n_sections = directory.n_sections
        if section_ids is None:
            fixed: Sequence[int] = range(n_sections)
            needed_ids = list(directory.data_page_ids)
        else:
            fixed = list(section_ids)
            data_page_ids = directory.data_page_ids
            capacity = len(data_page_ids) * self.payload_per_page
            for sid in fixed:
                if not 0 <= sid < n_sections:
                    raise InvalidAddressError(f"object has no section {sid}")
                # A torn directory can name a range of millions of
                # pages; refuse it before a page index is computed.
                start, end = directory.section_range(sid)
                if end > start and end > capacity:
                    raise InvalidAddressError(f"section {sid} runs past the object's data pages")
            needed_ids = [
                data_page_ids[i] for i in self._pages_for_sections(directory, fixed)
            ]
        if copy is None:
            return fixed, needed_ids
        for sid in copy:
            if sid not in fixed:
                raise InvalidAddressError(f"section {sid} is copied but not fixed")
        return copy, needed_ids

    def _copy_sections(
        self,
        directory: ObjectDirectory,
        frames: dict[int, bytearray],
        wanted: Sequence[int],
    ) -> list[bytes]:
        payload = self.payload_per_page
        data_page_ids = directory.data_page_ids
        offsets, lengths = directory.section_offsets, directory.section_lengths
        out: list[bytes] = []
        for sid in wanted:
            pos = offsets[sid]
            end = pos + lengths[sid]
            pieces = []
            while pos < end:
                # The piece runs to the section's end or the page's,
                # whichever comes first.  Plain arithmetic, no divmod/min
                # calls: this loop runs once per page of every section
                # copied.
                page_index = pos // payload
                page_start = page_index * payload
                page_end = page_start + payload
                stop = end if end < page_end else page_end
                at = PAGE_HEADER_SIZE + pos - page_start
                pieces.append(
                    memoryview(frames[data_page_ids[page_index]])[at : at + stop - pos]
                )
                pos = stop
            out.append(b"".join(pieces))
        return out

    def pages_of(self, address: LongObjectAddress) -> tuple[int, int]:
        """(header pages, data pages) of an object, from cached metadata."""
        directory = self._cached_directory(address)
        return len(address.header_page_ids), len(directory.data_page_ids)

    def pages_for_sections(
        self, address: LongObjectAddress, section_ids: Sequence[int]
    ) -> int:
        """Number of data pages a sectioned read would transfer."""
        directory = self._cached_directory(address)
        return len(self._pages_for_sections(directory, list(section_ids)))

    # -- updating ------------------------------------------------------------------

    def replace(
        self,
        address: LongObjectAddress,
        sections: Sequence[bytes] | Mapping[int, bytes],
    ) -> None:
        """Replace the whole object in place (sizes must be unchanged).

        This is the "replace entire (nested) tuple" update of Section
        5.3: every page of the object is fixed and marked dirty, so every
        page will be written back.  ``sections`` is every section's new
        image, or a ``{section id: image}`` mapping of the sections that
        changed; only those byte ranges are copied into the frames (the
        others already hold their bytes — on a zero-copy backend their
        pages stay views until write-back detaches them), so the stored
        bytes equal those of the full replacement.
        """
        directory = self._cached_directory(address)
        lengths = directory.section_lengths
        whole = not isinstance(sections, Mapping)
        changed = dict(enumerate(sections)) if whole else sections
        if (whole and len(changed) != len(lengths)) or any(
            not 0 <= sid < len(lengths) or len(image) != lengths[sid]
            for sid, image in changed.items()
        ):
            raise StorageError(
                "replace() requires structure-preserving updates (same section sizes)"
            )
        all_ids = [*address.header_page_ids, *directory.data_page_ids]
        self.buffer.fix_many(all_ids)
        try:
            for sid, image in changed.items():
                self._overwrite(directory, directory.section_offsets[sid], image)
        finally:
            self.buffer.unfix_many(all_ids, dirty=True)

    def _overwrite(self, directory: ObjectDirectory, start: int, image: bytes) -> None:
        """Copy ``image`` into the fixed data pages from stream offset
        ``start`` on, one slice per page it touches.

        ``page_data``, not the raw frame: zero-copy backends hand out
        read-only views, so mutation needs the private copy.
        """
        payload = self.payload_per_page
        page_data = self.buffer.page_data
        data_page_ids = directory.data_page_ids
        pos, end = start, start + len(image)
        while pos < end:
            page_index = pos // payload
            in_page = pos - page_index * payload
            take = min(end - pos, payload - in_page)
            at = PAGE_HEADER_SIZE + in_page
            page_data(data_page_ids[page_index])[at : at + take] = image[
                pos - start : pos - start + take
            ]
            pos += take

    def patch_section(
        self,
        address: LongObjectAddress,
        section_id: int,
        new_bytes: bytes,
        write_through: bool = False,
    ) -> None:
        """Overwrite one section (same size) — the ``change attribute`` path.

        Only the data pages overlapping the section are touched.  With
        ``write_through`` each touched page is immediately written in
        its own call, modelling the DASDBS page pool of Section 5.3.
        """
        directory = self._cached_directory(address)
        start, end = directory.section_range(section_id)
        if len(new_bytes) != end - start:
            raise StorageError("patch_section() requires a same-size section image")
        page_indexes = self._pages_for_sections(directory, [section_id])
        needed_ids = [directory.data_page_ids[i] for i in page_indexes]
        self.buffer.fix_many(needed_ids)
        try:
            self._overwrite(directory, start, new_bytes)
        finally:
            for pid in needed_ids:
                self.buffer.unfix(pid, dirty=True)
        if write_through:
            for pid in needed_ids:
                self.buffer.write_through(pid)

    def delete(self, address: LongObjectAddress) -> None:
        """Delete an object, returning its private pages to the disk."""
        directory = self._cached_directory(address)
        for page_id in list(directory.data_page_ids) + list(address.header_page_ids):
            self.segment.release_page(page_id)
        self._directories.pop(address.root_page_id, None)

    # -- snapshot state ----------------------------------------------------------------

    def capture_state(self) -> dict:
        """Restorable in-memory state: segment pages + directory cache.

        The directory memo travels with it, so a snapshot clone starts
        warm; that is safe because every use of a memo entry compares
        its encoding with the root frame's bytes first.
        :class:`ObjectDirectory` values are immutable, so sharing them
        between the captured state and live stores is safe; the
        containers themselves are copied on both capture and restore so
        neither side can mutate the other's bookkeeping.
        """
        return {
            "pages": self.segment.capture_state(),
            "directories": dict(self._directories),
        }

    def restore_state(self, state: dict) -> None:
        self.segment.restore_state(state["pages"])
        self._directories = dict(state["directories"])

    # -- internals ---------------------------------------------------------------------

    def _cached_directory(self, address: LongObjectAddress) -> ObjectDirectory:
        directory = self._directories.get(address.root_page_id)
        if directory is None:
            directory = self.read_directory(address)
        return directory

    def _pages_for_sections(
        self, directory: ObjectDirectory, section_ids: list[int]
    ) -> list[int]:
        payload = self.payload_per_page
        indexes: set[int] = set()
        for sid in section_ids:
            start, end = directory.section_range(sid)
            if end == start:
                continue
            first = start // payload
            last = (end - 1) // payload
            indexes.update(range(first, last + 1))
        return sorted(indexes)

    @staticmethod
    def _directory_encoding_size(n_sections: int, n_data_pages: int) -> int:
        return _DIR_HEADER.size + 4 * n_data_pages + 8 * n_sections
