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
from dataclasses import dataclass
from math import ceil
from typing import Sequence

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
    """Decoded object directory."""

    data_page_ids: tuple[int, ...]
    section_offsets: tuple[int, ...]
    section_lengths: tuple[int, ...]

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

        directory = ObjectDirectory(
            data_page_ids=tuple(data_ids),
            section_offsets=tuple(offsets),
            section_lengths=tuple(len(section) for section in sections),
        )
        self._write_directory(header_ids, directory, dir_size)
        self._write_data(data_ids, b"".join(sections))

        for page_id in header_ids + data_ids:
            self.buffer.unfix(page_id, dirty=True)

        address = LongObjectAddress(tuple(header_ids))
        self._directories[address.root_page_id] = directory
        return address

    def _write_directory(
        self, header_ids: list[int], directory: ObjectDirectory, dir_size: int
    ) -> None:
        blob = bytearray()
        blob += _DIR_HEADER.pack(
            _DIR_MAGIC,
            directory.n_sections,
            len(directory.data_page_ids),
            dir_size,
        )
        for page_id in directory.data_page_ids:
            blob += struct.pack("<I", page_id)
        for offset, length in zip(directory.section_offsets, directory.section_lengths):
            blob += struct.pack("<II", offset, length)
        if len(blob) < dir_size:
            blob += bytes(dir_size - len(blob))
        self._scatter(header_ids, bytes(blob))

    def _write_data(self, data_ids: list[int], stream: bytes) -> None:
        self._scatter(data_ids, stream)

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

        The directory is decoded straight from the fixed root frame; the
        header payloads are joined first only when the encoded entries
        run past the root page (more than ~500 data pages).
        """
        header_ids = address.header_page_ids
        frames = self.buffer.fix_many(header_ids)
        try:
            blob = memoryview(frames[header_ids[0]])[PAGE_HEADER_SIZE:]
            magic, n_sections, n_data_pages, _ = _DIR_HEADER.unpack_from(blob, 0)
            if magic != _DIR_MAGIC:
                raise InvalidAddressError(
                    f"page {address.root_page_id} does not hold an object directory"
                )
            if self._directory_encoding_size(n_sections, n_data_pages) > len(blob):
                blob = b"".join(
                    memoryview(frames[pid])[PAGE_HEADER_SIZE:] for pid in header_ids
                )
            # One unpack: the data page ids, then (offset, length) pairs.
            entries = struct.unpack_from(
                f"<{n_data_pages + 2 * n_sections}I", blob, _DIR_HEADER.size
            )
        finally:
            self.buffer.unfix_many(header_ids)
        directory = ObjectDirectory(
            entries[:n_data_pages],
            entries[n_data_pages::2],
            entries[n_data_pages + 1 :: 2],
        )
        self._directories[address.root_page_id] = directory
        return directory

    def read(
        self,
        address: LongObjectAddress,
        section_ids: Sequence[int] | None = None,
    ) -> list[bytes]:
        """Read an object's sections.

        The header pages are fetched in one I/O call; the needed data
        pages in a second call.  With ``section_ids=None`` every section
        (all data pages) is read — the DSM behaviour.  With a subset,
        only the data pages overlapping those sections are transferred —
        the DASDBS-DSM behaviour (Equation 5).

        Each section is copied once, out of the fixed frames: one
        ``join`` of its per-page frame slices.
        """
        directory = self.read_directory(address)
        data_page_ids = directory.data_page_ids
        if section_ids is None:
            wanted: Sequence[int] = range(directory.n_sections)
            needed_ids = list(data_page_ids)
        else:
            wanted = list(section_ids)
            for sid in wanted:
                if not 0 <= sid < directory.n_sections:
                    raise InvalidAddressError(f"object has no section {sid}")
            needed_ids = [
                data_page_ids[i] for i in self._pages_for_sections(directory, wanted)
            ]

        frames = self.buffer.fix_many(needed_ids)
        try:
            payload = self.payload_per_page
            offsets, lengths = directory.section_offsets, directory.section_lengths
            out: list[bytes] = []
            for sid in wanted:
                pos = offsets[sid]
                end = pos + lengths[sid]
                pieces = []
                while pos < end:
                    # The piece runs to the section's end or the page's,
                    # whichever comes first.  Plain arithmetic, no
                    # divmod/min calls: this loop runs once per page of
                    # every section read.
                    page_index = pos // payload
                    page_start = page_index * payload
                    page_end = page_start + payload
                    stop = end if end < page_end else page_end
                    at = PAGE_HEADER_SIZE + pos - page_start
                    pieces.append(
                        memoryview(frames[data_page_ids[page_index]])[
                            at : at + stop - pos
                        ]
                    )
                    pos = stop
                out.append(b"".join(pieces))
        finally:
            self.buffer.unfix_many(needed_ids)
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

    def replace(self, address: LongObjectAddress, sections: Sequence[bytes]) -> None:
        """Replace the whole object in place (sizes must be unchanged).

        This is the "replace entire (nested) tuple" update of Section
        5.3: every page of the object is rewritten, so every page is
        marked dirty and will be written back.
        """
        directory = self._cached_directory(address)
        if [len(s) for s in sections] != list(directory.section_lengths):
            raise StorageError(
                "replace() requires structure-preserving updates (same section sizes)"
            )
        all_ids = list(address.header_page_ids) + list(directory.data_page_ids)
        self.buffer.fix_many(all_ids)
        try:
            stream = b"".join(sections)
            payload = self.payload_per_page
            for index, pid in enumerate(directory.data_page_ids):
                chunk = stream[index * payload : (index + 1) * payload]
                # page_data, not the raw frame: zero-copy backends hand
                # out read-only views, so mutation needs the private copy.
                data = self.buffer.page_data(pid)
                data[PAGE_HEADER_SIZE : PAGE_HEADER_SIZE + len(chunk)] = chunk
        finally:
            for pid in all_ids:
                self.buffer.unfix(pid, dirty=True)

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
            payload = self.payload_per_page
            pos = start
            while pos < end:
                page_index = pos // payload
                in_page = pos - page_index * payload
                take = min(end - pos, payload - in_page)
                pid = directory.data_page_ids[page_index]
                self.buffer.page_data(pid)[
                    PAGE_HEADER_SIZE + in_page : PAGE_HEADER_SIZE + in_page + take
                ] = new_bytes[pos - start : pos - start + take]
                pos += take
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
