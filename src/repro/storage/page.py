"""Slotted pages.

A page is a fixed-size byte array with a 36-byte header (matching the
DASDBS configuration), a record area growing from the front, and a slot
directory growing from the back.  Records are addressed by slot number,
so they can move within the page (compaction) without invalidating
record ids.

Layout::

    [magic u16][n_slots u16][free_start u16][pad .. 36]
    [record area ->                ...          <- slot directory]

Each slot-directory entry is 4 bytes: ``offset u16, length u16``.
``offset == 0xFFFF`` marks a deleted slot.

Performance notes
-----------------

The simulator touches millions of slots per sweep, so this module keeps
Python-level work per touch minimal:

* the header fields (``n_slots``, ``free_start``) are read **once** when
  the view is created and then cached as plain ints; every mutator
  updates the cache and the buffer together, so no property access
  re-unpacks the header;
* all ``struct`` formats are precompiled :class:`struct.Struct`
  instances at module level;
* :meth:`records` and :meth:`slots` decode the whole slot directory in
  one ``unpack_from`` pass instead of one unpack per slot.

The cache lives in the *view*, not the buffer.  Code that mutates the
underlying ``bytearray`` behind a live view's back must create a fresh
:class:`SlottedPage` (or call :meth:`format`, which rewrites the header)
before trusting the view again — the same discipline the seed code
required implicitly, now stated.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import InvalidAddressError, PageOverflowError, StorageError
from repro.storage.constants import PAGE_HEADER_SIZE, PAGE_SIZE, SLOT_ENTRY_SIZE

_MAGIC = 0x5E1F
_TOMBSTONE = 0xFFFF
_HEADER_FMT = "<HHH"
_HEADER = struct.Struct(_HEADER_FMT)
_SLOT = struct.Struct("<HH")
_HEADER_UNPACK = _HEADER.unpack_from
_HEADER_PACK = _HEADER.pack_into
_SLOT_UNPACK = _SLOT.unpack_from
_SLOT_PACK = _SLOT.pack_into

#: Byte offset of the u32 page checksum inside the 36-byte header pad
#: (the packed header fields occupy bytes 0..6, so the checksum sits in
#: otherwise-unused pad space and no record layout shifts).
_CRC_OFFSET = 6
_CRC = struct.Struct("<I")


def page_checksum(data: bytes | bytearray) -> int:
    """CRC-32 of a page image, skipping the checksum field itself."""
    mv = memoryview(data)
    crc = zlib.crc32(mv[:_CRC_OFFSET])
    crc = zlib.crc32(mv[_CRC_OFFSET + _CRC.size :], crc)
    return crc & 0xFFFFFFFF


def seal_page(data: bytearray) -> None:
    """Stamp the page's checksum into its header pad (in place).

    Called by the buffer manager on write-back when checksums are
    enabled; the field lives in pad bytes the slotted layout never
    touches, so sealing changes no record, slot, or header semantics.
    """
    _CRC.pack_into(data, _CRC_OFFSET, page_checksum(data))


def page_is_intact(data: bytes | bytearray) -> bool:
    """Whether a page image matches its stored checksum.

    An all-zero image is accepted: it is a virgin allocation (or a
    zero-filled recovered page) that was never sealed, not corruption —
    :class:`SlottedPage` formats such pages on first use.
    """
    (stored,) = _CRC.unpack_from(data, _CRC_OFFSET)
    if stored == page_checksum(data):
        return True
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)  # memoryview frames have no .count
    return data.count(0) == len(data)

#: Precompiled whole-directory formats, keyed by slot count.  The
#: directory of ``n`` slots is ``2n`` consecutive u16 values read in one
#: pass; sweeps hit the same handful of slot counts over and over.
_DIR_STRUCTS: dict[int, struct.Struct] = {}


def _dir_struct(n_slots: int) -> struct.Struct:
    cached = _DIR_STRUCTS.get(n_slots)
    if cached is None:
        cached = _DIR_STRUCTS[n_slots] = struct.Struct(f"<{2 * n_slots}H")
    return cached


class SlottedPage:
    """A mutable view over one page buffer.

    The view reads and writes the underlying ``bytearray`` in place, so
    a page fixed in the buffer manager can be edited and the frame
    marked dirty afterwards.

    Zero-copy backends hand the buffer manager read-only
    ``memoryview`` frames (see :mod:`repro.storage.backends`); a view
    over one of those is copy-on-write.  Reads slice the mapping
    directly; the first mutator call *materialises* a private
    ``bytearray`` copy and reports it to ``on_write`` (the buffer
    manager's hook that swaps the frame onto the copy).  A view over a
    plain ``bytearray`` never copies and never calls the hook — the
    original in-place behaviour.
    """

    __slots__ = ("data", "page_size", "_n_slots", "_free", "_mv", "_on_write")

    def __init__(
        self,
        data: bytearray | bytes | memoryview,
        page_size: int = PAGE_SIZE,
        on_write=None,
    ) -> None:
        if len(data) != page_size:
            raise StorageError(f"page buffer of {len(data)} bytes, expected {page_size}")
        self.data = data
        self.page_size = page_size
        self._mv: memoryview | None = None
        self._on_write = on_write
        magic, n_slots, free_start = _HEADER_UNPACK(data, 0)
        if magic != _MAGIC:
            self.format()
        else:
            self._n_slots = n_slots
            self._free = free_start

    def _writable(self) -> bytearray:
        """The page buffer, materialised for mutation (copy-on-write)."""
        data = self.data
        if type(data) is not bytearray:
            data = bytearray(data)
            self.data = data
            self._mv = None  # cached view aliases the old buffer
            if self._on_write is not None:
                self._on_write(data)
        return data

    # -- header access -------------------------------------------------------

    def format(self) -> None:
        """Initialise an empty page (also re-syncs the header cache)."""
        data = self._writable()
        data[:PAGE_HEADER_SIZE] = bytes(PAGE_HEADER_SIZE)
        _HEADER_PACK(data, 0, _MAGIC, 0, PAGE_HEADER_SIZE)
        self._n_slots = 0
        self._free = PAGE_HEADER_SIZE

    @property
    def n_slots(self) -> int:
        return self._n_slots

    @property
    def _free_start(self) -> int:
        return self._free

    def _set_header(self, n_slots: int, free_start: int) -> None:
        _HEADER_PACK(self.data, 0, _MAGIC, n_slots, free_start)
        self._n_slots = n_slots
        self._free = free_start

    def _slot_pos(self, slot: int) -> int:
        return self.page_size - (slot + 1) * SLOT_ENTRY_SIZE

    def _slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self._n_slots:
            raise InvalidAddressError(f"slot {slot} out of range (page has {self._n_slots})")
        return _SLOT_UNPACK(self.data, self.page_size - (slot + 1) * SLOT_ENTRY_SIZE)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT_PACK(self.data, self._slot_pos(slot), offset, length)

    # -- space accounting ------------------------------------------------------

    @property
    def free_space(self) -> int:
        """Bytes available for a new record (its slot entry included)."""
        # One cached-int expression; the seed re-unpacked the header
        # twice here (once per property).
        gap = self.page_size - self._n_slots * SLOT_ENTRY_SIZE - self._free
        return gap - SLOT_ENTRY_SIZE if gap > SLOT_ENTRY_SIZE else 0

    @property
    def used_bytes(self) -> int:
        """Bytes of live records currently stored."""
        total = 0
        for _, offset, length in self.slots():
            if offset != _TOMBSTONE:
                total += length
        return total

    @staticmethod
    def max_record_size(page_size: int = PAGE_SIZE) -> int:
        """Largest record a single empty page can hold."""
        return page_size - PAGE_HEADER_SIZE - SLOT_ENTRY_SIZE

    # -- record operations -------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert a record and return its slot number."""
        length = len(record)
        # The record needs `length` bytes at the front *and* a 4-byte
        # directory entry at the back; checking the gap directly (not
        # via free_space, which floors at 0) keeps a zero-length record
        # from sneaking its entry over the record area of a full page.
        gap = self.page_size - self._n_slots * SLOT_ENTRY_SIZE - self._free
        if length + SLOT_ENTRY_SIZE > gap:
            raise PageOverflowError(
                f"record of {length} bytes does not fit ({self.free_space} free)"
            )
        if length >= _TOMBSTONE:
            raise StorageError("record too large for a 16-bit slot length")
        n_slots = self._n_slots
        free_start = self._free
        self._writable()[free_start : free_start + length] = record
        self._set_header(n_slots + 1, free_start + length)
        self._set_slot(n_slots, free_start, length)
        return n_slots

    def read(self, slot: int) -> bytes:
        """Return a copy of the record in ``slot``."""
        offset, length = self._slot(slot)
        if offset == _TOMBSTONE:
            raise InvalidAddressError(f"slot {slot} is deleted")
        return bytes(self.data[offset : offset + length])

    def read_view(self, slot: int) -> memoryview:
        """Zero-copy view of the record in ``slot``.

        The view aliases the live page buffer: it is only valid until
        the page is next mutated (or, for a buffered page, written over
        after eviction), so callers must decode it immediately — the
        contract of the set-oriented read path, where every record is
        deserialised on the spot and the bytes are never kept.

        One whole-page memoryview is created lazily and kept for the
        view's lifetime (a memoryview over a bytearray stays live
        through in-place mutation; pages never resize), so each record
        read costs a single slice, not a buffer export plus a slice.
        """
        # ``_slot``, inlined: the set-oriented read path calls this once
        # per record.
        if not 0 <= slot < self._n_slots:
            raise InvalidAddressError(f"slot {slot} out of range (page has {self._n_slots})")
        offset, length = _SLOT_UNPACK(
            self.data, self.page_size - (slot + 1) * SLOT_ENTRY_SIZE
        )
        if offset == _TOMBSTONE:
            raise InvalidAddressError(f"slot {slot} is deleted")
        mv = self._mv
        if mv is None:
            mv = self._mv = memoryview(self.data)
        return mv[offset : offset + length]

    def update(self, slot: int, record: bytes) -> None:
        """Replace the record in ``slot``.

        Same-size (or smaller) records are replaced in place; larger
        records are re-appended if the page has room, otherwise
        :class:`PageOverflowError` is raised (the storage models of the
        paper only perform structure-preserving, size-preserving
        updates, but the general case is supported for completeness).
        """
        offset, length = self._slot(slot)
        if offset == _TOMBSTONE:
            raise InvalidAddressError(f"slot {slot} is deleted")
        if len(record) <= length:
            self._writable()[offset : offset + len(record)] = record
            self._set_slot(slot, offset, len(record))
            return
        # Need to relocate: tombstone the old copy, then append.  The
        # grown record reuses its existing slot entry, so the whole
        # front-to-back gap is available (computed directly — the
        # floored free_space under-reports it on a nearly full page).
        def _gap() -> int:
            return self.page_size - self._n_slots * SLOT_ENTRY_SIZE - self._free

        self._writable()
        if len(record) > _gap():
            old = bytes(self.data[offset : offset + length])
            self.compact(skip_slot=slot)
            if len(record) > _gap():
                # Failed updates are atomic: the compaction above
                # dropped the old copy (it was excluded so its space
                # would count as free), so put it back — it fit before,
                # and compaction only grew the contiguous gap.
                free_start = self._free
                self.data[free_start : free_start + length] = old
                self._set_header(self._n_slots, free_start + length)
                self._set_slot(slot, free_start, length)
                raise PageOverflowError(
                    f"updated record of {len(record)} bytes does not fit in page"
                )
        free_start = self._free
        self.data[free_start : free_start + len(record)] = record
        self._set_header(self._n_slots, free_start + len(record))
        self._set_slot(slot, free_start, len(record))

    def delete(self, slot: int) -> None:
        """Delete the record in ``slot`` (the slot number is not reused)."""
        offset, _ = self._slot(slot)
        if offset == _TOMBSTONE:
            raise InvalidAddressError(f"slot {slot} is already deleted")
        self._writable()
        self._set_slot(slot, _TOMBSTONE, 0)

    def compact(self, skip_slot: int | None = None) -> None:
        """Slide live records together to defragment the record area."""
        self._writable()
        records: list[tuple[int, bytes]] = []
        for slot, offset, length in self.slots():
            if slot == skip_slot:
                continue
            if offset != _TOMBSTONE:
                records.append((slot, bytes(self.data[offset : offset + length])))
        pos = PAGE_HEADER_SIZE
        for slot, record in records:
            self.data[pos : pos + len(record)] = record
            self._set_slot(slot, pos, len(record))
            pos += len(record)
        if skip_slot is not None:
            self._set_slot(skip_slot, pos, 0)
        self._set_header(self._n_slots, pos)

    # -- iteration ------------------------------------------------------------------

    def _directory(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Decode the whole slot directory in one pass.

        Returns ``(offsets, lengths)`` indexed by slot number.  The
        directory grows from the page end towards the front (slot ``i``
        lives at ``page_size - (i+1)*4``), so one unpack of the region
        yields the entries in reverse slot order; the stride-(-2) slices
        put them back into slot order at C speed.
        """
        n_slots = self._n_slots
        if not n_slots:
            return (), ()
        raw = _dir_struct(n_slots).unpack_from(
            self.data, self.page_size - n_slots * SLOT_ENTRY_SIZE
        )
        return raw[-2::-2], raw[-1::-2]

    def slots(self) -> list[tuple[int, int, int]]:
        """``(slot, offset, length)`` for every slot, one directory pass.

        Deleted slots are included (``offset == 0xFFFF``); callers that
        want live records only should use :meth:`records`.
        """
        offsets, lengths = self._directory()
        return list(zip(range(self._n_slots), offsets, lengths))

    def records(self) -> list[tuple[int, bytes]]:
        """``(slot, record)`` for every live record, in slot order.

        The slot directory is decoded in one batch pass.  The record
        area is snapshotted with a single page-sized ``memcpy`` and the
        payloads sliced out of it ``bytes``-to-``bytes`` — one copy per
        record instead of the bytearray-slice-then-bytes double copy,
        which is what makes full scans cheap.
        """
        n_slots = self._n_slots
        if not n_slots:
            return []
        # _directory(), inlined: this is the single hottest page method.
        raw = _dir_struct(n_slots).unpack_from(
            self.data, self.page_size - n_slots * SLOT_ENTRY_SIZE
        )
        offsets, lengths = raw[-2::-2], raw[-1::-2]
        blob = bytes(self.data)
        if _TOMBSTONE not in offsets:
            return list(
                zip(
                    range(n_slots),
                    [blob[o : o + l] for o, l in zip(offsets, lengths)],
                )
            )
        return [
            (slot, blob[offset : offset + length])
            for slot, (offset, length) in enumerate(zip(offsets, lengths))
            if offset != _TOMBSTONE
        ]

    @property
    def live_records(self) -> int:
        """Number of non-deleted records."""
        offsets, _ = self._directory()
        return sum(1 for offset in offsets if offset != _TOMBSTONE)
