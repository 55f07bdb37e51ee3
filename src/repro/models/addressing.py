"""The address table below the storage models.

The paper's models differ only in how a Station is decomposed over
pages and which pages an access path touches.  Everything else a model
has to keep consistent — where each object's records live, and how that
knowledge survives deletes, reorganisation, crash recovery, snapshots
and sharded scans — is the same for all of them and lives here, once:

* a :class:`Relation` is one stored relation: a heap of shared slotted
  pages plus, optionally, a :class:`LongObjectStore` for records that
  outgrow a page;
* an :class:`AddressTable` maps an OID to one **row**: per relation, the
  handles of that object's records (``None`` once the object is
  deleted), beside the object's logical key.

Like the paper's transformation table it resides in main memory and is
charged no I/O ("we did not account for additional I/Os needed ... to
retrieve the tables with addresses", Section 5.1).
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Callable, Container, Iterator, Sequence

from repro.errors import InvalidAddressError
from repro.nf2.oid import Rid
from repro.nf2.serializer import NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine
from repro.storage.longobj import LongObjectAddress, LongObjectStore
from repro.storage.page import SlottedPage

#: Address of one stored record: a slot on a shared heap page (``Rid``)
#: or the private header pages of a long record.
Handle = Rid | LongObjectAddress

#: One table row: per relation, the handles of the object's records.
Row = tuple[tuple[Handle, ...], ...]

#: Which sections of a long record a read fixes or copies (``None``: all).
Sections = Sequence[int] | None

#: A long record's first section: a cut record's root, an uncut one whole.
FIRST_SECTION = (0,)


class Relation:
    """One stored relation: a heap plus an optional long-object store.

    Without ``long_fmt`` the relation is heap-only and its segment
    carries the relation's name; with it, records that outgrow a page
    go to ``<name>_large`` and the heap is ``<name>_small``.  A long
    record is one section or, ``cut``, the root's flat part and one
    section per sub-relation of the root, of which a read may fix and
    copy some.  A list of records is read ``set_oriented`` or one by one.
    """

    def __init__(
        self,
        engine: StorageEngine,
        name: str,
        long_fmt: StorageFormat | None = None,
        cut: bool = False,
        set_oriented: bool = True,
    ) -> None:
        self.name = name
        self.small_threshold = SlottedPage.max_record_size(engine.page_size)
        #: Encodes the sections of a cut long record; ``None`` when uncut.
        self.cut = NF2Serializer(long_fmt) if cut else None
        self.set_oriented = set_oriented
        if long_fmt is None:
            self.heap = engine.new_heap(name)
            self.long_store: LongObjectStore | None = None
        else:
            self.heap = engine.new_heap(f"{name}_small")
            self.long_store = LongObjectStore(
                engine.new_segment(f"{name}_large"), long_fmt
            )

    def insert(self, blob: bytes, value: NestedTuple) -> Handle:
        """Store ``value``, encoded as ``blob``: on a shared heap page if
        it fits or the relation has no long store, else on private
        header and data pages, cut into sections; returns its handle."""
        if self.long_store is None or len(blob) <= self.small_threshold:
            return self.heap.insert(blob)
        return self.long_store.store(
            self.sections(value) if self.cut else [blob], value.count_subtuples()
        )

    def sections(self, value: NestedTuple) -> list[bytes]:
        """The cut of a long record: section 0 the flat part, then one
        section per sub-relation, in schema order."""
        encode = self.cut.encode_subtuple_list
        return [
            self.cut.encode_flat(value),
            *(encode(sub, value.subtuples(sub.name)) for sub in value.schema.subrelations),
        ]

    def patch(
        self, handle: Handle, patch: Callable[[bytes], bytes], write_through: bool = False
    ) -> None:
        """Replace a record by ``patch`` of its leading bytes (same size;
        see ``NF2Serializer.compile_patch``): a read, then a replace.  A
        heap record's page is fixed twice and dirtied; every page of a
        long record is, but only its first section is copied and written.
        ``write_through`` is DASDBS's ``change attribute`` (Section 5.3):
        only the first section's pages are read and patched, and each is
        written at once, in its own call.
        """
        if type(handle) is Rid:
            self.heap.update(handle, patch(self.heap.read(handle)), write_through=write_through)
        elif write_through:
            (first,) = self.long_store.read(handle, FIRST_SECTION)
            self.long_store.patch_section(handle, 0, patch(first), write_through=True)
        else:
            (first,) = self.long_store.read(handle, copy=FIRST_SECTION)
            self.long_store.replace(handle, {0: patch(first)})

    def read_record(
        self, handle: Handle, sections: Sections = None, copy: Sections = None
    ) -> bytes:
        """The stored bytes of one record: of a long record, ``sections``
        are fixed and ``copy`` of them (default: those) returned joined.
        A cut record's sections are its nested encoding cut at the
        sub-relations, and decoders find fields by the schema, never by
        a stored length, so its leading sections joined decode as that
        encoding would: the flat part alone, or the object up to the
        last sub-relation copied.
        """
        if type(handle) is Rid:
            return self.heap.read(handle)
        return b"".join(self.long_store.read(handle, sections, copy))

    def read_records(
        self, handles: Sequence[Handle], sections: Sections = None, copy: Sections = None
    ) -> Sequence[bytes | memoryview]:
        """The records in ``handles`` order, each as :meth:`read_record`
        reads it.  Set-oriented, the heap page set loads in one I/O
        call: heap records are zero-copy views (``HeapFile.read_many``);
        with a long store the records are drawn one at a time, a long
        one read in its turn, so decode each as it is drawn.  Else each
        heap record's page is fixed on its own, as the record's turn comes.
        """
        if not self.set_oriented:
            read, long_store, join = self.heap.read, self.long_store, b"".join
            return [
                read(h) if type(h) is Rid else join(long_store.read(h, sections, copy))
                for h in handles
            ]
        if self.long_store is None:
            return self.heap.read_many(handles)
        return self._read_mixed(handles, sections, copy)

    def _read_mixed(
        self, handles: Sequence[Handle], sections: Sections, copy: Sections
    ) -> Iterator[bytes | memoryview]:
        unique = list(dict.fromkeys([handle for handle in handles if type(handle) is Rid]))
        views = dict(zip(unique, self.heap.read_many(unique))) if unique else {}
        for handle in handles:
            yield views[handle] if type(handle) is Rid else self.read_record(handle, sections, copy)

    def select(
        self,
        keys: Container[object],
        key_of: Callable[[bytes, str], object],
        attr: str,
        longs: Sequence[LongObjectAddress] = (),
        sections: Sections = None,
    ) -> list[tuple[Handle, bytes]]:
        """Value selection, the one scan by key: every record whose
        ``key_of(record, attr)`` is in ``keys``, with its handle, found
        by a scan of every record — heap pages in order, a page batch
        at a time (``HeapFile.scan_pages``; a ``Rid`` is made only for a
        match), then ``longs`` with ``sections`` fixed, a partly read
        match read again whole at once — that does not stop at a match,
        as the paper's value selection reads (Section 3.3)."""
        matches = [
            (Rid(page_id, slot), blob)
            for page_id, slots, records in self.heap.scan_pages()
            for slot, blob in zip(slots, records)
            if key_of(blob, attr) in keys
        ]
        for handle in longs:
            # The key sits in the first section: the root's flat part.
            read = self.long_store.read(handle, sections)
            if key_of(read[0], attr) in keys:
                whole = read if sections is None else self.long_store.read(handle)
                matches.append((handle, b"".join(whole)))
        return matches

    def scan_records(
        self, longs: Sequence[LongObjectAddress], pages: list[int] | None = None
    ) -> Iterator[bytes]:
        """All records, each whole: heap pages in order (or only
        ``pages``), then the given long records (the address table
        lists them: ``long_handles``)."""
        heap = chain.from_iterable(map(itemgetter(2), self.heap.scan_pages(pages)))
        return chain(heap, map(self.read_record, longs))

    def delete(self, handle: Handle) -> None:
        """Delete one record (private pages of a long record are freed)."""
        if type(handle) is Rid:
            self.heap.delete(handle)
        else:
            self.long_store.delete(handle)

    @property
    def n_pages(self) -> int:
        """Pages of the relation: its heap plus its long records."""
        if self.long_store is None:
            return self.heap.n_pages
        return self.heap.n_pages + self.long_store.segment.n_pages

    def capture_state(self) -> dict:
        """Restorable segment state (page-id lists and directory cache)."""
        return {
            "heap_pages": self.heap.segment.capture_state(),
            "long": None if self.long_store is None else self.long_store.capture_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.heap.segment.restore_state(state["heap_pages"])
        if self.long_store is not None:
            self.long_store.restore_state(state["long"])


class AddressTable:
    """OID → key and, per relation, the handles of the object's records."""

    def __init__(self, relations: Sequence[Relation]) -> None:
        self.relations = tuple(relations)
        #: Row per OID; ``None`` is the tombstone of a deleted object.
        self.rows: list[Row | None] = []
        #: Logical key per OID (kept for tombstones: it names the entry
        #: of ``_oid_by_key`` a delete has to drop).
        self.keys: list[int] = []
        self._oid_by_key: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    # -- lookup ---------------------------------------------------------------

    def row(self, oid: int) -> Row:
        """The row of a live object — the one bounds- and tombstone-checked
        lookup every OID-addressed access goes through."""
        if not 0 <= oid < len(self.rows):
            raise InvalidAddressError(f"no object with oid {oid}")
        row = self.rows[oid]
        if row is None:
            raise InvalidAddressError(f"object {oid} has been deleted")
        return row

    def find(self, key: int) -> Row | None:
        """The row of the live object with this key, ``None`` if there is none."""
        oid = self._oid_by_key.get(key)
        return None if oid is None else self.rows[oid]

    def oid_of_key(self, key: int) -> int:
        """OID of the live object with this key; raises if there is none."""
        try:
            return self._oid_by_key[key]
        except KeyError:
            raise InvalidAddressError(f"no station with key {key}") from None

    def row_of_key(self, key: int) -> Row:
        """:meth:`find`, raising for a key no live object carries."""
        return self.rows[self.oid_of_key(key)]

    def live_oids(self) -> list[int]:
        """OIDs of every object not deleted, ascending."""
        return [oid for oid, row in enumerate(self.rows) if row is not None]

    def live_keys(self) -> list[int]:
        """Keys of every object not deleted, in OID order."""
        return [self.keys[oid] for oid in self.live_oids()]

    def long_handles(self, index: int) -> list[LongObjectAddress]:
        """Long records of relation ``index``, in OID order — the part
        of a full scan the heap's page order does not enumerate."""
        return [
            handle
            for row in self.rows
            if row is not None
            for handle in row[index]
            if type(handle) is not Rid
        ]

    # -- lifecycle --------------------------------------------------------------

    def add(self, key: int, row: Row) -> int:
        """Append the row of a newly stored object; returns its OID."""
        oid = len(self.rows)
        self.rows.append(row)
        self.keys.append(key)
        self._oid_by_key[key] = oid
        return oid

    def delete(self, oid: int) -> None:
        """Delete the object's records through their addresses, then
        tombstone the row.  An unknown or deleted OID is refused before
        anything is touched."""
        row = self.row(oid)
        for relation, handles in zip(self.relations, row):
            for handle in handles:
                relation.delete(handle)
        self.forget(self.keys[oid])

    def forget(self, key: int) -> None:
        """Tombstone the row of ``key`` without touching its records.

        The bookkeeping half of :meth:`delete`, and all plain NSM asks
        of the table: it finds and removes its tuples by value.
        """
        self.rows[self.oid_of_key(key)] = None
        del self._oid_by_key[key]

    # -- reorganisation -----------------------------------------------------------

    def remap(self, forwardings: Sequence[dict[Rid, Rid]]) -> None:
        """Follow one ``{old_rid: new_rid}`` map per relation.

        Maps may be partial or empty; long handles never appear in one,
        so they stay put.  Page ids are never reused, hence applying a
        map again (recovery after a live remap) changes nothing.
        """
        if not any(forwardings):
            return
        self.rows = [
            None
            if row is None
            else tuple(
                tuple([forwarding.get(handle, handle) for handle in handles])
                if forwarding
                else handles
                for forwarding, handles in zip(forwardings, row)
            )
            for row in self.rows
        ]

    def _rids(self, index: int, oids: Sequence[int]) -> list[Rid]:
        """Heap records of relation ``index`` for the live ``oids``, in order."""
        rows = self.rows
        return [
            handle
            for oid in oids
            if 0 <= oid < len(rows) and rows[oid] is not None
            for handle in rows[oid][index]
            if type(handle) is Rid
        ]

    def recluster(self, order: Sequence[int]) -> None:
        """Rewrite every heap into object ``order`` and follow the moves."""
        self.remap(
            [
                relation.heap.recluster(self._rids(index, order))
                for index, relation in enumerate(self.relations)
            ]
        )

    def move(self, oids: Sequence[int], max_pages: int) -> int:
        """Pack the heap records of ``oids`` onto at most ``max_pages``
        fresh pages per heap; returns the number of pages written."""
        if max_pages <= 0 or not oids:
            return 0
        oids = list(dict.fromkeys(oids))
        forwardings = [
            relation.heap.move_records(self._rids(index, oids), max_pages)
            for index, relation in enumerate(self.relations)
        ]
        self.remap(forwardings)
        return sum(
            len({rid.page_id for rid in forwarding.values()})
            for forwarding in forwardings
        )

    def apply_recovery(self, report) -> None:
        """Follow the composed relocation maps of a ``RecoveryReport``."""
        self.remap(
            [
                report.forwarding_for(relation.heap.segment.name)
                for relation in self.relations
            ]
        )

    # -- snapshot state -------------------------------------------------------------

    def capture_state(self) -> dict:
        """Rows, keys and segment state as restorable, picklable data.

        Rows and handles are immutable, so copying the containers is
        deep enough: later mutation of the live table never reaches a
        captured state, nor the other way round.
        """
        return {
            "rows": list(self.rows),
            "keys": list(self.keys),
            "oid_by_key": dict(self._oid_by_key),
            "relations": [relation.capture_state() for relation in self.relations],
        }

    def restore_state(self, state: dict) -> None:
        for relation, relation_state in zip(self.relations, state["relations"]):
            relation.restore_state(relation_state)
        self.rows = list(state["rows"])
        self.keys = list(state["keys"])
        self._oid_by_key = dict(state["oid_by_key"])

    # -- statistics and scan partitioning --------------------------------------------

    def relation_pages(self) -> dict[str, int]:
        return {relation.name: relation.n_pages for relation in self.relations}

    def scan_units(
        self, owned: Callable[[int], bool], take_orphans: bool = False
    ) -> list[tuple[list[int], list[LongObjectAddress]]]:
        """Per relation, the ``(heap pages, long records)`` a shard scans.

        A shared heap page belongs to the owner of its first (lowest
        slot) record, a long record to its own OID; pages holding no
        addressed record go to the shard with ``take_orphans``.  Over a
        set of ``owned`` predicates that partition the OIDs the units
        partition exactly one full scan.
        """
        units = []
        for index, relation in enumerate(self.relations):
            first: dict[int, tuple[int, int]] = {}
            longs: list[LongObjectAddress] = []
            for oid, row in enumerate(self.rows):
                if row is None:
                    continue
                for handle in row[index]:
                    if type(handle) is not Rid:
                        if owned(oid):
                            longs.append(handle)
                        continue
                    best = first.get(handle.page_id)
                    if best is None or handle.slot < best[0]:
                        first[handle.page_id] = (handle.slot, oid)
            pages = [
                page_id
                for page_id in relation.heap.segment.page_ids
                if (owned(first[page_id][1]) if page_id in first else take_orphans)
            ]
            units.append((pages, longs))
        return units


__all__ = ["AddressTable", "FIRST_SECTION", "Handle", "Relation", "Row", "Sections"]
