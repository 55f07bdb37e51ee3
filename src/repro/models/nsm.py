"""NSM — the Normalized Storage Model (paper Section 3.3), plus NSM+index.

The complex object is unnested into four flat relations (Figure 3),
derived from the Station schema by the rule ``nf2.schema.unnest``:

* ``NSM_Station(Key, NoPlatform, NoSeeing, Name)``
* ``NSM_Platform(RootKey, OwnKey, PlatformNr, NoLine, TicketCode, Information)``
* ``NSM_Connection(RootKey, ParentKey, LineNr, KeyConnection, OidConnection, DepartureTimes)``
* ``NSM_Sightseeing(RootKey, SeeingNr, Description, Location, History, Remarks)``

"Superfluous key attributes have been omitted": the parent key is not
needed on the first nesting level, the own key not on the lowest level,
and the root relation carries only its own key.

Plain NSM provides **no physical addressing**: every access is a value
selection implemented as a relation scan, and object reassembly joins in
main memory ("We make the unrealistic assumption that all joins can be
performed in main memory", Section 4).  Navigation therefore uses the
logical ``KeyConnection``, not the OID.  Bulk load clusters the tuples
of one object together, the layout Equations 6/7 assume.

``NSMIndexModel`` adds the index variant of Table 3: an in-memory index
from object key to the record ids of all its tuples, so "a page is read
from disk then and only then if a tuple it stores is requested".

What the two share with DASDBS-NSM — relations, decomposition,
reassembly and the full scan, all read off the parts — is
:class:`NSMFamilyModel`.  Both carry the same address table (one row of
record ids per object, kept current by the shared kernel).  For
NSM+index the table *is* the index.  Plain NSM never reads it: its six access paths and its delete
find tuples by value, exactly as before — the table only lets the
unmeasured reorganisation, recovery and scan-partitioning code know
which tuples belong to which object without re-scanning for keys.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.benchmark.schema import STATION_SCHEMA, key_of_oid, oid_of_key
from repro.errors import InvalidAddressError
from repro.models.addressing import AddressTable, Handle, Relation, Row
from repro.models.base import Ref, StorageModel
from repro.models.mixed import MixedTupleStore
from repro.nf2.codec import compiled_assembly
from repro.nf2.oid import Rid
from repro.nf2.schema import ROOT_KEY, Part, Projection, RelationSchema, links, unnest
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine
from repro.storage.heap import HeapFile

#: Figure 3 by rule: one flat relation per nested relation, in walk order.
NSM_PARTS = unnest(STATION_SCHEMA, "NSM")
NSM_STATION, NSM_PLATFORM, NSM_CONNECTION, NSM_SIGHTSEEING = (part.stored for part in NSM_PARTS)

#: The one relation whose rows hold references: the one navigation reads.
(NSM_LINKED,) = [index for index, part in enumerate(NSM_PARTS) if links(part.stored)]

#: What plain NSM's navigation reads of a matching connection row.
_CONNECTION_PAIR = Projection(NSM_CONNECTION, (ROOT_KEY, "KeyConnection"))


class NSMFamilyModel(StorageModel):
    """What NSM, NSM+index and DASDBS-NSM share, read off their ``parts``.

    One relation per part — a heap-only :class:`Relation` of one row
    per tuple when every stored schema is flat (``unnest``), else a
    :class:`MixedTupleStore` of one record per object (``nest_by_root``)
    — the address table over them, and the compiled assembly: the
    decomposition of an object into its records, its reassembly and the
    full scan.
    """

    #: One part per relation of the Station schema, in walk order.
    parts: tuple[Part, ...]

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        # Compiled before any ``_store``: its proof licenses the relabelling.
        self._assembly = compiled_assembly(fmt, self.parts)
        self._rows = all(part.stored.is_flat for part in self.parts)
        self.relations = tuple(
            Relation(engine, part.stored.name)
            if self._rows
            else MixedTupleStore(engine, part.stored.name, part.stored, fmt)
            for part in self.parts
        )
        self.table = AddressTable(self.relations)

    # -- decomposition ---------------------------------------------------------------

    def _store(self, station: NestedTuple) -> Row:
        # The assembly's generated inverse of its join relabels the parts
        # of the station (``NestedTuple._from_trusted``, not re-validated):
        # ``insert_object`` admits only validated Stations, and compiling
        # the parts proved that a tuple plus its key columns is an item of
        # its stored schema.
        return self._assembly.store(station, self._insert)

    def _insert(self, index: int, value: NestedTuple) -> Handle:
        """Write one record of relation ``index``; returns its handle."""
        relation = self.relations[index]
        if self._rows:
            return relation.heap.insert(self.serializer.encode_flat(value))
        return relation.insert(value)

    # -- the full scan ---------------------------------------------------------------

    def scan_all(self) -> int:
        return sum(1 for _ in self._scan_objects())

    def _scan_objects(self) -> Iterator[NestedTuple]:
        """Every object, joined in memory from one scan per relation
        (each relation scanned and decoded before the next).  Only a
        relation with long records asks the table for them."""
        scans = []
        for index, (scan, relation) in enumerate(zip(self._assembly.scan, self.relations)):
            longs = self.table.long_handles(index) if relation.long_store else ()
            scans.append(scan(relation.scan_records(longs)))
        return self._assembly.join_scanned(*scans)

    def _decode_record(self, index: int, blob) -> None:
        self.serializer.decode_nested(self.parts[index].stored, blob)

    def _decode_long(self, index: int, address) -> None:
        self._decode_record(index, self.relations[index].read_record(address))


class NSMModelBase(NSMFamilyModel):
    """What NSM and NSM+index share: the four flat relations of
    Figure 3 and logical keys as references."""

    parts = NSM_PARTS
    root_schema = NSM_STATION

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        self.heaps = tuple(relation.heap for relation in self.relations)
        self.stations, self.platforms, self.connections, self.sightseeings = self.heaps

    # -- references: logical keys -------------------------------------------

    def ref_of(self, oid: int) -> Ref:
        return key_of_oid(oid)

    def oid_of(self, ref: Ref) -> int:
        return oid_of_key(ref)

    def all_refs(self) -> list[Ref]:
        return self.table.live_keys()


class NSMModel(NSMModelBase):
    """Normalized storage model without physical identifiers.

    Plain NSM's *measured* I/O is placement-invariant: every access is
    a value selection implemented as a relation scan, and a scan reads
    all pages whatever their order.  ``recluster`` still applies — it
    keeps the model interchangeable on the ``--recluster`` axis.
    """

    name = "NSM"
    supports_oid_access = False

    def _matching(
        self,
        heap: HeapFile,
        schema: RelationSchema | Projection,
        key_attr: str,
        keys: set[int],
    ) -> list[tuple[Rid, bytes]]:
        """Value selection by full scan (NSM has no access paths): the
        stored tuples whose ``key_attr`` is in ``keys``.  The predicate
        is evaluated on the stored key attribute only."""
        decode_atom = self.serializer.decode_atom
        return [
            (rid, blob)
            for rid, blob in heap.scan()
            if decode_atom(schema, blob, key_attr) in keys
        ]

    def _select(
        self,
        heap: HeapFile,
        schema: RelationSchema | Projection,
        key_attr: str,
        keys: set[int],
    ) -> list[tuple[Rid, NestedTuple]]:
        """:meth:`_matching`, with what ``schema`` asks for of each
        matching tuple materialised."""
        decode_flat = self.serializer.decode_flat
        return [
            (rid, decode_flat(schema, blob))
            for rid, blob in self._matching(heap, schema, key_attr, keys)
        ]

    # -- operations --------------------------------------------------------------------

    def fetch_full(self, ref: Ref) -> NestedTuple:
        raise self._not_supported("retrieval by OID (query 1a); NSM stores no identifiers")

    def fetch_full_by_key(self, key: int) -> NestedTuple:
        keys = {key}
        roots = self._matching(self.stations, NSM_STATION, "Key", keys)
        if not roots:
            raise InvalidAddressError(f"no station with key {key}")

        # Each relation is scanned, then decoded, before the next is scanned.
        assembly = self._assembly
        return assembly.join(
            assembly.decode[0](roots[0][1]),
            *[
                decode([blob for _, blob in self._matching(heap, part.stored, part.root_key, keys)])
                for decode, heap, part in zip(assembly.decode[1:], self.heaps[1:], self.parts[1:])
            ],
        )

    def fetch_refs(self, refs: Sequence[Ref]) -> list[Ref]:
        """One set-oriented scan of NSM_Connection per navigation level."""
        return [child for _, child in self.fetch_ref_pairs(refs)]

    def fetch_ref_pairs(self, refs: Sequence[Ref]) -> list[tuple[int, Ref]]:
        """``(RootKey, KeyConnection)`` of matching rows, in heap order.

        The same single scan (and counters) as :meth:`fetch_refs`, which
        discards the root keys; the sharded facade keeps them so it can
        merge per-shard results back into the unsharded scan order (heap
        order groups rows by ascending root key under bulk load).
        """
        if not refs:
            return []
        keys = set(refs)
        rows = self._select(self.connections, _CONNECTION_PAIR, ROOT_KEY, keys)
        return [(row[ROOT_KEY], row["KeyConnection"]) for _, row in rows]

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        if not refs:
            return []
        decode = self.serializer._decode_flat_part
        rows = self._matching(self.stations, NSM_STATION, "Key", set(refs))
        return [decode(NSM_STATION, blob, 0)[0] for _, blob in rows]

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        """Replace the matching NSM_Station tuples (set-oriented).

        Locating the tuples requires a value scan (no access path); the
        replacement itself dirties the shared pages, written back in a
        batch at flush time.
        """
        patch = self._root_patch(changes)
        if not refs:
            return
        for rid, blob in self._matching(self.stations, NSM_STATION, "Key", set(refs)):
            self.stations.update(rid, patch(blob))

    # -- object lifecycle ----------------------------------------------------------------

    def delete_object(self, ref: Ref) -> None:
        """Value-based delete: one scan per relation, as NSM must.

        The table row is tombstoned, not read: the tuples were found
        and removed by value.
        """
        keys = {ref}
        found = False
        for heap, part in zip(self.heaps, self.parts):
            for rid, _ in self._select(heap, part.stored, part.root_key, keys):
                heap.delete(rid)
                found = True
        if not found:
            raise InvalidAddressError(f"no station with key {ref}")
        self.table.forget(ref)

    def move_objects(self, oids: Sequence[int], max_pages: int) -> int:
        """Moves nothing and returns 0.

        Plain NSM navigates by key and is placement-invariant at this
        interface, so an online move could only cost I/O; the no-op
        keeps ``--recluster online`` runnable across the whole model
        grid.
        """
        return 0


class NSMIndexModel(NSMModelBase):
    """NSM supported by an index (Table 3's "NSM+index" row).

    An in-memory index maps every object to the record ids of its
    tuples in the four relations, so record accesses touch exactly the
    pages that hold requested tuples.  Like the other address tables,
    the index itself is charged no I/O (Section 5.1's accounting rule).
    Value selections (query 1b) still scan the root relation — the
    index translates keys to addresses only after the key is known to
    identify an object.
    """

    name = "NSM+index"

    def _rids(self, key: int, index: int) -> tuple[Rid, ...]:
        """Indexed record ids of ``key`` in relation ``index``; none for
        a key no live object carries (set-oriented accesses skip it)."""
        row = self.table.find(key)
        return () if row is None else row[index]

    # -- indexed operations ------------------------------------------------------

    def fetch_full(self, ref: Ref) -> NestedTuple:
        # References of the NSM family are logical keys (see ref_of);
        # the index resolves them to record addresses at no I/O cost.
        return self._fetch_assembled(ref)

    def _fetch_assembled(self, key: int) -> NestedTuple:
        (station_rid,), *rids = self.table.row_of_key(key)
        # Arguments evaluate left to right: each relation is read, then
        # decoded (its zero-copy views at once), before the next is read.
        decode, heaps = self._assembly.decode, self.heaps
        return self._assembly.join(
            decode[0](self.stations.read(station_rid)),
            *[
                decode_part(heap.read_many(part_rids))
                for decode_part, heap, part_rids in zip(decode[1:], heaps[1:], rids)
            ],
        )

    def fetch_full_by_key(self, key: int) -> NestedTuple:
        # Value selection scans the root relation; sub-tuples via index.
        found = False
        for _, blob in self.stations.scan():
            if self.serializer.decode_atom(NSM_STATION, blob, "Key") == key:
                found = True
        if not found:
            raise InvalidAddressError(f"no station with key {key}")
        return self._fetch_assembled(key)

    def fetch_refs(self, refs: Sequence[Ref]) -> list[Ref]:
        rids = [rid for key in refs for rid in self._rids(key, NSM_LINKED)]
        decode_atom = self.serializer.decode_atom
        return [
            decode_atom(NSM_CONNECTION, blob, "KeyConnection")
            for blob in self.connections.read_many(rids)
        ]

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        """Grouped navigation: one batched read, split back per ref."""
        sizes = [len(self._rids(key, NSM_LINKED)) for key in refs]
        children = iter(self.fetch_refs(refs))
        return [[next(children) for _ in range(size)] for size in sizes]

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        rids = [rid for key in refs for rid in self._rids(key, 0)]
        decode = self.serializer._decode_flat_part
        return [decode(NSM_STATION, blob, 0)[0] for blob in self.stations.read_many(rids)]

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        patch = self._root_patch(changes)
        for key in self._dedupe(refs):
            for rid in self._rids(key, 0):
                self.stations.update(rid, patch(self.stations.read(rid)))

    def delete_object(self, ref: Ref) -> None:
        """Indexed delete: record accesses only, no scans."""
        super().delete_object(self.table.oid_of_key(ref))


__all__ = [
    "NSMFamilyModel",
    "NSMModelBase",
    "NSMModel",
    "NSMIndexModel",
    "NSM_STATION",
    "NSM_PLATFORM",
    "NSM_CONNECTION",
    "NSM_SIGHTSEEING",
    "NSM_LINKED",
]
