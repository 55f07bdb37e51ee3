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

Relations, decomposition, reassembly, the full scan and access by
address are read off the parts by ``base.AddressedModel``.  For
NSM+index the address table *is* the index.  Plain NSM never reads it:
its access paths and its delete find tuples by value, and only the
unmeasured reorganisation, recovery and scan-partitioning code use its
rows.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.benchmark.schema import STATION_SCHEMA, key_of_oid, oid_of_key
from repro.errors import InvalidAddressError
from repro.models.addressing import Handle, Row
from repro.models.base import AddressedModel, Ref
from repro.nf2.oid import Rid
from repro.nf2.schema import ROOT_KEY, Projection, RelationSchema, links, unnest
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


class NSMModelBase(AddressedModel):
    """What NSM and NSM+index share: the four flat relations of
    Figure 3 and logical keys as references."""

    parts = NSM_PARTS
    root_schema = NSM_STATION

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        self.heaps = tuple(relation.heap for relation in self.relations)

    # -- references: logical keys -------------------------------------------

    def ref_of(self, oid: int) -> Ref:
        return key_of_oid(oid)

    def oid_of(self, ref: Ref) -> int:
        return oid_of_key(ref)

    def all_refs(self) -> list[Ref]:
        return self.table.live_keys()

    def _row(self, ref: Ref) -> Row:
        # The index resolves a key to its record addresses at no I/O cost.
        return self.table.row_of_key(ref)

    def _handles(self, refs: Sequence[Ref], index: int) -> list[tuple[Handle, ...]]:
        # No records for a key no live object carries: set-oriented paths skip it.
        return [() if row is None else row[index] for row in map(self.table.find, refs)]


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
        roots = self._matching(self.heaps[0], NSM_STATION, "Key", keys)
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
        rows = self._select(self.heaps[NSM_LINKED], _CONNECTION_PAIR, ROOT_KEY, keys)
        return [(row[ROOT_KEY], row["KeyConnection"]) for _, row in rows]

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        # Without addresses there are no per-object rows to group by.
        raise self._not_supported("grouped navigation")

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        if not refs:
            return []
        decode = self.serializer._decode_flat_part
        rows = self._matching(self.heaps[0], NSM_STATION, "Key", set(refs))
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
        stations = self.heaps[0]
        for rid, blob in self._matching(stations, NSM_STATION, "Key", set(refs)):
            stations.update(rid, patch(blob))

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

    def _refs_in(self, records: Iterable[bytes]) -> list[Ref]:
        # One reference per flat connection row, at its fixed offset.
        decode_atom = self.serializer.decode_atom
        return [decode_atom(NSM_CONNECTION, blob, "KeyConnection") for blob in records]

    def delete_object(self, ref: Ref) -> None:
        """Indexed delete: record accesses only, no scans."""
        super().delete_object(self.table.oid_of_key(ref))


__all__ = [
    "NSMModelBase",
    "NSMModel",
    "NSMIndexModel",
    "NSM_STATION",
    "NSM_PLATFORM",
    "NSM_CONNECTION",
    "NSM_SIGHTSEEING",
    "NSM_LINKED",
]
