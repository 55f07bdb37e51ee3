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

Relations, decomposition, reassembly, the full scan and the
navigation reads are read off the parts by ``base.AddressedModel``.
For NSM+index the address table *is* the index.  Plain NSM never reads
it: its seam of the navigation reads (``_records``), query 1b, updates
and delete find rows by value with ``Relation.select``, the one scan by
key, and only the unmeasured reorganisation, recovery and
scan-partitioning code use its rows.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, Mapping, Sequence

from repro.benchmark.schema import STATION_SCHEMA, key_of_oid, oid_of_key
from repro.errors import InvalidAddressError
from repro.models.addressing import Handle, Row, Sections
from repro.models.base import AddressedModel, Ref
from repro.nf2.schema import ROOT_KEY, Projection, links, unnest
from repro.nf2.values import NestedTuple

#: Figure 3 by rule: one flat relation per nested relation, in walk order.
NSM_PARTS = unnest(STATION_SCHEMA, "NSM")
NSM_STATION, NSM_PLATFORM, NSM_CONNECTION, NSM_SIGHTSEEING = (part.stored for part in NSM_PARTS)

#: The one relation whose rows hold references: the one navigation reads.
(NSM_LINKED,) = [index for index, part in enumerate(NSM_PARTS) if links(part.stored)]

#: What plain NSM's ``fetch_ref_pairs`` decodes of a matching connection row.
_CONNECTION_PAIR = Projection(NSM_CONNECTION, (ROOT_KEY, "KeyConnection"))


class NSMModelBase(AddressedModel):
    """What NSM and NSM+index share: the four flat relations of
    Figure 3 and logical keys as references."""

    parts = NSM_PARTS
    root_schema = NSM_STATION

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

    def _refs_in(self, records: Iterable[bytes]) -> list[Ref]:
        # One reference per flat connection row, at its fixed offset.
        decode_atom = self.serializer.decode_atom
        return [decode_atom(NSM_CONNECTION, blob, "KeyConnection") for blob in records]


class NSMModel(NSMModelBase):
    """Normalized storage model without physical identifiers.

    Plain NSM's *measured* I/O is placement-invariant: every access is
    a value selection implemented as a relation scan, and a scan reads
    all pages whatever their order.  ``recluster`` still applies — it
    keeps the model interchangeable on the ``--recluster`` axis.
    """

    name = "NSM"
    supports_oid_access = False

    def _records(
        self, refs: Sequence[Ref], index: int, sections: Sections = None, copy: Sections = None
    ) -> list[bytes]:
        """The seam of the shared navigation reads, by value: one scan
        of relation ``index`` (``Relation.select`` on the stored root
        key) for the rows of ``refs``, a repeated ref's once, in heap
        order; no scan for no refs.  The address table is never read."""
        if not refs:
            return []
        part = self.parts[index]
        key_of = partial(self.serializer.decode_atom, part.stored)
        return [blob for _, blob in self.relations[index].select(set(refs), key_of, part.root_key)]

    # -- operations --------------------------------------------------------------------

    def fetch_full(self, ref: Ref) -> NestedTuple:
        raise self._not_supported("retrieval by OID (query 1a); NSM stores no identifiers")

    def fetch_full_by_key(self, key: int) -> NestedTuple:
        """One value selection per relation, each scanned, then decoded,
        before the next is scanned."""
        refs, assembly = [key], self._assembly
        roots = self._records(refs, 0)
        if not roots:
            raise InvalidAddressError(f"no station with key {key}")
        return assembly.join(
            assembly.decode[0](roots[0]),
            *[
                decode(self._records(refs, index))
                for index, decode in enumerate(assembly.decode[1:], 1)
            ],
        )

    def fetch_ref_pairs(self, refs: Sequence[Ref]) -> list[tuple[int, Ref]]:
        """``(RootKey, KeyConnection)`` of matching rows, in heap order.

        The same single scan (and counters) as :meth:`fetch_refs`, which
        discards the root keys; the sharded facade keeps them so it can
        merge per-shard results back into the unsharded scan order (heap
        order groups rows by ascending root key under bulk load).
        """
        decode = partial(self.serializer.decode_flat, _CONNECTION_PAIR)
        rows = map(decode, self._records(refs, NSM_LINKED))
        return [(row[ROOT_KEY], row["KeyConnection"]) for row in rows]

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        # Without addresses there are no per-object rows to group by.
        raise self._not_supported("grouped navigation")

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        """Replace the matching NSM_Station tuples (set-oriented).

        Locating the tuples requires a value scan (no access path); the
        replacement itself dirties the shared pages, written back in a
        batch at flush time.
        """
        patch = self._root_patch(changes)
        if not refs:
            return
        stations = self.relations[0]
        key_of = partial(self.serializer.decode_atom, NSM_STATION)
        for rid, blob in stations.select(set(refs), key_of, "Key"):
            stations.heap.update(rid, patch(blob))

    # -- object lifecycle ----------------------------------------------------------------

    def delete_object(self, ref: Ref) -> None:
        """Value-based delete: one scan per relation, as NSM must.

        The table row is tombstoned, not read: the tuples were found
        and removed by value.
        """
        keys, found, decode_atom = {ref}, False, self.serializer.decode_atom
        for relation, part in zip(self.relations, self.parts):
            for rid, _ in relation.select(keys, partial(decode_atom, part.stored), part.root_key):
                relation.delete(rid)
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
