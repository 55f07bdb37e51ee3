"""DSM — the Direct Storage Model (paper Section 3.1).

"With a Direct Storage Model (DSM) for complex objects there is no
fragmentation.  As far as possible, the nested tuples will be stored
contiguously on disk."  An object that fits on a page is stored as one
record in a shared slotted page; a larger object gets private header +
data pages (the DASDBS large-tuple layout of Section 4, which both
direct models share).

DSM reads and writes objects **only as a whole**: every access transfers
all pages of the object, and the root-record update of query 3 is a
replacement of the entire nested tuple (Section 5.3).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
)
from repro.errors import InvalidAddressError
from repro.models.addressing import AddressTable, Handle, Relation, Row
from repro.models.base import Ref, StorageModel
from repro.nf2.oid import Rid
from repro.nf2.schema import Projection, require_projection
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine

#: Section indexes of the long-object layout.
SECTION_ROOT = 0
SECTION_PLATFORMS = 1
SECTION_SIGHTSEEINGS = 2

#: ``copy=`` of a read whose pages are fixed at the model's granularity
#: but of which only one section is decoded.
_ROOT_ONLY = (SECTION_ROOT,)
_PLATFORMS_ONLY = (SECTION_PLATFORMS,)

# Proved once here, relied on by every ``_decode_sections``: the three
# sections are the Station's own attributes and its two sub-relations.
require_projection(STATION_SCHEMA, STATION_SCHEMA, (), (PLATFORM_SCHEMA, SIGHTSEEING_SCHEMA))

#: What navigation reads of an object: the outgoing references, nothing
#: else (of a whole stored Station, or of its Platform section).
_PLATFORM_LINKS = Projection(
    PLATFORM_SCHEMA, (), (Projection(CONNECTION_SCHEMA, ("OidConnection",)),)
)
_STATION_LINKS = Projection(STATION_SCHEMA, (), (_PLATFORM_LINKS,))


class DirectModelBase(StorageModel):
    """Shared machinery of DSM and DASDBS-DSM.

    Both store objects identically — one relation, one record per
    object: small objects in shared pages, large objects as header +
    data pages in three sections (root attributes, Platform sub-tree,
    Sightseeing sub-tree).  They differ only in *how much* of an object
    each operation transfers, which the hooks
    :meth:`_navigation_sections` / :meth:`_root_sections` and the update
    protocol encode.
    """

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        self.relation = Relation(engine, f"{self.name}_Station", fmt)
        self.heap = self.relation.heap
        self.long_store = self.relation.long_store
        self.table = AddressTable([self.relation])

    # -- decomposition: one record per object -----------------------------------

    def _store(self, station: NestedTuple) -> Row:
        handle: Handle
        if self.format.nested_size(station) <= self.relation.small_threshold:
            handle = self.heap.insert(self.serializer.encode_nested(station))
        else:
            handle = self.long_store.store(
                self._encode_sections(station), station.count_subtuples()
            )
        return ((handle,),)

    def _handle(self, oid: int) -> Handle:
        return self.table.row(oid)[0][0]

    def _encode_sections(self, station: NestedTuple) -> list[bytes]:
        return [
            self.serializer.encode_flat(station),
            self.serializer.encode_subtuple_list(
                PLATFORM_SCHEMA, station.subtuples("Platform")
            ),
            self.serializer.encode_subtuple_list(
                SIGHTSEEING_SCHEMA, station.subtuples("Sightseeing")
            ),
        ]

    def _decode_sections(self, sections: Sequence[bytes]) -> NestedTuple:
        atoms, _ = self.serializer._decode_flat_part(STATION_SCHEMA, sections[0], 0)
        platforms = self.serializer.decode_subtuple_list(PLATFORM_SCHEMA, sections[1])
        sights = self.serializer.decode_subtuple_list(SIGHTSEEING_SCHEMA, sections[2])
        # Decoded parts of a proven layout: relabelled, not re-validated.
        return NestedTuple._from_trusted(
            STATION_SCHEMA, atoms, {"Platform": platforms, "Sightseeing": sights}
        )

    # -- access-granularity hooks (overridden by DASDBS-DSM) -------------------

    def _navigation_sections(self) -> list[int] | None:
        """Sections transferred when looking for references (None = all)."""
        return None

    def _root_sections(self) -> list[int] | None:
        """Sections transferred when reading the root record (None = all)."""
        return None

    # -- retrieval ----------------------------------------------------------------

    def fetch_full(self, ref: Ref) -> NestedTuple:
        handle = self._handle(ref)
        if type(handle) is Rid:
            return self.serializer.decode_nested(STATION_SCHEMA, self.heap.read(handle))
        return self._decode_sections(self.long_store.read(handle))

    def fetch_full_by_key(self, key: int) -> NestedTuple:
        """Value selection: a full scan of the station relation.

        DSM has no access path on ``Key``, so every object is read (in
        its access granularity) and tested.  Live keys are unique
        (``insert_object`` refuses a repeat), yet the scan does not stop
        at the first hit: the paper's value selection reads the whole
        unordered relation, and the counters must say so.
        """
        match: NestedTuple | None = None
        for station in self._scan_for_key(key):
            if station["Key"] == key:
                match = station
        if match is None:
            raise InvalidAddressError(f"no station with key {key}")
        return match

    def _scan_for_key(self, key: int) -> Iterator[NestedTuple]:
        """Objects in storage order, read at full granularity (DSM)."""
        for _, blob in self.heap.scan():
            yield self.serializer.decode_nested(STATION_SCHEMA, blob)
        for handle in self.table.long_handles(0):
            yield self._decode_sections(self.long_store.read(handle))

    def scan_all(self) -> int:
        count = 0
        for _, blob in self.heap.scan():
            self.serializer.decode_nested(STATION_SCHEMA, blob)
            count += 1
        for handle in self.table.long_handles(0):
            self._decode_sections(self.long_store.read(handle))
            count += 1
        return count

    # How one unit of a sharded scan is decoded: exactly as above.

    def _decode_record(self, index: int, blob) -> None:
        self.serializer.decode_nested(STATION_SCHEMA, blob)

    def _decode_long(self, index: int, address) -> None:
        self._decode_sections(self.long_store.read(address))

    # -- navigation -----------------------------------------------------------------

    def fetch_refs(self, refs: Sequence[Ref]) -> list[Ref]:
        return [ref for group in self.fetch_refs_grouped(refs) for ref in group]

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        """Outgoing references, one list per input ref.

        Exactly the accesses of :meth:`fetch_refs` (which flattens this);
        the grouped form lets the sharded facade stitch per-shard results
        back into input order despite variable per-object arity.
        """
        out: list[list[Ref]] = []
        wanted = self._navigation_sections()
        for ref in refs:
            handle = self._handle(ref)
            if type(handle) is Rid:
                station = self.serializer.decode_nested(
                    _STATION_LINKS, self.heap.read(handle)
                )
                platforms = station.subtuples("Platform")
            else:
                (blob,) = self.long_store.read(handle, wanted, copy=_PLATFORMS_ONLY)
                platforms = self.serializer.decode_subtuple_list(_PLATFORM_LINKS, blob)
            group: list[Ref] = []
            for platform in platforms:
                for connection in platform.subtuples("Connection"):
                    group.append(connection["OidConnection"])
            out.append(group)
        return out

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = []
        wanted = self._root_sections()
        for ref in refs:
            handle = self._handle(ref)
            if type(handle) is Rid:
                blob = self.heap.read(handle)
            else:
                (blob,) = self.long_store.read(handle, wanted, copy=_ROOT_ONLY)
            # Either way the root's flat part sits at offset 0: of the
            # root section, or of the whole nested tuple.
            atoms, _ = self.serializer._decode_flat_part(STATION_SCHEMA, blob, 0)
            out.append(atoms)
        return out

    # -- update (replace whole nested tuple) --------------------------------------------

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        """Replace each object as a whole: every page of it is read,
        fixed and dirtied, though only root bytes change (the root's
        flat part leads a small object's record and is section 0 of a
        long one, the only section copied and rewritten)."""
        patch = self._root_patch(changes)
        for ref in self._dedupe(refs):
            handle = self._handle(ref)
            if type(handle) is Rid:
                self.heap.update(handle, patch(self.heap.read(handle)))
            else:
                (root,) = self.long_store.read(handle, copy=_ROOT_ONLY)
                self.long_store.replace(handle, {SECTION_ROOT: patch(root)})


class DSMModel(DirectModelBase):
    """Direct storage model: whole-object access only."""

    name = "DSM"


__all__ = ["DSMModel", "DirectModelBase", "SECTION_ROOT", "SECTION_PLATFORMS", "SECTION_SIGHTSEEINGS"]
