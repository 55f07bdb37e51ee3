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
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
)
from repro.errors import InvalidAddressError, ModelError
from repro.models.base import Ref, StorageModel
from repro.nf2.oid import Rid
from repro.nf2.schema import require_projection
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine
from repro.storage.longobj import LongObjectAddress, LongObjectStore
from repro.storage.page import SlottedPage

#: Section indexes of the long-object layout (= Parts order).
SECTION_ROOT = 0
SECTION_PLATFORMS = 1
SECTION_SIGHTSEEINGS = 2

# Proved once here, relied on by every ``_decode_sections``: the three
# sections are the Station's own attributes and its two sub-relations.
require_projection(STATION_SCHEMA, STATION_SCHEMA, (), (PLATFORM_SCHEMA, SIGHTSEEING_SCHEMA))


class DirectModelBase(StorageModel):
    """Shared machinery of DSM and DASDBS-DSM.

    Both store objects identically (small objects in shared pages,
    large objects as header + data pages in three sections: root
    attributes, Platform sub-tree, Sightseeing sub-tree).  They differ
    only in *how much* of an object each operation transfers, which the
    hooks :meth:`_navigation_sections` / :meth:`_root_sections` and the
    update protocol encode.
    """

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        self.heap = engine.new_heap(f"{self.name}_Station_small")
        self.long_store = LongObjectStore(
            engine.new_segment(f"{self.name}_Station_large"), fmt
        )
        self._handles: list[tuple[str, Rid | LongObjectAddress]] = []
        self._small_threshold = SlottedPage.max_record_size(engine.page_size)
        self._scan_part: tuple[list[int], list[int]] | None = None

    # -- loading ------------------------------------------------------------

    def load(self, stations: Sequence[NestedTuple]) -> None:
        if self._handles:
            raise ModelError("model already loaded")
        for station in stations:
            self._store_one(station)
        self.n_objects = len(self._handles)
        self.engine.flush()

    def _store_one(self, station: NestedTuple) -> None:
        size = self.format.nested_size(station)
        if size <= self._small_threshold:
            rid = self.heap.insert(self.serializer.encode_nested(station))
            self._handles.append(("heap", rid))
        else:
            sections = self._encode_sections(station)
            address = self.long_store.store(sections, station.count_subtuples())
            self._handles.append(("long", address))

    def insert_object(self, station: NestedTuple) -> int:
        self._store_one(station)
        self.n_objects = len(self._handles)
        return self.n_objects - 1

    # -- reorganisation -------------------------------------------------------

    def recluster(self, order: Sequence[int]) -> dict:
        """Re-pack the small-object heap into object ``order``.

        Only objects that fit on shared slotted pages move; large
        objects own their header/data pages privately (per Section 4,
        "the pages that store the tuple will not be shared by other
        tuples"), so there is no co-residency to improve and they stay
        in place.  The handle table is remapped through the heap's
        forwarding map.
        """
        self._validate_order(order)
        rid_order = [
            self._handles[oid][1] for oid in order if self._handles[oid][0] == "heap"
        ]
        forwarding = self.heap.recluster(rid_order)
        if forwarding:
            self._handles = [
                ("heap", forwarding.get(handle, handle))
                if kind == "heap"
                else (kind, handle)
                for kind, handle in self._handles
            ]
        return {"heap": forwarding}

    def move_objects(self, oids: Sequence[int], max_pages: int) -> int:
        """Bounded online move of the given small objects' records.

        Large objects own their pages privately and never move (same
        rule as :meth:`recluster`); small ones are packed together onto
        at most ``max_pages`` fresh pages, and the handle table is
        remapped through the partial forwarding map.
        """
        if max_pages <= 0 or not oids:
            return 0
        rids = []
        for oid in self._dedupe(oids):
            if 0 <= oid < len(self._handles) and self._handles[oid][0] == "heap":
                rids.append(self._handles[oid][1])
        forwarding = self.heap.move_records(rids, max_pages)
        if not forwarding:
            return 0
        self._handles = [
            ("heap", forwarding.get(handle, handle))
            if kind == "heap"
            else (kind, handle)
            for kind, handle in self._handles
        ]
        return len({rid.page_id for rid in forwarding.values()})

    def apply_recovery(self, report) -> None:
        """Remap the handle table through the recovery forwarding."""
        forwarding = report.forwarding_for(self.heap.segment.name)
        if forwarding:
            self._handles = [
                ("heap", forwarding.get(handle, handle))
                if kind == "heap"
                else (kind, handle)
                for kind, handle in self._handles
            ]

    # -- snapshot state -------------------------------------------------------

    def capture_state(self) -> dict:
        return {
            "n_objects": self.n_objects,
            "handles": list(self._handles),
            "heap_pages": self.heap.segment.capture_state(),
            "long": self.long_store.capture_state(),
        }

    def restore_state(self, state: dict) -> None:
        self._require_unloaded()
        self._handles = list(state["handles"])
        self.heap.segment.restore_state(state["heap_pages"])
        self.long_store.restore_state(state["long"])
        self.n_objects = state["n_objects"]

    def delete_object(self, ref: Ref) -> None:
        kind, handle = self._handle(ref)
        if kind == "heap":
            self.heap.delete(handle)
        else:
            self.long_store.delete(handle)
        self._handles[ref] = ("deleted", None)

    def all_refs(self) -> list[Ref]:
        return [
            oid for oid, (kind, _) in enumerate(self._handles) if kind != "deleted"
        ]

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

    def _handle(self, oid: int) -> tuple[str, Rid | LongObjectAddress]:
        try:
            kind, handle = self._handles[oid]
        except IndexError:
            raise InvalidAddressError(f"no object with oid {oid}") from None
        if kind == "deleted":
            raise InvalidAddressError(f"object {oid} has been deleted")
        return kind, handle

    # -- access-granularity hooks (overridden by DASDBS-DSM) -------------------

    def _navigation_sections(self) -> list[int] | None:
        """Sections transferred when looking for references (None = all)."""
        return None

    def _root_sections(self) -> list[int] | None:
        """Sections transferred when reading the root record (None = all)."""
        return None

    # -- retrieval ----------------------------------------------------------------

    def fetch_full(self, ref: Ref) -> NestedTuple:
        kind, handle = self._handle(ref)
        if kind == "heap":
            return self.serializer.decode_nested(STATION_SCHEMA, self.heap.read(handle))
        sections = self.long_store.read(handle)
        return self._decode_sections(sections)

    def fetch_full_by_key(self, key: int) -> NestedTuple:
        """Value selection: a full scan of the station relation.

        DSM has no access path on ``Key``, so every object is read (in
        its access granularity) and tested; the scan does not stop at
        the first hit (the relation is unordered and keys are not known
        to be unique to the storage layer).
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
        for kind, handle in self._handles:
            if kind == "long":
                yield self._decode_sections(self.long_store.read(handle))

    def scan_all(self) -> int:
        count = 0
        for _, blob in self.heap.scan():
            self.serializer.decode_nested(STATION_SCHEMA, blob)
            count += 1
        for kind, handle in self._handles:
            if kind == "long":
                self._decode_sections(self.long_store.read(handle))
                count += 1
        return count

    # -- sharded scatter-gather scans ------------------------------------------------

    def prepare_scan_partition(self, owned, take_orphans: bool = False) -> None:
        """Derive the owned scan units from the handle table (no I/O).

        A shared heap page belongs to the owner of its first (lowest
        slot) record; a long object belongs to its own OID — so across
        all shards the units partition exactly one :meth:`scan_all`.
        """
        first_on_page: dict[int, tuple[int, int]] = {}
        for oid, (kind, handle) in enumerate(self._handles):
            if kind != "heap":
                continue
            best = first_on_page.get(handle.page_id)
            if best is None or handle.slot < best[0]:
                first_on_page[handle.page_id] = (handle.slot, oid)
        pages: list[int] = []
        for page_id in self.heap.segment.page_ids:
            best = first_on_page.get(page_id)
            if best is None:
                if take_orphans:
                    pages.append(page_id)
            elif owned(best[1]):
                pages.append(page_id)
        longs = [
            oid
            for oid, (kind, _) in enumerate(self._handles)
            if kind == "long" and owned(oid)
        ]
        self._scan_part = (pages, longs)

    def scan_partition(self) -> int:
        if self._scan_part is None:
            raise self._not_supported("scan_partition before prepare_scan_partition")
        pages, longs = self._scan_part
        count = 0
        for _, blob in self.heap.scan_pages(pages):
            self.serializer.decode_nested(STATION_SCHEMA, blob)
            count += 1
        for oid in longs:
            _, handle = self._handles[oid]
            self._decode_sections(self.long_store.read(handle))
            count += 1
        return count

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
            kind, handle = self._handle(ref)
            if kind == "heap":
                station = self.serializer.decode_nested(
                    STATION_SCHEMA, self.heap.read(handle)
                )
                platforms = station.subtuples("Platform")
            else:
                sections = self.long_store.read(handle, wanted)
                blob = sections[1] if wanted is None else sections[wanted.index(SECTION_PLATFORMS)]
                platforms = self.serializer.decode_subtuple_list(PLATFORM_SCHEMA, blob)
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
            kind, handle = self._handle(ref)
            if kind == "heap":
                station = self.serializer.decode_nested(
                    STATION_SCHEMA, self.heap.read(handle)
                )
                out.append(station.atoms())
            else:
                sections = self.long_store.read(handle, wanted)
                blob = sections[0] if wanted is None else sections[wanted.index(SECTION_ROOT)]
                atoms, _ = self.serializer._decode_flat_part(STATION_SCHEMA, blob, 0)
                out.append(atoms)
        return out

    # -- update (replace whole nested tuple) --------------------------------------------

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        for ref in self._dedupe(refs):
            kind, handle = self._handle(ref)
            if kind == "heap":
                station = self.serializer.decode_nested(
                    STATION_SCHEMA, self.heap.read(handle)
                )
                updated = station.replace_atoms(**changes)
                self.heap.update(handle, self.serializer.encode_nested(updated))
            else:
                sections = self.long_store.read(handle)
                station = self._decode_sections(sections)
                updated = station.replace_atoms(**changes)
                self.long_store.replace(handle, self._encode_sections(updated))

    # -- statistics -------------------------------------------------------------------------

    def relation_pages(self) -> dict[str, int]:
        return {
            f"{self.name}_Station(small)": self.heap.n_pages,
            f"{self.name}_Station(large)": self.long_store.segment.n_pages,
        }

    def object_page_counts(self) -> list[tuple[int, int]]:
        """(header pages, data pages) per object; (0, 1) for small ones.

        Used by the parameter-derivation experiments (Table 2) — reads
        cached directory metadata, no I/O is charged.
        """
        out: list[tuple[int, int]] = []
        for kind, handle in self._handles:
            if kind == "heap":
                out.append((0, 1))
            else:
                out.append(self.long_store.pages_of(handle))
        return out


class DSMModel(DirectModelBase):
    """Direct storage model: whole-object access only."""

    name = "DSM"


__all__ = ["DSMModel", "DirectModelBase", "SECTION_ROOT", "SECTION_PLATFORMS", "SECTION_SIGHTSEEINGS"]
