"""DASDBS-NSM — normalized storage with nesting and an address table.

Section 3.4: the flat NSM relations are re-clustered by *nesting* on the
root (and parent) foreign keys, so each relation keeps **one** (nested)
tuple per complex object (Figure 4):

* ``DASDBS_NSM_Station(Key, NoPlatform, NoSeeing, Name)`` — flat root,
* ``DASDBS_NSM_Platform(RootKey, {(OwnKey, PlatformNr, ...)})``,
* ``DASDBS_NSM_Connection(RootKey, {(ParentKey, {(LineNr, Key, Oid, Times)})})``,
* ``DASDBS_NSM_Sightseeing(RootKey, {(SeeingNr, ...)})``.

"It becomes efficient to keep an additional table (index) with a single
entry per object and a fixed and limited number of addresses in this
entry" — the *transformation table* mapping an object to the addresses
of its four tuples.  Like the paper we keep this table in memory and
charge it no I/O ("we did not account for additional I/Os needed ... to
retrieve the tables with addresses", Section 5.1).

Navigation touches only the relations it needs: queries 2/3 read the
Connection tuples (and Station tuples for the root records); the
Sightseeing relation is never accessed, which is why Figure 5 shows
DASDBS-NSM's query 2b/3b results independent of the object size.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
)
from repro.errors import InvalidAddressError, ModelError
from repro.models.base import Ref, StorageModel
from repro.models.mixed import MixedTupleStore, TupleHandle
from repro.nf2.schema import (
    RelationSchema,
    int_attr,
    link_attr,
    require_projection,
    str_attr,
)
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine

DNSM_STATION = RelationSchema.flat(
    "DASDBS_NSM_Station",
    int_attr("Key"),
    int_attr("NoPlatform"),
    int_attr("NoSeeing"),
    str_attr("Name"),
)

_PLATFORM_ITEM = RelationSchema(
    "PlatformOfStation",
    (
        int_attr("OwnKey"),
        int_attr("PlatformNr"),
        int_attr("NoLine"),
        int_attr("TicketCode"),
        str_attr("Information"),
    ),
)

DNSM_PLATFORM = RelationSchema(
    "DASDBS_NSM_Platform", (int_attr("RootKey"),), (_PLATFORM_ITEM,)
)

_CONNECTION_ITEM = RelationSchema(
    "ConnectionOfPlatform",
    (
        int_attr("LineNr"),
        int_attr("KeyConnection"),
        link_attr("OidConnection"),
        str_attr("DepartureTimes"),
    ),
)

_CONNECTION_GROUP = RelationSchema(
    "ConnectionsOfPlatform", (int_attr("ParentKey"),), (_CONNECTION_ITEM,)
)

DNSM_CONNECTION = RelationSchema(
    "DASDBS_NSM_Connection", (int_attr("RootKey"),), (_CONNECTION_GROUP,)
)

_SIGHTSEEING_ITEM = RelationSchema(
    "SightseeingOfStation",
    (
        int_attr("SeeingNr"),
        str_attr("Description"),
        str_attr("Location"),
        str_attr("History"),
        str_attr("Remarks"),
    ),
)

DNSM_SIGHTSEEING = RelationSchema(
    "DASDBS_NSM_Sightseeing", (int_attr("RootKey"),), (_SIGHTSEEING_ITEM,)
)

# Proved once here, relied on by every ``_assemble``: a stored item minus
# its key column has exactly the nested schema's attributes.
require_projection(DNSM_STATION, STATION_SCHEMA, (), (PLATFORM_SCHEMA, SIGHTSEEING_SCHEMA))
require_projection(_PLATFORM_ITEM, PLATFORM_SCHEMA, ("OwnKey",), (CONNECTION_SCHEMA,))
require_projection(_CONNECTION_ITEM, CONNECTION_SCHEMA)
require_projection(_SIGHTSEEING_ITEM, SIGHTSEEING_SCHEMA)

_trusted = NestedTuple._from_trusted


class DASDBSNSMModel(StorageModel):
    """Normalized storage with per-object nesting and address table."""

    name = "DASDBS-NSM"

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        self.stations = MixedTupleStore(engine, "DASDBS_NSM_Station", DNSM_STATION, fmt)
        self.platforms = MixedTupleStore(engine, "DASDBS_NSM_Platform", DNSM_PLATFORM, fmt)
        self.connections = MixedTupleStore(
            engine, "DASDBS_NSM_Connection", DNSM_CONNECTION, fmt
        )
        self.sightseeings = MixedTupleStore(
            engine, "DASDBS_NSM_Sightseeing", DNSM_SIGHTSEEING, fmt
        )
        #: Transformation table: oid -> handles of the four tuples.
        self._table: list[tuple[TupleHandle, TupleHandle, TupleHandle, TupleHandle]] = []
        self._oid_by_key: dict[int, int] = {}
        self._scan_part: dict[str, tuple[list[int], list]] | None = None

    # -- loading --------------------------------------------------------------

    def load(self, stations: Sequence[NestedTuple]) -> None:
        if self._table:
            raise ModelError("model already loaded")
        for oid, station in enumerate(stations):
            self._table.append(self._load_one(station))
            self._oid_by_key[station["Key"]] = oid
        self.n_objects = len(stations)
        self.engine.flush()

    def _load_one(self, station: NestedTuple):
        key = station["Key"]
        st = NestedTuple(DNSM_STATION, station.atoms())
        platforms = station.subtuples("Platform")
        platform_items = [
            NestedTuple(_PLATFORM_ITEM, {"OwnKey": i, **p.atoms()})
            for i, p in enumerate(platforms)
        ]
        pl = NestedTuple(
            DNSM_PLATFORM, {"RootKey": key}, {"PlatformOfStation": platform_items}
        )
        groups = []
        for i, platform in enumerate(platforms):
            items = [
                NestedTuple(_CONNECTION_ITEM, c.atoms())
                for c in platform.subtuples("Connection")
            ]
            groups.append(
                NestedTuple(
                    _CONNECTION_GROUP,
                    {"ParentKey": i},
                    {"ConnectionOfPlatform": items},
                )
            )
        co = NestedTuple(
            DNSM_CONNECTION, {"RootKey": key}, {"ConnectionsOfPlatform": groups}
        )
        sight_items = [
            NestedTuple(_SIGHTSEEING_ITEM, s.atoms())
            for s in station.subtuples("Sightseeing")
        ]
        si = NestedTuple(
            DNSM_SIGHTSEEING, {"RootKey": key}, {"SightseeingOfStation": sight_items}
        )
        return (
            self.stations.insert(st),
            self.platforms.insert(pl),
            self.connections.insert(co),
            self.sightseeings.insert(si),
        )

    # -- assembly ----------------------------------------------------------------

    def _assemble(
        self,
        st: NestedTuple,
        pl: NestedTuple,
        co: NestedTuple,
        si: NestedTuple,
    ) -> NestedTuple:
        """Join the four per-object tuples back into one Station.

        The tuples come straight from the decoder and the module-level
        ``require_projection`` calls proved that an item minus its key
        column is a tuple of the nested schema, so the parts are
        relabelled through the trusted constructor, not re-validated.
        """
        conn_by_parent: dict[int, list[NestedTuple]] = {}
        for group in co._subs["ConnectionsOfPlatform"]:
            conn_by_parent[group._atoms["ParentKey"]] = [
                _trusted(CONNECTION_SCHEMA, dict(item._atoms), {})
                for item in group._subs["ConnectionOfPlatform"]
            ]
        rebuilt_platforms = []
        for item in sorted(pl._subs["PlatformOfStation"], key=lambda item: item._atoms["OwnKey"]):
            atoms = dict(item._atoms)
            connections_of = conn_by_parent.get(atoms.pop("OwnKey"), [])
            rebuilt_platforms.append(
                _trusted(PLATFORM_SCHEMA, atoms, {"Connection": connections_of})
            )
        sights = [
            _trusted(SIGHTSEEING_SCHEMA, dict(item._atoms), {})
            for item in si._subs["SightseeingOfStation"]
        ]
        return _trusted(
            STATION_SCHEMA,
            dict(st._atoms),
            {"Platform": rebuilt_platforms, "Sightseeing": sights},
        )

    # -- operations ------------------------------------------------------------------

    def _entry(self, oid: int):
        try:
            entry = self._table[oid]
        except IndexError:
            raise InvalidAddressError(f"no object with oid {oid}") from None
        if entry is None:
            raise InvalidAddressError(f"object {oid} has been deleted")
        return entry

    def fetch_full(self, ref: Ref) -> NestedTuple:
        return self._read_assembled(self._entry(ref))

    def _read_assembled(self, entry) -> NestedTuple:
        st_h, pl_h, co_h, si_h = entry
        return self._assemble(
            self.stations.read(st_h),
            self.platforms.read(pl_h),
            self.connections.read(co_h),
            self.sightseeings.read(si_h),
        )

    def fetch_full_by_key(self, key: int) -> NestedTuple:
        """Value selection on the root relation, then access by address.

        "With query 1b, only the root tuple of the object is selected
        based on a value selection, whereupon we use the addresses in
        the index table to retrieve all other data by address."
        """
        found = False
        for row in self.stations.scan():
            if row["Key"] == key:
                found = True
        if not found:
            raise InvalidAddressError(f"no station with key {key}")
        return self._read_assembled(self._entry(self._oid_by_key[key]))

    def scan_all(self) -> int:
        stations = {row["Key"]: row for row in self.stations.scan()}
        platforms = {row["RootKey"]: row for row in self.platforms.scan()}
        connections = {row["RootKey"]: row for row in self.connections.scan()}
        sights = {row["RootKey"]: row for row in self.sightseeings.scan()}
        count = 0
        for key, st in stations.items():
            self._assemble(st, platforms[key], connections[key], sights[key])
            count += 1
        return count

    # -- sharded scatter-gather scans ---------------------------------------------

    _STORE_NAMES = ("stations", "platforms", "connections", "sightseeings")

    def prepare_scan_partition(self, owned, take_orphans: bool = False) -> None:
        """Derive owned scan units from the transformation table (no I/O).

        Per store, a shared heap page belongs to the owner of its first
        (lowest slot) record and a long tuple to its own OID, so across
        all shards the units partition exactly one :meth:`scan_all`.
        """
        stores = self._stores()
        parts: dict[str, tuple[list[int], list]] = {}
        for index, name in enumerate(self._STORE_NAMES):
            store = stores[name]
            first: dict[int, tuple[int, int]] = {}
            longs: list = []
            for oid, entry in enumerate(self._table):
                if entry is None:
                    continue
                kind, address = entry[index]
                if kind == "heap":
                    best = first.get(address.page_id)
                    if best is None or address.slot < best[0]:
                        first[address.page_id] = (address.slot, oid)
                elif owned(oid):
                    longs.append(address)
            pages: list[int] = []
            for page_id in store.heap.segment.page_ids:
                best = first.get(page_id)
                if best is None:
                    if take_orphans:
                        pages.append(page_id)
                elif owned(best[1]):
                    pages.append(page_id)
            parts[name] = (pages, longs)
        self._scan_part = parts

    def scan_partition(self) -> int:
        if self._scan_part is None:
            raise self._not_supported("scan_partition before prepare_scan_partition")
        stores = self._stores()
        count = 0
        # Same store order and per-tuple decode work as scan_all; the
        # cross-store reassembly needs tuples owned by other shards and
        # happens at the gather stage, so only the count is produced.
        for name in self._STORE_NAMES:
            store = stores[name]
            pages, longs = self._scan_part[name]
            for _ in store.scan_pages(pages):
                if name == "stations":
                    count += 1
            for address in longs:
                store.read_long(address)
                if name == "stations":
                    count += 1
        return count

    def fetch_refs(self, refs: Sequence[Ref]) -> list[Ref]:
        return [ref for group in self.fetch_refs_grouped(refs) for ref in group]

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        """Grouped navigation: the same batched read as ``fetch_refs``."""
        handles = [self._entry(oid)[2] for oid in refs]
        out: list[list[Ref]] = []
        for tuple_ in self.connections.read_many(handles):
            group_refs: list[Ref] = []
            for group in tuple_.subtuples("ConnectionsOfPlatform"):
                for item in group.subtuples("ConnectionOfPlatform"):
                    group_refs.append(item["OidConnection"])
            out.append(group_refs)
        return out

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        handles = [self._entry(oid)[0] for oid in refs]
        return [row.atoms() for row in self.stations.read_many(handles)]

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        """Replace the (small) root tuples, set-oriented and deferred.

        "With DASDBS-NSM only small root tuples in the
        DASDBS-NSM-Station relation are updated, of which there are
        many on a single page."
        """
        for oid in self._dedupe(refs):
            st_h = self._entry(oid)[0]
            row = self.stations.read(st_h)
            self.stations.update(st_h, row.replace_atoms(**changes))

    # -- object lifecycle ---------------------------------------------------------------

    def insert_object(self, station: NestedTuple) -> int:
        oid = len(self._table)
        self._table.append(self._load_one(station))
        self._oid_by_key[station["Key"]] = oid
        self.n_objects = len(self._table)
        return oid

    def delete_object(self, ref: Ref) -> None:
        """Delete through the transformation table: four tuple deletes."""
        entry = self._entry(ref)
        for store, handle in zip(
            (self.stations, self.platforms, self.connections, self.sightseeings),
            entry,
        ):
            store.delete(handle)
        key = next(k for k, oid in self._oid_by_key.items() if oid == ref)
        del self._oid_by_key[key]
        self._table[ref] = None

    def all_refs(self) -> list[Ref]:
        return [oid for oid, entry in enumerate(self._table) if entry is not None]

    # -- reorganisation -------------------------------------------------------------------

    def recluster(self, order: Sequence[int]) -> dict:
        """Rewrite each relation's shared pages into object ``order``.

        Per store, the heap-resident tuples are re-packed in the order
        their owning objects appear in ``order`` (objects whose tuple
        went to the long store contribute nothing — those pages are
        private).  The transformation table is remapped through the
        forwarding maps, so every address keeps resolving and a
        subsequent :meth:`capture_state` snapshots the reorganised
        layout.
        """
        self._validate_order(order)
        stores = self._stores()
        store_names = ("stations", "platforms", "connections", "sightseeings")
        forwardings: dict[str, dict] = {}
        for index, name in enumerate(store_names):
            rid_order = [
                self._table[oid][index][1]
                for oid in order
                if self._table[oid] is not None
                and self._table[oid][index][0] == "heap"
            ]
            forwardings[name] = stores[name].recluster(rid_order)
        remapped = []
        for entry in self._table:
            if entry is None:
                remapped.append(None)
                continue
            remapped.append(
                tuple(
                    ("heap", forwardings[name].get(address, address))
                    if kind == "heap"
                    else (kind, address)
                    for name, (kind, address) in zip(store_names, entry)
                )
            )
        self._table = remapped
        return forwardings

    def move_objects(self, oids: Sequence[int], max_pages: int) -> int:
        """Bounded online move of the given objects' heap tuples.

        Per store the heap-resident tuples of ``oids`` (in the given
        order) relocate onto at most ``max_pages`` fresh pages; long
        tuples stay on their private pages.  The transformation table is
        remapped through the partial forwarding maps.
        """
        if max_pages <= 0 or not oids:
            return 0
        stores = self._stores()
        store_names = ("stations", "platforms", "connections", "sightseeings")
        wanted = [
            oid
            for oid in self._dedupe(oids)
            if 0 <= oid < len(self._table) and self._table[oid] is not None
        ]
        pages = 0
        forwardings: dict[str, dict] = {}
        for index, name in enumerate(store_names):
            rids = [
                self._table[oid][index][1]
                for oid in wanted
                if self._table[oid][index][0] == "heap"
            ]
            forwarding = stores[name].move_heap_records(rids, max_pages)
            forwardings[name] = forwarding
            pages += len({rid.page_id for rid in forwarding.values()})
        if any(forwardings.values()):
            self._table = [
                None
                if entry is None
                else tuple(
                    ("heap", forwardings[name].get(address, address))
                    if kind == "heap"
                    else (kind, address)
                    for name, (kind, address) in zip(store_names, entry)
                )
                for entry in self._table
            ]
        return pages

    def apply_recovery(self, report) -> None:
        """Remap each store and the transformation table after recovery."""
        stores = self._stores()
        store_names = ("stations", "platforms", "connections", "sightseeings")
        forwardings = {
            name: report.forwarding_for(f"{stores[name].name}_small")
            for name in store_names
        }
        for name in store_names:
            stores[name].apply_recovery(forwardings[name])
        if any(forwardings.values()):
            self._table = [
                None
                if entry is None
                else tuple(
                    ("heap", forwardings[name].get(address, address))
                    if kind == "heap"
                    else (kind, address)
                    for name, (kind, address) in zip(store_names, entry)
                )
                for entry in self._table
            ]

    # -- snapshot state -------------------------------------------------------------------

    def _stores(self) -> dict[str, MixedTupleStore]:
        return {
            "stations": self.stations,
            "platforms": self.platforms,
            "connections": self.connections,
            "sightseeings": self.sightseeings,
        }

    def capture_state(self) -> dict:
        return {
            "n_objects": self.n_objects,
            "table": list(self._table),
            "oid_by_key": dict(self._oid_by_key),
            "stores": {
                name: store.capture_state() for name, store in self._stores().items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self._require_unloaded()
        stores = self._stores()
        for name, store_state in state["stores"].items():
            stores[name].restore_state(store_state)
        self._table = list(state["table"])
        self._oid_by_key = dict(state["oid_by_key"])
        self.n_objects = state["n_objects"]

    # -- statistics -----------------------------------------------------------------------

    def relation_pages(self) -> dict[str, int]:
        return {
            "DASDBS_NSM_Station": self.stations.n_pages,
            "DASDBS_NSM_Platform": self.platforms.n_pages,
            "DASDBS_NSM_Connection": self.connections.n_pages,
            "DASDBS_NSM_Sightseeing": self.sightseeings.n_pages,
        }


__all__ = [
    "DASDBSNSMModel",
    "DNSM_STATION",
    "DNSM_PLATFORM",
    "DNSM_CONNECTION",
    "DNSM_SIGHTSEEING",
]
