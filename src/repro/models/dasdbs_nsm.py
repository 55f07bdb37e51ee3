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
from repro.errors import InvalidAddressError
from repro.models.addressing import AddressTable, Row
from repro.models.base import Ref, StorageModel
from repro.models.mixed import MixedTupleStore
from repro.nf2.schema import (
    Projection,
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

#: What navigation reads of a stored Connection tuple: the outgoing
#: references, nothing else.
_CONNECTION_LINKS = Projection(
    DNSM_CONNECTION,
    (),
    (Projection(_CONNECTION_GROUP, (), (Projection(_CONNECTION_ITEM, ("OidConnection",)),)),),
)

_trusted = NestedTuple._from_trusted


class DASDBSNSMModel(StorageModel):
    """Normalized storage with per-object nesting and address table."""

    name = "DASDBS-NSM"
    root_schema = DNSM_STATION

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
        #: The transformation table: one row of four addresses per object.
        self.table = AddressTable(
            [self.stations, self.platforms, self.connections, self.sightseeings]
        )

    # -- decomposition: one nested tuple per relation ---------------------------

    def _store(self, station: NestedTuple) -> Row:
        # Relabelled, not re-validated (``NestedTuple._from_trusted``):
        # ``insert_object`` admits only validated Stations, and the
        # module-level ``require_projection`` calls proved that an item
        # plus its key column is a tuple of the stored schema.
        key = station._atoms["Key"]
        st = _trusted(DNSM_STATION, station._atoms, {})
        platforms = station._subs["Platform"]
        platform_items = [
            _trusted(_PLATFORM_ITEM, {"OwnKey": i, **p._atoms}, {})
            for i, p in enumerate(platforms)
        ]
        pl = _trusted(DNSM_PLATFORM, {"RootKey": key}, {"PlatformOfStation": platform_items})
        groups = [
            _trusted(
                _CONNECTION_GROUP,
                {"ParentKey": i},
                {
                    "ConnectionOfPlatform": [
                        _trusted(_CONNECTION_ITEM, c._atoms, {})
                        for c in platform._subs["Connection"]
                    ]
                },
            )
            for i, platform in enumerate(platforms)
        ]
        co = _trusted(DNSM_CONNECTION, {"RootKey": key}, {"ConnectionsOfPlatform": groups})
        sight_items = [
            _trusted(_SIGHTSEEING_ITEM, s._atoms, {}) for s in station._subs["Sightseeing"]
        ]
        si = _trusted(DNSM_SIGHTSEEING, {"RootKey": key}, {"SightseeingOfStation": sight_items})
        return (
            (self.stations.insert(st),),
            (self.platforms.insert(pl),),
            (self.connections.insert(co),),
            (self.sightseeings.insert(si),),
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

    def fetch_full(self, ref: Ref) -> NestedTuple:
        return self._read_assembled(self.table.row(ref))

    def _read_assembled(self, row: Row) -> NestedTuple:
        (st_h,), (pl_h,), (co_h,), (si_h,) = row
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
        for row in self.stations.scan(self.table.long_handles(0)):
            if row["Key"] == key:
                found = True
        if not found:
            raise InvalidAddressError(f"no station with key {key}")
        return self._read_assembled(self.table.row_of_key(key))

    def scan_all(self) -> int:
        longs = self.table.long_handles
        stations = {row["Key"]: row for row in self.stations.scan(longs(0))}
        platforms = {row["RootKey"]: row for row in self.platforms.scan(longs(1))}
        connections = {row["RootKey"]: row for row in self.connections.scan(longs(2))}
        sights = {row["RootKey"]: row for row in self.sightseeings.scan(longs(3))}
        count = 0
        for key, st in stations.items():
            self._assemble(st, platforms[key], connections[key], sights[key])
            count += 1
        return count

    def _decode_record(self, index: int, blob) -> None:
        self.table.relations[index].decode(blob)

    def _decode_long(self, index: int, address) -> None:
        self.table.relations[index].read_long(address)

    def fetch_refs(self, refs: Sequence[Ref]) -> list[Ref]:
        return [ref for group in self.fetch_refs_grouped(refs) for ref in group]

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        """Grouped navigation: the same batched read as ``fetch_refs``."""
        handles = [self.table.row(oid)[2][0] for oid in refs]
        out: list[list[Ref]] = []
        for tuple_ in self.connections.read_many(handles, _CONNECTION_LINKS):
            group_refs: list[Ref] = []
            for group in tuple_.subtuples("ConnectionsOfPlatform"):
                for item in group.subtuples("ConnectionOfPlatform"):
                    group_refs.append(item["OidConnection"])
            out.append(group_refs)
        return out

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        handles = [self.table.row(oid)[0][0] for oid in refs]
        return [row.atoms() for row in self.stations.read_many(handles)]

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        """Replace the (small) root tuples, set-oriented and deferred.

        "With DASDBS-NSM only small root tuples in the
        DASDBS-NSM-Station relation are updated, of which there are
        many on a single page."
        """
        patch = self._root_patch(changes)
        for oid in self._dedupe(refs):
            self.stations.patch(self.table.row(oid)[0][0], patch)


__all__ = [
    "DASDBSNSMModel",
    "DNSM_STATION",
    "DNSM_PLATFORM",
    "DNSM_CONNECTION",
    "DNSM_SIGHTSEEING",
]
