"""NSM — the Normalized Storage Model (paper Section 3.3), plus NSM+index.

The complex object is unnested into four flat relations (Figure 3):

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

Both carry the same address table (one row of record ids per object,
kept current by the shared kernel).  For NSM+index the table *is* the
index.  Plain NSM never reads it: its six access paths and its delete
find tuples by value, exactly as before — the table only lets the
unmeasured reorganisation, recovery and scan-partitioning code know
which tuples belong to which object without re-scanning for keys.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
    key_of_oid,
    oid_of_key,
)
from repro.errors import InvalidAddressError
from repro.models.addressing import AddressTable, Relation, Row
from repro.models.base import Ref, StorageModel
from repro.nf2.oid import Rid
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
from repro.storage.heap import HeapFile

NSM_STATION = RelationSchema.flat(
    "NSM_Station",
    int_attr("Key"),
    int_attr("NoPlatform"),
    int_attr("NoSeeing"),
    str_attr("Name"),
)

NSM_PLATFORM = RelationSchema.flat(
    "NSM_Platform",
    int_attr("RootKey"),
    int_attr("OwnKey"),
    int_attr("PlatformNr"),
    int_attr("NoLine"),
    int_attr("TicketCode"),
    str_attr("Information"),
)

NSM_CONNECTION = RelationSchema.flat(
    "NSM_Connection",
    int_attr("RootKey"),
    int_attr("ParentKey"),
    int_attr("LineNr"),
    int_attr("KeyConnection"),
    link_attr("OidConnection"),
    str_attr("DepartureTimes"),
)

NSM_SIGHTSEEING = RelationSchema.flat(
    "NSM_Sightseeing",
    int_attr("RootKey"),
    int_attr("SeeingNr"),
    str_attr("Description"),
    str_attr("Location"),
    str_attr("History"),
    str_attr("Remarks"),
)

# Proved once here, relied on by every ``_assemble``: dropping the key
# columns of a flat row leaves exactly the nested schema's attributes.
require_projection(NSM_STATION, STATION_SCHEMA, (), (PLATFORM_SCHEMA, SIGHTSEEING_SCHEMA))
require_projection(NSM_PLATFORM, PLATFORM_SCHEMA, ("RootKey", "OwnKey"), (CONNECTION_SCHEMA,))
require_projection(NSM_CONNECTION, CONNECTION_SCHEMA, ("RootKey", "ParentKey"))
require_projection(NSM_SIGHTSEEING, SIGHTSEEING_SCHEMA, ("RootKey",))

#: What plain NSM's navigation reads of a matching connection row.
_CONNECTION_PAIR = Projection(NSM_CONNECTION, ("RootKey", "KeyConnection"))

#: The four flat relations, in table (= scan) order.
_SCHEMAS = (NSM_STATION, NSM_PLATFORM, NSM_CONNECTION, NSM_SIGHTSEEING)

_trusted = NestedTuple._from_trusted


class NSMModelBase(StorageModel):
    """What NSM and NSM+index share: the four flat relations, the
    decomposition into them, the in-memory reassembly join and the
    full scan.  References are logical keys."""

    root_schema = NSM_STATION

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        relations = [Relation(engine, schema.name) for schema in _SCHEMAS]
        self.stations, self.platforms, self.connections, self.sightseeings = (
            relation.heap for relation in relations
        )
        self.table = AddressTable(relations)

    # -- references: logical keys -------------------------------------------

    def ref_of(self, oid: int) -> Ref:
        return key_of_oid(oid)

    def oid_of(self, ref: Ref) -> int:
        return oid_of_key(ref)

    def all_refs(self) -> list[Ref]:
        return self.table.live_keys()

    # -- decomposition: one flat tuple per (sub)tuple ------------------------------

    def _store(self, station: NestedTuple) -> Row:
        # Relabelled, not re-validated (``NestedTuple._from_trusted``):
        # ``insert_object`` admits only validated Stations, and the
        # module-level ``require_projection`` calls proved that a part
        # plus its key columns is a row of the flat schema.
        key = station._atoms["Key"]
        station_rid = self._insert(self.stations, _trusted(NSM_STATION, station._atoms, {}))
        platform_rids: list[Rid] = []
        connection_rids: list[Rid] = []
        for own_key, platform in enumerate(station._subs["Platform"]):
            row = _trusted(
                NSM_PLATFORM, {"RootKey": key, "OwnKey": own_key, **platform._atoms}, {}
            )
            platform_rids.append(self._insert(self.platforms, row))
            for connection in platform._subs["Connection"]:
                row = _trusted(
                    NSM_CONNECTION,
                    {"RootKey": key, "ParentKey": own_key, **connection._atoms},
                    {},
                )
                connection_rids.append(self._insert(self.connections, row))
        sightseeing_rids: list[Rid] = []
        for sight in station._subs["Sightseeing"]:
            row = _trusted(NSM_SIGHTSEEING, {"RootKey": key, **sight._atoms}, {})
            sightseeing_rids.append(self._insert(self.sightseeings, row))
        return (
            (station_rid,),
            tuple(platform_rids),
            tuple(connection_rids),
            tuple(sightseeing_rids),
        )

    def _insert(self, heap: HeapFile, row: NestedTuple) -> Rid:
        return heap.insert(self.serializer.encode_flat(row))

    def _assemble(
        self,
        root: NestedTuple,
        platforms: Iterable[NestedTuple],
        connections: Iterable[NestedTuple],
        sightseeings: Iterable[NestedTuple],
    ) -> NestedTuple:
        """In-memory join reassembling the complex object.

        The rows come straight from the decoder and the module-level
        ``require_projection`` calls proved that a row minus its key
        columns is a tuple of the nested schema, so the parts are
        relabelled through the trusted constructor, not re-validated.
        """
        conn_by_parent: dict[int, list[NestedTuple]] = {}
        for row in connections:
            atoms = dict(row._atoms)
            del atoms["RootKey"]
            conn_by_parent.setdefault(atoms.pop("ParentKey"), []).append(
                _trusted(CONNECTION_SCHEMA, atoms, {})
            )
        rebuilt_platforms: list[NestedTuple] = []
        for row in sorted(platforms, key=lambda row: row._atoms["OwnKey"]):
            atoms = dict(row._atoms)
            del atoms["RootKey"]
            connections_of = conn_by_parent.get(atoms.pop("OwnKey"), [])
            rebuilt_platforms.append(
                _trusted(PLATFORM_SCHEMA, atoms, {"Connection": connections_of})
            )
        rebuilt_sights: list[NestedTuple] = []
        for row in sightseeings:
            atoms = dict(row._atoms)
            del atoms["RootKey"]
            rebuilt_sights.append(_trusted(SIGHTSEEING_SCHEMA, atoms, {}))
        return _trusted(
            STATION_SCHEMA,
            dict(root._atoms),
            {"Platform": rebuilt_platforms, "Sightseeing": rebuilt_sights},
        )

    # -- the full scan ------------------------------------------------------------------

    def scan_all(self) -> int:
        roots = {row["Key"]: row for _, row in self._scan_rows(self.stations, NSM_STATION)}
        platforms: dict[int, list[NestedTuple]] = {}
        for _, row in self._scan_rows(self.platforms, NSM_PLATFORM):
            platforms.setdefault(row["RootKey"], []).append(row)
        connections: dict[int, list[NestedTuple]] = {}
        for _, row in self._scan_rows(self.connections, NSM_CONNECTION):
            connections.setdefault(row["RootKey"], []).append(row)
        sights: dict[int, list[NestedTuple]] = {}
        for _, row in self._scan_rows(self.sightseeings, NSM_SIGHTSEEING):
            sights.setdefault(row["RootKey"], []).append(row)
        count = 0
        for key, root in roots.items():
            self._assemble(
                root,
                platforms.get(key, []),
                connections.get(key, []),
                sights.get(key, []),
            )
            count += 1
        return count

    def _scan_rows(self, heap: HeapFile, schema: RelationSchema):
        for rid, blob in heap.scan():
            yield rid, self.serializer.decode_flat(schema, blob)

    def _decode_record(self, index: int, blob) -> None:
        self.serializer.decode_flat(_SCHEMAS[index], blob)


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
        roots = self._select(self.stations, NSM_STATION, "Key", keys)
        if not roots:
            raise InvalidAddressError(f"no station with key {key}")
        platforms = [row for _, row in self._select(self.platforms, NSM_PLATFORM, "RootKey", keys)]
        connections = [
            row for _, row in self._select(self.connections, NSM_CONNECTION, "RootKey", keys)
        ]
        sights = [
            row for _, row in self._select(self.sightseeings, NSM_SIGHTSEEING, "RootKey", keys)
        ]
        return self._assemble(roots[0][1], platforms, connections, sights)

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
        rows = self._select(self.connections, _CONNECTION_PAIR, "RootKey", keys)
        return [(row["RootKey"], row["KeyConnection"]) for _, row in rows]

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        if not refs:
            return []
        keys = set(refs)
        rows = self._select(self.stations, NSM_STATION, "Key", keys)
        return [row.atoms() for _, row in rows]

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
        for heap, schema, attr in (
            (self.stations, NSM_STATION, "Key"),
            (self.platforms, NSM_PLATFORM, "RootKey"),
            (self.connections, NSM_CONNECTION, "RootKey"),
            (self.sightseeings, NSM_SIGHTSEEING, "RootKey"),
        ):
            for rid, _ in self._select(heap, schema, attr, keys):
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
        (station_rid,), platform_rids, connection_rids, sightseeing_rids = (
            self.table.row_of_key(key)
        )
        root = self.serializer.decode_flat(NSM_STATION, self.stations.read(station_rid))
        platforms = [
            self.serializer.decode_flat(NSM_PLATFORM, blob)
            for blob in self.platforms.read_many(platform_rids)
        ]
        connections = [
            self.serializer.decode_flat(NSM_CONNECTION, blob)
            for blob in self.connections.read_many(connection_rids)
        ]
        sights = [
            self.serializer.decode_flat(NSM_SIGHTSEEING, blob)
            for blob in self.sightseeings.read_many(sightseeing_rids)
        ]
        return self._assemble(root, platforms, connections, sights)

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
        rids = [rid for key in refs for rid in self._rids(key, 2)]
        decode_atom = self.serializer.decode_atom
        return [
            decode_atom(NSM_CONNECTION, blob, "KeyConnection")
            for blob in self.connections.read_many(rids)
        ]

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        """Grouped navigation: one batched read, split back per ref."""
        sizes = [len(self._rids(key, 2)) for key in refs]
        children = iter(self.fetch_refs(refs))
        return [[next(children) for _ in range(size)] for size in sizes]

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        rids = [rid for key in refs for rid in self._rids(key, 0)]
        return [
            self.serializer.decode_flat(NSM_STATION, blob).atoms()
            for blob in self.stations.read_many(rids)
        ]

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        patch = self._root_patch(changes)
        for key in self._dedupe(refs):
            for rid in self._rids(key, 0):
                self.stations.update(rid, patch(self.stations.read(rid)))

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
]
