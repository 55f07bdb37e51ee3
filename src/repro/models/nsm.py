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
from repro.errors import InvalidAddressError, ModelError
from repro.models.base import Ref, StorageModel
from repro.nf2.oid import Rid
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

_trusted = NestedTuple._from_trusted


class NSMModel(StorageModel):
    """Normalized storage model without physical identifiers."""

    name = "NSM"
    supports_oid_access = False

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        self.stations = engine.new_heap("NSM_Station")
        self.platforms = engine.new_heap("NSM_Platform")
        self.connections = engine.new_heap("NSM_Connection")
        self.sightseeings = engine.new_heap("NSM_Sightseeing")
        self._deleted_keys: set[int] = set()
        self._scan_part: dict[str, list[int]] | None = None

    # -- references: logical keys -------------------------------------------

    def ref_of(self, oid: int) -> Ref:
        return key_of_oid(oid)

    def oid_of(self, ref: Ref) -> int:
        return oid_of_key(ref)

    # -- loading -----------------------------------------------------------------

    def load(self, stations: Sequence[NestedTuple]) -> None:
        if self.n_objects:
            raise ModelError("model already loaded")
        for station in stations:
            self._load_one(station)
        self.n_objects = len(stations)
        self.engine.flush()

    def _load_one(self, station: NestedTuple) -> None:
        key = station["Key"]
        root = NestedTuple(NSM_STATION, station.atoms())
        self._insert(self.stations, root)
        for own_key, platform in enumerate(station.subtuples("Platform")):
            atoms = platform.atoms()
            row = NestedTuple(
                NSM_PLATFORM, {"RootKey": key, "OwnKey": own_key, **atoms}
            )
            self._insert(self.platforms, row)
            for connection in platform.subtuples("Connection"):
                row = NestedTuple(
                    NSM_CONNECTION,
                    {"RootKey": key, "ParentKey": own_key, **connection.atoms()},
                )
                self._insert(self.connections, row)
        for sight in station.subtuples("Sightseeing"):
            row = NestedTuple(NSM_SIGHTSEEING, {"RootKey": key, **sight.atoms()})
            self._insert(self.sightseeings, row)

    def _insert(self, heap: HeapFile, row: NestedTuple) -> Rid:
        return heap.insert(self.serializer.encode_flat(row))

    # -- scans --------------------------------------------------------------------

    def _select(
        self, heap: HeapFile, schema: RelationSchema, key_attr: str, keys: set[int]
    ) -> list[tuple[Rid, NestedTuple]]:
        """Value selection by full scan (NSM has no access paths).

        The predicate is evaluated on the stored key attribute only;
        matching tuples are materialised in full.
        """
        out: list[tuple[Rid, NestedTuple]] = []
        for rid, blob in heap.scan():
            if self.serializer.decode_atom(schema, blob, key_attr) in keys:
                out.append((rid, self.serializer.decode_flat(schema, blob)))
        return out

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

    # -- sharded scatter-gather scans -----------------------------------------------

    def prepare_scan_partition(self, owned, take_orphans: bool = False) -> None:
        """Derive the owned page subsets of the four flat relations.

        Plain NSM keeps no record addresses, so ownership is recovered
        from the stored key attributes with one metadata scan per
        relation — construction-time I/O, run outside measured
        intervals.  A page belongs to the owner of its first record's
        root key; across all shards the page subsets partition each
        relation exactly.
        """
        heaps = self._heaps()
        schemas = self._heap_schemas()
        parts: dict[str, list[int]] = {}
        for name, key_attr in self._HEAP_KEY_ATTRS:
            heap = heaps[name]
            schema = schemas[name]
            first: dict[int, int] = {}
            for rid, blob in heap.scan():
                if rid.page_id not in first:
                    first[rid.page_id] = oid_of_key(
                        self.serializer.decode_atom(schema, blob, key_attr)
                    )
            pages: list[int] = []
            for page_id in heap.segment.page_ids:
                oid = first.get(page_id)
                if oid is None:
                    if take_orphans:
                        pages.append(page_id)
                elif owned(oid):
                    pages.append(page_id)
            parts[name] = pages
        self._scan_part = parts

    def scan_partition(self) -> int:
        if self._scan_part is None:
            raise self._not_supported("scan_partition before prepare_scan_partition")
        heaps = self._heaps()
        schemas = self._heap_schemas()
        count = 0
        # Same relation order and per-row decode work as scan_all; the
        # in-memory reassembly join needs rows owned by other shards and
        # happens at the gather stage, so only the count is produced.
        for name, _ in self._HEAP_KEY_ATTRS:
            for _, blob in heaps[name].scan_pages(self._scan_part[name]):
                self.serializer.decode_flat(schemas[name], blob)
                if name == "stations":
                    count += 1
        return count

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
        rows = self._select(self.connections, NSM_CONNECTION, "RootKey", keys)
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
        if not refs:
            return
        keys = set(self._dedupe(refs))
        for rid, row in self._select(self.stations, NSM_STATION, "Key", keys):
            updated = row.replace_atoms(**changes)
            self.stations.update(rid, self.serializer.encode_flat(updated))

    # -- object lifecycle ----------------------------------------------------------------

    def insert_object(self, station: NestedTuple) -> int:
        self._load_one(station)
        self.n_objects += 1
        return self.n_objects - 1

    def delete_object(self, ref: Ref) -> None:
        """Value-based delete: one scan per relation, as NSM must."""
        if ref in self._deleted_keys:
            raise InvalidAddressError(f"station {ref} has already been deleted")
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
        self._deleted_keys.add(ref)

    def all_refs(self) -> list[Ref]:
        return [
            key
            for key in (self.ref_of(oid) for oid in range(self.n_objects))
            if key not in self._deleted_keys
        ]

    # -- reorganisation ----------------------------------------------------------------

    _HEAP_KEY_ATTRS = (
        ("stations", "Key"),
        ("platforms", "RootKey"),
        ("connections", "RootKey"),
        ("sightseeings", "RootKey"),
    )

    def _heap_schemas(self) -> dict[str, RelationSchema]:
        return {
            "stations": NSM_STATION,
            "platforms": NSM_PLATFORM,
            "connections": NSM_CONNECTION,
            "sightseeings": NSM_SIGHTSEEING,
        }

    def recluster(self, order: Sequence[int]) -> dict:
        """Rewrite the four flat relations into object ``order``.

        Plain NSM keeps no record addresses, so the tuples' owning
        objects are recovered from their stored key attributes (a full
        scan per relation — the reorganisation pass NSM would pay in
        reality, unmeasured here like all reorganisation cost).  Note
        that plain NSM's *measured* I/O is placement-invariant: every
        access is a value selection implemented as a relation scan, and
        a scan reads all pages whatever their order.  The operator
        still applies — it keeps the model interchangeable on the
        ``--recluster`` axis and feeds the indexed subclass, where
        placement very much matters.
        """
        self._validate_order(order)
        heaps = self._heaps()
        schemas = self._heap_schemas()
        forwardings: dict[str, dict[Rid, Rid]] = {}
        for name, key_attr in self._HEAP_KEY_ATTRS:
            forwardings[name] = self._recluster_heap(
                heaps[name], schemas[name], key_attr, order
            )
        return forwardings

    def _recluster_heap(
        self,
        heap: HeapFile,
        schema: RelationSchema,
        key_attr: str,
        order: Sequence[int],
    ) -> dict[Rid, Rid]:
        groups: dict[int, list[Rid]] = {}
        tail: list[Rid] = []
        for rid, blob in heap.scan():
            oid = oid_of_key(self.serializer.decode_atom(schema, blob, key_attr))
            if 0 <= oid < self.n_objects:
                groups.setdefault(oid, []).append(rid)
            else:
                # Records of objects outside the OID range (keys chosen
                # freely through insert_object) sink to the tail rather
                # than failing the whole reorganisation.
                tail.append(rid)
        rid_order = [rid for oid in order for rid in groups.get(oid, ())]
        rid_order.extend(tail)
        return heap.recluster(rid_order)

    # -- snapshot state ----------------------------------------------------------------

    def capture_state(self) -> dict:
        return {
            "n_objects": self.n_objects,
            "deleted_keys": set(self._deleted_keys),
            "relation_pages": {
                name: heap.segment.capture_state()
                for name, heap in self._heaps().items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self._require_unloaded()
        heaps = self._heaps()
        for name, page_ids in state["relation_pages"].items():
            heaps[name].segment.restore_state(page_ids)
        self._deleted_keys = set(state["deleted_keys"])
        self.n_objects = state["n_objects"]

    def _heaps(self) -> dict[str, HeapFile]:
        return {
            "stations": self.stations,
            "platforms": self.platforms,
            "connections": self.connections,
            "sightseeings": self.sightseeings,
        }

    # -- statistics ------------------------------------------------------------------------

    def relation_pages(self) -> dict[str, int]:
        return {
            "NSM_Station": self.stations.n_pages,
            "NSM_Platform": self.platforms.n_pages,
            "NSM_Connection": self.connections.n_pages,
            "NSM_Sightseeing": self.sightseeings.n_pages,
        }


class NSMIndexModel(NSMModel):
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
    supports_oid_access = True

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        self._station_rid: dict[int, Rid] = {}
        self._platform_rids: dict[int, list[Rid]] = {}
        self._connection_rids: dict[int, list[Rid]] = {}
        self._sightseeing_rids: dict[int, list[Rid]] = {}

    def _load_one(self, station: NestedTuple) -> None:
        key = station["Key"]
        root = NestedTuple(NSM_STATION, station.atoms())
        self._station_rid[key] = self._insert(self.stations, root)
        self._platform_rids[key] = []
        self._connection_rids[key] = []
        self._sightseeing_rids[key] = []
        for own_key, platform in enumerate(station.subtuples("Platform")):
            row = NestedTuple(
                NSM_PLATFORM, {"RootKey": key, "OwnKey": own_key, **platform.atoms()}
            )
            self._platform_rids[key].append(self._insert(self.platforms, row))
            for connection in platform.subtuples("Connection"):
                row = NestedTuple(
                    NSM_CONNECTION,
                    {"RootKey": key, "ParentKey": own_key, **connection.atoms()},
                )
                self._connection_rids[key].append(self._insert(self.connections, row))
        for sight in station.subtuples("Sightseeing"):
            row = NestedTuple(NSM_SIGHTSEEING, {"RootKey": key, **sight.atoms()})
            self._sightseeing_rids[key].append(self._insert(self.sightseeings, row))

    # -- indexed operations ------------------------------------------------------

    def fetch_full(self, ref: Ref) -> NestedTuple:
        # References of the NSM family are logical keys (see ref_of);
        # the index resolves them to record addresses at no I/O cost.
        return self._fetch_assembled(ref)

    def _fetch_assembled(self, key: int) -> NestedTuple:
        if key not in self._station_rid:
            raise InvalidAddressError(f"no station with key {key}")
        root = self.serializer.decode_flat(
            NSM_STATION, self.stations.read(self._station_rid[key])
        )
        platforms = [
            self.serializer.decode_flat(NSM_PLATFORM, blob)
            for blob in self.platforms.read_many(self._platform_rids[key])
        ]
        connections = [
            self.serializer.decode_flat(NSM_CONNECTION, blob)
            for blob in self.connections.read_many(self._connection_rids[key])
        ]
        sights = [
            self.serializer.decode_flat(NSM_SIGHTSEEING, blob)
            for blob in self.sightseeings.read_many(self._sightseeing_rids[key])
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
        rids = [rid for key in refs for rid in self._connection_rids.get(key, [])]
        return [
            self.serializer.decode_flat(NSM_CONNECTION, blob)["KeyConnection"]
            for blob in self.connections.read_many(rids)
        ]

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        """Grouped navigation: one batched read, split back per ref."""
        rid_groups = [self._connection_rids.get(key, []) for key in refs]
        children = iter(self.fetch_refs(refs))
        return [[next(children) for _ in rids] for rids in rid_groups]

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        rids = [self._station_rid[key] for key in refs if key in self._station_rid]
        return [
            self.serializer.decode_flat(NSM_STATION, blob).atoms()
            for blob in self.stations.read_many(rids)
        ]

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        for key in self._dedupe(refs):
            rid = self._station_rid.get(key)
            if rid is None:
                continue
            row = self.serializer.decode_flat(NSM_STATION, self.stations.read(rid))
            self.stations.update(rid, self.serializer.encode_flat(row.replace_atoms(**changes)))

    # -- reorganisation -----------------------------------------------------------

    def recluster(self, order: Sequence[int]) -> dict:
        """Reorganise the relations, then remap the index through the
        forwarding maps — every indexed address keeps resolving."""
        forwardings = super().recluster(order)
        stations = forwardings["stations"]
        self._station_rid = {
            key: stations.get(rid, rid) for key, rid in self._station_rid.items()
        }
        for name, table in (
            ("platforms", self._platform_rids),
            ("connections", self._connection_rids),
            ("sightseeings", self._sightseeing_rids),
        ):
            forwarding = forwardings[name]
            for key, rids in table.items():
                table[key] = [forwarding.get(rid, rid) for rid in rids]
        return forwardings

    def move_objects(self, oids: Sequence[int], max_pages: int) -> int:
        """Bounded online move: pack the given objects' tuples together.

        For each relation the records of ``oids`` (in the given order)
        are relocated onto at most ``max_pages`` fresh pages via
        :meth:`HeapFile.move_records`, and the index is remapped through
        the partial forwarding maps.  Objects whose records exceed the
        budget stay put — the next trigger gets another chance.
        """
        if max_pages <= 0 or not oids:
            return 0
        keys = [key_of_oid(oid) for oid in self._dedupe(oids)]
        pages = 0
        forwarding = self.stations.move_records(
            [self._station_rid[k] for k in keys if k in self._station_rid],
            max_pages,
        )
        if forwarding:
            self._station_rid = {
                key: forwarding.get(rid, rid)
                for key, rid in self._station_rid.items()
            }
            pages += len({rid.page_id for rid in forwarding.values()})
        for heap, table in (
            (self.platforms, self._platform_rids),
            (self.connections, self._connection_rids),
            (self.sightseeings, self._sightseeing_rids),
        ):
            forwarding = heap.move_records(
                [rid for k in keys for rid in table.get(k, ())], max_pages
            )
            if forwarding:
                for key, rids in table.items():
                    table[key] = [forwarding.get(rid, rid) for rid in rids]
                pages += len({rid.page_id for rid in forwarding.values()})
        return pages

    def apply_recovery(self, report) -> None:
        """Remap the index through the recovery forwarding maps."""
        stations = report.forwarding_for("NSM_Station")
        if stations:
            self._station_rid = {
                key: stations.get(rid, rid)
                for key, rid in self._station_rid.items()
            }
        for segment_name, table in (
            ("NSM_Platform", self._platform_rids),
            ("NSM_Connection", self._connection_rids),
            ("NSM_Sightseeing", self._sightseeing_rids),
        ):
            forwarding = report.forwarding_for(segment_name)
            if forwarding:
                for key, rids in table.items():
                    table[key] = [forwarding.get(rid, rid) for rid in rids]

    # -- snapshot state ----------------------------------------------------------

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["station_rid"] = dict(self._station_rid)
        # Rid values are immutable; the per-object lists are not, so
        # every list is copied on capture and again on restore.
        for name, rids in (
            ("platform_rids", self._platform_rids),
            ("connection_rids", self._connection_rids),
            ("sightseeing_rids", self._sightseeing_rids),
        ):
            state[name] = {key: list(value) for key, value in rids.items()}
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._station_rid = dict(state["station_rid"])
        self._platform_rids = {
            key: list(value) for key, value in state["platform_rids"].items()
        }
        self._connection_rids = {
            key: list(value) for key, value in state["connection_rids"].items()
        }
        self._sightseeing_rids = {
            key: list(value) for key, value in state["sightseeing_rids"].items()
        }

    def delete_object(self, ref: Ref) -> None:
        """Indexed delete: record accesses only, no scans."""
        rid = self._station_rid.pop(ref, None)
        if rid is None:
            raise InvalidAddressError(f"no station with key {ref}")
        self.stations.delete(rid)
        for heap, rids in (
            (self.platforms, self._platform_rids.pop(ref, [])),
            (self.connections, self._connection_rids.pop(ref, [])),
            (self.sightseeings, self._sightseeing_rids.pop(ref, [])),
        ):
            for child_rid in rids:
                heap.delete(child_rid)
        self._deleted_keys.add(ref)


__all__ = [
    "NSMModel",
    "NSMIndexModel",
    "NSM_STATION",
    "NSM_PLATFORM",
    "NSM_CONNECTION",
    "NSM_SIGHTSEEING",
]
