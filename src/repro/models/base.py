"""The storage models' interface, and the one base they share.

The four storage models of the paper differ in how a `Station` object is
fragmented over pages, but they serve the same operations, which are
exactly what the benchmark queries need:

* bulk load of the database extension,
* full-object retrieval by physical reference (query 1a) and by key
  value (query 1b),
* a full scan (query 1c),
* set-oriented navigation steps: find the outgoing references of a set
  of objects, and read the root records of a set of objects (queries
  2/3),
* a set-oriented update of root records (query 3).

References are model-specific: the direct models and DASDBS-NSM address
objects by OID (the paper's 4-byte physical LINK, here the object's
sequence number resolved through an in-memory address table, whose I/O
the paper also excludes); plain NSM has no physical identifiers and
navigates by logical key (``KeyConnection``).

Everything that is *not* decomposition or access path — load, insert,
delete, reclustering, online moves, crash recovery, snapshots, sharded
scan partitioning, page statistics — is :class:`StorageModel`'s, over
the model's :class:`~repro.models.addressing.AddressTable`.  The
decomposition and the access paths are :class:`AddressedModel`'s, read
off what each model declares: its parts, what navigation decodes, how
much of an object a read transfers and its update protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.benchmark.schema import STATION_SCHEMA, key_of_oid
from repro.errors import InvalidAddressError, ModelError, SchemaError, UnsupportedOperationError
from repro.models.addressing import FIRST_SECTION, AddressTable, Handle, Relation, Row, Sections
from repro.nf2.codec import compiled_assembly
from repro.nf2.schema import Part, Projection, RelationSchema, links
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple, links_of
from repro.storage import StorageEngine
from repro.storage.longobj import LongObjectAddress

#: A model-specific object reference: an OID or a logical key.
Ref = int


class StorageModel(ABC):
    """Base class of the four storage models."""

    #: Model name as used in the paper's tables.
    name: str = "abstract"

    #: Whether query 1a (retrieve by OID) is meaningful for this model.
    supports_oid_access: bool = True

    #: The schema the root record is stored under: its flat part is
    #: what :meth:`update_roots` patches.
    root_schema: RelationSchema = STATION_SCHEMA

    #: Every object's record addresses, over the model's relations.
    table: AddressTable

    #: This replica's share of a scatter-gather scan, per relation
    #: (``prepare_scan_partition``); ``None`` until prepared.
    _scan_units: list | None = None

    def __init__(
        self,
        engine: StorageEngine,
        fmt: StorageFormat = DASDBS_FORMAT,
    ) -> None:
        self.engine = engine
        self.format = fmt
        self.serializer = NF2Serializer(fmt)
        self.n_objects = 0

    # -- reference handling ------------------------------------------------

    def ref_of(self, oid: int) -> Ref:
        """Translate an OID into this model's reference type."""
        return oid

    def oid_of(self, ref: Ref) -> int:
        """Translate one of this model's references back into an OID.

        The inverse of :meth:`ref_of`; the clustering statistics
        collector uses it to attribute navigation steps (which the
        models report as refs) to objects.  Like the address tables it
        is pure bookkeeping — no I/O is charged.
        """
        return ref

    def all_refs(self) -> list[Ref]:
        """References of every object not deleted, in OID order."""
        return [self.ref_of(oid) for oid in self.table.live_oids()]

    # -- operations -----------------------------------------------------------

    def load(self, stations: Sequence[NestedTuple]) -> None:
        """Bulk-load the extension (OID = position) and flush to disk.

        A key repeated within ``stations`` is refused before anything
        is written.
        """
        if self.n_objects:
            raise ModelError("model already loaded")
        if len({station["Key"] for station in stations}) != len(stations):
            raise ModelError("stations to load repeat a key")
        for station in stations:
            self.insert_object(station)
        self.engine.flush()

    @abstractmethod
    def fetch_full(self, ref: Ref) -> NestedTuple:
        """Retrieve a whole object by reference (query 1a)."""

    @abstractmethod
    def fetch_full_by_key(self, key: int) -> NestedTuple:
        """Retrieve a whole object by key value — a relation scan (1b)."""

    @abstractmethod
    def scan_all(self) -> int:
        """Read every object in storage order; returns the count (1c)."""

    @abstractmethod
    def fetch_refs(self, refs: Sequence[Ref]) -> list[Ref]:
        """Outgoing references of the given objects, in storage order.

        This is the navigation step: only the parts of the objects that
        hold references are accessed (root attributes and the
        Platform/Connection sub-tree; never the Sightseeings).
        """

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        """Outgoing references, one list per input ref.

        Same accesses (and counters) as :meth:`fetch_refs`, which is its
        flattening; models addressing objects physically provide it so
        the sharded facade can reassemble per-shard navigation results
        in input order despite variable per-object arity.
        """
        raise self._not_supported("grouped navigation")

    @abstractmethod
    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        """Root records (atomic attributes) of the given objects."""

    @abstractmethod
    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        """Update atomic root attributes of the given objects (query 3).

        "The object structure is not changed": each model implements
        its own update protocol (replace whole tuple vs. ``change
        attribute``, Section 5.3) — which pages are read, dirtied and
        written — around the one byte patch of :meth:`_root_patch`.
        """

    def _root_patch(self, changes: Mapping[str, Any]) -> Callable[[bytes], bytes]:
        """The checked byte patch of one :meth:`update_roots` call.

        Every ``update_roots`` starts here, before it fixes a page: an
        unknown attribute (:class:`~repro.errors.SchemaError`), a value
        of the wrong type or size
        (:class:`~repro.errors.SerializationError`) and a change of
        ``Key`` (:class:`ModelError`) are refused with nothing touched.
        ``Key`` identifies the object — the address table, the NSM
        family's foreign keys and value selections all find it by that
        value — so rewriting it in the root record alone would leave an
        object no access path reaches.
        """
        if "Key" in changes:
            raise ModelError(
                f"update_roots cannot change 'Key' on {self.name}: it identifies "
                "the object; delete and re-insert to re-key"
            )
        return self.serializer.compile_patch(self.root_schema, changes)

    # -- sharded scatter-gather scans ----------------------------------------------

    def prepare_scan_partition(self, owned, take_orphans: bool = False) -> None:
        """Precompute this replica's share of a scatter-gather scan.

        ``owned`` is a predicate over OIDs (``owner`` membership from a
        :class:`~repro.sharding.ShardRouter`).  The address table alone
        (no I/O — this may run at facade-construction time but must
        never pollute counters) yields the disjoint set of scan units
        the replica owns: shared heap pages whose *first* record belongs
        to an owned object, plus privately-owned long records of owned
        OIDs.  Pages holding no addressed record (possible after
        deletes) go to the shard with ``take_orphans`` so the union
        over all shards covers exactly one full scan.
        """
        self._scan_units = self.table.scan_units(owned, take_orphans)

    def scan_partition(self) -> int:
        """Scan only the units owned by this replica; returns the count.

        The scatter half of a sharded ``scan_all``: across all replicas
        the owned units partition the full scan, so the counts — and,
        on each replica's own engine, the page fixes and I/O — sum to
        exactly one unsharded :meth:`scan_all`.  Relations are walked in
        table order with the per-record decode work of ``scan_all``; the
        reassembly join needs records owned by other shards and happens
        at the gather stage, so only the count is produced — one per
        record of the root relation (relation 0 of every model).
        """
        if self._scan_units is None:
            raise self._not_supported("scan_partition before prepare_scan_partition")
        count = 0
        for index, (relation, (pages, longs)) in enumerate(
            zip(self.table.relations, self._scan_units)
        ):
            records = 0
            for blob in relation.scan_records(longs, pages):
                self._decode_record(index, blob)
                records += 1
            if index == 0:
                count = records
        return count

    # -- reorganisation ------------------------------------------------------------

    def recluster(self, order: Sequence[int]) -> None:
        """Rewrite the model's shared-page segments into object ``order``.

        ``order`` is a permutation of all OIDs (deleted objects are
        listed too and simply contribute no records).  Records of the
        same object keep their relative order; records of adjacent
        objects in ``order`` become physically adjacent — the layout
        the placement policies compute from workload statistics.  The
        address table follows the heap forwarding maps, so all
        references survive the move.

        Only shared slotted pages move: long objects own their pages
        privately (no co-residency to improve) and stay in place.  The
        rewrite is deterministic, so snapshot stores can cache the
        reclustered image and clones stay bit-identical to an in-place
        reorganisation.
        """
        self._validate_order(order)
        self.table.recluster(order)

    def move_objects(self, oids: Sequence[int], max_pages: int) -> int:
        """Relocate the records of ``oids`` so they pack adjacently.

        The *online* sibling of :meth:`recluster`: a bounded, partial
        reorganisation safe to run between operations of a live
        workload.  At most ``max_pages`` pages are written **per shared
        segment**; whatever does not fit the budget stays where it is
        (the next trigger gets another chance), and long records never
        move.  The address table follows the partial forwarding maps,
        so every reference survives.  Returns the number of pages the
        move batch wrote.
        """
        return self.table.move(oids, max_pages)

    def apply_recovery(self, report) -> None:
        """Remap in-memory address tables after crash recovery.

        ``report`` is the :class:`~repro.storage.journal.RecoveryReport`
        returned by ``StorageEngine.recover``; its per-segment composed
        forwarding covers every durable reorganisation batch since the
        last checkpoint.  Page ids are never reused, so remapping a
        table that already saw part of the relocation live is a no-op
        for those entries — the maps are applied unconditionally.
        """
        self.table.apply_recovery(report)

    def _validate_order(self, order: Sequence[int]) -> None:
        # Deferred import: the clustering package's driver replays
        # workload traces, which import this module.
        from repro.clustering.placement import is_permutation

        if not is_permutation(order, self.n_objects):
            raise ModelError(
                f"recluster order must be a permutation of the {self.n_objects} "
                f"OIDs of {self.name} (got {len(order)} entries)"
            )

    # -- snapshot state ------------------------------------------------------------

    def capture_state(self) -> dict:
        """The model's in-memory address state, as restorable data.

        Together with a :class:`~repro.storage.disk.DiskSnapshot` of the
        engine's disk this is everything a loaded model consists of: a
        fresh model instance over a restored disk plus
        :meth:`restore_state` is behaviourally identical to a rebuild —
        bit-identical page bytes *and* bit-identical counters for every
        subsequent operation, the invariant the snapshot store's parity
        suite enforces.  The returned structure must be a deep-enough
        copy (mutating the live model must never corrupt it), and must
        be picklable (process-pool sweeps spill it to disk).
        """
        return self.table.capture_state()

    def restore_state(self, state: dict) -> None:
        """Adopt captured state on a freshly constructed model whose
        engine's disk was restored from the matching snapshot."""
        self._require_unloaded()
        self.table.restore_state(state)
        self.n_objects = len(self.table)

    def _require_unloaded(self) -> None:
        if self.n_objects:
            raise UnsupportedOperationError(
                f"storage model {self.name} is already loaded; "
                "state restores require a fresh instance"
            )

    # -- object lifecycle beyond the benchmark ------------------------------------

    def insert_object(self, station: NestedTuple) -> int:
        """Add one object to a loaded database; returns its new OID.

        The benchmark itself only bulk-loads, but a usable storage
        library must support incremental growth.  A key some live
        object already carries is refused: value selections (and plain
        NSM's value-based delete) identify objects by it.  A tuple of
        another relation is refused too: being a validated ``Station``
        is what lets ``_store`` relabel its parts without re-checking
        them.
        """
        if station.schema is not STATION_SCHEMA and station.schema != STATION_SCHEMA:
            raise SchemaError(
                f"storage models store Station objects, not {station.schema.name!r} tuples"
            )
        key = station["Key"]
        if self.table.find(key) is not None:
            raise ModelError(f"a station with key {key} is already stored")
        oid = self.table.add(key, self._store(station))
        self.n_objects = oid + 1
        return oid

    def delete_object(self, ref: Ref) -> None:
        """Remove one object; its references become invalid.

        Pages privately owned by the object are returned to the disk;
        shared pages keep serving their other tuples.  An unknown or
        already deleted reference raises before anything is touched.
        """
        self.table.delete(ref)

    # -- statistics ---------------------------------------------------------------

    def relation_pages(self) -> dict[str, int]:
        """Pages per relation — the parameter ``m`` (Table 2)."""
        return self.table.relation_pages()

    def total_pages(self) -> int:
        """Total allocated pages of this model's representation."""
        return sum(self.relation_pages().values())

    # -- helpers ----------------------------------------------------------------

    def _not_supported(self, operation: str) -> UnsupportedOperationError:
        return UnsupportedOperationError(
            f"storage model {self.name} does not support {operation}"
        )

    @staticmethod
    def _dedupe(refs: Sequence[Ref]) -> list[Ref]:
        """Order-preserving de-duplication of a reference list."""
        return list(dict.fromkeys(refs))

    @staticmethod
    def key_of(oid: int) -> int:
        return key_of_oid(oid)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}: {self.n_objects} objects>"


def link_sections(schema: RelationSchema) -> tuple[int, ...]:
    """The sections of a cut ``schema`` record navigation decodes: the
    root's flat part through the last sub-relation holding references."""
    holding = [index for index, sub in enumerate(schema.subrelations, 1) if links(sub)]
    return tuple(range(1 + max(holding, default=0)))


class _WholeObjects:
    """The assembly of a layout without parts: every record is a whole
    object, stored by one insert and scanned with nothing to join."""

    def __init__(self, decode: Callable[[bytes], NestedTuple]) -> None:
        self.decode, self.scan = (decode,), (partial(map, decode),)

    @staticmethod
    def store(value: NestedTuple, insert: Callable[[int, NestedTuple], Handle]) -> Row:
        return ((insert(0, value),),)

    @staticmethod
    def join_scanned(objects: Iterator[NestedTuple]) -> Iterator[NestedTuple]:
        return objects


class AddressedModel(StorageModel):
    """The layout and the access paths by address of every model, read
    off its declarations.  One relation per part — heap-only, one row
    per tuple, when every stored schema is flat (``unnest``), else with
    a long store, one record per object (``nest_by_root``) — under the
    compiled assembly; no parts is Section 3.1's direct layout, one
    relation ``<name>_Station`` whose long records are cut.  The paths
    read only the records the address table names, through one seam,
    :meth:`_records`, and query 1b selects by value on relation 0
    (``Relation.select``).  A reference is an OID (``NSMModelBase``
    makes it a key); plain NSM, which has no addresses, makes the seam
    a value selection and keeps only what the paper makes different.
    """

    #: One part per relation of the Station schema, in walk order.
    parts: tuple[Part, ...] = ()

    #: What navigation decodes of a record of the linked relation.
    navigation: Projection | None = None

    #: Sections of a cut record fixed when looking for references, and
    #: when reading the root record (``None``: all of them).
    navigation_sections: Sections = None
    root_sections: Sections = None

    #: Whether the records of a list of refs are read together, their heap
    #: page set in one I/O call, or one object at a time (``Relation``).
    set_oriented: bool = True

    #: Whether a root patch is DASDBS's ``change attribute``, each page
    #: written through at once (Section 5.3), or written back later.
    write_through: bool = False

    def __init__(self, engine: StorageEngine, fmt: StorageFormat = DASDBS_FORMAT) -> None:
        super().__init__(engine, fmt)
        if self.parts:
            # Compiled before any ``_store``: its proof licenses the relabelling.
            self._assembly = compiled_assembly(fmt, self.parts)
            self._rows = all(part.stored.is_flat for part in self.parts)
            self._stored = tuple(part.stored for part in self.parts)
            names = [stored.name for stored in self._stored]
        else:
            self._assembly = _WholeObjects(partial(self.serializer.decode_nested, self.root_schema))
            self._rows, self._stored = False, (self.root_schema,)
            names = [f"{self.name}_{self.root_schema.name}"]
        long_fmt = None if self._rows else fmt
        self.relations = tuple(
            Relation(engine, name, long_fmt, not self.parts, self.set_oriented) for name in names
        )
        self.table = AddressTable(self.relations)
        (self._linked,) = [index for index, stored in enumerate(self._stored) if links(stored)]
        self._navigation_copy = link_sections(self.root_schema)
        self._decode_links = partial(self.serializer.decode_nested, self.navigation)

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
        return relation.insert(self.serializer.encode_nested(value), value)

    # -- addressing ------------------------------------------------------------------

    def _row(self, ref: Ref) -> Row:
        """The row of the object ``ref`` names; raises if none is live."""
        return self.table.row(ref)

    def _handles(self, refs: Sequence[Ref], index: int) -> list[tuple[Handle, ...]]:
        """Per ref, the object's records in relation ``index``: every
        ref is resolved (and refused) before a path fixes a page."""
        row = self.table.row
        return [row(ref)[index] for ref in refs]

    # -- access by address -----------------------------------------------------------

    def fetch_full(self, ref: Ref) -> NestedTuple:
        return self._read_assembled(self._row(ref))

    def _read_assembled(self, row: Row) -> NestedTuple:
        # Arguments evaluate left to right: each relation is read, then
        # decoded (its zero-copy views at once), before the next is read.
        (root,), *rest = row
        decode, relations, rows = self._assembly.decode, self.relations, self._rows
        record = decode[0](relations[0].read_record(root))
        if not rest:
            return record  # a whole object
        return self._assembly.join(
            record,
            *[
                decode_part(
                    relation.read_records(handles) if rows else relation.read_record(handles[0])
                )
                for decode_part, relation, handles in zip(decode[1:], relations[1:], rest)
            ],
        )

    def fetch_full_by_key(self, key: int) -> NestedTuple:
        """Value selection on relation 0 (``Relation.select``, a cut
        record read at :attr:`root_sections` granularity), then, unless
        that read the whole object, "we use the addresses in the index
        table to retrieve all other data by address"."""
        schema = self.root_schema
        key_of = partial(self.serializer.decode_atom, schema)
        # The root's key is its first attribute (``nf2.schema._parts``).
        attr = schema.attributes[0].name
        matches = self.relations[0].select({key}, key_of, attr, self._longs(0), self.root_sections)
        if not matches:
            raise InvalidAddressError(f"no station with key {key}")
        if len(self.relations) == 1:
            return self._assembly.decode[0](matches[-1][1])
        return self._read_assembled(self.table.row_of_key(key))

    def _records(
        self, refs: Sequence[Ref], index: int, sections: Sections = None, copy: Sections = None
    ) -> Sequence[bytes]:
        """The records of relation ``index`` of the objects ``refs``
        name, by address: once per ref, in ref order, each as
        ``Relation.read_records`` reads it.  The seam of the navigation
        reads; plain NSM, without addresses, selects them by value."""
        handles = [*chain.from_iterable(self._handles(refs, index))]
        return self.relations[index].read_records(handles, sections, copy)

    def fetch_refs(self, refs: Sequence[Ref]) -> list[Ref]:
        # The flattening of ``fetch_refs_grouped``, decoded in one pass.
        return self._refs_in(
            self._records(refs, self._linked, self.navigation_sections, self._navigation_copy)
        )

    def fetch_refs_grouped(self, refs: Sequence[Ref]) -> list[list[Ref]]:
        """The records of :meth:`fetch_refs`, read as it reads them and
        split back per ref."""
        groups, refs_in = self._handles(refs, self._linked), self._refs_in
        records = iter(
            self.relations[self._linked].read_records(
                [*chain.from_iterable(groups)], self.navigation_sections, self._navigation_copy
            )
        )
        return [refs_in(islice(records, len(group))) for group in groups]

    def _refs_in(self, records: Iterable[bytes]) -> list[Ref]:
        """The references in records of the linked relation, in order."""
        return links_of(map(self._decode_links, records))

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        # The root's flat part leads its record, and a cut record's root section.
        decode, schema = self.serializer._decode_flat_part, self.root_schema
        records = self._records(refs, 0, self.root_sections, FIRST_SECTION)
        return [decode(schema, blob, 0)[0] for blob in records]

    def update_roots(self, refs: Sequence[Ref], changes: Mapping[str, Any]) -> None:
        """``Relation.patch`` of each root record, written back or
        :attr:`write_through` (Section 5.3).  Every ref is resolved
        before the first page is fixed: a refused one leaves the others
        untouched."""
        patch = self._root_patch(changes)
        relation, write_through = self.relations[0], self.write_through
        for handle in [*chain.from_iterable(self._handles(self._dedupe(refs), 0))]:
            relation.patch(handle, patch, write_through)

    # -- the full scan ---------------------------------------------------------------

    def scan_all(self) -> int:
        return sum(1 for _ in self._scan_objects())

    def _scan_objects(self) -> Iterator[NestedTuple]:
        """Every object, joined in memory from one scan per relation
        (each relation scanned and decoded before the next)."""
        relations, longs = self.relations, self._longs
        return self._assembly.join_scanned(
            *[
                scan(relations[index].scan_records(longs(index)))
                for index, scan in enumerate(self._assembly.scan)
            ]
        )

    def _longs(self, index: int) -> list[LongObjectAddress]:
        # Only a relation with a long store asks the table for its long records.
        return self.table.long_handles(index) if self.relations[index].long_store else []

    def _decode_record(self, index: int, blob) -> None:
        """Decode one record of relation ``index``, as a sharded scan's
        units are: the per-record work of :meth:`scan_all`."""
        self.serializer.decode_nested(self._stored[index], blob)
