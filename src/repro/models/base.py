"""Abstract interface of a complex-object storage model.

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
scan partitioning, page statistics — is implemented here, once, over
the model's :class:`~repro.models.addressing.AddressTable`.  A concrete
model declares its relations (``self.table = AddressTable([...])``),
writes an object's records (:meth:`StorageModel._store`), reads them
back (the six access paths) and says how one scanned record is decoded.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Mapping, Sequence

from repro.benchmark.schema import STATION_SCHEMA, key_of_oid
from repro.errors import ModelError, SchemaError, UnsupportedOperationError
from repro.models.addressing import AddressTable, Row
from repro.nf2.schema import RelationSchema
from repro.nf2.serializer import DASDBS_FORMAT, NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine

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

    #: Every object's record addresses; built by the concrete model's
    #: constructor from the relations it declares.
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

    def _store(self, station: NestedTuple) -> Row:
        """Write the records of one object; returns its table row.

        The model's decomposition: which relations a Station is spread
        over, and as which records.
        """
        raise self._not_supported("storing objects")

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
            records = len(longs)
            for _, blob in relation.heap.scan_pages(pages):
                self._decode_record(index, blob)
                records += 1
            for address in longs:
                self._decode_long(index, address)
            if index == 0:
                count = records
        return count

    def _decode_record(self, index: int, blob) -> None:
        """Decode one scanned heap record of relation ``index``."""
        raise self._not_supported("sharded scan partitioning")

    def _decode_long(self, index: int, address) -> None:
        """Read and decode one long record of relation ``index``."""
        raise self._not_supported("sharded scan partitioning")

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
