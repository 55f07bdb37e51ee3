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

from typing import Any, Mapping, Sequence

from repro.benchmark.schema import STATION_SCHEMA
from repro.errors import InvalidAddressError
from repro.models.addressing import AddressTable, Handle, Relation, Row
from repro.models.base import Ref, StorageModel
from repro.nf2.oid import Rid
from repro.nf2.schema import links
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple, links_of
from repro.storage import StorageEngine

#: A long object's sections: the root's flat part (section 0), then one
#: section per sub-relation of the root, in schema order.
SECTION_ROOT = 0

#: What navigation reads of an object: its references, nothing else (of
#: a whole stored Station, or of the sections of the sub-relations that
#: hold any, which it copies).
_STATION_LINKS = links(STATION_SCHEMA)
LINK_SECTIONS = tuple(
    1 + STATION_SCHEMA.subrelations.index(sub.stored) for sub in _STATION_LINKS.subrelations
)

#: ``copy=`` of a read whose pages are fixed at the model's granularity
#: but of which only the root section is decoded.
_ROOT_ONLY = (SECTION_ROOT,)


class DirectModelBase(StorageModel):
    """Shared machinery of DSM and DASDBS-DSM.

    Both store objects identically — one relation, one record per
    object: small objects in shared pages, large objects as header +
    data pages in one section per sub-relation of the root after the
    root's own attributes.  They differ only in *how much* of an object
    each operation transfers, which :attr:`navigation_sections` /
    :attr:`root_sections` and the update protocol encode.
    """

    #: Sections of a long object transferred when looking for references,
    #: and when reading the root record (None = all; DASDBS-DSM narrows).
    navigation_sections: Sequence[int] | None = None
    root_sections: Sequence[int] | None = None

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
        encode = self.serializer.encode_subtuple_list
        return [
            self.serializer.encode_flat(station),
            *(encode(sub, station.subtuples(sub.name)) for sub in self.root_schema.subrelations),
        ]

    def _decode_sections(self, sections: Sequence[bytes]) -> NestedTuple:
        schema = self.root_schema
        atoms, _ = self.serializer._decode_flat_part(schema, sections[0], 0)
        decode = self.serializer.decode_subtuple_list
        subs = zip(schema.subrelations, sections[1:])
        # Each sub-relation decoded under the root schema's own schema for
        # it: relabelled, not re-validated.
        return NestedTuple._from_trusted(
            schema, atoms, {sub.name: decode(sub, blob) for sub, blob in subs}
        )

    # -- retrieval ----------------------------------------------------------------

    def fetch_full(self, ref: Ref) -> NestedTuple:
        handle = self._handle(ref)
        if type(handle) is Rid:
            return self.serializer.decode_nested(STATION_SCHEMA, self.heap.read(handle))
        return self._decode_sections(self.long_store.read(handle))

    def fetch_full_by_key(self, key: int) -> NestedTuple:
        """Value selection: a full scan of the station relation.

        There is no access path on ``Key``, so every object is read (a
        long one at :attr:`root_sections` granularity) and its stored
        ``Key`` tested where it sits: at offset 0 of a small object's
        record and of a root section alike.  Only the match is decoded,
        a partially read one after reading the rest of it.  Live keys
        are unique (``insert_object`` refuses a repeat), yet the scan
        does not stop at the first hit: the paper's value selection reads
        the whole unordered relation, and the counters must say so.
        """
        decode_atom = self.serializer.decode_atom
        match: NestedTuple | None = None
        for _, blob in self.heap.scan():
            if decode_atom(STATION_SCHEMA, blob, "Key") == key:
                match = self.serializer.decode_nested(STATION_SCHEMA, blob)
        wanted = self.root_sections
        for handle in self.table.long_handles(0):
            sections = self.long_store.read(handle, wanted)
            if decode_atom(STATION_SCHEMA, sections[0], "Key") == key:
                whole = sections if wanted is None else self.long_store.read(handle)
                match = self._decode_sections(whole)
        if match is None:
            raise InvalidAddressError(f"no station with key {key}")
        return match

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
        wanted = self.navigation_sections
        decode_list = self.serializer.decode_subtuple_list
        for ref in refs:
            handle = self._handle(ref)
            if type(handle) is Rid:
                station = self.serializer.decode_nested(_STATION_LINKS, self.heap.read(handle))
                out.append(links_of((station,)))
            else:
                group: list[Ref] = []
                blobs = self.long_store.read(handle, wanted, copy=LINK_SECTIONS)
                for sub, blob in zip(_STATION_LINKS.subrelations, blobs):
                    links_of(decode_list(sub, blob), group)
                out.append(group)
        return out

    def fetch_roots(self, refs: Sequence[Ref]) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = []
        wanted = self.root_sections
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


__all__ = ["DSMModel", "DirectModelBase", "LINK_SECTIONS", "SECTION_ROOT"]
