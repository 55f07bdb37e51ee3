"""Mixed tuple store: heap pages for small tuples, long store for large.

DASDBS stores a nested tuple on shared slotted pages when it fits and
switches to the header/data multi-page layout when it does not (Table 2:
"Tuples of DSM-Station and DASDBS-NSM-Sightseeing are larger in size
than a page, and therefore will be stored distributed over header and
data pages").  The DASDBS-NSM relations need exactly this behaviour —
most of their nested tuples are small, but e.g. the Sightseeing tuple
of an average object exceeds one page.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.models.addressing import Handle, Relation
from repro.nf2.oid import Rid
from repro.nf2.schema import Projection, RelationSchema
from repro.nf2.serializer import NF2Serializer, StorageFormat
from repro.nf2.values import NestedTuple
from repro.storage import StorageEngine
from repro.storage.longobj import LongObjectAddress


class MixedTupleStore(Relation):
    """One nested relation: typed read/write/scan over a :class:`Relation`.

    The store keeps no addresses of its own — whoever inserts a tuple
    keeps the returned handle (the models' address table does).
    """

    def __init__(
        self,
        engine: StorageEngine,
        name: str,
        schema: RelationSchema,
        fmt: StorageFormat,
    ) -> None:
        super().__init__(engine, name, fmt)
        self.schema = schema
        self.serializer = NF2Serializer(fmt)

    # -- writing --------------------------------------------------------------

    def insert(self, value: NestedTuple) -> Handle:
        blob = self.serializer.encode_nested(value)
        if len(blob) <= self.small_threshold:
            return self.heap.insert(blob)
        return self.long_store.store([blob], value.count_subtuples())

    def patch(self, handle: Handle, patch: Callable[[bytes], bytes]) -> None:
        """Replace a stored tuple by ``patch`` of its bytes (same size;
        see ``NF2Serializer.compile_patch``).

        The page traffic of a read followed by a replace: a heap record
        fixes its page twice and dirties it, a long tuple reads, rewrites
        and dirties every page it owns.
        """
        if type(handle) is Rid:
            self.heap.update(handle, patch(self.heap.read(handle)))
        else:
            (blob,) = self.long_store.read(handle)
            self.long_store.replace(handle, [patch(blob)])

    # -- reading bytes ------------------------------------------------------------
    #
    # What the model's compiled assembly decodes (with ``Relation``'s
    # ``read_record`` and ``scan_records``); the typed reads below are
    # the same storage calls with ``decode_nested`` on top.

    def read_records(self, handles: Sequence[Handle]) -> Iterator[bytes | memoryview]:
        """Set-oriented read: the heap page set loads in one I/O call.

        Yields the records in ``handles`` order; a long record is read
        when its turn comes.  Heap records are zero-copy memoryviews
        aliasing live buffer frames, per ``HeapFile.read_many``'s
        contract: decode each as it is drawn.
        """
        heap_rids = [handle for handle in handles if type(handle) is Rid]
        blobs_by_rid: dict[Rid, memoryview] = {}
        if heap_rids:
            unique = list(dict.fromkeys(heap_rids))
            blobs_by_rid = dict(zip(unique, self.heap.read_many(unique)))
        for handle in handles:
            yield blobs_by_rid[handle] if type(handle) is Rid else self.read_record(handle)

    # -- reading tuples -------------------------------------------------------------

    def decode(self, blob) -> NestedTuple:
        """One stored tuple from its bytes."""
        return self.serializer.decode_nested(self.schema, blob)

    def read(self, handle: Handle) -> NestedTuple:
        return self.decode(self.read_record(handle))

    def read_many(
        self, handles: Sequence[Handle], projection: Projection | None = None
    ) -> list[NestedTuple]:
        """:meth:`read_records`, decoded.  The same records are read
        whatever ``projection`` (of the store's schema) says; it only
        limits what is decoded of them."""
        decode, schema = self.serializer.decode_nested, projection or self.schema
        return [decode(schema, blob) for blob in self.read_records(handles)]

    def scan(self, longs: Sequence[LongObjectAddress]) -> Iterator[NestedTuple]:
        """:meth:`scan_records`, decoded."""
        return map(self.decode, self.scan_records(longs))
