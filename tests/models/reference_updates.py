"""The value-round-trip ``update_roots`` of each storage model.

The five update protocols as they were before the storage paths moved
to the byte patch (``NF2Serializer.compile_patch``): decode the stored
object into ``NestedTuple``s, ``replace_atoms``, re-encode, write back
under the model's page protocol.  Slow and obviously right — the
specification ``tests/models/test_update_oracle.py`` holds the patched
protocols to, page image and counter for counter.  Like
``tests/nf2/reference_serializer.py`` it lives with the tests that use
it.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.benchmark.schema import STATION_SCHEMA
from repro.models.base import StorageModel
from repro.models.dasdbs_nsm import DNSM_STATION
from repro.models.dsm import SECTION_ROOT
from repro.models.nsm import NSM_STATION
from repro.nf2.oid import Rid
from repro.nf2.values import NestedTuple
from tests.models.reference_direct import decode_sections, encode_sections


def _dsm(model, refs, changes):
    """Replace the entire (nested) tuple."""
    for ref in model._dedupe(refs):
        handle = model.table.row(ref)[0][0]
        if type(handle) is Rid:
            station = model.serializer.decode_nested(
                STATION_SCHEMA, model.relations[0].heap.read(handle)
            )
            updated = station.replace_atoms(**changes)
            model.relations[0].heap.update(handle, model.serializer.encode_nested(updated))
        else:
            station = decode_sections(model, model.relations[0].long_store.read(handle))
            updated = station.replace_atoms(**changes)
            model.relations[0].long_store.replace(handle, encode_sections(model, updated))


def _dasdbs_dsm(model, refs, changes):
    """``change attribute`` through a written-through page pool."""
    for ref in model._dedupe(refs):
        handle = model.table.row(ref)[0][0]
        if type(handle) is Rid:
            station = model.serializer.decode_nested(
                STATION_SCHEMA, model.relations[0].heap.read(handle)
            )
            updated = station.replace_atoms(**changes)
            model.relations[0].heap.update(
                handle, model.serializer.encode_nested(updated), write_through=True
            )
        else:
            (root_blob,) = model.relations[0].long_store.read(handle, [SECTION_ROOT])
            shell = NestedTuple(
                STATION_SCHEMA,
                model.serializer.decode_flat(STATION_SCHEMA, root_blob).atoms(),
                {"Platform": [], "Sightseeing": []},
            )
            model.relations[0].long_store.patch_section(
                handle,
                SECTION_ROOT,
                model.serializer.encode_flat(shell.replace_atoms(**changes)),
                write_through=True,
            )


def _nsm(model, refs, changes):
    """Value scan for the root tuples, then replace them."""
    if not refs:
        return
    stations, serializer, keys = model.table.relations[0].heap, model.serializer, set(refs)
    rows = [
        (rid, serializer.decode_flat(NSM_STATION, blob))
        for rid, blob in stations.scan()
        if serializer.decode_atom(NSM_STATION, blob, "Key") in keys
    ]
    for rid, row in rows:
        stations.update(rid, serializer.encode_flat(row.replace_atoms(**changes)))


def _nsm_index(model, refs, changes):
    stations = model.table.relations[0].heap
    for key in model._dedupe(refs):
        row = model.table.find(key)
        for rid in () if row is None else row[0]:
            stored = model.serializer.decode_flat(NSM_STATION, stations.read(rid))
            stations.update(rid, model.serializer.encode_flat(stored.replace_atoms(**changes)))


def _dasdbs_nsm(model, refs, changes):
    """Replace the small root tuples, deferred."""
    relation = model.table.relations[0]
    for oid in model._dedupe(refs):
        handle = model.table.row(oid)[0][0]
        stored = model.serializer.decode_nested(DNSM_STATION, relation.read_record(handle))
        blob = model.serializer.encode_nested(stored.replace_atoms(**changes))
        if type(handle) is Rid:
            relation.heap.update(handle, blob)
        else:
            relation.long_store.replace(handle, [blob])


_REFERENCE = {
    "DSM": _dsm,
    "DASDBS-DSM": _dasdbs_dsm,
    "NSM": _nsm,
    "NSM+index": _nsm_index,
    "DASDBS-NSM": _dasdbs_nsm,
}


def reference_update_roots(
    model: StorageModel, refs: Sequence[int], changes: Mapping[str, Any]
) -> None:
    """``model.update_roots(refs, changes)``, by value round trip."""
    _REFERENCE[model.name](model, refs, changes)
