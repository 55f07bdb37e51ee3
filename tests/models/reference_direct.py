"""The direct models' access paths as they were written for the Station.

DSM and DASDBS-DSM before their layout was read off the schema: the
three sections named by hand (root, Platform, Sightseeing), the link
projections of ``reference_layouts``, the Platform→Connection walk, and
one value selection per model (DSM decodes every object, DASDBS-DSM
tests ``Key`` on the root section first).  Every storage call is spelt
out against the heap and the long-object store, so nothing here depends
on what the rule-derived models changed.  Slow and obviously right: the
specification ``tests/models/test_direct_oracle.py`` holds the models
to, value for value and counter for counter.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.benchmark.schema import PLATFORM_SCHEMA, SIGHTSEEING_SCHEMA, STATION_SCHEMA
from repro.errors import InvalidAddressError
from repro.models.base import StorageModel
from repro.nf2.oid import Rid
from repro.nf2.values import NestedTuple
from tests.models.reference_layouts import PLATFORM_LINKS, STATION_LINKS

SECTION_ROOT, SECTION_PLATFORMS, SECTION_SIGHTSEEINGS = 0, 1, 2

#: Sections transferred (None = all): navigation, root read.
_GRANULARITY = {
    "DSM": (None, None),
    "DASDBS-DSM": ([SECTION_ROOT, SECTION_PLATFORMS], [SECTION_ROOT]),
}


def encode_sections(model, station: NestedTuple) -> list[bytes]:
    serializer = model.serializer
    return [
        serializer.encode_flat(station),
        serializer.encode_subtuple_list(PLATFORM_SCHEMA, station.subtuples("Platform")),
        serializer.encode_subtuple_list(SIGHTSEEING_SCHEMA, station.subtuples("Sightseeing")),
    ]


def decode_sections(model, sections: Sequence[bytes]) -> NestedTuple:
    serializer = model.serializer
    atoms, _ = serializer._decode_flat_part(STATION_SCHEMA, sections[0], 0)
    platforms = serializer.decode_subtuple_list(PLATFORM_SCHEMA, sections[SECTION_PLATFORMS])
    sights = serializer.decode_subtuple_list(SIGHTSEEING_SCHEMA, sections[SECTION_SIGHTSEEINGS])
    return NestedTuple(STATION_SCHEMA, atoms, {"Platform": platforms, "Sightseeing": sights})


def _handle(model, oid: int):
    return model.table.row(oid)[0][0]


def _fetch_full(model, oid: int) -> NestedTuple:
    handle = _handle(model, oid)
    if type(handle) is Rid:
        return model.serializer.decode_nested(STATION_SCHEMA, model.relations[0].heap.read(handle))
    return decode_sections(model, model.relations[0].long_store.read(handle))


def _dsm_scan_for_key(model, key: int) -> Iterator[NestedTuple]:
    """Objects in storage order, read and decoded whole."""
    for _, blob in model.relations[0].heap.scan():
        yield model.serializer.decode_nested(STATION_SCHEMA, blob)
    for handle in model.table.long_handles(0):
        yield decode_sections(model, model.relations[0].long_store.read(handle))


def _dasdbs_dsm_scan_for_key(model, key: int) -> Iterator[NestedTuple]:
    """Header + root section per long object; matches fetched whole."""
    decode_atom = model.serializer.decode_atom
    for _, blob in model.relations[0].heap.scan():
        if decode_atom(STATION_SCHEMA, blob, "Key") == key:
            yield model.serializer.decode_nested(STATION_SCHEMA, blob)
    for handle in model.table.long_handles(0):
        (root_blob,) = model.relations[0].long_store.read(handle, [SECTION_ROOT])
        if decode_atom(STATION_SCHEMA, root_blob, "Key") == key:
            yield decode_sections(model, model.relations[0].long_store.read(handle))


_SCAN_FOR_KEY = {"DSM": _dsm_scan_for_key, "DASDBS-DSM": _dasdbs_dsm_scan_for_key}


def _fetch_full_by_key(model, key: int) -> NestedTuple:
    match = None
    for station in _SCAN_FOR_KEY[model.name](model, key):
        if station["Key"] == key:
            match = station
    if match is None:
        raise InvalidAddressError(f"no station with key {key}")
    return match


def _scan_all(model) -> list[NestedTuple]:
    decoded = [
        model.serializer.decode_nested(STATION_SCHEMA, blob)
        for _, blob in model.relations[0].heap.scan()
    ]
    for handle in model.table.long_handles(0):
        decoded.append(decode_sections(model, model.relations[0].long_store.read(handle)))
    return decoded


def _fetch_refs_grouped(model, refs: Sequence[int]) -> list[list[int]]:
    wanted, _ = _GRANULARITY[model.name]
    out = []
    for ref in refs:
        handle = _handle(model, ref)
        if type(handle) is Rid:
            station = model.serializer.decode_nested(
                STATION_LINKS, model.relations[0].heap.read(handle)
            )
            platforms = station.subtuples("Platform")
        else:
            (blob,) = model.relations[0].long_store.read(handle, wanted, copy=(SECTION_PLATFORMS,))
            platforms = model.serializer.decode_subtuple_list(PLATFORM_LINKS, blob)
        out.append(
            [
                connection["OidConnection"]
                for platform in platforms
                for connection in platform.subtuples("Connection")
            ]
        )
    return out


def _fetch_refs(model, refs: Sequence[int]) -> list[int]:
    return [ref for group in _fetch_refs_grouped(model, refs) for ref in group]


def _fetch_roots(model, refs: Sequence[int]) -> list[dict[str, Any]]:
    _, wanted = _GRANULARITY[model.name]
    out = []
    for ref in refs:
        handle = _handle(model, ref)
        if type(handle) is Rid:
            blob = model.relations[0].heap.read(handle)
        else:
            (blob,) = model.relations[0].long_store.read(handle, wanted, copy=(SECTION_ROOT,))
        out.append(model.serializer._decode_flat_part(STATION_SCHEMA, blob, 0)[0])
    return out


_REFERENCE = {
    "fetch_full": _fetch_full,
    "fetch_full_by_key": _fetch_full_by_key,
    "fetch_refs": _fetch_refs,
    "fetch_refs_grouped": _fetch_refs_grouped,
    "fetch_roots": _fetch_roots,
    "scan_all": _scan_all,
}


def reference(model: StorageModel, operation: str, *args):
    """``operation`` as the direct model ran it before its layout was
    derived; ``scan_all`` returns the objects it decodes, not their
    count."""
    return _REFERENCE[operation](model, *args)
