"""The NSM family's reassembly as it was before it was compiled.

Each stored row or tuple is decoded by one serializer call into a tuple
of its *storage* schema; ``_assemble`` then copies the atoms, drops the
key columns and relabels the rest under the nested schema.  These are
the access paths of NSM, NSM+index and DASDBS-NSM in that form, with
their storage calls spelled out against the heaps and long-object
stores, so they depend on nothing the compiled assembly changed.  Slow
and obviously right: the specification
``tests/models/test_compiled_assembly.py`` holds the generated assembly
to, value for value and counter for counter.  Like
``reference_updates.py`` it lives with the tests that use it.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.benchmark.schema import (
    CONNECTION_SCHEMA,
    PLATFORM_SCHEMA,
    SIGHTSEEING_SCHEMA,
    STATION_SCHEMA,
)
from repro.errors import InvalidAddressError
from repro.models.base import StorageModel
from repro.models.nsm import NSM_CONNECTION, NSM_PLATFORM, NSM_SIGHTSEEING, NSM_STATION
from repro.nf2.oid import Rid
from repro.nf2.values import NestedTuple

_trusted = NestedTuple._from_trusted


def assemble_nsm(
    root: NestedTuple,
    platforms: Iterable[NestedTuple],
    connections: Iterable[NestedTuple],
    sightseeings: Iterable[NestedTuple],
) -> NestedTuple:
    """``NSMModelBase._assemble``: the in-memory join of flat rows."""
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


def assemble_dasdbs_nsm(
    st: NestedTuple, pl: NestedTuple, co: NestedTuple, si: NestedTuple
) -> NestedTuple:
    """``DASDBSNSMModel._assemble``: the join of four nested tuples."""
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


# -- NSM and NSM+index: one flat row per tuple ------------------------------------------

_NSM_SCHEMAS = (NSM_STATION, NSM_PLATFORM, NSM_CONNECTION, NSM_SIGHTSEEING)


def _nsm_heaps(model):
    return (model.stations, model.platforms, model.connections, model.sightseeings)


def _nsm_select(model, index: int, key_attr: str, keys: set[int]) -> list[NestedTuple]:
    """Plain NSM's value selection: the whole scan, then every match
    decoded in full."""
    schema, serializer = _NSM_SCHEMAS[index], model.serializer
    matches = [
        blob
        for _, blob in _nsm_heaps(model)[index].scan()
        if serializer.decode_atom(schema, blob, key_attr) in keys
    ]
    return [serializer.decode_flat(schema, blob) for blob in matches]


def _nsm_fetch_full_by_key(model, key: int) -> NestedTuple:
    keys = {key}
    roots = _nsm_select(model, 0, "Key", keys)
    if not roots:
        raise InvalidAddressError(f"no station with key {key}")
    platforms = _nsm_select(model, 1, "RootKey", keys)
    connections = _nsm_select(model, 2, "RootKey", keys)
    sights = _nsm_select(model, 3, "RootKey", keys)
    return assemble_nsm(roots[0], platforms, connections, sights)


def _nsm_index_fetch_full(model, key: int) -> NestedTuple:
    decode = model.serializer.decode_flat
    (station_rid,), platform_rids, connection_rids, sightseeing_rids = (
        model.table.row_of_key(key)
    )
    root = decode(NSM_STATION, model.stations.read(station_rid))
    platforms = [decode(NSM_PLATFORM, blob) for blob in model.platforms.read_many(platform_rids)]
    connections = [
        decode(NSM_CONNECTION, blob) for blob in model.connections.read_many(connection_rids)
    ]
    sights = [
        decode(NSM_SIGHTSEEING, blob) for blob in model.sightseeings.read_many(sightseeing_rids)
    ]
    return assemble_nsm(root, platforms, connections, sights)


def _nsm_index_fetch_full_by_key(model, key: int) -> NestedTuple:
    found = False
    for _, blob in model.stations.scan():
        if model.serializer.decode_atom(NSM_STATION, blob, "Key") == key:
            found = True
    if not found:
        raise InvalidAddressError(f"no station with key {key}")
    return _nsm_index_fetch_full(model, key)


def _nsm_scan_all(model) -> list[NestedTuple]:
    decode = model.serializer.decode_flat
    heaps = _nsm_heaps(model)
    roots = {row["Key"]: row for _, blob in heaps[0].scan() for row in [decode(NSM_STATION, blob)]}
    grouped: list[dict[int, list[NestedTuple]]] = []
    for heap, schema in zip(heaps[1:], _NSM_SCHEMAS[1:]):
        rows: dict[int, list[NestedTuple]] = {}
        for _, blob in heap.scan():
            row = decode(schema, blob)
            rows.setdefault(row["RootKey"], []).append(row)
        grouped.append(rows)
    return [
        assemble_nsm(root, *(rows.get(key, []) for rows in grouped))
        for key, root in roots.items()
    ]


def _nsm_fetch_roots(model, refs) -> list[dict[str, Any]]:
    if not refs:
        return []
    return [row.atoms() for row in _nsm_select(model, 0, "Key", set(refs))]


def _nsm_index_fetch_roots(model, refs) -> list[dict[str, Any]]:
    rids = [rid for key in refs for rid in model._rids(key, 0)]
    decode = model.serializer.decode_flat
    return [decode(NSM_STATION, blob).atoms() for blob in model.stations.read_many(rids)]


# -- DASDBS-NSM: one nested tuple per relation and object ---------------------------------


def _decode(store, blob) -> NestedTuple:
    """One stored tuple of ``store`` from its bytes, in full."""
    return store.serializer.decode_nested(store.schema, blob)


def _dasdbs_read(store, handle) -> NestedTuple:
    if type(handle) is Rid:
        return _decode(store, store.heap.read(handle))
    (blob,) = store.long_store.read(handle)
    return _decode(store, blob)


def _dasdbs_scan(store, longs):
    for _, blob in store.heap.scan():
        yield _decode(store, blob)
    for address in longs:
        (blob,) = store.long_store.read(address)
        yield _decode(store, blob)


def _dasdbs_read_assembled(model, row) -> NestedTuple:
    (st,), (pl,), (co,), (si,) = row
    return assemble_dasdbs_nsm(
        _dasdbs_read(model.stations, st),
        _dasdbs_read(model.platforms, pl),
        _dasdbs_read(model.connections, co),
        _dasdbs_read(model.sightseeings, si),
    )


def _dasdbs_fetch_full(model, oid: int) -> NestedTuple:
    return _dasdbs_read_assembled(model, model.table.row(oid))


def _dasdbs_fetch_full_by_key(model, key: int) -> NestedTuple:
    """The root relation scanned with ``Key`` tested in place, as
    NSM+index does; only the match is decoded, by address."""
    store, found = model.stations, False
    for _, blob in store.heap.scan():
        if model.serializer.decode_atom(store.schema, blob, "Key") == key:
            found = True
    for address in model.table.long_handles(0):
        (blob,) = store.long_store.read(address)
        if model.serializer.decode_atom(store.schema, blob, "Key") == key:
            found = True
    if not found:
        raise InvalidAddressError(f"no station with key {key}")
    return _dasdbs_read_assembled(model, model.table.row_of_key(key))


def _dasdbs_scan_all(model) -> list[NestedTuple]:
    longs = model.table.long_handles
    stores = (model.stations, model.platforms, model.connections, model.sightseeings)
    stations, platforms, connections, sights = (
        {row[key]: row for row in _dasdbs_scan(store, longs(index))}
        for index, (store, key) in enumerate(zip(stores, ("Key", "RootKey", "RootKey", "RootKey")))
    )
    return [
        assemble_dasdbs_nsm(st, platforms[key], connections[key], sights[key])
        for key, st in stations.items()
    ]


def _dasdbs_fetch_roots(model, refs) -> list[dict[str, Any]]:
    store = model.stations
    handles = [model.table.row(oid)[0][0] for oid in refs]
    heap_rids = list(dict.fromkeys(handle for handle in handles if type(handle) is Rid))
    views = dict(zip(heap_rids, store.heap.read_many(heap_rids))) if heap_rids else {}
    out = []
    for handle in handles:
        if type(handle) is Rid:
            out.append(_decode(store, views[handle]).atoms())
        else:
            (blob,) = store.long_store.read(handle)
            out.append(_decode(store, blob).atoms())
    return out


def _unsupported(model, *_):
    raise model._not_supported("retrieval by OID (query 1a); NSM stores no identifiers")


_REFERENCE = {
    "NSM": {
        "fetch_full": _unsupported,
        "fetch_full_by_key": _nsm_fetch_full_by_key,
        "scan_all": _nsm_scan_all,
        "fetch_roots": _nsm_fetch_roots,
    },
    "NSM+index": {
        "fetch_full": _nsm_index_fetch_full,
        "fetch_full_by_key": _nsm_index_fetch_full_by_key,
        "scan_all": _nsm_scan_all,
        "fetch_roots": _nsm_index_fetch_roots,
    },
    "DASDBS-NSM": {
        "fetch_full": _dasdbs_fetch_full,
        "fetch_full_by_key": _dasdbs_fetch_full_by_key,
        "scan_all": _dasdbs_scan_all,
        "fetch_roots": _dasdbs_fetch_roots,
    },
}


def reference(model: StorageModel, operation: str, *args):
    """``operation`` as the model ran it before its assembly was compiled;
    ``scan_all`` returns the objects it assembles, not their count."""
    return _REFERENCE[model.name][operation](model, *args)
