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
from repro.models.dasdbs_nsm import (
    DNSM_CONNECTION,
    DNSM_PLATFORM,
    DNSM_SIGHTSEEING,
    DNSM_STATION,
)
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
    return tuple(relation.heap for relation in model.table.relations)


def _nsm_index_rids(model, key: int, index: int):
    """The indexed record ids of ``key`` in relation ``index``; none for
    a key no live object carries."""
    row = model.table.find(key)
    return () if row is None else row[index]


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
    stations, platforms, connections, sightseeings = _nsm_heaps(model)
    (station_rid,), platform_rids, connection_rids, sightseeing_rids = (
        model.table.row_of_key(key)
    )
    root = decode(NSM_STATION, stations.read(station_rid))
    platform_rows = [decode(NSM_PLATFORM, blob) for blob in platforms.read_many(platform_rids)]
    connection_rows = [
        decode(NSM_CONNECTION, blob) for blob in connections.read_many(connection_rids)
    ]
    sights = [decode(NSM_SIGHTSEEING, blob) for blob in sightseeings.read_many(sightseeing_rids)]
    return assemble_nsm(root, platform_rows, connection_rows, sights)


def _nsm_index_fetch_full_by_key(model, key: int) -> NestedTuple:
    found = False
    for _, blob in _nsm_heaps(model)[0].scan():
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
    rids = [rid for key in refs for rid in _nsm_index_rids(model, key, 0)]
    decode = model.serializer.decode_flat
    return [decode(NSM_STATION, blob).atoms() for blob in _nsm_heaps(model)[0].read_many(rids)]


def _nsm_fetch_ref_pairs(model, refs) -> list[tuple[int, int]]:
    """One value scan of the connection rows, each match decoded in full."""
    if not refs:
        return []
    return [
        (row["RootKey"], row["KeyConnection"])
        for row in _nsm_select(model, 2, "RootKey", set(refs))
    ]


def _nsm_fetch_refs(model, refs) -> list[int]:
    return [child for _, child in _nsm_fetch_ref_pairs(model, refs)]


def _nsm_index_fetch_refs_grouped(model, refs) -> list[list[int]]:
    """One batched read of every indexed connection row, split per key."""
    groups = [_nsm_index_rids(model, key, 2) for key in refs]
    rows = iter(_nsm_heaps(model)[2].read_many([rid for group in groups for rid in group]))
    decode = model.serializer.decode_flat
    return [
        [decode(NSM_CONNECTION, next(rows))["KeyConnection"] for _ in group] for group in groups
    ]


def _flattened(grouped):
    def fetch_refs(model, refs) -> list[int]:
        return [child for group in grouped(model, refs) for child in group]

    return fetch_refs


# -- DASDBS-NSM: one nested tuple per relation and object ---------------------------------


_DNSM_SCHEMAS = (DNSM_STATION, DNSM_PLATFORM, DNSM_CONNECTION, DNSM_SIGHTSEEING)


def _stores(model):
    """``(relation, stored schema)`` of DASDBS-NSM's four relations."""
    return tuple(zip(model.table.relations, _DNSM_SCHEMAS))


def _decode(model, store, blob) -> NestedTuple:
    """One stored tuple of ``store`` from its bytes, in full."""
    return model.serializer.decode_nested(store[1], blob)


def _dasdbs_read(model, store, handle) -> NestedTuple:
    relation = store[0]
    if type(handle) is Rid:
        return _decode(model, store, relation.heap.read(handle))
    (blob,) = relation.long_store.read(handle)
    return _decode(model, store, blob)


def _dasdbs_read_many(model, store, handles) -> list[NestedTuple]:
    """The heap page set in one call, each long record when its turn
    comes; every record decoded as it is drawn."""
    heap_rids = list(dict.fromkeys(handle for handle in handles if type(handle) is Rid))
    views = dict(zip(heap_rids, store[0].heap.read_many(heap_rids))) if heap_rids else {}
    return [
        _decode(model, store, views[handle])
        if type(handle) is Rid
        else _dasdbs_read(model, store, handle)
        for handle in handles
    ]


def _dasdbs_scan(model, store, longs):
    for _, blob in store[0].heap.scan():
        yield _decode(model, store, blob)
    for address in longs:
        yield _dasdbs_read(model, store, address)


def _dasdbs_read_assembled(model, row) -> NestedTuple:
    return assemble_dasdbs_nsm(
        *(_dasdbs_read(model, store, handle) for store, (handle,) in zip(_stores(model), row))
    )


def _dasdbs_fetch_full(model, oid: int) -> NestedTuple:
    return _dasdbs_read_assembled(model, model.table.row(oid))


def _dasdbs_fetch_full_by_key(model, key: int) -> NestedTuple:
    """The root relation scanned with ``Key`` tested in place, as
    NSM+index does; only the match is decoded, by address."""
    relation, found = model.table.relations[0], False
    for _, blob in relation.heap.scan():
        if model.serializer.decode_atom(DNSM_STATION, blob, "Key") == key:
            found = True
    for address in model.table.long_handles(0):
        (blob,) = relation.long_store.read(address)
        if model.serializer.decode_atom(DNSM_STATION, blob, "Key") == key:
            found = True
    if not found:
        raise InvalidAddressError(f"no station with key {key}")
    return _dasdbs_read_assembled(model, model.table.row_of_key(key))


def _dasdbs_scan_all(model) -> list[NestedTuple]:
    longs = model.table.long_handles
    stations, platforms, connections, sights = (
        {row[key]: row for row in _dasdbs_scan(model, store, longs(index))}
        for index, (store, key) in enumerate(
            zip(_stores(model), ("Key", "RootKey", "RootKey", "RootKey"))
        )
    )
    return [
        assemble_dasdbs_nsm(st, platforms[key], connections[key], sights[key])
        for key, st in stations.items()
    ]


def _dasdbs_fetch_roots(model, refs) -> list[dict[str, Any]]:
    handles = [model.table.row(oid)[0][0] for oid in refs]
    return [root.atoms() for root in _dasdbs_read_many(model, _stores(model)[0], handles)]


def _dasdbs_fetch_refs_grouped(model, refs) -> list[list[int]]:
    """One batched read of the connection tuples; each one's OIDs
    collected by the walk of its groups."""
    handles = [model.table.row(oid)[2][0] for oid in refs]
    return [
        [
            item["OidConnection"]
            for group in tuple_._subs["ConnectionsOfPlatform"]
            for item in group._subs["ConnectionOfPlatform"]
        ]
        for tuple_ in _dasdbs_read_many(model, _stores(model)[2], handles)
    ]


def _unsupported(model, *_):
    raise model._not_supported("retrieval by OID (query 1a); NSM stores no identifiers")


def _ungrouped(model, *_):
    raise model._not_supported("grouped navigation")


_REFERENCE = {
    "NSM": {
        "fetch_full": _unsupported,
        "fetch_full_by_key": _nsm_fetch_full_by_key,
        "scan_all": _nsm_scan_all,
        "fetch_roots": _nsm_fetch_roots,
        "fetch_refs": _nsm_fetch_refs,
        "fetch_ref_pairs": _nsm_fetch_ref_pairs,
        "fetch_refs_grouped": _ungrouped,
    },
    "NSM+index": {
        "fetch_full": _nsm_index_fetch_full,
        "fetch_full_by_key": _nsm_index_fetch_full_by_key,
        "scan_all": _nsm_scan_all,
        "fetch_roots": _nsm_index_fetch_roots,
        "fetch_refs": _flattened(_nsm_index_fetch_refs_grouped),
        "fetch_refs_grouped": _nsm_index_fetch_refs_grouped,
    },
    "DASDBS-NSM": {
        "fetch_full": _dasdbs_fetch_full,
        "fetch_full_by_key": _dasdbs_fetch_full_by_key,
        "scan_all": _dasdbs_scan_all,
        "fetch_roots": _dasdbs_fetch_roots,
        "fetch_refs": _flattened(_dasdbs_fetch_refs_grouped),
        "fetch_refs_grouped": _dasdbs_fetch_refs_grouped,
    },
}


def reference(model: StorageModel, operation: str, *args):
    """``operation`` as the model ran it before its assembly was compiled;
    ``scan_all`` returns the objects it assembles, not their count."""
    return _REFERENCE[model.name][operation](model, *args)
