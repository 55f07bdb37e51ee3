"""Differential oracle for the NSM family's compiled assembly.

NSM, NSM+index and DASDBS-NSM reassemble objects through code that
``nf2/codec.py`` generates from their ``Part`` declarations
(``compiled_assembly``).  The specification is the assembly it replaced,
kept in ``tests/models/reference_assembly.py``.  Every test here runs
one operation on two twin models — one through the model, one through
the reference — and requires equal results, an equal
:class:`MetricsSnapshot` after every operation, the nested schema (by
identity) and its attribute order at every level of every object, and
no list or dict shared between two fetched objects.  That holds in every
state a model can be in, and for corrupt stored bytes, which must raise
:class:`SerializationError` at the same point on both twins.

Every object is fetched by reference, navigated from (``_navigations``)
and scanned in every state.  A lookup by key costs a scan of the root
relation first (of all four on plain NSM: 8 ms at 300 objects), so
``fetch_full_by_key`` samples the extension outside the fresh state
(``_point_reads``).
"""

from __future__ import annotations

import struct

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import STATION_SCHEMA, key_of_oid
from repro.benchmark.snapshots import SnapshotStore
from repro.errors import InvalidAddressError, SchemaError, SerializationError
from repro.models.dasdbs_nsm import DNSM_PARTS
from repro.models.nsm import NSM_PARTS
from repro.nf2.codec import compiled_assembly
from repro.nf2.oid import Rid
from repro.nf2.schema import Part, RelationSchema, int_attr, str_attr
from repro.nf2.serializer import DASDBS_FORMAT, StorageFormat
from repro.nf2.values import NestedTuple
from tests.conftest import build_loaded_model
from tests.models.reference_assembly import reference

NAMES = ("NSM", "NSM+index", "DASDBS-NSM")
CONFIG = BenchmarkConfig(n_objects=300, buffer_pages=400, seed=1993)
UPDATED_OIDS = (2, 11, 30, 299)
CHANGES = {"Name": "renamed", "NoSeeing": 99}
DELETED_OIDS = (0, 7, 150)


@pytest.fixture(scope="module")
def stations():
    return generate_stations(CONFIG)


def _fresh(name, stations):
    return build_loaded_model(name, stations, CONFIG.buffer_pages)


def _updated(name, stations):
    model = _fresh(name, stations)
    model.update_roots([model.ref_of(oid) for oid in UPDATED_OIDS], CHANGES)
    return model


def _reclustered(name, stations):
    model = _fresh(name, stations)
    model.recluster(list(reversed(range(len(stations)))))
    return model


def _cloned(name, stations):
    store = SnapshotStore()
    return store.clone(store.get(CONFIG, name, lambda: stations), CONFIG)


def _deleted(name, stations):
    model = _fresh(name, stations)
    for oid in DELETED_OIDS:
        model.delete_object(model.ref_of(oid))
    return model


STATES = {
    "fresh": _fresh,
    "updated": _updated,
    "reclustered": _reclustered,
    "snapshot-clone": _cloned,
    "after-delete": _deleted,
}


@pytest.fixture
def twins():
    """``make(name, state)`` -> (model, reference twin); closed after."""
    made = []

    def make(name, state, stations):
        pair = tuple(STATES[state](name, stations) for _ in range(2))
        made.extend(pair)
        return pair

    yield make
    for model in made:
        model.engine.close()


def assert_nested(value: NestedTuple, schema: RelationSchema) -> None:
    """``value`` is labelled with ``schema`` itself, atoms in its order."""
    assert value.schema is schema
    assert list(value._atoms) == [attr.name for attr in schema.attributes]
    assert list(value._subs) == [sub.name for sub in schema.subrelations]
    for sub in schema.subrelations:
        for child in value._subs[sub.name]:
            assert_nested(child, sub)


def containers(value: NestedTuple):
    """Every mutable container inside ``value``."""
    yield value._atoms
    yield value._subs
    for children in value._subs.values():
        yield children
        for child in children:
            yield from containers(child)


def assert_unshared(objects) -> None:
    seen = [id(box) for value in objects for box in containers(value)]
    assert len(seen) == len(set(seen))


def run_both(pair, operation, *args):
    """``operation`` on the model and the reference on its twin: the
    result, or the error type, and the counters after must agree."""
    model, twin = pair
    outcomes = []
    for side in (
        lambda: getattr(model, operation)(*args),
        lambda: reference(twin, operation, *args),
    ):
        try:
            outcomes.append(side())
        except Exception as exc:  # compared, not swallowed
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
    assert model.engine.metrics.snapshot() == twin.engine.metrics.snapshot()
    return outcomes[0]


def _point_reads(model, state: str):
    """(operation, argument) of every single-object read the oracle runs.

    ``fetch_full`` reads every object.  ``fetch_full_by_key`` scans the
    root relation and then runs the same compiled decoders, so it reads
    every object in the fresh state and every tenth in the others; plain
    NSM, whose lookup scans all four relations, every tenth and every
    thirtieth.
    """
    stride = (1 if state == "fresh" else 10) * (10 if model.name == "NSM" else 1)
    stride = min(stride, 30)
    for oid in model.table.live_oids():
        if model.supports_oid_access:
            yield "fetch_full", model.ref_of(oid)
        if oid % stride == 0:
            yield "fetch_full_by_key", key_of_oid(oid)


@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("name", NAMES)
def test_every_path_equals_the_reference(twins, stations, name, state):
    model, twin = pair = twins(name, state, stations)
    fetched = []
    for operation, argument in _point_reads(model, state):
        got = run_both(pair, operation, argument)
        assert_nested(got, STATION_SCHEMA)
        fetched.append(got)
    assert fetched
    # A deleted object is refused by every path, counters alike.
    for oid in DELETED_OIDS if state == "after-delete" else ():
        assert run_both(pair, "fetch_full_by_key", key_of_oid(oid)) is InvalidAddressError
        if model.supports_oid_access:
            assert run_both(pair, "fetch_full", model.ref_of(oid)) is InvalidAddressError

    scanned = list(model._scan_objects())
    assert scanned == reference(twin, "scan_all")
    assert model.engine.metrics.snapshot() == twin.engine.metrics.snapshot()
    assert len(scanned) == len(model.table.live_oids())
    for station in scanned:
        assert_nested(station, STATION_SCHEMA)
    assert_unshared(fetched + scanned)
    # The public operation is the same scan, counted.
    assert model.scan_all() == len(reference(twin, "scan_all"))
    assert model.engine.metrics.snapshot() == twin.engine.metrics.snapshot()


#: Keys no object of the extension carries (NSM+index skips them).
UNKNOWN_KEYS = (key_of_oid(10_000), -1)


def _navigations(model, state: str):
    """(operation, refs) of every navigation call the oracle runs.

    The addressed models navigate from every live object, five per
    call, flattened and grouped, plus calls that repeat a ref and an
    empty one.  Plain NSM scans its connection relation per call, so it
    navigates from every thirtieth object, by pairs and flattened, and
    is refused grouped navigation.  A deleted object stays in the calls
    after a delete: NSM+index skips its key like an unknown one,
    DASDBS-NSM refuses its OID.
    """
    refs = [model.ref_of(oid) for oid in model.table.live_oids()]
    if state == "after-delete":
        refs += [model.ref_of(oid) for oid in DELETED_OIDS]
    if model.name == "NSM":
        batches = [refs[start : start + 5] for start in range(0, len(refs), 30 * 5)]
        operations = ("fetch_refs", "fetch_ref_pairs", "fetch_refs_grouped")
    else:
        batches = [refs[start : start + 5] for start in range(0, len(refs), 5)]
        operations = ("fetch_refs", "fetch_refs_grouped")
    batches += [[refs[1], refs[3], refs[1]], []]
    if model.name == "NSM+index":
        batches += [[*UNKNOWN_KEYS], [refs[2], UNKNOWN_KEYS[0], refs[4]]]
    for batch in batches:
        for operation in operations:
            yield operation, batch


@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("name", NAMES)
def test_navigation_equals_the_reference(twins, stations, name, state):
    pair = twins(name, state, stations)
    navigated = 0
    for operation, refs in _navigations(pair[0], state):
        got = run_both(pair, operation, refs)
        navigated += isinstance(got, list) and any(got)
    assert navigated


@pytest.mark.parametrize("name", NAMES)
def test_fetch_roots_returns_fresh_dicts(twins, stations, name):
    pair = twins(name, "updated", stations)
    refs = [pair[0].ref_of(oid) for oid in (*UPDATED_OIDS, 5, 5)]
    first = run_both(pair, "fetch_roots", refs)
    second = run_both(pair, "fetch_roots", refs)
    assert first == second and len(first) == len(refs) - (name == "NSM")
    assert len({id(atoms) for atoms in first + second}) == len(first + second)
    assert run_both(pair, "fetch_roots", []) == []


# -- corrupt stored bytes ---------------------------------------------------------------


def _truncated(blob: bytes, stored) -> bytes:
    return blob[: len(blob) // 2]


def _bad_utf8(blob: bytes, stored) -> bytes:
    """The first byte of the first string value replaced by 0xFF."""
    value = next(
        atom
        for tuple_ in (stored, *stored.walk_subtuples())
        for atom in tuple_._atoms.values()
        if isinstance(atom, str) and atom
    )
    at = blob.find(value.encode())
    assert at >= 0
    return blob[:at] + b"\xff" + blob[at + 1 :]


def _count_past_the_buffer(blob: bytes, stored) -> bytes:
    out = bytearray(blob)
    struct.pack_into("<I", out, DASDBS_FORMAT.flat_size(stored.schema), 0x7FFF_FFFF)
    return bytes(out)


CORRUPTIONS = {
    "truncated": _truncated,
    "bad-utf8": _bad_utf8,
    "count-past-the-buffer": _count_past_the_buffer,
}


def _stored(model, index: int, blob) -> NestedTuple:
    return model.serializer.decode_nested(model.parts[index].stored, blob)


def corrupt(model, oid: int, index: int, kind: str) -> None:
    """Rewrite the object's first record in relation ``index``."""
    relation = model.table.relations[index]
    handle = model.table.rows[oid][index][0]
    if type(handle) is Rid:
        blob = bytes(relation.heap.read(handle))
        relation.heap.update(handle, CORRUPTIONS[kind](blob, _stored(model, index, blob)))
    else:
        (blob,) = relation.long_store.read(handle)
        relation.long_store.replace(handle, [CORRUPTIONS[kind](blob, _stored(model, index, blob))])


def _victim(model, stations, index: int, kind: str) -> int:
    """An object whose record in relation ``index`` can take ``kind``:
    it has connections and sightseeings, and a record to be truncated
    sits on a heap page (a long record's size is fixed).  Chosen from
    the generated extension and the table, without a page fix."""
    for oid, station in enumerate(stations):
        has_all = station.subtuples("Sightseeing") and any(
            platform.subtuples("Connection") for platform in station.subtuples("Platform")
        )
        if has_all and (kind != "truncated" or type(model.table.rows[oid][index][0]) is Rid):
            return oid
    raise AssertionError("no object fits")  # pragma: no cover


CASES = [
    (name, kind, index)
    for name in NAMES
    for kind in CORRUPTIONS
    for index in range(4)
    # a flat row has no sub-relation count; the root has none anywhere
    if kind != "count-past-the-buffer" or (name == "DASDBS-NSM" and index > 0)
]


@pytest.mark.parametrize("name,kind,index", CASES)
def test_corrupt_bytes_raise_where_the_reference_does(twins, stations, name, kind, index):
    pair = twins(name, "fresh", stations)
    oid = _victim(pair[0], stations, index, kind)
    for model in pair:
        corrupt(model, oid, index, kind)
        model.engine.reset_metrics()
    operations = [("fetch_full_by_key", key_of_oid(oid)), ("scan_all",)]
    if pair[0].supports_oid_access:
        operations.insert(0, ("fetch_full", pair[0].ref_of(oid)))
    for operation, *args in operations:
        assert run_both(pair, operation, *args) is SerializationError


# -- the compile-time proof ----------------------------------------------------------------


class TestCompileTimeProof:
    """The proof ``require_projection`` gave at import runs when an
    assembly is compiled, and refuses parts that do not reassemble."""

    def test_both_layouts_compile_once_per_format(self):
        for parts in (NSM_PARTS, DNSM_PARTS):
            assert compiled_assembly(DASDBS_FORMAT, parts) is compiled_assembly(DASDBS_FORMAT, parts)
        other = StorageFormat(tuple_header=30)
        assert compiled_assembly(other, NSM_PARTS) is not compiled_assembly(DASDBS_FORMAT, NSM_PARTS)

    @pytest.mark.parametrize(
        "broken",
        [
            # a value column declared a key: the rest is not the nested tuple
            lambda parts: (
                *parts[:2],
                Part(parts[2].stored, parts[2].target, "RootKey", parent_key="LineNr"),
                parts[3],
            ),
            # a platform part without the own key its connections point to
            lambda parts: (parts[0], Part(parts[1].stored, parts[1].target, "RootKey"), *parts[2:]),
            # a key column the stored relation does not have
            lambda parts: (
                parts[0],
                Part(parts[1].stored, parts[1].target, "RootKey", own_key="NoSuchKey"),
                *parts[2:],
            ),
            # a connection part that does not say which platform it belongs to
            lambda parts: (*parts[:2], Part(parts[2].stored, parts[2].target, "RootKey"), parts[3]),
            # parts out of walk order
            lambda parts: (parts[0], parts[3], parts[2], parts[1]),
            # a relation without a part
            lambda parts: parts[:3],
            # a root key stored on no level
            lambda parts: (Part(parts[0].stored, parts[0].target, "RootKey"), *parts[1:]),
        ],
    )
    @pytest.mark.parametrize("parts", [NSM_PARTS, DNSM_PARTS], ids=["NSM", "DASDBS-NSM"])
    def test_refuses_parts_that_do_not_reassemble(self, parts, broken):
        with pytest.raises(SchemaError):
            compiled_assembly(DASDBS_FORMAT, broken(parts))

    def test_refuses_a_resized_attribute(self):
        sights = NSM_PARTS[3].stored
        resized = RelationSchema.flat(sights.name, *sights.attributes[:-1], str_attr("Remarks", 64))
        with pytest.raises(SchemaError, match="expects"):
            compiled_assembly(
                DASDBS_FORMAT,
                (*NSM_PARTS[:3], Part(resized, NSM_PARTS[3].target, "RootKey")),
            )

    def test_refuses_a_level_that_stores_more_than_keys(self):
        platform = DNSM_PARTS[1].stored
        widened = RelationSchema(
            platform.name, (*platform.attributes, int_attr("Extra")), platform.subrelations
        )
        with pytest.raises(SchemaError, match="beside key columns"):
            compiled_assembly(
                DASDBS_FORMAT,
                (DNSM_PARTS[0], Part(widened, DNSM_PARTS[1].target, "RootKey", "OwnKey"), *DNSM_PARTS[2:]),
            )
