"""The address-table kernel and everything the models delegate to it.

* unit tests of :class:`~repro.models.addressing.AddressTable` over
  hand-built relations (remap, scan units, captured state, the one
  checked lookup);
* out-of-range OIDs on every model that addresses objects;
* the lifecycle × reorganisation matrix on all five models;
* the fidelity guard: plain NSM never *reads* its table;
* the structure guard: the cross-cutting operations exist once.
"""

from __future__ import annotations

import ast
import pickle
import random
from pathlib import Path

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.schema import key_of_oid
from repro.errors import (
    InvalidAddressError,
    ModelError,
    SimulatedCrash,
    UnsupportedOperationError,
)
from repro.fault.backend import FaultyBackend
from repro.fault.plan import FaultPlan
from repro.models import addressing
from repro.models.addressing import AddressTable, Relation
from repro.models.base import AddressedModel, StorageModel
from repro.models.dasdbs_dsm import DASDBSDSMModel
from repro.models.dasdbs_nsm import DASDBSNSMModel
from repro.models.dsm import DSMModel
from repro.models.nsm import NSMIndexModel, NSMModel, NSMModelBase
from repro.models.registry import MODEL_CLASSES, create_model
from repro.nf2.oid import Rid
from repro.nf2.serializer import DASDBS_FORMAT
from repro.storage import StorageEngine
from repro.storage.backends import MemoryBackend
from repro.storage.longobj import LongObjectAddress
from tests.conftest import build_loaded_model
from tests.sharding.conftest import disk_digest

ALL_MODELS = tuple(MODEL_CLASSES)

#: A mixed small/long extension: DSM stores 36 objects on shared pages
#: and 24 as long objects, DASDBS-NSM 49 + 11 Sightseeing tuples.
MIXED = BenchmarkConfig(n_objects=60, max_sightseeing=5, probability=0.5, buffer_pages=64)


@pytest.fixture(scope="module")
def stations():
    return generate_stations(MIXED)


@pytest.fixture(scope="module")
def extra_stations():
    """Objects generated outside the extension, keyed past its end."""
    donors = generate_stations(MIXED.with_changes(n_objects=70, seed=MIXED.seed + 1))
    return [
        donors[60 + i].replace_atoms(Key=key_of_oid(60 + i)) for i in range(3)
    ]


# -- the kernel on hand-built relations ------------------------------------------


class _HandBuilt:
    """Two relations (one mixed, one heap-only) with known records.

    Object ``oid`` owns, in relation 0, one record — long for every
    fifth OID — and in relation 1 ``oid % 3`` heap records.
    """

    N = 40

    def __init__(self) -> None:
        self.engine = StorageEngine(buffer_pages=64)
        self.mixed = Relation(self.engine, "Mixed", DASDBS_FORMAT)
        self.flat = Relation(self.engine, "Flat")
        self.table = AddressTable([self.mixed, self.flat])
        for oid in range(self.N):
            if oid % 5 == 0:
                first = self.mixed.long_store.store([self.blob(oid, 0) * 40], 1)
            else:
                first = self.mixed.heap.insert(self.blob(oid, 0))
            rest = tuple(
                self.flat.heap.insert(self.blob(oid, 1 + i)) for i in range(oid % 3)
            )
            assert self.table.add(1000 + oid, ((first,), rest)) == oid

    @staticmethod
    def blob(oid: int, part: int) -> bytes:
        return bytes([oid, part]) * 60

    def contents(self) -> list[list[bytes]]:
        """Every live object's records, read through the table."""
        out = []
        for oid in self.table.live_oids():
            first, rest = self.table.row(oid)
            handle = first[0]
            if type(handle) is Rid:
                records = [bytes(self.mixed.heap.read(handle))]
            else:
                records = [bytes(self.mixed.long_store.read(handle)[0][:120])]
            records += [bytes(self.flat.heap.read(rid)) for rid in rest]
            out.append(records)
        return out

    def expected(self, oids) -> list[list[bytes]]:
        return [
            [self.blob(oid, 0)] + [self.blob(oid, 1 + i) for i in range(oid % 3)]
            for oid in oids
        ]


@pytest.fixture
def built() -> _HandBuilt:
    return _HandBuilt()


class TestCheckedLookup:
    def test_row_refuses_out_of_range_and_deleted(self, built):
        for oid in (-1, -built.N, built.N, built.N + 7):
            with pytest.raises(InvalidAddressError):
                built.table.row(oid)
        built.table.delete(3)
        with pytest.raises(InvalidAddressError):
            built.table.row(3)
        with pytest.raises(InvalidAddressError):
            built.table.delete(3)

    def test_key_lookups(self, built):
        assert built.table.oid_of_key(1007) == 7
        assert built.table.row_of_key(1007) is built.table.row(7)
        assert built.table.find(999) is None
        with pytest.raises(InvalidAddressError):
            built.table.row_of_key(999)
        built.table.delete(7)
        assert built.table.find(1007) is None
        with pytest.raises(InvalidAddressError):
            built.table.oid_of_key(1007)

    def test_delete_removes_records_and_frees_long_pages(self, built):
        long_pages = built.mixed.long_store.segment.n_pages
        records = built.flat.heap.count_records()
        built.table.delete(5)  # a long first record, 5 % 3 == 2 flat records
        assert built.mixed.long_store.segment.n_pages < long_pages
        assert built.flat.heap.count_records() == records - 2
        assert 5 not in built.table.live_oids()
        assert 1005 not in built.table.live_keys()
        assert built.contents() == built.expected(built.table.live_oids())

    def test_forget_tombstones_without_touching_records(self, built):
        records = built.flat.heap.count_records()
        built.table.forget(1004)
        assert built.flat.heap.count_records() == records
        assert 4 not in built.table.live_oids()
        with pytest.raises(InvalidAddressError):
            built.table.forget(1004)


class TestRemap:
    def test_partial_and_repeated_remap(self, built):
        before = built.contents()
        moved = [built.table.row(oid)[1][0] for oid in (4, 7, 10)]
        forwarding = built.flat.heap.move_records(moved, 1)
        assert forwarding and set(forwarding) <= set(moved)
        built.table.remap([{}, forwarding])
        after_once = list(built.table.rows)
        assert built.contents() == before
        built.table.remap([{}, forwarding])  # recovery replays a live remap
        assert built.table.rows == after_once
        built.table.remap([{}, {}])
        assert built.table.rows == after_once

    def test_long_handles_never_move(self, built):
        longs = built.table.long_handles(0)
        assert len(longs) == built.N // 5
        order = list(range(built.N))
        random.Random(5).shuffle(order)
        built.table.recluster(order)
        assert built.table.long_handles(0) == longs
        built.table.move([1, 2, 5, 10], 2)
        assert built.table.long_handles(0) == longs
        assert built.contents() == built.expected(range(built.N))

    def test_recluster_orders_records_by_object(self, built):
        order = list(reversed(range(built.N)))
        built.table.recluster(order)
        scanned = [bytes(blob)[0] for _, blob in built.flat.heap.scan()]
        assert scanned == [oid for oid in order for _ in range(oid % 3)]

    def test_move_is_bounded_and_skips_unknown_oids(self, built):
        assert built.table.move([], 4) == 0
        assert built.table.move([1, 2], 0) == 0
        built.table.delete(8)
        pages = built.table.move([-1, 8, 2, 2, built.N, 11, 14], 1)
        assert 1 <= pages <= 2  # at most one fresh page per heap
        assert built.contents() == built.expected(built.table.live_oids())


class TestScanUnits:
    @pytest.mark.parametrize("n_owners", [1, 2, 3])
    def test_units_partition_pages_and_long_records(self, built, n_owners):
        built.table.delete(6)
        units = [
            built.table.scan_units(
                lambda oid, owner=owner: oid % n_owners == owner,
                take_orphans=owner == 0,
            )
            for owner in range(n_owners)
        ]
        for index, relation in enumerate(built.table.relations):
            pages = [page for unit in units for page in unit[index][0]]
            assert sorted(pages) == sorted(relation.heap.segment.page_ids)
            longs = [address for unit in units for address in unit[index][1]]
            assert sorted(longs, key=lambda a: a.root_page_id) == sorted(
                built.table.long_handles(index), key=lambda a: a.root_page_id
            )

    def test_first_record_decides_the_owner(self, built):
        (pages, _), _ = built.table.scan_units(lambda oid: oid == 1)
        assert pages == [built.table.row(1)[0][0].page_id]

    def test_orphan_pages_only_with_take_orphans(self, built):
        page = built.flat.heap.segment.page_ids[0]
        on_page = [
            oid
            for oid in built.table.live_oids()
            if any(rid.page_id == page for rid in built.table.row(oid)[1])
        ]
        for oid in on_page:
            built.table.delete(oid)
        everyone = lambda oid: True  # noqa: E731
        assert page not in built.table.scan_units(everyone)[1][0]
        assert page in built.table.scan_units(everyone, take_orphans=True)[1][0]


class TestCapturedState:
    def test_state_is_isolated_and_pickles(self, built):
        state = built.table.capture_state()
        frozen = pickle.dumps(state)
        built.table.recluster(list(reversed(range(built.N))))
        built.table.delete(9)
        built.table.add(5000, ((built.mixed.heap.insert(b"x" * 10),), ()))
        assert pickle.dumps(state) == frozen
        assert pickle.loads(frozen) == state

    def test_restore_adopts_rows_keys_and_segments(self, built):
        built.table.delete(2)
        built.engine.flush()
        image = built.engine.snapshot()
        state = pickle.loads(pickle.dumps(built.table.capture_state()))

        engine = StorageEngine(buffer_pages=64)
        engine.disk.restore(image)
        clone = AddressTable(
            [Relation(engine, "Mixed", DASDBS_FORMAT), Relation(engine, "Flat")]
        )
        clone.restore_state(state)
        assert clone.rows == built.table.rows
        assert clone.live_keys() == built.table.live_keys()
        assert clone.relation_pages() == built.table.relation_pages()
        clone.delete(3)  # the clone's bookkeeping is its own
        assert 3 in built.table.live_oids()

    def test_one_page_count_per_relation(self, built):
        mixed, flat = built.table.relations
        assert mixed.long_store.segment.n_pages > 0
        assert built.table.relation_pages() == {
            "Mixed": mixed.heap.n_pages + mixed.long_store.segment.n_pages,
            "Flat": flat.heap.n_pages,
        }


# -- out-of-range OIDs ---------------------------------------------------------------


def _disk_digest(model) -> str:
    return disk_digest(model.engine)


#: Each takes a list of OIDs; a single-object path is given the last.
OID_OPERATIONS = {
    "fetch_full": lambda model, oids: model.fetch_full(oids[-1]),
    "fetch_roots": lambda model, oids: model.fetch_roots(oids),
    "fetch_refs": lambda model, oids: model.fetch_refs(oids),
    "update_roots": lambda model, oids: model.update_roots(oids, {"Name": "aliased"}),
    "delete_object": lambda model, oids: model.delete_object(oids[-1]),
}

#: The object deleted before the refusals: a live ref ahead of it in a
#: list must not be touched either.
DELETED = 5


def _dirty_pages(model) -> set[int]:
    return {pid for pid, frame in model.engine.buffer._frames.items() if frame.dirty}


class TestOutOfRangeOids:
    """A negative OID used to index the handle list from its end:
    ``delete_object(-1)`` deleted object *n - 1*."""

    @pytest.mark.parametrize("operation", sorted(OID_OPERATIONS))
    @pytest.mark.parametrize("name", ["DSM", "DASDBS-DSM", "DASDBS-NSM"])
    def test_oid_addressed_models_refuse(self, name, operation, stations):
        """Every ref is resolved before the first page is fixed, so a
        live ref ahead of a refused one is left as it was: nothing
        dirtied in the buffer or written through to disk."""
        model = build_loaded_model(name, stations)
        model.delete_object(DELETED)
        digest, refs = _disk_digest(model), model.all_refs()
        root = model.fetch_roots([1])
        n = model.n_objects
        for oids in ([-1], [-n], [n], [1, DELETED], [1, n]):
            with pytest.raises(InvalidAddressError):
                OID_OPERATIONS[operation](model, oids)
            assert _dirty_pages(model) == set(), oids
            assert model.all_refs() == refs
            assert _disk_digest(model) == digest, oids
            assert model.fetch_roots([1]) == root
        assert model.fetch_full(n - 1) == stations[n - 1]

    @pytest.mark.parametrize("operation", sorted(OID_OPERATIONS))
    def test_nsm_index_treats_them_as_unknown_keys(self, operation, stations):
        """Its references are keys: single-object paths raise, the
        set-oriented ones skip keys no object carries."""
        model = build_loaded_model("NSM+index", stations)
        digest, refs = _disk_digest(model), model.all_refs()
        n = model.n_objects
        for oid in (-1, -n, n):
            if operation in ("fetch_full", "delete_object"):
                with pytest.raises(InvalidAddressError):
                    OID_OPERATIONS[operation](model, [oid])
            else:
                assert not OID_OPERATIONS[operation](model, [oid])
        assert model.all_refs() == refs
        assert _disk_digest(model) == digest

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_duplicate_live_key_is_refused(self, name, stations):
        model = build_loaded_model(name, stations)
        digest = _disk_digest(model)
        with pytest.raises(ModelError):
            model.insert_object(stations[4])
        assert model.n_objects == len(stations)
        assert _disk_digest(model) == digest

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_load_refuses_a_repeated_key_before_writing(self, name, stations):
        model = create_model(name, StorageEngine(buffer_pages=8))
        with pytest.raises(ModelError):
            model.load([*stations[:5], stations[2]])
        assert model.n_objects == 0 and model.total_pages() == 0
        model.load(stations[:5])
        assert len(model.all_refs()) == 5


# -- lifecycle × reorganisation, all five models ----------------------------------------


def _build(name, stations, crash_at=None):
    """A loaded model; over a journaled fault-wrapped backend when a
    crash point is given (``-1``: journaled, never crashing)."""
    if crash_at is None:
        return build_loaded_model(name, stations, MIXED.buffer_pages), None
    plan = FaultPlan(seed=11, crash_at=None if crash_at < 0 else crash_at)
    engine = StorageEngine(
        page_size=MIXED.page_size,
        buffer_pages=MIXED.buffer_pages,
        backend=FaultyBackend(MemoryBackend(MIXED.page_size), plan),
    )
    engine.enable_journaling()
    engine.enable_checksums()
    model = create_model(name, engine)
    model.load(stations)
    return model, plan


def _delete(model, expected, extras):
    for oid in (3, 17, 18, 41):
        model.delete_object(model.ref_of(oid))
        del expected[key_of_oid(oid)]


def _insert(model, expected, extras):
    for station in extras:
        model.insert_object(station)
        expected[station["Key"]] = station


def _delete_then_insert(model, expected, extras):
    _delete(model, expected, extras)
    _insert(model, expected, extras[:2])
    # A deleted key comes back under a new OID.
    returning = extras[2].replace_atoms(Key=key_of_oid(17))
    model.insert_object(returning)
    expected[returning["Key"]] = returning


LIFECYCLES = {
    "delete": _delete,
    "insert": _insert,
    "delete-then-insert": _delete_then_insert,
}


def _shuffled_oids(model, seed):
    order = list(range(model.n_objects))
    random.Random(seed).shuffle(order)
    return order


def _recluster(model):
    model.recluster(_shuffled_oids(model, 23))
    return model


def _move_twice(model):
    order = _shuffled_oids(model, 29)
    model.move_objects(order[:12], 2)
    model.move_objects(order[8:30] + [-1, model.n_objects], 3)
    return model


def _snapshot_clone(model):
    model.engine.flush()
    image = model.engine.snapshot()
    state = pickle.loads(pickle.dumps(model.capture_state()))
    engine = StorageEngine(page_size=MIXED.page_size, buffer_pages=MIXED.buffer_pages)
    engine.disk.restore(image)
    clone = create_model(model.name, engine)
    clone.restore_state(state)
    return clone


REORGANISATIONS = {
    "recluster": _recluster,
    "move-twice": _move_twice,
    "snapshot-clone": _snapshot_clone,
}


def _cold(model, operation):
    """(result, page fixes) of ``operation`` on a cold buffer."""
    model.engine.restart_buffer()
    model.engine.reset_metrics()
    result = operation()
    return result, model.engine.metrics.snapshot().page_fixes


def _check(model, expected, sample_keys):
    """Every survivor is the generated object, by key and by ref; refs,
    scans and the sharded scan partitions agree."""
    refs = model.all_refs()
    assert len(refs) == len(set(refs)) == len(expected)
    keys_by_ref = {}
    for ref in refs:
        (root,) = model.fetch_roots([ref])
        station = expected[root["Key"]]
        assert root == station.atoms()
        keys_by_ref[ref] = root["Key"]
        if model.supports_oid_access:
            assert model.fetch_full(ref) == station
    assert set(keys_by_ref.values()) == set(expected)
    if model.ref_of(0) != 0:  # the NSM family's references are keys
        assert all(ref == key for ref, key in keys_by_ref.items())
    for key in sample_keys:
        if key in expected:
            assert model.fetch_full_by_key(key) == expected[key]
        else:
            with pytest.raises(InvalidAddressError):
                model.fetch_full_by_key(key)

    full = _cold(model, model.scan_all)
    assert full[0] == len(expected)
    for n_shards in (1, 2, 3):
        count = fixes = 0
        for shard in range(n_shards):
            model.prepare_scan_partition(
                lambda oid, shard=shard: oid % n_shards == shard,
                take_orphans=shard == 0,
            )
            part = _cold(model, model.scan_partition)
            count += part[0]
            fixes += part[1]
        assert (count, fixes) == full, n_shards


#: Keys fetched by value after every cell: deleted ones, their
#: neighbours, a long and a short object, the returning key, inserts.
SAMPLE_KEYS = [key_of_oid(oid) for oid in (0, 3, 4, 17, 18, 19, 41, 59, 60, 61, 62)]


@pytest.mark.parametrize("reorganisation", sorted(REORGANISATIONS))
@pytest.mark.parametrize("lifecycle", sorted(LIFECYCLES))
@pytest.mark.parametrize("name", ALL_MODELS)
def test_lifecycle_then_reorganisation(
    name, lifecycle, reorganisation, stations, extra_stations
):
    model, _ = _build(name, stations)
    expected = {station["Key"]: station for station in stations}
    LIFECYCLES[lifecycle](model, expected, extra_stations)
    model = REORGANISATIONS[reorganisation](model)
    _check(model, expected, SAMPLE_KEYS)


@pytest.mark.parametrize("lifecycle", sorted(LIFECYCLES))
@pytest.mark.parametrize("name", ALL_MODELS)
def test_lifecycle_then_crashed_recluster(name, lifecycle, stations, extra_stations):
    """Journaled crash in the middle of ``recluster`` + ``recover()`` +
    ``apply_recovery``: all-or-nothing per heap, every address valid."""

    def run(crash_at):
        model, plan = _build(name, stations, crash_at)
        expected = {station["Key"]: station for station in stations}
        LIFECYCLES[lifecycle](model, expected, extra_stations)
        model.engine.flush()
        plan.arm()
        try:
            model.recluster(_shuffled_oids(model, 23))
            plan.disarm()
        except SimulatedCrash:
            model.apply_recovery(model.engine.recover())
        return model, plan, expected

    _, plan, _ = run(-1)
    assert plan.ops_seen > 4
    model, plan, expected = run(plan.ops_seen // 2)
    assert plan.crashes == 1
    _check(model, expected, SAMPLE_KEYS)


# -- fidelity guard: plain NSM never reads its table --------------------------------------


class _WriteOnlyTable:
    """Stands in for plain NSM's table: the one bookkeeping write of a
    delete (``forget``) is forwarded, any other access raises."""

    def __init__(self, table: AddressTable) -> None:
        self._table = table

    def forget(self, key: int) -> None:
        self._table.forget(key)

    def __getattr__(self, name: str):
        raise AssertionError(f"plain NSM touched its address table: {name}")


def test_plain_nsm_never_reads_its_table(stations):
    plain = build_loaded_model("NSM", stations)
    guarded = build_loaded_model("NSM", stations)
    guarded.table = _WriteOnlyTable(guarded.table)
    refs = [key_of_oid(oid) for oid in (2, 9, 9, 31)]

    def fetch_full(model):
        with pytest.raises(UnsupportedOperationError):
            model.fetch_full(refs[0])

    def fetch_refs_grouped(model):
        with pytest.raises(UnsupportedOperationError):
            model.fetch_refs_grouped(refs)

    def delete_twice(model):
        model.delete_object(refs[1])
        with pytest.raises(InvalidAddressError):
            model.delete_object(refs[1])
        with pytest.raises(InvalidAddressError):
            model.fetch_full_by_key(refs[1])

    operations = [
        fetch_full,
        lambda model: model.fetch_full_by_key(refs[0]),
        lambda model: model.scan_all(),
        lambda model: model.fetch_refs(refs),
        lambda model: model.fetch_ref_pairs(refs),
        fetch_refs_grouped,
        lambda model: model.fetch_roots(refs),
        lambda model: model.update_roots(refs, {"Name": "guarded"}),
        lambda model: model.fetch_roots(refs),
        delete_twice,
        lambda model: model.scan_all(),
        lambda model: [model.ref_of(oid) for oid in (0, 59)] + [model.oid_of(refs[0])],
    ]
    for operation in operations:
        results = []
        for model in (plain, guarded):
            model.engine.restart_buffer()
            model.engine.reset_metrics()
            results.append((operation(model), model.engine.metrics.snapshot()))
        assert results[0] == results[1]
    assert _disk_digest(plain) == _disk_digest(guarded)
    with pytest.raises(AssertionError):
        guarded.all_refs()


# -- structure guard: the cross-cutting operations exist once -----------------------------

KERNEL_ONLY = (
    "load",
    "insert_object",
    "all_refs",
    "recluster",
    "apply_recovery",
    "capture_state",
    "restore_state",
    "prepare_scan_partition",
    "scan_partition",
    "relation_pages",
    "total_pages",
)


def _model_classes() -> set[type]:
    return {
        base
        for cls in MODEL_CLASSES.values()
        for base in cls.__mro__
        if issubclass(base, StorageModel) and base is not StorageModel
    }


def _defined(cls: type) -> set[str]:
    return {name for name, value in vars(cls).items() if callable(value)}


#: The primitives the executors call, which the e2e tracer spans.
PRIMITIVES = (
    "fetch_full",
    "fetch_full_by_key",
    "fetch_roots",
    "fetch_refs",
    "scan_all",
    "update_roots",
)

#: The access paths by address (Section 3.4's transformation table,
#: Table 3's NSM+index row, the direct models' OIDs).
ADDRESSED = (
    "fetch_full",
    "fetch_full_by_key",
    "scan_all",
    "fetch_refs",
    "fetch_refs_grouped",
    "fetch_roots",
    "update_roots",
)

#: The four models that address objects, and so run the paths above.
ADDRESSED_MODELS = (DSMModel, DASDBSDSMModel, NSMIndexModel, DASDBSNSMModel)

#: All plain NSM may define: its seam of the navigation reads, the
#: two refusals, query 1b over every relation, the pairs the sharded
#: facade merges, and updates, delete and move by value.
PLAIN_NSM = (
    "_records",
    "fetch_full",
    "fetch_full_by_key",
    "fetch_ref_pairs",
    "fetch_refs_grouped",
    "update_roots",
    "delete_object",
    "move_objects",
)


def _scan_calls(tree: ast.AST) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "scan"
    ]


def test_cross_cutting_operations_are_defined_once(monkeypatch, stations):
    """A model declares its layout and how its accesses transfer data;
    everything else is ``StorageModel`` over the table and
    ``AddressedModel`` over the declarations.  The exceptions are the
    NSM models', and each is explicit: references are keys
    (``NSMModelBase``: ``all_refs``, two lookups and the decode of a
    flat connection row; NSM+index's delete translating its key before
    calling ``super()``), plain NSM's seam selecting by value, query 1b,
    documented no-op move and value-based update and delete, whose only
    use of the table is the tombstone (the fidelity guard above).
    ``Relation.select`` is the one scan by key."""
    allowed = {
        NSMModelBase: {"all_refs"},
        NSMModel: {"move_objects", "delete_object"},
        NSMIndexModel: {"delete_object"},
    }
    for cls in _model_classes():
        overridden = {
            name
            for name in (*KERNEL_ONLY, "move_objects", "delete_object")
            if name in vars(cls)
        }
        assert overridden == allowed.get(cls, set()), cls.__name__

    # One base under every model: decomposition, full scan, scan-unit
    # decode and the paths by address are defined on it alone (plain
    # NSM, which has no addresses, overrides what the paper makes
    # different); the navigation reads are defined there only, plain
    # NSM's running over its own seam.
    assert _model_classes() == {AddressedModel, NSMModelBase, *ADDRESSED_MODELS, NSMModel}
    for name in ("_store", "_read_assembled", "_decode_record", "_records", *ADDRESSED):
        owners = {cls for cls in _model_classes() if name in vars(cls)}
        assert owners - {NSMModel} == {AddressedModel}, name
    for cls in ADDRESSED_MODELS:
        for name in ADDRESSED:
            owner = next(base for base in cls.__mro__ if name in vars(base))
            assert owner is AddressedModel, (cls.__name__, name)
    for name in ("fetch_refs", "fetch_roots"):
        assert {cls for cls in _model_classes() if name in vars(cls)} == {AddressedModel}, name
    assert _defined(NSMModel) <= {*PLAIN_NSM}
    assert "_records" in vars(NSMModel)

    # Within ``repro.models`` a heap is scanned only inside ``Relation``.
    for path in sorted(Path(addressing.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        relations = [node for node in tree.body if getattr(node, "name", None) == "Relation"]
        inside = [call for relation in relations for call in _scan_calls(relation)]
        assert _scan_calls(tree) == inside, path.name

    # The rest is declarations: the direct models and DASDBS-NSM define
    # no function, NSM+index its key-translating delete.
    for cls in (DSMModel, DASDBSDSMModel, DASDBSNSMModel):
        assert _defined(cls) == set(), cls.__name__
    assert {"name", "navigation", "set_oriented"} <= set(vars(DSMModel))
    assert {"navigation_sections", "root_sections", "write_through"} <= set(vars(DASDBSDSMModel))
    assert {"name", "parts", "root_schema", "navigation"} <= set(vars(DASDBSNSMModel))
    assert _defined(NSMModelBase) == {
        "ref_of", "oid_of", "all_refs", "_row", "_handles", "_refs_in"
    }
    assert _defined(NSMIndexModel) == {"delete_object"}

    assert NSMModel(StorageEngine(buffer_pages=8)).move_objects([0, 1], 4) == 0
    deleted = []
    kernel_delete = StorageModel.delete_object
    monkeypatch.setattr(
        StorageModel,
        "delete_object",
        lambda self, ref: (deleted.append(ref), kernel_delete(self, ref))[1],
    )
    build_loaded_model("NSM+index", stations[:8]).delete_object(key_of_oid(3))
    assert deleted == [3]

    # The e2e tracer spans a primitive where a subclass defines it and
    # never on ``StorageModel``: none may resolve there.
    for cls in MODEL_CLASSES.values():
        for name in PRIMITIVES:
            owner = next(base for base in cls.__mro__ if name in vars(base))
            assert owner is not StorageModel, (cls.__name__, name)


def test_every_model_declares_its_relations_on_the_kernel():
    for name in ALL_MODELS:
        model = create_model(name, StorageEngine(buffer_pages=8))
        assert isinstance(model.table, AddressTable)
        assert all(isinstance(relation, Relation) for relation in model.table.relations)


def test_heap_only_relations_hold_bare_rids(stations):
    """Plain NSM carries ~14 handles per object: no tag, no wrapper."""
    for row in build_loaded_model("NSM", stations[:8]).table.rows:
        assert all(type(handle) is Rid for handles in row for handle in handles)
    dsm = build_loaded_model("DSM", stations)
    kinds = {type(dsm.table.row(oid)[0][0]) for oid in dsm.table.live_oids()}
    assert kinds == {Rid, LongObjectAddress}
