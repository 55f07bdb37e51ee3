"""The full scan's collector pause is invisible.

``AddressedModel.scan_all`` disables the cyclic garbage collector while
it materialises and joins the parts of every object.  That is only a
wall-clock change if it leaves nothing behind: the caller's collector
state is back when the scan returns or raises, and the scan creates no
reference cycles, so the pause defers no garbage.  Checked on all five
models and on a 3-shard ``ShardedModel`` of each.
"""

from __future__ import annotations

import gc

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.errors import SerializationError, StorageFaultError
from repro.fault.backend import FaultyBackend
from repro.fault.plan import FaultPlan
from repro.models.registry import MODEL_CLASSES, create_model
from repro.nf2.oid import Rid
from repro.sharding import ShardedEngine, ShardedModel, ShardRouter, split_buffer_pages
from repro.storage import StorageEngine
from repro.storage.backends import MemoryBackend

CONFIG = BenchmarkConfig(n_objects=48, buffer_pages=32, seed=7)
SHARDS = (1, 3)


@pytest.fixture(scope="module")
def stations():
    return generate_stations(CONFIG)


@pytest.fixture(autouse=True)
def collector_restored():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def build(name: str, stations, shards: int, plan: FaultPlan | None = None):
    """A loaded model (``shards == 1``) or an N-shard facade of full
    replicas, each engine on a memory backend behind ``plan``."""
    replicas = []
    for buffer_pages in split_buffer_pages(CONFIG.buffer_pages, shards):
        backend = MemoryBackend(CONFIG.page_size)
        engine = StorageEngine(
            page_size=CONFIG.page_size,
            buffer_pages=buffer_pages,
            backend=backend if plan is None else FaultyBackend(backend, plan),
        )
        replica = create_model(name, engine)
        replica.load(stations)
        replicas.append(replica)
    if shards == 1:
        return replicas[0]
    router = ShardRouter(
        n_objects=CONFIG.n_objects, n_shards=shards, policy="hash", seed=CONFIG.seed
    )
    engine = ShardedEngine(tuple(replica.engine for replica in replicas))
    return ShardedModel(replicas, engine, router)


def replicas_of(model) -> list:
    return list(model.replicas) if isinstance(model, ShardedModel) else [model]


def corrupt_a_root(model, stations) -> None:
    """Overwrite the first byte of the name in one heap-resident root
    record with an invalid UTF-8 byte, the same record on every replica."""
    for replica in replicas_of(model):
        heap = replica.table.relations[0].heap
        oid, rid = next(
            (oid, row[0][0]) for oid, row in enumerate(replica.table.rows) if type(row[0][0]) is Rid
        )
        blob = bytes(heap.read(rid))
        at = blob.find(stations[oid]["Name"].encode())
        assert at >= 0
        heap.update(rid, blob[:at] + b"\xff" + blob[at + 1 :])


CASES = [(name, shards) for name in sorted(MODEL_CLASSES) for shards in SHARDS]


@pytest.mark.parametrize("name,shards", CASES)
@pytest.mark.parametrize("enabled", (True, False))
def test_scan_all_restores_the_callers_collector_state(stations, name, shards, enabled):
    model = build(name, stations, shards)
    gc.enable() if enabled else gc.disable()
    assert model.scan_all() == len(stations)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name,shards", CASES)
@pytest.mark.parametrize("enabled", (True, False))
def test_a_corrupt_record_raises_with_the_state_restored(stations, name, shards, enabled):
    model = build(name, stations, shards)
    corrupt_a_root(model, stations)
    gc.enable() if enabled else gc.disable()
    with pytest.raises(SerializationError):
        model.scan_all()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name,shards", CASES)
@pytest.mark.parametrize("enabled", (True, False))
def test_a_read_fault_raises_with_the_state_restored(stations, name, shards, enabled):
    plan = FaultPlan(seed=5, read=1.0)
    model = build(name, stations, shards, plan)
    model.engine.restart_buffer()
    plan.arm()
    gc.enable() if enabled else gc.disable()
    with pytest.raises(StorageFaultError):
        model.scan_all()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name,shards", CASES)
def test_the_scan_creates_no_cycles(stations, name, shards):
    model = build(name, stations, shards)
    model.scan_all()  # compiled plans and caches exist before the count
    gc.collect()
    gc.disable()
    assert model.scan_all() == len(stations)
    assert gc.collect() == 0
