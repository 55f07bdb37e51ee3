"""Record once, replay per buffer: ``ReferenceString`` against direct runs.

A seeded script of heap and long-object operations (inserts, point and
set reads, scans, updates with and without write-through, long-object
stores, reads, patches and deletes, flushes, cold restarts, metric
resets) runs once on a recording engine.  Its string, replayed through a
fresh engine of every policy and several capacities, must leave the
counters the same script leaves when it executes there directly.  The
recording engine must itself behave like a plain one, and a resident
long-object read must ask the buffer the same thing in its one-call and
its two-call shape — the equivalence the recording relies on.
"""

from __future__ import annotations

import random

import pytest

from repro.nf2.serializer import DASDBS_FORMAT
from repro.storage import StorageEngine
from repro.storage.buffer import (
    CLEAR,
    FIX,
    FIX_MANY,
    FLUSH,
    POLICY_NAMES,
    READ_VIEWS,
    RESET_METRICS,
    LRUPolicy,
    ReferenceString,
    TwoQPolicy,
    make_policy,
)
from repro.storage.longobj import LongObjectStore
from tests.conftest import log_fixes

PAGE = 512
CAPACITIES = (12, 20, 64)


def script(engine: StorageEngine, seed: int = 3) -> None:
    """A buffer-independent mix of every operation the models issue."""
    rng = random.Random(seed)
    heap = engine.new_heap("records")
    store = LongObjectStore(engine.new_segment("objects"), DASDBS_FORMAT)
    rids = [heap.insert(bytes([i % 251]) * rng.randrange(20, 200)) for i in range(120)]
    objects = []
    for _ in range(10):
        sections = [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 700))) for _ in range(3)]
        objects.append((store.store(sections, rng.choice((1, 13, 60))), sections))
    engine.restart_buffer()
    engine.reset_metrics()
    for step in range(300):
        kind = rng.randrange(9)
        if kind == 0:
            heap.read(rng.choice(rids))
        elif kind == 1:
            heap.read_many(rng.sample(rids, rng.randrange(1, 40)))
        elif kind == 2:
            rid = rng.choice(rids)
            heap.update(rid, heap.read(rid), write_through=rng.random() < 0.3)
        elif kind == 3 and objects:
            address, sections = rng.choice(objects)
            store.read(address, rng.choice((None, [0], [0, 1])))
        elif kind == 4 and objects:
            address, sections = rng.choice(objects)
            store.patch_section(address, 0, bytes(len(sections[0])), rng.random() < 0.5)
        elif kind == 5 and len(objects) > 3:
            store.delete(objects.pop(rng.randrange(len(objects)))[0])
        elif kind == 6:
            rids.append(heap.insert(b"new" * rng.randrange(1, 60)))
        elif kind == 7 and step % 50 == 0:
            engine.restart_buffer()
        elif kind == 8 and step % 40 == 0:
            sum(1 for _ in heap.scan())
    engine.flush()


def engine_for(capacity: int, policy: str, backend: str = "memory") -> StorageEngine:
    return StorageEngine(page_size=PAGE, buffer_pages=capacity, policy=policy, backend=backend)


def direct(capacity: int, policy: str):
    engine = engine_for(capacity, policy)
    script(engine)
    return engine.metrics.snapshot()


@pytest.fixture(scope="module")
def recorded() -> tuple[ReferenceString, object]:
    references = ReferenceString()
    engine = engine_for(CAPACITIES[0], "lru")
    references.record(engine)
    script(engine)
    return references, engine.metrics.snapshot()


def replayed(references: ReferenceString, capacity: int, policy: str, backend: str = "memory"):
    engine = engine_for(capacity, policy, backend)
    try:
        references.replay(engine)
        return engine.metrics.snapshot()
    finally:
        engine.close()


def test_recording_does_not_change_the_run(recorded):
    _, metrics = recorded
    assert metrics == direct(CAPACITIES[0], "lru")


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("capacity", CAPACITIES)
def test_replay_equals_direct_execution(recorded, capacity, policy):
    references, _ = recorded
    assert replayed(references, capacity, policy) == direct(capacity, policy)


@pytest.mark.parametrize("backend", ("file", "mmap"))
def test_replay_counters_do_not_depend_on_the_backend(recorded, backend):
    references, _ = recorded
    assert replayed(references, 20, "2q", backend) == direct(20, "2q")


def test_the_string_is_flat_and_decodes_to_the_calls_made(recorded):
    references, _ = recorded
    assert references.codes.typecode == "q"
    events = list(references.events())
    kinds = {event for event, _ in events}
    assert {FIX, FIX_MANY, READ_VIEWS, CLEAR, FLUSH, RESET_METRICS} <= kinds
    # Composite calls are recorded as themselves: a set read is one
    # event whatever chunks the recording buffer cut it into (the
    # script's largest exceed its capacity), and a cold restart one
    # event, not its inner flush as well.
    assert max(len(pages) for event, pages in events if event == READ_VIEWS) > CAPACITIES[0]
    assert all(events[i - 1][0] != FLUSH for i, (event, _) in enumerate(events) if event == CLEAR)
    assert sum(1 for event, _ in events if event == RESET_METRICS) == 1


def test_a_recording_buffer_reports_nothing_resident():
    engines = [engine_for(CAPACITIES[0], "lru") for _ in range(2)]
    for engine in engines:
        engine.buffer.new_page(engine.disk.allocate())
    recording, plain = engines
    ReferenceString().record(recording)
    assert recording.buffer.is_resident(0)
    assert recording.buffer.peek(0) is None
    assert plain.buffer.peek(0) is not None  # the class is untouched


def test_policies_without_eviction_history_evict_in_one_call():
    for name in POLICY_NAMES:
        cls = type(make_policy(name))
        if cls is TwoQPolicy:
            assert cls.on_evict is not cls.on_remove
        else:
            assert cls.on_evict is cls.on_remove, name


class LoggedLRU(LRUPolicy):
    """LRU that logs admissions and accesses."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_insert(self, page_id):
        self.log.append(("insert", page_id))
        super().on_insert(page_id)

    def on_access(self, page_id):
        self.log.append(("access", page_id))
        super().on_access(page_id)


@pytest.mark.parametrize("sections_read", (None, [0], [0, 2], [2, 0]))
def test_resident_read_asks_the_same_in_one_call_and_in_two(sections_read):
    """With every page resident, ``_read_resident``'s one ``fix_many``
    and the two-call path a recording engine takes fix the same pages,
    in the same order, with the same policy updates and counters."""
    runs = []
    for recording in (False, True):
        rng = random.Random(11)
        log: list[tuple[str, int]] = []
        engine = StorageEngine(page_size=PAGE, buffer_pages=400, policy=LoggedLRU(log))
        store = LongObjectStore(engine.new_segment("objects"), DASDBS_FORMAT)
        sections = [bytes(rng.randrange(256) for _ in range(900)) for _ in range(3)]
        address = store.store(sections, 60)  # several header pages
        store.read(address)  # everything resident, directory memoised
        if recording:
            ReferenceString().record(engine)
        fixes: list[int] = []
        log_fixes(engine.buffer, fixes.append)
        log.clear()
        engine.reset_metrics()
        fix_many_calls = []
        fix_many = engine.buffer.fix_many
        engine.buffer.fix_many = lambda ids: fix_many_calls.append(len(ids)) or fix_many(ids)
        data = store.read(address, sections_read)
        runs.append((data, list(log), fixes, engine.metrics.snapshot(), len(fix_many_calls)))
    (one_data, one_log, one_fixes, one_metrics, one_calls) = runs[0]
    (two_data, two_log, two_fixes, two_metrics, two_calls) = runs[1]
    assert (one_calls, two_calls) == (1, 2)
    assert one_data == two_data
    assert one_log == two_log
    assert one_fixes == two_fixes
    assert one_metrics == two_metrics
