"""The hot-path checksum gate: "counters are sacred, only wall clock changes".

Thirteen entries, each a deterministic SHA-256 over everything the
paper's metrics can see on one hot path — encoded bytes, scanned
records, counter snapshots, a whole sweep-cell JSON — gated against the
committed ``BENCH_hotpaths.json``.  The entries reach layers no
``benchmarks/e2e/`` workload does (online reclustering under drift, the
journal and crash recovery, file-vs-mmap backend parity), so this file
is their tripwire; wall clock is measured in ``benchmarks/e2e/`` only.

Each entry body runs once per session and returns ``(n_ops,
checksum)``; the parity checks the bodies make on the way (optimised
path == retained reference, file == mmap, snapshots on == off) are
plain assertions.  ``n_ops`` keeps the figure the retired timing
harness reported (its rounds × records), so every committed triple is
bit-equal to the one PR 21 left.

To move a checksum deliberately — a PR that *means* to change stored
bytes or counters — regenerate the file and say why in CHANGES.md::

    PYTHONPATH=src python -m tests.integration.test_hotpath_goldens
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import random
import struct
import tempfile
from pathlib import Path
from typing import Callable, Mapping

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import compile_trace, parse_workload
from repro.errors import SimulatedCrash
from repro.experiments import sweep
from repro.fault.backend import FaultyBackend
from repro.fault.plan import FaultPlan
from repro.models.registry import create_model
from repro.nf2.serializer import NF2Serializer
from repro.storage import StorageEngine
from repro.storage.backends import MemoryBackend
from repro.storage.buffer import BufferManager
from repro.storage.constants import PAGE_SIZE, SLOT_ENTRY_SIZE
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SlottedPage

from tests.nf2.reference_serializer import ReferenceNF2Serializer

GOLDEN_PATH = Path(__file__).resolve().parents[2] / "BENCH_hotpaths.json"
INVARIANT = "counters are sacred, only wall clock changes"

#: ``(n_ops, checksum)`` of one entry.
Entry = tuple[int, str]

#: Data knobs of the serializer entries.
DATA_CONFIG = BenchmarkConfig(n_objects=120)

#: The reference sweep cell: one workload on one model under one small
#: buffer, rebuilt per cell (snapshots off).
SWEEP_CONFIG = BenchmarkConfig(
    n_objects=60,
    buffer_pages=48,
    loops=5,
    q1a_sample=5,
    q1b_sample=1,
    q2a_sample=3,
    snapshots=False,
)
SWEEP_GRID = dict(
    workloads=("uniform",),
    capacities=(SWEEP_CONFIG.buffer_pages,),
    policies=("lru",),
    models=("DASDBS-NSM",),
)

#: The snapshot entry's grid: 2 models × 2 capacities, a short trace.
SNAPSHOT_CONFIG = BenchmarkConfig(n_objects=300, buffer_pages=240)
SNAPSHOT_GRID = dict(
    workloads=("uniform,ops=40",),
    capacities=(120, 240),
    policies=("lru",),
    models=("DSM", "DASDBS-NSM"),
)

#: Small DSM-style records, the regime where per-slot work dominates.
PAGE_RECORD_SIZE = 16

#: Closed loop of 8 clients × 25 requests on one shared engine.
SERVING_CONFIG = BenchmarkConfig(n_objects=60, buffer_pages=48)
SERVING_WORKLOAD = "uniform,ops=25,seed=11"
SERVING_CLIENTS = 8

#: A drifting point/update trace under a live online-recluster
#: controller on a pressured buffer.
DRIFT_CONFIG = BenchmarkConfig(
    n_objects=120,
    buffer_pages=24,
    max_sightseeing=0,
    recluster="online",
    online_trigger_ops=20,
    online_move_pages=8,
)
DRIFT_WORKLOAD = (
    "name=drift-step,point=8,navigate=0,scan=0,update=2,ops=360,"
    "seed=1993,drift=step,period=60,window=0.1"
)

#: One crash-consistency cycle: a recluster crashed at a fixed armed
#: backend operation, recovered and remapped.
CRASH_CONFIG = BenchmarkConfig(n_objects=36, buffer_pages=64)
CRASH_MODEL = "DASDBS-NSM"
CRASH_SEED = 7
CRASH_AT = 40

#: Large DASDBS-style pages, one near-page-sized record each, under a
#: buffer far smaller than the extension.
BACKEND_IO_PAGE_SIZE = 8192
BACKEND_IO_RECORDS = 1500
BACKEND_IO_RECORD_SIZE = 7000
BACKEND_IO_BUFFER_PAGES = 32

#: Round counts of the retired timing loops; they survive only as the
#: factor in ``n_ops`` that keeps the committed triples unchanged.
PAGE_FILL_ROUNDS = 50
PAGE_SCAN_ROUNDS = 100
READ_MANY_ROUNDS = 20
BACKEND_IO_ROUNDS = 3

READ_COUNTERS = (
    "read_calls",
    "pages_read",
    "page_fixes",
    "buffer_hits",
    "buffer_misses",
    "evictions",
)
ALL_COUNTERS = (*READ_COUNTERS, "write_calls", "pages_written")


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _json(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, default=str).encode()


def _counters(snapshot, fields: tuple[str, ...]) -> dict[str, int]:
    return {name: getattr(snapshot, name) for name in fields}


class _ReferencePageView:
    """The seed's ``SlottedPage`` read path, preserved verbatim.

    Every structural cost the optimisation removed is still here: the
    ``n_slots`` property that re-unpacks the header on each access, the
    per-slot ``unpack_from`` of the directory entry, the generator-based
    :meth:`records`, and the bytearray-slice-then-``bytes`` double copy.
    It is the oracle the optimised :meth:`SlottedPage.records` is
    parity-checked against.
    """

    __slots__ = ("data", "page_size")

    def __init__(self, data: bytearray, page_size: int = PAGE_SIZE) -> None:
        self.data = data
        self.page_size = page_size

    @property
    def n_slots(self) -> int:
        return struct.unpack_from("<HHH", self.data, 0)[1]

    def _slot_pos(self, slot: int) -> int:
        return self.page_size - (slot + 1) * SLOT_ENTRY_SIZE

    def _slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range")
        return struct.unpack_from("<HH", self.data, self._slot_pos(slot))

    def records(self):
        for slot in range(self.n_slots):
            offset, length = self._slot(slot)
            if offset != 0xFFFF:
                yield slot, bytes(self.data[offset : offset + length])


# -- entry bodies --------------------------------------------------------------


@functools.cache
def _encoded_stations():
    stations = generate_stations(DATA_CONFIG)
    fast = NF2Serializer()
    return stations, [fast.encode_nested(station) for station in stations]


def serializer_encode() -> Entry:
    stations, blobs = _encoded_stations()
    reference = ReferenceNF2Serializer()
    assert blobs == [reference.encode_nested(station) for station in stations]
    return len(stations), _sha(*blobs)


def serializer_decode() -> Entry:
    """Hashes re-encoded decodes: equal to the encode checksum means
    the round trip lost nothing."""
    stations, blobs = _encoded_stations()
    fast = NF2Serializer()
    schema = stations[0].schema
    checksum = _sha(*(fast.encode_nested(fast.decode_nested(schema, blob)) for blob in blobs))
    assert checksum == _sha(*blobs), "decode → encode did not reproduce the stored bytes"
    return len(blobs), checksum


@functools.cache
def _filled_page() -> SlottedPage:
    page = SlottedPage(bytearray(PAGE_SIZE))
    counter = 0
    while page.free_space >= PAGE_RECORD_SIZE + SLOT_ENTRY_SIZE:
        page.insert(struct.pack("<I", counter) + b"r" * (PAGE_RECORD_SIZE - 4))
        counter += 1
    return page


def page_fill() -> Entry:
    records = [record for _, record in _filled_page().records()]
    page = SlottedPage(bytearray(PAGE_SIZE))
    for record in records:
        page.insert(record)
    return PAGE_FILL_ROUNDS * len(records), _sha(bytes(page.data))


def page_scan() -> Entry:
    template = _filled_page()
    scanned = template.records()
    reference = _ReferencePageView(template.data, template.page_size)
    assert scanned == list(reference.records()), (
        "optimised page scan disagrees with the reference scan"
    )
    checksum = _sha(struct.pack("<I", len(scanned)), *(record for _, record in scanned))
    return PAGE_SCAN_ROUNDS * len(scanned), checksum


def buffer_churn() -> Entry:
    n_pages, capacity = 2000, 256
    disk = SimulatedDisk()
    page_ids = disk.allocate_many(n_pages)
    buffer = BufferManager(disk, capacity=capacity)
    for page_id in page_ids:  # cold scan: misses + evictions
        buffer.fix(page_id)
        buffer.unfix(page_id)
    for _ in range(4):  # hot loops: pure hits
        for page_id in page_ids[-capacity:]:
            buffer.fix(page_id)
            buffer.unfix(page_id)
    checksum = _sha(_json(_counters(buffer.metrics.snapshot(), READ_COUNTERS)))
    return n_pages + 4 * capacity, checksum


def read_many_zero_copy() -> Entry:
    """Grouped zero-copy record reads against the seed's read path: one
    fresh ``SlottedPage`` wrapper and one payload copy per rid."""
    with StorageEngine(page_size=PAGE_SIZE, buffer_pages=256) as engine:
        heap = engine.new_heap("perf_read_many")
        rids = [heap.insert(struct.pack("<I", index) + b"m" * 28) for index in range(2000)]
        engine.flush()
        records = [bytes(view) for view in heap.read_many(rids)]
        unique_pages = list(dict.fromkeys(rid.page_id for rid in rids))
        frames = heap.buffer.fix_many(unique_pages)
        try:
            reference = [
                SlottedPage(frames[rid.page_id], heap.page_size).read(rid.slot)
                for rid in rids
            ]
        finally:
            heap.buffer.unfix_many(unique_pages)
    assert records == reference, "zero-copy read_many disagrees with the reference"
    checksum = _sha(struct.pack("<I", len(records)), *records)
    return READ_MANY_ROUNDS * len(rids), checksum


def sweep_cell() -> Entry:
    result = sweep.run_sweep(SWEEP_CONFIG, **SWEEP_GRID)
    return SWEEP_CONFIG.n_objects, _sha(result.to_json().encode())


def sharded_sweep() -> Entry:
    """The reference cell over four hash-routed shards: aggregate
    counters and the per-shard drill-down with the hop count."""
    result = sweep.run_sweep(SWEEP_CONFIG, **SWEEP_GRID, shards=(4,))
    return SWEEP_CONFIG.n_objects, _sha(result.to_json().encode())


def sweep_cell_snapshot() -> Entry:
    def grid(snapshots: bool) -> str:
        config = SNAPSHOT_CONFIG.with_changes(snapshots=snapshots)
        return sweep.run_sweep(config, **SNAPSHOT_GRID).to_json()

    cloned, rebuilt = grid(True), grid(False)
    assert cloned == rebuilt, (
        "snapshot clones changed the sweep JSON — a paper-visible counter "
        "moved between clone-per-cell and rebuild-per-cell"
    )
    n_cells = len(json.loads(cloned)["cells"])
    return n_cells, _sha(cloned.encode())


def backend_io_wallclock() -> Entry:
    """One cold ``read_many`` over the file and the mmap backend: record
    bytes and counter snapshot must be bit-identical across the two."""

    def fingerprint(backend: str, directory: str) -> str:
        with StorageEngine(
            page_size=BACKEND_IO_PAGE_SIZE,
            buffer_pages=BACKEND_IO_BUFFER_PAGES,
            backend=backend,
            backend_path=f"{directory}/{backend}.pages",
        ) as engine:
            heap = engine.new_heap("perf_backend_io")
            rids = [
                heap.insert(struct.pack("<I", index) + b"i" * (BACKEND_IO_RECORD_SIZE - 4))
                for index in range(BACKEND_IO_RECORDS)
            ]
            engine.flush()
            engine.restart_buffer()
            engine.reset_metrics()
            views = heap.read_many(rids)
            return _sha(
                struct.pack("<I", len(views)),
                *(bytes(view) for view in views),
                _json(_counters(engine.metrics.snapshot(), READ_COUNTERS)),
            )

    with tempfile.TemporaryDirectory() as directory:
        checksum = fingerprint("mmap", directory)
        assert fingerprint("file", directory) == checksum, (
            "file and mmap backends disagree on record bytes or counters"
        )
    return BACKEND_IO_ROUNDS * BACKEND_IO_RECORDS, checksum


def serving_closed_loop() -> Entry:
    """Aggregate counters plus the simulated-time latency digest."""
    trace = compile_trace(parse_workload(SERVING_WORKLOAD), SERVING_CONFIG.n_objects)
    outcome = BenchmarkRunner(SERVING_CONFIG).run_trace_serving(
        "DASDBS-NSM", trace, SERVING_CLIENTS, scheduler="fifo"
    )
    checksum = _sha(
        _json(
            {
                "counters": _counters(outcome.result.raw, ALL_COUNTERS),
                "stats": outcome.stats.to_dict(),
            }
        )
    )
    return outcome.stats.n_ops, checksum


def drift_online_replay() -> Entry:
    """The drift trace compiler, the trigger arithmetic and the move
    machinery, through the replay's full counter snapshot."""
    trace = compile_trace(parse_workload(DRIFT_WORKLOAD), DRIFT_CONFIG.n_objects)
    raw = BenchmarkRunner(DRIFT_CONFIG).run_trace("NSM+index", trace).raw
    return len(trace.ops), _sha(_json(_counters(raw, ALL_COUNTERS)))


def crash_recovery_replay() -> Entry:
    """Every recovered root record plus the recovery report's shape."""
    stations = generate_stations(CRASH_CONFIG)
    order = list(range(CRASH_CONFIG.n_objects))
    random.Random(CRASH_SEED).shuffle(order)
    plan = FaultPlan(seed=CRASH_SEED, crash_at=CRASH_AT)
    engine = StorageEngine(
        page_size=CRASH_CONFIG.page_size,
        buffer_pages=CRASH_CONFIG.buffer_pages,
        backend=FaultyBackend(MemoryBackend(CRASH_CONFIG.page_size), plan),
    )
    engine.enable_journaling()
    engine.enable_checksums()
    model = create_model(CRASH_MODEL, engine)
    model.load(stations)
    plan.arm()
    try:
        model.recluster(order)
        plan.disarm()
        report = None
    except SimulatedCrash:
        report = engine.recover()
        model.apply_recovery(report)
    roots = [model.fetch_roots([ref])[0] for ref in model.all_refs()]
    shape = {"roots": roots, "replayed": None, "rolled_back": None, "forwarded": None}
    if report is not None:
        shape.update(
            replayed=list(report.replayed),
            rolled_back=list(report.rolled_back),
            forwarded={
                segment: len(mapping)
                for segment, mapping in sorted(report.forwarding.items())
            },
        )
    return CRASH_CONFIG.n_objects, _sha(_json(shape))


ENTRIES: dict[str, Callable[[], Entry]] = {
    body.__name__: body
    for body in (
        serializer_encode,
        serializer_decode,
        page_fill,
        page_scan,
        buffer_churn,
        read_many_zero_copy,
        sweep_cell,
        sharded_sweep,
        sweep_cell_snapshot,
        backend_io_wallclock,
        serving_closed_loop,
        drift_online_replay,
        crash_recovery_replay,
    )
}


@functools.cache
def run_entry(name: str) -> dict[str, object]:
    """One entry, in the shape the golden file stores it."""
    n_ops, checksum = ENTRIES[name]()
    return {"n_ops": n_ops, "checksum": checksum}


# -- the gate ------------------------------------------------------------------


def drift(ran: Mapping[str, Mapping], golden: Mapping[str, Mapping]) -> list[str]:
    """What separates the entries that ran from a golden's ``entries``
    (empty = nothing): every message names its entry."""
    problems = [
        f"entry {name!r} is in the golden but did not run"
        for name in sorted(set(golden) - set(ran))
    ]
    problems += [
        f"entry {name!r} ran but is not in the golden"
        for name in sorted(set(ran) - set(golden))
    ]
    problems += [
        f"{name}: {field} {ran[name][field]} != golden {golden[name][field]} "
        "— a paper-visible quantity moved"
        for name in sorted(set(ran) & set(golden))
        for field in ("n_ops", "checksum")
        if ran[name][field] != golden[name][field]
    ]
    return problems


def committed_golden() -> dict[str, dict]:
    payload = json.loads(GOLDEN_PATH.read_text())
    assert payload["invariant"] == INVARIANT
    return payload["entries"]


@pytest.mark.parametrize("name", ENTRIES)
def test_entry_matches_the_committed_golden(name):
    golden = committed_golden()
    committed = {name: golden[name]} if name in golden else {}
    assert drift({name: run_entry(name)}, committed) == []


def test_committed_golden_holds_exactly_the_entries_that_run():
    """Catches what no single entry can: a golden entry nothing runs."""
    assert drift({name: run_entry(name) for name in ENTRIES}, committed_golden()) == []


class TestDriftReporting:
    RAN = {
        "page_scan": {"n_ops": 10000, "checksum": "ab" * 32},
        "buffer_churn": {"n_ops": 3024, "checksum": "cd" * 32},
    }

    def test_one_flipped_hex_digit_fails_naming_the_entry(self):
        golden = copy.deepcopy(self.RAN)
        golden["page_scan"]["checksum"] = "ac" + "ab" * 31
        (problem,) = drift(self.RAN, golden)
        assert problem.startswith("page_scan: checksum abab")

    def test_moved_op_count_fails_naming_the_entry(self):
        golden = copy.deepcopy(self.RAN)
        golden["buffer_churn"]["n_ops"] += 1
        (problem,) = drift(self.RAN, golden)
        assert problem.startswith("buffer_churn: n_ops 3024 != golden 3025")

    def test_golden_entry_that_did_not_run_fails(self):
        golden = {**self.RAN, "phantom_entry": {"n_ops": 1, "checksum": "0" * 64}}
        assert drift(self.RAN, golden) == [
            "entry 'phantom_entry' is in the golden but did not run"
        ]

    def test_entry_missing_from_the_golden_fails(self):
        golden = {"buffer_churn": self.RAN["buffer_churn"]}
        assert drift(self.RAN, golden) == ["entry 'page_scan' ran but is not in the golden"]


if __name__ == "__main__":
    payload = {"invariant": INVARIANT, "entries": {name: run_entry(name) for name in ENTRIES}}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {len(ENTRIES)} entries to {GOLDEN_PATH}")
