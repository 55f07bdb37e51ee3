"""The seven benchmark workloads: definition, set-up, replay, oracle.

Every workload drives the package through the public API a user calls
(``BenchmarkRunner.run_trace``, ``run_trace_serving``,
``sweep.run_sweep(...).to_json()``; ``StorageEngine`` + ``HeapFile`` for
the storage-only one).  ``prepare`` is what ``setup_s`` times,
``replay`` is one timed unit of work, and ``Outcome`` carries what the
metrics and the correctness gate need.

Operation mixes are fixed by construction, not drawn: a workload that
needs scans beside point operations replays a scan-only spec of a fixed
length next to a scan-free one, because one scan costs a thousand point
lookups and a drawn scan count (12 ± 3 in 120 operations) would move
every per-operation number by a quarter from seed to seed.  The seed
still decides *which* objects are touched, in which order.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from repro.benchmark import BenchmarkConfig, BenchmarkRunner, compile_trace, parse_workload
from repro.benchmark.snapshots import DEFAULT_STORE
from repro.experiments import sweep
from repro.nf2.serializer import NF2Serializer
from repro.storage import StorageEngine
from repro.storage.disk import DiskGeometry
from repro.storage.metrics import MetricsSnapshot

#: Equation-1 service-time model (25 ms per call + 2 ms per page).
GEOMETRY = DiskGeometry()

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


@dataclass(frozen=True)
class Workload:
    """One named, seeded, sized scenario (sizes are those of one replay)."""

    name: str
    why: str
    kind: str  # "trace" | "serving" | "sweep" | "raw"
    objects: int = 0
    buffer_pages: int = 0
    models: tuple[str, ...] = ()
    #: Spec templates (``{ops}``/``{seed}`` filled in per run) with the
    #: operation count of each; every model replays every spec in order.
    specs: tuple[tuple[str, int], ...] = ()
    backend: str = "memory"
    shards: int = 1
    #: sweep_grid axes.
    capacities: tuple[int, ...] = ()
    policies: tuple[str, ...] = ()
    #: serve_tickets closed loop.
    clients: int = 1
    #: raw_pages sizes.
    records: int = 0
    rounds: int = 0
    #: Hit-rate window that proves the workload is sized as described.
    hit_rate_min: float = 0.0
    hit_rate_max: float = 1.0

    def sized(self, ops_factor: float, data_factor: float) -> "Workload":
        """A copy with operation counts and data sizes scaled.

        Full size is ``(1, 1)``; the warm-up replay is ``(0.1, 1)`` —
        same data, a tenth of the operations.
        """

        def scale(value: int, factor: float, floor: int) -> int:
            return value if factor == 1 else max(floor, round(value * factor))

        return replace(
            self,
            objects=scale(self.objects, data_factor, 24),
            buffer_pages=scale(self.buffer_pages, data_factor, 8),
            capacities=tuple(scale(c, data_factor, 8) for c in self.capacities),
            records=scale(self.records, data_factor, 200),
            specs=tuple((text, scale(ops, ops_factor, 2)) for text, ops in self.specs),
            rounds=scale(self.rounds, ops_factor, 1),
        )

    @property
    def full_size(self) -> bool:
        return self == BY_NAME[self.name]

    @property
    def nominal_ops(self) -> int:
        """Operations one replay attempts (what a crashed replay forfeits)."""
        if self.kind == "raw":
            return self.rounds * (self.records + self.records // 3)
        per_model = sum(ops for _, ops in self.specs)
        if self.kind == "sweep":
            return per_model * len(self.capacities) * len(self.policies) * len(self.models)
        return per_model * self.clients * len(self.models)

    def config(self, backend_path: str | None = None) -> BenchmarkConfig:
        return BenchmarkConfig(
            n_objects=self.objects,
            buffer_pages=self.buffer_pages,
            backend=self.backend,
            backend_path=backend_path,
            shards=self.shards,
            shard_policy="hash",
        )

    def spec_texts(self, seed: int) -> list[str]:
        return [text.format(ops=ops, seed=seed) for text, ops in self.specs]


def _spec(skew: str, name: str, ops: int, seed_suffix: str = "", **weights: int) -> tuple[str, int]:
    """A spec template (``{ops}``/``{seed}`` left open) of the named
    operation kinds, and its operation count."""
    mix = ",".join(
        f"{kind}={weights.get(kind, 0)}" for kind in ("point", "navigate", "scan", "update")
    )
    return f"{skew},name={name},{mix},ops={{ops}},seed={{seed}}{seed_suffix}", ops


def _sweep_specs(ops: int) -> tuple[tuple[str, int], ...]:
    """Six single-kind workloads, each with a seed of its own (``{seed}``
    with a digit appended).  Point and update cells only: a navigation's
    cost varies so much with its root that 48 of them, replayed by every
    cell of the grid, would tie all numbers to the seed."""
    return tuple(
        _spec(skew, f"{tag}.{kind}", ops, seed_suffix=str(2 * row + column), **{kind: 1})
        for row, (skew, tag) in enumerate(
            (("uniform", "uniform"), ("zipf(0.8)", "zipf08"), ("zipf(1.2)", "zipf12"))
        )
        for column, kind in enumerate(("point", "update"))
    )


WORKLOADS = (
    Workload(
        name="read_hot",
        why=(
            "300 objects inside a 1200-page buffer, Zipf reads on 3 models: hit rate >= 0.97, "
            "so models, nf2, heap/longobj and the buffer hit path work while disk and backend rest"
        ),
        kind="trace",
        objects=300,
        buffer_pages=1200,
        models=("DSM", "NSM+index", "DASDBS-NSM"),
        specs=(
            _spec("zipf(1.0)", "read_hot.point", 2400, point=1),
            _spec("zipf(1.0)", "read_hot.navigate", 1200, navigate=1),
        ),
        hit_rate_min=0.97,
    ),
    Workload(
        name="scan_cold",
        why=(
            "1500 objects (20x the 256-page buffer), uniform lookups and full scans on 4 models: "
            "hit rate <= 0.01, every fix is a miss and an eviction"
        ),
        kind="trace",
        objects=1500,
        buffer_pages=256,
        models=("DSM", "DASDBS-DSM", "NSM+index", "DASDBS-NSM"),
        specs=(
            _spec("uniform", "scan_cold.point", 30, point=1),
            _spec("uniform", "scan_cold.scan", 3, scan=1),
        ),
        hit_rate_max=0.01,
    ),
    Workload(
        name="write_mmap",
        why=(
            "70 % root updates over the mmap backend with data 20x the buffer: dirty eviction, "
            "write-back and copy-on-write of mapped frames; read_hot is its read-only twin"
        ),
        kind="trace",
        objects=1500,
        buffer_pages=256,
        models=("DSM", "NSM+index", "DASDBS-NSM"),
        specs=(_spec("zipf(0.8)", "write_mmap", 8000, point=3, update=7),),
        backend="mmap",
    ),
    Workload(
        name="raw_pages",
        why=(
            "StorageEngine + HeapFile only, file backend, data 16x the 128-page buffer, reads "
            "beside updates: buffer, disk accounting and real preadv/pwritev; nf2 and models idle"
        ),
        kind="raw",
        buffer_pages=128,
        records=40000,
        rounds=9,
        backend="file",
    ),
    Workload(
        name="sweep_grid",
        why=(
            "run_sweep(...).to_json() over 72 cells of 48 operations: the path users run, short "
            "cells so clone, runner set-up, sweep bookkeeping and JSON rendering show at all"
        ),
        kind="sweep",
        objects=600,
        buffer_pages=480,  # overridden per cell by the capacity axis
        models=("DSM", "NSM+index", "DASDBS-NSM"),
        specs=_sweep_specs(48),
        capacities=(120, 1920),
        policies=("lru", "2q"),
    ),
    Workload(
        name="shard_mix",
        why=(
            "the only workload through ShardedModel/ShardRouter/AggregateMetrics: 4 hash shards, "
            "mixed operations plus scatter-gather scans; peak RSS carries the replica cost"
        ),
        kind="trace",
        objects=600,
        buffer_pages=480,
        models=("DSM", "DASDBS-NSM"),
        specs=(
            _spec("uniform", "shard_mix", 2000, point=55, update=15),
            _spec("uniform", "shard_mix.navigate", 800, navigate=1),
            _spec("uniform", "shard_mix.scan", 3, scan=1),
        ),
        shards=4,
    ),
    Workload(
        name="serve_tickets",
        why=(
            "closed loop of 8 clients on 2 serving workers, light ticket-inventory requests: "
            "ticket protocol, session latches, scheduler and per-request accounting dominate"
        ),
        kind="serving",
        objects=600,
        buffer_pages=240,
        models=("NSM+index", "DASDBS-NSM"),
        specs=(("ticket-inventory,ops={ops},seed={seed}", 1200),),
        clients=8,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

RAW_PAGE_SIZE = 2048
RAW_RECORD_BYTES = 100


# -- set-up ----------------------------------------------------------------------


@dataclass
class Prepared:
    """Everything a replay needs, built by :func:`prepare`."""

    workload: Workload
    seed: int
    scratch: str
    runner: BenchmarkRunner | None = None
    traces: list = field(default_factory=list)
    build_s: float = 0.0
    compile_s: float = 0.0
    builds: int = 0
    stored_pages: int = 0
    #: raw_pages only: the engine, its heap, the rids, the loaded records
    #: and the disk image every replay starts from.
    engine: StorageEngine | None = None
    heap: object = None
    rids: list = field(default_factory=list)
    initial: list = field(default_factory=list)
    image: object = None

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        shutil.rmtree(self.scratch, ignore_errors=True)


def prepare(workload: Workload, seed: int) -> Prepared:
    """Generate, build and compile: the work ``setup_s`` times.

    Afterwards the extension is generated, every model of the workload
    has a snapshot in the process-wide ``SnapshotStore``, traces are
    compiled and the directory for backing files exists.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RESULTS_DIR)
    prepared = Prepared(workload, seed, scratch)
    try:
        if workload.kind == "raw":
            _prepare_raw(prepared)
            return prepared
        DEFAULT_STORE.clear()
        builds_before = DEFAULT_STORE.builds
        config = workload.config()
        runner = prepared.runner = BenchmarkRunner(config)
        started = time.perf_counter()
        for model in workload.models:
            snapshot = DEFAULT_STORE.get(config, model, lambda: runner.stations, runner.fmt)
            prepared.stored_pages += snapshot.disk.n_pages * workload.shards
        built = time.perf_counter()
        if workload.kind != "sweep":  # run_sweep compiles its own traces
            prepared.traces = _compile(workload, seed)
        prepared.build_s = built - started
        prepared.compile_s = time.perf_counter() - built
        prepared.builds = DEFAULT_STORE.builds - builds_before
        return prepared
    except Exception:
        prepared.close()
        raise


def _compile(workload: Workload, seed: int) -> list:
    return [
        compile_trace(parse_workload(text), workload.objects)
        for text in workload.spec_texts(seed)
    ]


def _raw_record(rid_index: int, version: int) -> bytes:
    return (rid_index * 31 + version).to_bytes(4, "little") * (RAW_RECORD_BYTES // 4)


def _prepare_raw(prepared: Prepared) -> None:
    workload = prepared.workload
    started = time.perf_counter()
    engine = prepared.engine = StorageEngine(
        page_size=RAW_PAGE_SIZE,
        buffer_pages=workload.buffer_pages,
        backend=workload.backend,
        backend_path=os.path.join(prepared.scratch, "raw.pages"),
    )
    heap = prepared.heap = engine.new_heap("raw")
    prepared.initial = [_raw_record(i, 0) for i in range(workload.records)]
    prepared.rids = [heap.insert(record) for record in prepared.initial]
    prepared.image = engine.snapshot()
    prepared.build_s = time.perf_counter() - started
    prepared.stored_pages = heap.n_pages


def space_amplification(prepared: Prepared) -> float:
    """Stored bytes per byte of user data (computed outside any timing)."""
    workload = prepared.workload
    if workload.kind == "raw":
        page_bytes = prepared.stored_pages * RAW_PAGE_SIZE
        return page_bytes / (workload.records * RAW_RECORD_BYTES)
    serializer = NF2Serializer()
    user_bytes = sum(len(serializer.encode_nested(s)) for s in prepared.runner.stations)
    page_bytes = prepared.stored_pages * prepared.runner.config.page_size
    return page_bytes / len(workload.models) / user_bytes


# -- replay ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one replay produced."""

    ops: int
    counters: MetricsSnapshot
    #: The paper-visible output, JSON-ready; its hash is the checksum.
    output: object
    page_size: int
    errors: int = 0
    cells: int = 0
    json_bytes: int = 0
    shards: int = 1
    cross_shard_hops: int = 0
    serving_stats: list = field(default_factory=list)
    #: Verification too slow to sit inside the timed replay.
    deferred: Callable[["Outcome"], None] | None = None

    def settle(self) -> None:
        """Run the deferred verification (call once the clock stopped)."""
        if self.deferred is not None:
            self.deferred(self)
            self.deferred = None

    @property
    def checksum(self) -> str:
        text = json.dumps(self.output, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def hit_rate(self) -> float:
        fixes = self.counters.page_fixes
        return self.counters.buffer_hits / fixes if fixes else 0.0

    @property
    def sim_ms(self) -> float:
        return GEOMETRY.service_time_of(self.counters)


def replay(prepared: Prepared, ops_factor: float = 1.0) -> Outcome:
    """One unit of work; ``ops_factor`` < 1 is the warm-up's shorter run."""
    workload = prepared.workload
    if ops_factor != 1.0:
        prepared = _resized(prepared, ops_factor)
        workload = prepared.workload
    if workload.kind == "raw":
        return _replay_raw(prepared)
    if workload.kind == "sweep":
        return _replay_sweep(prepared)
    return _replay_traces(prepared)


def _resized(prepared: Prepared, ops_factor: float) -> Prepared:
    workload = prepared.workload.sized(ops_factor, 1.0)
    traces = _compile(workload, prepared.seed) if prepared.traces else []
    return replace(prepared, workload=workload, traces=traces)


def _replay_traces(prepared: Prepared) -> Outcome:
    workload = prepared.workload
    runner = prepared.runner
    backing = None
    if workload.backend != "memory":
        # A fresh directory per replay: the runner never overwrites a
        # backing file, it would number them -2, -3, ... instead.
        backing = tempfile.mkdtemp(prefix="pages-", dir=prepared.scratch)
        runner = BenchmarkRunner(workload.config(backing))
        runner.adopt_extension(prepared.runner.stations)
    output = []
    total = MetricsSnapshot()
    ops = errors = hops = 0
    serving_stats = []
    try:
        for model in workload.models:
            for trace in prepared.traces:
                if workload.kind == "serving":
                    served = runner.run_trace_serving(
                        model,
                        trace,
                        clients=workload.clients,
                        scheduler="round-robin",
                        workers=1,
                    )
                    result = served.result
                    stats = served.stats.to_dict()
                    serving_stats.append(stats)
                    errors += served.stats.errors
                    entry = {"serving": stats, "sessions": list(served.session_summaries)}
                else:
                    result = runner.run_trace(model, trace)
                    entry = {}
                if result.sharding is not None:
                    entry["sharding"] = result.sharding.to_dict()
                    hops += result.sharding.cross_shard_hops
                entry.update(
                    model=model,
                    workload=trace.spec.name,
                    op_counts=dict(result.op_counts),
                    counters=asdict(result.raw),
                )
                output.append(entry)
                total = total + result.raw
                ops += result.n_ops
    finally:
        if backing is not None:
            shutil.rmtree(backing, ignore_errors=True)
    return Outcome(
        ops=ops,
        counters=total,
        output=output,
        page_size=runner.config.page_size,
        errors=errors,
        shards=workload.shards,
        cross_shard_hops=hops,
        serving_stats=serving_stats,
    )


def _replay_sweep(prepared: Prepared) -> Outcome:
    workload = prepared.workload
    result = sweep.run_sweep(
        prepared.runner.config,
        workloads=tuple(workload.spec_texts(prepared.seed)),
        capacities=workload.capacities,
        policies=workload.policies,
        models=workload.models,
    )
    text = result.to_json()
    total = MetricsSnapshot()
    for cell in result.cells:
        total = total + cell.result.raw
    return Outcome(
        ops=sum(cell.result.n_ops for cell in result.cells),
        counters=total,
        output=json.loads(text),
        page_size=prepared.runner.config.page_size,
        cells=len(result.cells),
        json_bytes=len(text),
    )


def _replay_raw(prepared: Prepared) -> Outcome:
    """Rounds of {cold restart; read every record; update a seeded third}.

    Flush policy: write-back on eviction plus one final flush; no
    per-operation sync.  The expected final bytes are tracked beside the
    engine in a plain list, which makes the read-back an oracle; it runs
    deferred, after the clock stopped.
    """
    workload = prepared.workload
    engine, heap, rids = prepared.engine, prepared.heap, prepared.rids
    engine.restore(prepared.image)
    rng = random.Random(prepared.seed)
    expected = list(prepared.initial)
    indexes = range(len(rids))
    third = len(rids) // 3
    ops = 0
    for version in range(1, workload.rounds + 1):
        engine.restart_buffer()
        ops += len(heap.read_many(rids))
        for index in rng.sample(indexes, third):
            record = expected[index] = _raw_record(index, version)
            heap.update(rids[index], record)
        ops += third
    engine.flush()
    counters = engine.metrics.snapshot()

    def read_back(outcome: Outcome) -> None:
        engine.restart_buffer()
        stored = [bytes(view) for view in heap.read_many(rids)]
        outcome.output["records_sha256"] = hashlib.sha256(b"".join(stored)).hexdigest()
        outcome.errors = sum(1 for got, want in zip(stored, expected) if got != want)

    return Outcome(
        ops=ops,
        counters=counters,
        output={"counters": asdict(counters)},
        page_size=RAW_PAGE_SIZE,
        deferred=read_back,
    )


# -- oracle ----------------------------------------------------------------------


def verify_models(prepared: Prepared, samples: int = 12) -> list[str]:
    """Check stored objects against the generated ones, outside any timing.

    For a seeded sample of objects per model, ``fetch_full`` must return
    the generated station, and a root update must read back.  Returns
    the mismatches found (empty = correct).
    """
    workload = prepared.workload
    if workload.kind == "raw":
        return []  # raw_pages checks every record in every replay
    problems: list[str] = []
    stations = prepared.runner.stations
    rng = random.Random(prepared.seed)
    oids = rng.sample(range(workload.objects), min(samples, workload.objects))
    for name in workload.models:
        config = workload.config().with_changes(backend="memory", shards=1)
        model = BenchmarkRunner(config).build_model(name)
        try:
            for oid in oids:
                ref = model.ref_of(oid)
                if model.supports_oid_access:
                    fetched = model.fetch_full(ref)
                else:
                    fetched = model.fetch_full_by_key(model.key_of(oid))
                if fetched != stations[oid]:
                    problems.append(f"{name}: object {oid} differs from the generated one")
                model.update_roots([ref], {"Name": f"verify-{oid}"})
                (root,) = model.fetch_roots([ref])
                if root["Name"] != f"verify-{oid}":
                    problems.append(f"{name}: update of object {oid} did not read back")
        finally:
            model.engine.close()
    return problems
