"""Sensitivity sweeps: workloads × buffer capacities × policies × models.

The paper fixes one buffer (1200 pages, LRU-like replacement) and one
workload (the seven Altair queries).  This grid driver crosses synthetic
:class:`~repro.benchmark.workload.WorkloadSpec` traces with buffer
capacities, replacement policies and storage models, and reports per
cell the quantities the paper's argument rests on: I/O calls, page
transfers and the buffer hit rate, all per operation.

Every cell replays the *identical* compiled trace (the spec is seeded
and the extension is generated once), so differences between cells are
attributable entirely to the storage model and the buffer regime — the
experimental discipline of Section 5, extended to a grid.  Results come
out as aligned text (:func:`render`) and as deterministic JSON
(:meth:`SweepResult.to_json`): the same seed yields byte-identical
output, which CI exploits.

The model runs once per *family* — the cells that differ only in
buffer capacity and policy (:func:`plan_families`).  Its first cell
executes the model and records the page-reference string its buffer
was asked for (:class:`~repro.storage.buffer.ReferenceString`); every
other cell of the family replays that string through a fresh buffer,
disk accounting and backend of its own, which yields the counters
direct execution would, with no model, serializer or heap code
running.  Cells the buffer does not alone determine execute directly,
each for the reason :func:`direct_reason` names.

Families run one after another in the calling process or, with
``processes``, fanned out over worker processes.  Both go through the
same family function (:func:`run_family`) and every cell builds its
own engine (its own disk and buffer), so the two are observationally
identical.  The optional axes beyond the four core ones — placement,
concurrent sessions, shards — are declared once, in :data:`AXES`.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, partial
from typing import Callable, Mapping, Sequence

from repro.benchmark.config import BenchmarkConfig, DEFAULT_CONFIG
from repro.benchmark.generator import generate_stations
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.snapshots import DEFAULT_STORE, snapshot_key
from repro.benchmark.workload import (
    WorkloadResult,
    WorkloadSpec,
    WorkloadTrace,
    compile_trace,
    parse_workload,
)
from repro.clustering.placement import RECLUSTER_MODES, validate_mode
from repro.clustering.stats import trace_stats
from repro.errors import BenchmarkError
from repro.models.registry import MEASURED_MODELS, resolve_models
from repro.experiments.report import render_table
from repro.serving.scheduler import SCHEDULER_NAMES
from repro.serving.server import ServingStats
from repro.storage.buffer import ReferenceString
from repro.storage.disk import DiskGeometry

#: Default grid of the sweep experiment: the paper's buffer (1200)
#: bracketed by a quarter and a quadruple, the DASDBS-like default
#: policy against LRU-2 and 2Q, and the two canonical skews.
DEFAULT_CAPACITIES = (300, 1200, 4800)
DEFAULT_POLICIES = ("lru", "lru-k", "2q")
DEFAULT_WORKLOADS = ("uniform", "zipf(1.0)")

#: Default admission scheduler of the serving cells.
DEFAULT_SCHEDULER = "fifo"

#: Default OID-to-shard assignment of sharded cells.
DEFAULT_SHARD_POLICY = "hash"

#: Geometry behind the sweep's service-time estimates (the paper-era
#: disk of :class:`~repro.storage.disk.DiskGeometry`'s defaults).  The
#: estimate turns the two counters of Equation 1 into milliseconds, so
#: a sweep row shows call/page counts *and* what they cost in
#: wall-clock terms on the reference disk.
SWEEP_GEOMETRY = DiskGeometry()

#: Config fields that tag the whole grid rather than cross it, with the
#: value at which they stay out of the JSON: a fault-free sweep must
#: stay byte-identical to a build that predates fault injection
#: ("counters are sacred").
GRID_TAGS = {"faults": "none"}


#: One table column: its header and the value it shows for a cell.
Column = tuple[str, Callable[["SweepCell"], object]]


@dataclass(frozen=True)
class Axis:
    """One optional grid axis, declared once in :data:`AXES`.

    The output rule is generic.  An axis left at ``default`` is *absent*
    from the text and the JSON — byte-for-byte what the sweep emitted
    before the axis existed.  Any other value list adds the axis itself
    (``keyword`` in the grid JSON, ``field`` in every cell and as a
    coordinate column) plus whatever ``grid``, ``cell``, ``columns`` and
    ``note`` declare, uniformly to every cell.  Execution knobs —
    ``processes``, the disk backend, ``io_scheduler`` — reach neither
    because they are not in the table: runs that differ only in *how*
    the bytes move must produce byte-identical output, which is what
    lets CI byte-diff them.
    """

    #: ``run_sweep`` keyword carrying the value list; also its grid key.
    keyword: str
    #: Name of the per-cell coordinate — and, where
    #: :class:`BenchmarkConfig` has a field of that name, the field the
    #: coordinate sets on the cell's configuration.
    field: str
    #: The value list under which the axis changes nothing.
    default: tuple
    #: Normalises one value or raises :class:`BenchmarkError`.
    check: Callable[[object], object]
    #: CLI flag, its help text and extra ``add_argument`` keywords.
    flag: str
    help: str
    argparse: Mapping[str, object]
    #: Further grid / cell JSON keys the axis adds when non-default.
    grid: Callable[[SweepResult], dict] = lambda result: {}
    cell: Callable[[SweepCell], dict] = lambda cell: {}
    #: Further metric columns, after the ones every table carries.
    columns: tuple[Column, ...] = ()
    #: Sentence(s) appended to each table's note.
    note: Callable[[SweepResult], str] = lambda result: ""


#: The metric columns of every table; :attr:`Axis.columns` extend them.
METRIC_COLUMNS: tuple[Column, ...] = (
    ("calls/op", lambda cell: cell.result.per_op.io_calls),
    ("pages/op", lambda cell: cell.result.per_op.io_pages),
    ("hit rate", lambda cell: cell.result.hit_rate),
    ("evict/op", lambda cell: cell.result.per_op.evictions),
    ("svc ms/op", lambda cell: cell.service_time_ms / cell.result.n_ops),
)


def _columns(axes: Sequence[Axis]) -> list[Column]:
    return [*METRIC_COLUMNS, *(column for axis in axes for column in axis.columns)]


def _count(noun: str) -> Callable[[object], int]:
    def check(value: object) -> int:
        count = int(value)
        if count < 1:
            raise BenchmarkError(f"{noun} counts must be at least 1, got {value!r}")
        return count

    return check


def _cross_shard_hops(cell: SweepCell) -> int:
    sharding = cell.result.sharding
    return sharding.cross_shard_hops if sharding is not None else 0


AXES: tuple[Axis, ...] = (
    # Placement.  Offline policies run under their trained layout
    # (trained on the cell's own trace, see BenchmarkRunner.
    # build_model_for_trace); "online" cells start in insertion order
    # and reorganise incrementally during the measured replay.  The
    # per-workload trace statistics put the skew next to the counters
    # it explains.
    Axis(
        keyword="reclusters",
        field="recluster",
        default=("none",),
        check=validate_mode,
        flag="--recluster",
        argparse={"metavar": "MODE", "choices": RECLUSTER_MODES},
        help=(
            "trace-driven placement axis of the sweep: 'none' "
            "(insertion order, default), 'affinity' (greedy co-access "
            "chaining), 'hotcold' (heat segregation) and/or 'online' "
            "(no pre-training: bounded page-move batches during the "
            "measured replay, their I/O landing in the counters); "
            "offline cells train on the cell's own trace, rewrite the "
            "shared pages, then replay measured (with only 'none' the "
            "output is byte-identical to a sweep without the axis)"
        ),
        grid=lambda result: {
            "workload_stats": {
                spec.name: trace_stats(
                    compile_trace(spec, result.config.n_objects)
                ).to_dict()
                for spec in result.workloads
            }
        },
        note=lambda result: (
            "  Offline reclustered cells train on the cell's own "
            "trace (unmeasured), rewrite the shared pages, then "
            "replay measured; 'online' cells start in insertion "
            "order and move bounded page batches during the "
            "measured replay."
        ),
    ),
    # Concurrent sessions.  A non-default axis routes *every* cell
    # (the 1-client cells too) through the serving executor, whose
    # 1-client counters are identical to the single-stream executor's;
    # the latency/throughput digest is simulated-time (derived from the
    # integer counters), so it is as byte-reproducible as they are.
    Axis(
        keyword="clients",
        field="clients",
        default=(1,),
        check=_count("client"),
        flag="--clients",
        argparse={"metavar": "N", "type": int},
        help=(
            "concurrent-session axis of the sweep: each cell serves N "
            "client sessions of its workload over one shared engine "
            "(default: 1, the single-stream replay with byte-identical "
            "output; any other axis adds simulated-time p50/p99 latency "
            "and requests/second per cell)"
        ),
        grid=lambda result: {"serving": {"scheduler": result.scheduler}},
        cell=lambda cell: {"serving": cell.serving.to_dict()},
        columns=(
            ("p50 ms", lambda cell: cell.serving.latency_p50_ms),
            ("p99 ms", lambda cell: cell.serving.latency_p99_ms),
            ("req/s", lambda cell: cell.serving.requests_per_second),
        ),
        note=lambda result: (
            "  Serving cells interleave N client sessions under the "
            f"{result.scheduler!r} grant order; p50/p99 and req/s are "
            "simulated-time (closed loop over the Equation-1 service "
            "times), so they reproduce byte-for-byte."
        ),
    ),
    # Shards.  The 1-shard cells of a sharded grid take the
    # single-engine path and carry no per-shard report.
    Axis(
        keyword="shards",
        field="shards",
        default=(1,),
        check=_count("shard"),
        flag="--shards",
        argparse={"metavar": "N", "type": int},
        help=(
            "shard axis of the sweep: each cell partitions the OID space "
            "across N replica engines (own buffer, disk and counters) and "
            "scatter-gathers scans and navigation across them (default: 1, "
            "the single-engine path with byte-identical output; any other "
            "axis adds a cross-shard-hop column and per-shard counter "
            "drill-downs to the JSON)"
        ),
        grid=lambda result: {"shard_policy": result.shard_policy},
        cell=lambda cell: {
            "sharding": (
                cell.result.sharding.to_dict(SWEEP_GEOMETRY)
                if cell.result.sharding is not None
                else None
            )
        },
        columns=(("hops", _cross_shard_hops),),
        note=lambda result: (
            "  Sharded cells partition the OID space across N "
            f"replica engines under the {result.shard_policy!r} "
            "policy; 'hops' counts ownership transfers between "
            "consecutive shard visits along the operation stream."
        ),
    ),
)


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a workload on one model under one buffer regime.

    The coordinate on every optional axis (``recluster``, ``clients``,
    ``shards``, keyed by :attr:`Axis.field`) lives in ``coordinates``
    and also reads as an attribute: ``cell.recluster``.
    """

    workload: str
    capacity: int
    policy: str
    model: str
    result: WorkloadResult
    coordinates: Mapping[str, object]
    #: Simulated-time throughput/latency digest of the serving run;
    #: ``None`` on the single-stream path (default client axis).
    serving: ServingStats | None = None

    def __getattr__(self, name: str) -> object:
        # Only reached for names that are not real attributes.  Going
        # through __dict__ keeps unpickling (which probes an empty
        # instance) from recursing.
        try:
            return self.__dict__["coordinates"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def service_time_ms(self) -> float:
        """Estimated disk service time of the whole cell (Equation 1
        weighted with :data:`SWEEP_GEOMETRY`); exact — computed from the
        integer counters, so it is as reproducible as they are."""
        raw = self.result.raw
        return SWEEP_GEOMETRY.service_time_ms(raw.io_calls, raw.io_pages)

    def row(self, axes: Sequence[Axis] = ()) -> list[object]:
        """Table row: coordinates plus the per-operation metrics, with
        the columns of the grid's non-default ``axes``."""
        return [
            self.model,
            self.policy,
            self.capacity,
            *(self.coordinates[axis.field] for axis in axes),
            *(value(self) for _, value in _columns(axes)),
        ]

    def to_dict(self, axes: Sequence[Axis] = ()) -> dict[str, object]:
        """JSON-stable cell encoding (raw integer counters, plus the
        exact service-time estimate derived from them) with the keys of
        the grid's non-default ``axes``."""
        encoded: dict[str, object] = {
            "workload": self.workload,
            "capacity": self.capacity,
            "policy": self.policy,
            "model": self.model,
            "n_ops": self.result.n_ops,
            "op_counts": dict(sorted(self.result.op_counts.items())),
            **asdict(self.result.raw),
            "service_time_ms": self.service_time_ms,
        }
        for axis in axes:
            encoded[axis.field] = self.coordinates[axis.field]
            encoded.update(axis.cell(self))
        return encoded


@dataclass(frozen=True)
class SweepResult:
    """All cells of one sweep, in deterministic grid order."""

    config: BenchmarkConfig
    workloads: tuple[WorkloadSpec, ...]
    capacities: tuple[int, ...]
    policies: tuple[str, ...]
    models: tuple[str, ...]
    #: Value list of every optional axis, keyed by :attr:`Axis.keyword`.
    axes: Mapping[str, tuple]
    #: Admission scheduler of the serving cells / OID-to-shard policy of
    #: the sharded ones; emitted only with their axis.
    scheduler: str = DEFAULT_SCHEDULER
    shard_policy: str = DEFAULT_SHARD_POLICY
    cells: tuple[SweepCell, ...] = ()

    @property
    def active_axes(self) -> tuple[Axis, ...]:
        """The optional axes this grid carries at a non-default value —
        the only ones its text and JSON mention."""
        return tuple(a for a in AXES if self.axes[a.keyword] != a.default)

    def cells_for(self, workload: str) -> list[SweepCell]:
        return [cell for cell in self.cells if cell.workload == workload]

    def to_json(self) -> str:
        """Deterministic JSON: same seed ⇒ byte-identical output.

        Only integer counters are emitted (normalisation is left to the
        consumer), so the representation is exact, not float-formatted.
        Optional axes at their default and grid tags at theirs are left
        out (see :class:`Axis`), so the encoding of such a grid is
        **byte-identical** to the format that predates them.
        """
        grid: dict[str, object] = {
            "workloads": [spec.describe() for spec in self.workloads],
            "capacities": list(self.capacities),
            "policies": list(self.policies),
            "models": list(self.models),
            "n_objects": self.config.n_objects,
            "data_seed": self.config.seed,
            "service_time_model": {
                "positioning_ms": SWEEP_GEOMETRY.positioning_ms,
                "transfer_ms_per_page": SWEEP_GEOMETRY.transfer_ms_per_page,
            },
        }
        for name, absent in GRID_TAGS.items():
            value = getattr(self.config, name)
            if value != absent:
                grid[name] = value
        axes = self.active_axes
        for axis in axes:
            grid[axis.keyword] = list(self.axes[axis.keyword])
            grid.update(axis.grid(self))
        payload = {"grid": grid, "cells": [cell.to_dict(axes) for cell in self.cells]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class PlannedCell:
    """Everything one cell needs, picklable for a worker process."""

    spec: WorkloadSpec
    model: str
    #: The cell's own configuration — built, and thereby validated,
    #: when the grid is planned.
    config: BenchmarkConfig
    coordinates: Mapping[str, object]
    #: Admission scheduler name when the grid is served.
    serving: str | None = None
    #: Spilled extension artifact a pool worker preloads (see
    #: :func:`_spill_snapshots`); None = build from the extension.
    snapshot_path: str | None = None


class CellInputs:
    """The deterministic inputs cells share within one process.

    Data generation and trace compilation are deterministic, so a pool
    worker deriving its own copy (instead of unpickling 10⁵ nested
    tuples per cell) is a pure cost saving with an identical result.
    """

    def __init__(self) -> None:
        self.extensions: dict[tuple, Callable[[], list]] = {}
        self.traces: dict[tuple[WorkloadSpec, int], WorkloadTrace] = {}

    def share_extension(self, runner: BenchmarkRunner) -> Callable[[], list]:
        """Give ``runner`` the extension of its data knobs (the snapshot
        key less the model) and return it, as a callable: generated when
        the first runner *uses* it, never for a grid whose cells all
        clone from the snapshot store."""
        key = snapshot_key(runner.config, model_name="")
        if key not in self.extensions:
            self.extensions[key] = cache(partial(generate_stations, runner.config))
        runner.adopt_extension(self.extensions[key])
        return self.extensions[key]

    def trace(self, spec: WorkloadSpec, n_objects: int) -> WorkloadTrace:
        key = (spec, n_objects)
        if key not in self.traces:
            self.traces[key] = compile_trace(spec, n_objects)
        return self.traces[key]


#: Inputs of the cells a pool worker runs; lives and dies with the
#: worker process.  The sequential path passes its own, scoped to one
#: :func:`run_sweep` call, so nothing accumulates in the caller.
_WORKER_INPUTS = CellInputs()


def direct_reason(cell: PlannedCell) -> str | None:
    """Why ``cell`` must execute the model itself, or None if it may replay.

    A cell replays the page-reference string its family recorded (see
    :func:`run_family`) unless something besides the buffer shapes what
    the run asks of the buffer, or the replay could leave a trace
    outside the counters.  Offline placements and the online
    controller replay: what they move is a function of the trace, and
    the moves' page traffic is part of the recorded string.
    """
    config = cell.config
    if config.faults != "none":
        return "faults: retries depend on the injected I/O outcomes"
    if cell.serving is not None:
        return "serving: the sessions' interleaving is the scheduler's"
    if config.shards != 1:
        return "shards: one string per replica engine"
    if config.backend == "trace" or (
        config.backend_path is not None and config.backend != "memory"
    ):
        return "engine files outlive the cell: a replayed image holds stale page bytes"
    return None


def plan_families(planned: Sequence[PlannedCell]) -> list[list[int]]:
    """Group a grid's cells into families, as lists of grid indices.

    A family is the cells whose configuration differs only in
    ``buffer_pages`` and ``policy``: the same workload spec, model and
    optional-axis coordinates.  They ask the identical page-reference
    string of their buffers, so one of them executes the model and the
    others replay it.  Families come in the grid order of their first
    cell, and each lists its cells in grid order.  A cell with a
    :func:`direct_reason` is a family of its own.
    """
    families: dict[object, list[int]] = {}
    for index, cell in enumerate(planned):
        key: object = (cell.spec, cell.model, tuple(cell.coordinates.items()))
        if direct_reason(cell) is not None:
            key = index
        families.setdefault(key, []).append(index)
    return list(families.values())


def _prepare(cell: PlannedCell, inputs: CellInputs | None) -> tuple[BenchmarkRunner, WorkloadTrace]:
    """The cell's runner and trace.

    With ``cell.snapshot_path`` the parent has spilled the cell's built
    (and, for a reclustered cell, reorganised) extension to disk; the
    worker maps the artifact into its process-wide snapshot store (one
    file read per worker per artifact) and the runner clones from it
    — the worker never generates, bulk-loads or retrains anything.
    Without one the cell's runner shares the process's generated
    extension and builds, or clones from the snapshot store, as
    configured.
    """
    if inputs is None:
        inputs = _WORKER_INPUTS
    runner = BenchmarkRunner(cell.config)
    if cell.snapshot_path is not None:
        DEFAULT_STORE.preload(cell.snapshot_path)
    else:
        inputs.share_extension(runner)
    return runner, inputs.trace(cell.spec, cell.config.n_objects)


def _sweep_cell(
    cell: PlannedCell, result: WorkloadResult, serving: ServingStats | None = None
) -> SweepCell:
    return SweepCell(
        workload=cell.spec.name,
        capacity=cell.config.buffer_pages,
        policy=cell.config.policy,
        model=cell.model,
        result=result,
        coordinates=cell.coordinates,
        serving=serving,
    )


def run_cell(
    cell: PlannedCell,
    inputs: CellInputs | None = None,
    references: ReferenceString | None = None,
) -> SweepCell:
    """Run one grid cell on a fresh engine, executing the model.

    With ``references`` (single-stream cells only) the run also records
    its page-reference string into it.
    """
    runner, trace = _prepare(cell, inputs)
    if cell.serving is not None:
        served = runner.run_trace_serving(
            cell.model, trace, cell.coordinates["clients"], scheduler=cell.serving
        )
        return _sweep_cell(cell, served.result, served.stats)
    return _sweep_cell(cell, runner.run_trace(cell.model, trace, references))


def run_family(
    family: Sequence[PlannedCell], inputs: CellInputs | None = None
) -> list[SweepCell]:
    """Run one family (see :func:`plan_families`), in-process or in a worker.

    Its first cell executes the model and records the page-reference
    string; every further cell replays that string through its own
    fresh buffer, disk accounting and backend.
    """
    first, *others = family
    if not others:
        return [run_cell(first, inputs)]
    references = ReferenceString()
    cells = [run_cell(first, inputs, references)]
    for cell in others:
        runner, trace = _prepare(cell, inputs)
        cells.append(_sweep_cell(cell, runner.replay_trace(cell.model, trace, references)))
    return cells


def plan_sweep(
    config: BenchmarkConfig,
    workloads: Sequence[WorkloadSpec | str],
    capacities: Sequence[int],
    policies: Sequence[str],
    models: Sequence[str],
    scheduler: str = DEFAULT_SCHEDULER,
    shard_policy: str = DEFAULT_SHARD_POLICY,
    **axes: Sequence[object],
) -> tuple[SweepResult, list[PlannedCell]]:
    """Validate a grid and lay out its cells, running none.

    Returns the cell-less result and the planned cells in grid order.
    Every cell's :class:`BenchmarkConfig` is built here, so a grid that
    combines incompatible knobs is refused with the config's own typed
    :class:`~repro.errors.ConfigError` before the first cell runs (and
    before anything is built).
    """
    specs = tuple(parse_workload(w) if isinstance(w, str) else w for w in workloads)
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        # Cells are keyed by workload name in the report and the JSON;
        # duplicates would conflate two specs' cells indistinguishably.
        raise BenchmarkError(
            f"workload names must be unique, got {names!r} "
            f"(override with a name=... token)"
        )
    model_names = resolve_models(models)
    unknown = set(axes) - {axis.keyword for axis in AXES}
    if unknown:
        raise TypeError(f"run_sweep() got unexpected keyword(s) {sorted(unknown)}")
    values: dict[str, tuple] = {}
    for axis in AXES:
        given = axes.get(axis.keyword, axis.default)
        checked = tuple(axis.check(value) for value in given)
        if not checked or len(set(checked)) != len(checked):
            raise BenchmarkError(
                f"the {axis.keyword} axis needs at least one value and "
                f"each value once, got {list(given)!r}"
            )
        values[axis.keyword] = checked
    if scheduler not in SCHEDULER_NAMES:
        raise BenchmarkError(
            f"unknown scheduler {scheduler!r} (known: {', '.join(SCHEDULER_NAMES)})"
        )
    result = SweepResult(
        config=config,
        workloads=specs,
        capacities=tuple(capacities),
        policies=tuple(policies),
        models=model_names,
        axes=values,
        scheduler=scheduler,
        shard_policy=shard_policy,
    )
    served = any(axis.field == "clients" for axis in result.active_axes)
    config_fields = {f.name for f in fields(BenchmarkConfig)}
    planned = []
    for spec, capacity, policy, model, *point in itertools.product(
        specs, capacities, policies, model_names, *values.values()
    ):
        coordinates = {axis.field: value for axis, value in zip(AXES, point)}
        configured = {k: v for k, v in coordinates.items() if k in config_fields}
        planned.append(
            PlannedCell(
                spec=spec,
                model=model,
                config=config.with_changes(
                    buffer_pages=capacity,
                    policy=policy,
                    shard_policy=shard_policy,
                    **configured,
                ),
                coordinates=coordinates,
                serving=scheduler if served else None,
            )
        )
    return result, planned


def _spill_snapshots(planned: Sequence[PlannedCell], directory: str) -> list[PlannedCell]:
    """Build each cell's extension once, here in the parent, and spill
    it for the pool workers: the base image per model, the trained and
    reorganised image per (model, offline policy, workload).

    "online" cells start from the base image (their controller
    reorganises during the measured replay, nothing to cache).  Cells
    whose configuration rules snapshots out are returned unchanged —
    their worker generates the extension once and rebuilds (and
    retrains) per cell, with byte-identical output.
    """
    inputs = CellInputs()
    spilled: dict[tuple, str] = {}
    placed = []
    for cell in planned:
        runner = BenchmarkRunner(cell.config)
        if not runner.snapshots_active:
            placed.append(cell)
            continue
        stations = inputs.share_extension(runner)
        if cell.config.recluster in ("none", "online"):
            snapshot = DEFAULT_STORE.get(cell.config, cell.model, stations, runner.fmt)
        else:
            snapshot = DEFAULT_STORE.get_reclustered(
                cell.config,
                cell.model,
                stations,
                runner.fmt,
                inputs.trace(cell.spec, cell.config.n_objects),
                cell.config.recluster,
            )
        if snapshot.key not in spilled:
            spilled[snapshot.key] = DEFAULT_STORE.spill(
                snapshot, directory, stem=f"artifact-{len(spilled)}"
            )
        placed.append(replace(cell, snapshot_path=spilled[snapshot.key]))
    return placed


def run_sweep(
    config: BenchmarkConfig = DEFAULT_CONFIG,
    workloads: Sequence[WorkloadSpec | str] = DEFAULT_WORKLOADS,
    capacities: Sequence[int] = DEFAULT_CAPACITIES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    models: Sequence[str] = MEASURED_MODELS,
    processes: int | None = None,
    **options: object,
) -> SweepResult:
    """Run the full grid; every cell gets a fresh engine.

    The grid runs family by family (:func:`plan_families`): one model
    execution per family, whose page-reference string every other cell
    of the family replays under its own buffer.

    ``config`` supplies the data knobs (extension size, seeds, page
    size, disk backend); its ``buffer_pages`` and ``policy`` are
    overridden per cell by the grid axes.  ``options`` are the optional
    axes of :data:`AXES` — ``reclusters=``, ``clients=``, ``shards=``,
    each a value list crossed into the grid and invisible at its
    default — and the scalars of :func:`plan_sweep`: ``scheduler``
    fixes the deterministic grant order of served cells (which is their
    execution order) and ``shard_policy`` the OID-to-shard assignment
    of sharded ones.

    ``processes`` > 1 fans families out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`, which sidesteps
    the GIL for CPU-bound grids; results are identical to the
    sequential order.  Sequential stays the default because workers
    cost a fork and one snapshot spill or extension generation each —
    they amortise on grids with many families per worker (threads do
    not pay at all under the GIL; docs/PERFORMANCE.md has the
    measurement).
    """
    result, planned = plan_sweep(config, workloads, capacities, policies, models, **options)
    families = plan_families(planned)
    if processes is not None and processes > 1 and len(families) > 1:
        with tempfile.TemporaryDirectory(
            prefix="repro-snapshots-", ignore_cleanup_errors=True
        ) as spill_dir:
            planned = _spill_snapshots(planned, spill_dir)
            with ProcessPoolExecutor(max_workers=min(processes, len(families))) as pool:
                runs = list(
                    pool.map(
                        run_family,
                        [[planned[index] for index in family] for family in families],
                    )
                )
    else:
        # Generate the extension and compile each spec's trace once;
        # every family shares the immutable inputs.
        inputs = CellInputs()
        runs = [
            run_family([planned[index] for index in family], inputs)
            for family in families
        ]
    cells: list[SweepCell | None] = [None] * len(planned)
    for family, run in zip(families, runs):
        for index, cell in zip(family, run):
            cells[index] = cell
    return replace(result, cells=tuple(cells))


def render_result(result: SweepResult) -> str:
    """Aligned-text report: one table per workload, grid order rows."""
    axes = result.active_axes
    headers = [
        "model",
        "policy",
        "buffer",
        *(axis.field for axis in axes),
        *(header for header, _ in _columns(axes)),
    ]
    note = (
        "Identical compiled trace per cell; calls/pages per "
        "operation, hit rate = buffer hits / page fixes, svc "
        "ms/op = Equation-1 service-time estimate on the "
        f"reference disk ({SWEEP_GEOMETRY.positioning_ms:g} ms/call "
        f"+ {SWEEP_GEOMETRY.transfer_ms_per_page:g} ms/page)."
    ) + "".join(axis.note(result) for axis in axes)
    return "\n".join(
        render_table(
            f"Sweep — {spec.describe()}",
            headers,
            [cell.row(axes) for cell in result.cells_for(spec.name)],
            note=note,
        )
        for spec in result.workloads
    )


def render(
    config: BenchmarkConfig = DEFAULT_CONFIG,
    workloads: Sequence[WorkloadSpec | str] = DEFAULT_WORKLOADS,
    capacities: Sequence[int] = DEFAULT_CAPACITIES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    models: Sequence[str] = MEASURED_MODELS,
    json_path: str | None = None,
    **options: object,
) -> str:
    """CLI entry point: run the grid (``options`` as for
    :func:`run_sweep`), optionally dump JSON, render text."""
    result = run_sweep(config, workloads, capacities, policies, models, **options)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
    return render_result(result)
