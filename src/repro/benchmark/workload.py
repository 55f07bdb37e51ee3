"""Synthetic workload engine: spec → deterministic trace → execution.

The paper measures one fixed workload (the seven revised-Altair queries)
against one fixed 1200-page buffer.  Its central claim — that I/O
*calls*, not transferred pages, dominate complex-object cost — is
stress-tested here across access skews, read/write mixes and buffer
regimes, the way Darmont & Gruenwald vary workload locality when
comparing clustering techniques:

* a :class:`WorkloadSpec` fixes an operation mix (point-lookup /
  navigate / scan / update), an OID skew (uniform or Zipfian), a buffer
  regime (warm or cold per operation), an operation count and a seed;
* :func:`compile_trace` turns the spec into a :class:`WorkloadTrace`, a
  flat, reproducible list of :class:`Operation` values — the same seed
  always yields the same trace, so every storage model (and every
  buffer configuration in a sweep) executes the identical access
  pattern;
* a :class:`WorkloadExecutor` replays the trace against any loaded
  :class:`~repro.models.base.StorageModel` and measures it as a
  :class:`~repro.storage.metrics.MetricsSnapshot`.  It is the one
  executor: the paper's seven queries are traces too
  (:func:`~repro.benchmark.queries.paper_trace`), run by the same loop.

Zipfian skew ranks objects by OID (rank 1 = OID 0, probability
∝ 1/rank^θ), so the hot set coincides with the low OIDs, which bulk
loading clusters together — hot objects share pages, exactly the
locality regime where storage-model rankings are known to flip.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import BenchmarkError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.clustering.online import OnlineRecluster
from repro.models.base import StorageModel
from repro.storage.metrics import MetricsSnapshot, ScaledMetrics

#: Operation kinds in trace order of the mix tuple.
OP_KINDS = ("point", "navigate", "scan", "update")

#: Recognised skew families.
SKEWS = ("uniform", "zipf")

#: Recognised drift schedules of the hot window (DOEF-style dynamic
#: workloads, after Darmont's "Evaluating the Dynamic Behavior of
#: Database Applications"): "none" keeps the whole extension as the
#: target population; the others confine each operation's target to a
#: window of the OID space whose position or size changes every
#: ``drift_period`` operations.
DRIFTS = ("none", "step", "rotate", "expand")

#: Recognised application-scenario trace compilers ("none" = the mix/
#: skew compiler below).  Scenario traces come from small deterministic
#: application simulations (ticket holds, activity feeds) instead of
#: independent draws — see :mod:`repro.benchmark.scenarios`.
SCENARIOS = ("none", "ticket-inventory", "activity-stream")


@dataclass(frozen=True)
class WorkloadSpec:
    """One synthetic workload: mix, skew, buffer regime, size, seed.

    The weights are relative frequencies (they need not sum to one);
    each operation of the trace draws its kind from the normalised mix
    and — except for scans — its target object from the skew.
    """

    name: str = "uniform"
    point_weight: float = 0.55
    navigate_weight: float = 0.30
    scan_weight: float = 0.02
    update_weight: float = 0.13
    skew: str = "uniform"
    zipf_theta: float = 1.0
    warm: bool = True
    n_ops: int = 200
    seed: int = 1993
    #: Drift schedule of the hot window ("none" = static targeting over
    #: the whole extension, the pre-drift behaviour — traces compile
    #: byte-identically to specs that predate these fields).
    drift: str = "none"
    #: Operations per drift phase: the window moves/grows every
    #: ``drift_period`` operations (ignored when ``drift == "none"``).
    drift_period: int = 50
    #: Fraction of the OID space inside the hot window (ignored when
    #: ``drift == "none"``); the skew applies *within* the window.
    hot_fraction: float = 0.1
    #: Application scenario compiling the trace ("none" = the mix/skew
    #: compiler; traces of scenario-free specs stay byte-identical to
    #: specs that predate these fields).
    scenario: str = "none"
    #: Size of the scenario's hot record block (contiguous low OIDs, so
    #: a range shard policy colocates it while hash scatters it);
    #: 0 = a scenario-chosen default.
    scenario_records: int = 0
    #: Ticket scenario only: operations a hold survives before it
    #: expires back to available.
    hold_ops: int = 25

    def __post_init__(self) -> None:
        weights = self.mix()
        if any(w < 0 for w in weights.values()):
            raise BenchmarkError("workload mix weights must be non-negative")
        if not any(weights.values()):
            raise BenchmarkError("workload mix must have at least one positive weight")
        if self.skew not in SKEWS:
            raise BenchmarkError(
                f"unknown skew {self.skew!r} (known: {', '.join(SKEWS)})"
            )
        if self.zipf_theta <= 0:
            raise BenchmarkError("zipf_theta must be positive")
        if self.n_ops < 1:
            raise BenchmarkError("n_ops must be at least 1")
        if not self.name:
            raise BenchmarkError("workload name must be non-empty")
        if self.drift not in DRIFTS:
            raise BenchmarkError(
                f"unknown drift {self.drift!r} (known: {', '.join(DRIFTS)})"
            )
        if self.drift_period < 1:
            raise BenchmarkError("drift_period must be at least 1")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise BenchmarkError("hot_fraction must be within (0, 1]")
        if self.scenario not in SCENARIOS:
            raise BenchmarkError(
                f"unknown scenario {self.scenario!r} (known: {', '.join(SCENARIOS)})"
            )
        if self.scenario_records < 0:
            raise BenchmarkError("scenario_records must be non-negative")
        if self.hold_ops < 1:
            raise BenchmarkError("hold_ops must be at least 1")
        if self.scenario != "none" and self.drift != "none":
            raise BenchmarkError(
                "a scenario compiles its own trace; it cannot be combined "
                "with a drift schedule"
            )

    def mix(self) -> dict[str, float]:
        """Operation-kind weights keyed by :data:`OP_KINDS` entry."""
        return {
            "point": self.point_weight,
            "navigate": self.navigate_weight,
            "scan": self.scan_weight,
            "update": self.update_weight,
        }

    def with_changes(self, **changes: Any) -> "WorkloadSpec":
        """A modified copy (convenience over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Compact one-line summary used in reports and JSON."""
        mix = "/".join(f"{kind}:{w:g}" for kind, w in self.mix().items() if w > 0)
        skew = self.skew if self.skew != "zipf" else f"zipf({self.zipf_theta:g})"
        regime = "warm" if self.warm else "cold"
        text = f"{self.name}: {mix}, {skew}, {regime}, {self.n_ops} ops, seed {self.seed}"
        if self.drift != "none":
            # Appended only for drifting specs, so static specs keep
            # describing themselves byte-for-byte as before the axis.
            text += (
                f", drift {self.drift}"
                f"(period={self.drift_period}, window={self.hot_fraction:g})"
            )
        if self.scenario != "none":
            # Same conditional-emission discipline as drift: scenario-free
            # specs keep describing themselves byte-for-byte as before.
            text += f", scenario {self.scenario}"
            if self.scenario_records:
                text += f"(records={self.scenario_records})"
        return text


@dataclass(frozen=True)
class Operation:
    """One trace entry: an operation kind and its target OID (scans: -1)."""

    kind: str
    oid: int = -1


@dataclass(frozen=True)
class WorkloadTrace:
    """A compiled workload: the spec plus its concrete operations."""

    spec: WorkloadSpec
    n_objects: int
    ops: tuple[Operation, ...]

    def op_counts(self) -> dict[str, int]:
        """Operations per kind: every :data:`OP_KINDS` entry, plus the others present."""
        counts = dict.fromkeys(OP_KINDS, 0)
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts


class _ZipfSampler:
    """Zipfian rank sampler: P(rank i) ∝ 1/i^θ over 1..n, via the CDF."""

    def __init__(self, n: int, theta: float) -> None:
        cumulative = 0.0
        self._cdf: list[float] = []
        for rank in range(1, n + 1):
            cumulative += 1.0 / math.pow(rank, theta)
            self._cdf.append(cumulative)
        self._total = cumulative
        self._max_rank = n - 1

    def sample(self, rng: random.Random) -> int:
        """A zero-based rank (= the OID under the identity mapping).

        Clamped: ``rng.random() * total`` can round up to ``total``
        itself at the float boundary (certain for ``n == 1``, where
        total is exactly 1.0), and an unclamped ``bisect_right`` would
        then return ``n`` — one past the last valid OID.
        """
        rank = bisect_right(self._cdf, rng.random() * self._total)
        return rank if rank <= self._max_rank else self._max_rank


def hot_window(spec: WorkloadSpec, n_objects: int, index: int) -> tuple[int, int]:
    """``(start, size)`` of the hot OID window governing operation ``index``.

    A pure function of the spec and the operation index — the drift
    schedule is part of the *trace*, not of execution, so any consumer
    (tests, the drift experiment, an online reclusterer) can recompute
    exactly which window any operation targeted.

    * ``step`` — the window jumps by its own size every phase, the
      abrupt locality change of DOEF's moving hot spot;
    * ``rotate`` — the window slides by half its size every phase, so
      consecutive phases overlap (gradual drift);
    * ``expand`` — the window grows by its base size every phase from
      the start of the OID space (the hot set dilutes over time);
    * ``none`` — the whole extension, always.
    """
    if spec.drift == "none":
        return 0, n_objects
    base = min(n_objects, max(1, round(n_objects * spec.hot_fraction)))
    phase = index // spec.drift_period
    if spec.drift == "step":
        return (phase * base) % n_objects, base
    if spec.drift == "rotate":
        return (phase * max(1, base // 2)) % n_objects, base
    # expand
    return 0, min(n_objects, base * (phase + 1))


def drift_permutation(spec: WorkloadSpec, n_objects: int) -> list[int]:
    """The seeded OID shuffle a drifting spec's windows live in.

    :func:`hot_window` schedules windows over *positions*; the compiler
    maps each position through this permutation to an OID.  Without it
    a window of ``size`` consecutive positions would be ``size``
    consecutive OIDs — which insertion-order placement already stores
    contiguously, so drift could never hurt the baseline and
    reclustering would have nothing to win.  DOEF's hot regions are
    sets of objects with no storage adjacency; the shuffle reproduces
    that: each window is ``size`` objects scattered over the extension,
    and only a reorganisation can make them page-neighbours.

    Deterministic per ``(seed, n_objects)`` and drawn from a private
    RNG, so the operation stream's draw sequence is untouched.
    """
    perm = list(range(n_objects))
    random.Random(f"drift-perm-{spec.seed}").shuffle(perm)
    return perm


def compile_trace(spec: WorkloadSpec, n_objects: int) -> WorkloadTrace:
    """Compile a spec into a deterministic operation trace.

    The same ``(spec, n_objects)`` pair always yields the identical
    trace, so sweeps can replay one access pattern against every
    storage model and buffer configuration.

    With a drifting spec each targeted operation draws its rank from
    the skew *within* the operation's :func:`hot_window` and maps the
    position ``(start + rank) % n_objects`` through the spec's
    :func:`drift_permutation` — the window is a *scattered* object set,
    not an OID range (see there).  Both paths consume exactly one RNG
    draw per targeted operation, and the ``drift == "none"`` path is
    the untouched pre-drift loop, so static specs compile byte-for-byte
    identically to traces produced before the drift axes existed.
    """
    if n_objects < 1:
        raise BenchmarkError("cannot compile a workload for an empty extension")
    if spec.scenario != "none":
        # Deferred import: the scenario compilers build Operation values
        # from this module.
        from repro.benchmark.scenarios import compile_scenario_trace

        return compile_scenario_trace(spec, n_objects)
    rng = random.Random(spec.seed)
    mix = spec.mix()
    kinds = [k for k, w in mix.items() if w > 0]
    weights = [mix[k] for k in kinds]
    ops: list[Operation] = []
    append = ops.append
    if spec.drift != "none":
        # One Zipf sampler per distinct window size (the CDF depends
        # only on the size, and expand grows it phase by phase).
        samplers: dict[int, _ZipfSampler] = {}
        perm = drift_permutation(spec, n_objects)
        for index, kind in enumerate(
            rng.choices(kinds, weights=weights, k=spec.n_ops)
        ):
            if kind == "scan":
                append(Operation("scan"))
                continue
            start, size = hot_window(spec, n_objects, index)
            if spec.skew == "zipf":
                sampler = samplers.get(size)
                if sampler is None:
                    sampler = samplers[size] = _ZipfSampler(size, spec.zipf_theta)
                rank = sampler.sample(rng)
            else:
                rank = rng.randrange(size)
            append(Operation(kind, perm[(start + rank) % n_objects]))
        return WorkloadTrace(spec=spec, n_objects=n_objects, ops=tuple(ops))
    zipf = _ZipfSampler(n_objects, spec.zipf_theta) if spec.skew == "zipf" else None
    for kind in rng.choices(kinds, weights=weights, k=spec.n_ops):
        if kind == "scan":
            append(Operation("scan"))
            continue
        oid = zipf.sample(rng) if zipf is not None else rng.randrange(n_objects)
        append(Operation(kind, oid))
    return WorkloadTrace(spec=spec, n_objects=n_objects, ops=tuple(ops))


@dataclass(frozen=True)
class WorkloadResult:
    """Metrics of one trace executed against one storage model."""

    spec: WorkloadSpec
    model_name: str
    raw: MetricsSnapshot
    op_counts: Mapping[str, int] = field(default_factory=dict)
    #: Per-shard drill-down of a sharded run (a
    #: :class:`~repro.sharding.model.ShardingReport`); None on the
    #: single-engine path, so unsharded results are untouched.
    sharding: Any = None

    @property
    def n_ops(self) -> int:
        return sum(self.op_counts.values())

    @property
    def per_op(self) -> ScaledMetrics:
        """Counters normalised per operation (the sweeps' table cells)."""
        return self.raw.scaled(self.n_ops)

    @property
    def hit_rate(self) -> float:
        """Buffer hits per fix; 0.0 when the trace fixed no pages."""
        if self.raw.page_fixes == 0:
            return 0.0
        return self.raw.buffer_hits / self.raw.page_fixes


class WorkloadExecutor:
    """Replays a compiled trace against one loaded storage model.

    Operation semantics, mapped onto the model primitives:

    * **point** — full-object retrieval by OID (query 1a,
      :func:`fetch_point`); models without physical identifiers (plain
      NSM) fall back to the value selection ``fetch_full_by_key``,
      which is what a "point lookup" costs on a model with no access
      path;
    * **navigate** — the query-2 traversal, :func:`navigate`;
    * **scan** — read every object in storage order (query 1c);
    * **update** — rewrite the atomic root attributes of one object
      (the query-3 update step, without the traversal);
    * **key** — a value selection by key (query 1b), and
      **navigate_update** — the traversal, then a rewrite of the
      grand-children's roots (queries 3a/3b).  Only the paper queries'
      traces hold these two, tested last so mix traces pay nothing.

    Measurement discipline, the paper's: the buffer restarts cold,
    counters reset, the trace runs (``warm=False`` additionally
    restarts the buffer before every operation), a final flush models
    the database disconnect, then the counters are read.
    """

    def __init__(
        self,
        model: StorageModel,
        trace: WorkloadTrace,
        online: "OnlineRecluster | None" = None,
        retry_limit: int = 0,
    ) -> None:
        if trace.n_objects > model.n_objects:
            raise BenchmarkError(
                f"trace targets {trace.n_objects} objects but {model.name} "
                f"holds only {model.n_objects}"
            )
        self.model = model
        self.trace = trace
        self.engine = model.engine
        #: Optional online-recluster controller.  Fed every operation's
        #: touched OIDs, after the operation completes — its
        #: deterministic triggers then run bounded page-move batches
        #: *inside* the measured interval (online reorganisation pays
        #: its I/O where the counters can see it).
        self.online = online
        #: Bounded retry of transient injected faults (0 = off, the
        #: default: the replay loop is byte-for-byte the pre-fault
        #: loop).  Every operation primitive is idempotent — reads
        #: obviously, updates because re-applying the same root change
        #: converges — so a retried operation is safe; retries are
        #: tallied in :attr:`retries`.  An exhausted budget raises
        #: :class:`~repro.errors.RetryExhaustedError`: the flat replay
        #: has no per-session ledger to degrade into, so it fails loud.
        self.retry_limit = retry_limit
        self.retries = 0

    def _resilient(self, fn):
        """Wrap an operation primitive in the bounded retry loop."""
        from repro.fault.retry import call_with_retries

        def wrapped(*args, **kwargs):
            result, used = call_with_retries(lambda: fn(*args, **kwargs), limit=self.retry_limit)
            self.retries += used
            return result

        return wrapped

    def run(self) -> WorkloadResult:
        engine = self.engine
        engine.restart_buffer()
        engine.reset_metrics()
        warm = self.trace.spec.warm
        # Replay loop with the dispatch hoisted: the per-op closure and
        # dict allocations of a naive ``self._execute(op)`` loop are
        # measurable across a sweep grid's thousands of operations.
        model = self.model
        point = self._point
        navigate = self._navigate
        scan_all = model.scan_all
        update_roots = model.update_roots
        fetch_by_key = model.fetch_full_by_key
        ref_of = model.ref_of
        key_of = model.key_of
        oid_of = model.oid_of
        restart = engine.restart_buffer
        online = self.online
        if self.retry_limit:
            point = self._resilient(point)
            navigate = self._resilient(navigate)
            scan_all = self._resilient(scan_all)
            update_roots = self._resilient(update_roots)
            fetch_by_key = self._resilient(fetch_by_key)
        for index, op in enumerate(self.trace.ops):
            if not warm and index > 0:
                restart()
            kind = op.kind
            if kind == "point":
                point(op.oid)
                if online is not None:
                    online.note_operation((op.oid,))
            elif kind == "navigate":
                children, grand = navigate(op.oid)
                if online is not None:
                    online.note_operation([op.oid, *map(oid_of, children), *map(oid_of, grand)])
            elif kind == "scan":
                scan_all()
                if online is not None:
                    online.note_scan()
            elif kind == "update":
                update_roots([ref_of(op.oid)], {"Name": f"workload-{index}"})
                if online is not None:
                    online.note_operation((op.oid,))
            elif kind == "key":
                fetch_by_key(key_of(op.oid))
                if online is not None:
                    online.note_operation((op.oid,))
            elif kind == "navigate_update":
                children, grand = navigate(op.oid)
                if grand:
                    update_roots(grand, {"Name": f"updated-{index}"})
                if online is not None:
                    online.note_operation([op.oid, *map(oid_of, children), *map(oid_of, grand)])
            else:  # pragma: no cover - traces cannot produce unknown kinds
                raise BenchmarkError(f"unknown operation kind {kind!r}")
        engine.flush()
        return WorkloadResult(
            spec=self.trace.spec,
            model_name=self.model.name,
            raw=engine.metrics.snapshot(),
            op_counts=self.trace.op_counts(),
        )

    # -- operation dispatch (methods: the e2e tracer spans each operation) --

    def _point(self, oid: int) -> None:
        fetch_point(self.model, oid)

    def _navigate(self, oid: int) -> tuple[list, list]:
        return navigate(self.model, oid)


def fetch_point(model: StorageModel, oid: int) -> None:
    """Retrieve one whole object by OID: the ``point`` operation."""
    if model.supports_oid_access:
        model.fetch_full(model.ref_of(oid))
    else:
        # No physical identifiers (plain NSM): a point lookup is a
        # value selection, exactly as in query 1b.
        model.fetch_full_by_key(model.key_of(oid))


def navigate(model: StorageModel, oid: int) -> tuple[list, list]:
    """The query-2 traversal root → children → grand-children.

    Projects only the needed parts and returns the children's and the
    grand-children's references, each level de-duplicated: an object
    is fetched once per level (repeats would only inflate fixes).
    """
    root_ref = model.ref_of(oid)
    model.fetch_roots([root_ref])
    children = model._dedupe(model.fetch_refs([root_ref]))
    grand = model._dedupe(model.fetch_refs(children)) if children else []
    if grand:
        model.fetch_roots(grand)
    return children, grand


def run_workload(
    spec: WorkloadSpec,
    model: StorageModel,
    n_objects: int | None = None,
) -> WorkloadResult:
    """Compile ``spec`` for ``model`` (its whole extension by default) and execute it."""
    trace = compile_trace(spec, model.n_objects if n_objects is None else n_objects)
    return WorkloadExecutor(model, trace).run()


# -- CLI spec parsing ---------------------------------------------------------

#: Named shortcut workloads accepted by :func:`parse_workload`.
PRESET_WORKLOADS: dict[str, WorkloadSpec] = {
    "uniform": WorkloadSpec(name="uniform", skew="uniform"),
    "zipf": WorkloadSpec(name="zipf(1)", skew="zipf", zipf_theta=1.0),
    "read-heavy": WorkloadSpec(
        name="read-heavy",
        point_weight=0.7,
        navigate_weight=0.28,
        scan_weight=0.02,
        update_weight=0.0,
    ),
    "update-heavy": WorkloadSpec(
        name="update-heavy",
        point_weight=0.25,
        navigate_weight=0.15,
        scan_weight=0.0,
        update_weight=0.6,
    ),
    "scan-only": WorkloadSpec(
        name="scan-only",
        point_weight=0.0,
        navigate_weight=0.0,
        scan_weight=1.0,
        update_weight=0.0,
        n_ops=4,
    ),
    # Application scenarios (contended-hot-record and fan-out shapes);
    # their traces come from deterministic simulations, see
    # repro/benchmark/scenarios.py.
    "ticket-inventory": WorkloadSpec(
        name="ticket-inventory",
        scenario="ticket-inventory",
    ),
    "activity-stream": WorkloadSpec(
        name="activity-stream",
        scenario="activity-stream",
    ),
}

_KEY_FIELDS = {
    "point": "point_weight",
    "navigate": "navigate_weight",
    "scan": "scan_weight",
    "update": "update_weight",
    "theta": "zipf_theta",
    "ops": "n_ops",
    "seed": "seed",
    "name": "name",
    "skew": "skew",
    "drift": "drift",
    "period": "drift_period",
    "window": "hot_fraction",
    "scenario": "scenario",
    "records": "scenario_records",
    "hold": "hold_ops",
}


def parse_workload(text: str) -> WorkloadSpec:
    """Parse a CLI workload description into a :class:`WorkloadSpec`.

    Accepted forms, separable by commas (later tokens override):

    * a preset name — ``uniform``, ``zipf``, ``read-heavy``,
      ``update-heavy``, ``scan-only``, or one of the scenario presets
      ``ticket-inventory`` and ``activity-stream``;
    * ``zipf(θ)`` — Zipfian skew with parameter θ, e.g. ``zipf(1.0)``;
    * ``warm`` / ``cold`` — buffer regime;
    * ``key=value`` — ``point=2``, ``navigate=1``, ``scan=0.1``,
      ``update=0.5``, ``theta=1.2``, ``ops=500``, ``seed=7``,
      ``skew=zipf``, ``name=mine``, ``drift=step``, ``period=40``,
      ``window=0.1``, ``scenario=ticket-inventory``, ``records=32``
      (the scenario's hot record block), ``hold=25`` (operations a
      ticket hold survives).

    Examples: ``"zipf(1.2),point=3,update=1,ops=400,cold"``,
    ``"ticket-inventory,ops=300"``.

    A preset supplies the *base* spec, so it must be the first token;
    accepting it later would silently discard the overrides parsed
    before it.
    """
    spec = WorkloadSpec()
    named = False
    seen_any = False
    try:
        for raw_token in text.split(","):
            token = raw_token.strip()
            if not token:
                continue
            if token in PRESET_WORKLOADS:
                if seen_any:
                    raise BenchmarkError(
                        f"preset {token!r} must be the first token of a "
                        f"workload description (it replaces the whole spec)"
                    )
                spec = PRESET_WORKLOADS[token]
                named = True
            elif token in ("warm", "cold"):
                spec = spec.with_changes(warm=token == "warm")
            elif token.startswith("zipf(") and token.endswith(")"):
                theta = float(token[len("zipf(") : -1])
                spec = spec.with_changes(skew="zipf", zipf_theta=theta)
                if not named:
                    spec = spec.with_changes(name=f"zipf({theta:g})")
                    named = True
            elif "=" in token:
                key, _, value = token.partition("=")
                try:
                    fname = _KEY_FIELDS[key.strip()]
                except KeyError:
                    raise BenchmarkError(
                        f"unknown workload key {key.strip()!r} "
                        f"(known: {', '.join(_KEY_FIELDS)})"
                    ) from None
                value = value.strip()
                if fname in ("name", "skew", "drift", "scenario"):
                    spec = spec.with_changes(**{fname: value})
                    named = named or fname == "name"
                elif fname in ("n_ops", "seed", "drift_period", "scenario_records", "hold_ops"):
                    spec = spec.with_changes(**{fname: int(value)})
                else:
                    spec = spec.with_changes(**{fname: float(value)})
            else:
                raise BenchmarkError(
                    f"cannot parse workload token {token!r} "
                    f"(presets: {', '.join(PRESET_WORKLOADS)})"
                )
            seen_any = True
    except ValueError as exc:
        raise BenchmarkError(f"bad workload description {text!r}: {exc}") from None
    if not named:
        spec = spec.with_changes(name=text)
    return spec
