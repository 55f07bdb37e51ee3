"""Drift experiment: offline vs online reclustering under moving heat.

The clustering experiment (:mod:`repro.experiments.clustering`) shows
that an offline reorganisation — train on the trace, rewrite the pages,
replay measured — removes a large share of the page reads of skewed
navigation workloads.  Its hidden assumption is that the trace it
trained on is the trace it will serve.  This experiment drops that
assumption: the DOEF-style drift axes of the workload engine
(``drift=step|rotate|expand``) move the hot window *while the workload
runs*, and the comparison becomes

* ``none`` — insertion-order placement, the untouched baseline;
* ``hotcold`` (offline) — one reorganisation trained on the full trace
  before the measured replay.  Under drift the full-trace heat is
  smeared over the union of every phase's window, so the "hot" segment
  the rewrite builds is several times larger than any single phase's
  working set — and several times larger than the buffer;
* ``online`` — no pre-training at all: an
  :class:`~repro.clustering.online.OnlineRecluster` controller watches
  a rolling window of the measured replay and moves small page batches
  at deterministic trigger points.  Its move I/O lands in the measured
  counters — online pays for its adaptivity on the meter.

The headline is the crossover.  On the **static** skewed workload the
offline rewrite wins: it knows the whole future and pays nothing during
measurement, while online spends move I/O learning what offline was
told.  On the **step** and **rotate** drifting workloads the ranking
flips: the offline layout is stale one phase in, while the controller
re-clusters each new hot window a trigger after it appears.  **expand**
is the deliberate boundary case — its window *grows* until it covers
most of the extension, at which point no placement (offline or online)
can beat first-touch misses, and offline's head start wins again.

The regime is chosen so re-touches, not compulsory first reads,
dominate: lean stations (``max_sightseeing=0`` — the small end of the
paper's Figure 5 attraction-count axis, so several stations share a
page), a point/update mix with no navigation fan-out, a small hot
window (5 % of the extension) revisited uniformly for a long phase,
and enough phases that the union of visited windows dwarfs the
pressured buffer while any single window fits it easily.

Everything is deterministic — traces compile from seeds, triggers fire
on operation counts, moves follow placement order — so the rendered
tables are byte-reproducible across invocations and worker counts.
"""

from __future__ import annotations

from repro.benchmark.config import BenchmarkConfig, DEFAULT_CONFIG
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import WorkloadSpec, compile_trace, hot_window
from repro.experiments.report import render_table
from repro.experiments.sweep import CellInputs
from repro.models.registry import resolve_models

#: The offline policy the controller is raced against (hot/cold heat
#: segregation — the stronger of the two offline policies on skewed
#: navigation, see the clustering experiment).
OFFLINE_POLICY = "hotcold"

#: Placement-sensitive models only: the crossover is about placement,
#: and plain NSM / the DSM variants barely move either way.
DRIFT_MODELS = ("NSM+index", "DASDBS-NSM")

#: Drift schedules compared against the static baseline workload.
DRIFT_KINDS = ("step", "rotate", "expand")

#: Online controller knobs: several triggers per drift phase (the
#: controller adapts a fraction of a phase after the window moves) and
#: a small per-segment page budget per trigger.
ONLINE_TRIGGER_OPS = 20
ONLINE_MOVE_PAGES = 8

#: Hot window size (one twentieth of the extension — a window the
#: pressured buffer holds with room to spare) and operations per drift
#: phase.
HOT_FRACTION = 0.05
DRIFT_PERIOD = 120


def experiment_config(config: BenchmarkConfig) -> BenchmarkConfig:
    """The engine regime of the experiment: pressured buffer, lean objects.

    Same pressured buffer as the clustering experiment — with the
    extension resident no placement can win — plus two drift-specific
    choices: **lean stations** (``max_sightseeing=0``, the small end of
    Figure 5's attraction-count axis) so that several stations share a
    page and co-location is worth whole page reads, and the online
    controller knobs.
    """
    return config.with_changes(
        buffer_pages=max(24, config.buffer_pages // 8),
        max_sightseeing=0,
        online_trigger_ops=ONLINE_TRIGGER_OPS,
        online_move_pages=ONLINE_MOVE_PAGES,
    )


def operation_count(config: BenchmarkConfig) -> int:
    """Trace length, scaled with the extension (bounded for wall clock).

    Long enough for many drift phases — the union of visited windows
    must dwarf the buffer for the offline layout to go stale — and for
    each phase to *revisit* its window until re-touches dominate the
    compulsory first reads.
    """
    return max(1080, min(2160, 36 * config.n_objects // 5))


def drift_spec(kind: str, n_ops: int) -> WorkloadSpec:
    """The experiment's point/update workload under one drift schedule.

    ``kind="none"`` is the static control: the same mix with a Zipf
    skew, hot set fixed for the whole trace — the regime offline
    reclustering was built for.  The drifting variants draw uniformly
    *within* the moving window (every window member is equally hot, so
    a phase's working set is exactly the window).  Navigation is
    excluded on purpose: its fan-out floods the pressured buffer and
    drowns the placement signal in compulsory reads.
    """
    spec = WorkloadSpec(
        name=f"drift-{kind}",
        point_weight=0.8,
        navigate_weight=0.0,
        scan_weight=0.0,
        update_weight=0.2,
        n_ops=n_ops,
        seed=2027,
    )
    if kind == "none":
        spec = spec.with_changes(skew="zipf", zipf_theta=1.2)
    else:
        spec = spec.with_changes(
            drift=kind, drift_period=DRIFT_PERIOD, hot_fraction=HOT_FRACTION
        )
    return spec


def run_comparison(
    config: BenchmarkConfig,
    models=DRIFT_MODELS,
    kinds=("none", *DRIFT_KINDS),
) -> dict[str, dict[str, dict[str, int]]]:
    """Measured page reads per ``workload kind -> model -> mode``.

    Modes are ``none`` / :data:`OFFLINE_POLICY` / ``online``.  Every
    cell builds its model through the ordinary runner path (offline
    cells come trained from the snapshot store; online cells start from
    the shared base snapshot and adapt on the meter).  The cells differ
    only in placement mode, so they share one extension, generated on
    first use.
    """
    base = experiment_config(config)
    inputs = CellInputs()
    n_ops = operation_count(base)
    model_names = resolve_models(models)
    out: dict[str, dict[str, dict[str, int]]] = {}
    for kind in kinds:
        trace = compile_trace(drift_spec(kind, n_ops), base.n_objects)
        per_model: dict[str, dict[str, int]] = {}
        for model in model_names:
            per_mode: dict[str, int] = {}
            for mode in ("none", OFFLINE_POLICY, "online"):
                runner = BenchmarkRunner(base.with_changes(recluster=mode))
                inputs.share_extension(runner)
                result = runner.run_trace(model, trace)
                per_mode[mode] = result.raw.pages_read
            per_model[model] = per_mode
        out[kind] = per_model
    return out


def _delta(before: int, after: int) -> float | None:
    if before == 0:
        return None
    return 100.0 * (after - before) / before


def _phases(spec: WorkloadSpec, n_objects: int) -> int:
    """Distinct hot-window positions the schedule visits."""
    return len(
        {
            hot_window(spec, n_objects, index)
            for index in range(spec.n_ops)
        }
    )


def render(config: BenchmarkConfig = DEFAULT_CONFIG) -> str:
    """One table: page reads per workload × model under all three modes."""
    base = experiment_config(config)
    n_ops = operation_count(base)
    comparison = run_comparison(config)
    rows = []
    for kind, per_model in comparison.items():
        spec = drift_spec(kind, n_ops)
        for model, per_mode in per_model.items():
            none = per_mode["none"]
            offline = per_mode[OFFLINE_POLICY]
            online = per_mode["online"]
            rows.append(
                [
                    kind,
                    _phases(spec, base.n_objects),
                    model,
                    none,
                    offline,
                    _delta(none, offline),
                    online,
                    _delta(none, online),
                ]
            )
    return render_table(
        f"Drift — measured page reads, offline vs online reclustering "
        f"({n_ops} ops, hot window {HOT_FRACTION:.0%} / {DRIFT_PERIOD} ops)",
        [
            "drift",
            "windows",
            "model",
            "none",
            OFFLINE_POLICY,
            "off Δ%",
            "online",
            "onl Δ%",
        ],
        rows,
        note=(
            f"Buffer {base.buffer_pages} pages (pressured), lean stations "
            f"(max_sightseeing=0, Figure 5's small end).  Drifting "
            f"workloads revisit a scattered hot window of "
            f"{HOT_FRACTION:.0%} of the extension uniformly for "
            f"{DRIFT_PERIOD} operations, then move it ('windows' = "
            f"distinct positions visited); 'none' (drift) is the static "
            f"Zipf control.  '{OFFLINE_POLICY}' trains once on the full "
            f"trace before the measured replay; 'online' starts in "
            f"insertion order and moves ≤{ONLINE_MOVE_PAGES} pages per "
            f"segment every {ONLINE_TRIGGER_OPS} operations during it — "
            "move I/O included in the counters.  The crossover is the "
            "point: offline wins the static control it was trained on; "
            "under step and rotate drift its layout mixes every phase's "
            "window and the online controller overtakes it; expand's "
            "window outgrows every layout and offline's head start wins "
            "again."
        ),
    )
