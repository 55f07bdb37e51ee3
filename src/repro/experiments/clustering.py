"""Clustering experiment: measured page I/Os before/after reorganisation.

The paper's argument is that *placement* — which subobjects share pages
— dominates the physical I/O of complex-object processing, but its
measurements can only compare the placements the storage models produce
at load time.  This experiment adds the axis the clustering literature
(Darmont et al.) explores: derive a better object order from a
navigation workload's access pattern, rewrite the extension
(:mod:`repro.clustering`), and measure the *same* workload on the
adapted layout.

Per skew level one table reports, for every storage model, the
physical page reads of the measured replay under insertion-order
placement (``none``), greedy affinity chaining (``affinity``) and
hot/cold segregation (``hotcold``), plus the relative change.

What to expect — and why it is the interesting result:

* **NSM+index** and **DASDBS-NSM** access records by address, so
  co-locating co-accessed tuples directly removes page reads; these
  models show the large reductions.
* **plain NSM** is placement-*invariant*: every operation is a value
  selection implemented as a relation scan, and a scan reads all pages
  whatever their order.  Its row moves only by packing noise (±a page).
* **DSM / DASDBS-DSM** store most station objects as private
  header/data page sets; only the minority of page-sharing small
  objects can benefit, so their rows move little.

The buffer is deliberately sized *below* the extension (an eighth of
the configured capacity, at least 24 pages): with the whole database
resident, reads degenerate to first-touches and no placement can win.
"""

from __future__ import annotations

from repro.benchmark.config import BenchmarkConfig, DEFAULT_CONFIG
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import WorkloadSpec, compile_trace
from repro.clustering.stats import trace_stats
from repro.experiments.report import render_table
from repro.experiments.sweep import CellInputs
from repro.models.registry import resolve_models

#: Placement policies compared against the insertion-order baseline.
COMPARED_POLICIES = ("affinity", "hotcold")

#: Skew levels of the navigation workload: uniform root selection and
#: two Zipf temperatures (hot set = low OIDs, per the workload engine).
SKEW_LEVELS = (
    ("uniform", 0.0),
    ("zipf(1.0)", 1.0),
    ("zipf(1.4)", 1.4),
)

#: All five storage models — the placement-sensitive ones and the
#: placement-invariant ones; the contrast is the experiment's point.
CLUSTERED_MODELS = ("DSM", "DASDBS-DSM", "NSM", "NSM+index", "DASDBS-NSM")


def navigation_spec(skew_name: str, theta: float, n_ops: int) -> WorkloadSpec:
    """The experiment's navigation-heavy workload at one skew level.

    Navigation dominates (the query-2 regime the paper centres on),
    with point lookups and root updates mixed in so heat and affinity
    both matter; scans are excluded — they read everything and would
    only dilute the placement signal.
    """
    spec = WorkloadSpec(
        name=f"nav-{skew_name}",
        point_weight=0.3,
        navigate_weight=0.55,
        scan_weight=0.0,
        update_weight=0.15,
        n_ops=n_ops,
        seed=2026,
    )
    if theta > 0:
        spec = spec.with_changes(skew="zipf", zipf_theta=theta)
    return spec


def experiment_config(config: BenchmarkConfig) -> BenchmarkConfig:
    """The engine regime of the experiment: a pressured buffer."""
    return config.with_changes(buffer_pages=max(24, config.buffer_pages // 8))


def operation_count(config: BenchmarkConfig) -> int:
    """Trace length, scaled with the extension (bounded for wall clock)."""
    return max(120, min(800, 2 * config.n_objects))


def run_comparison(
    config: BenchmarkConfig,
    models=CLUSTERED_MODELS,
    skews=SKEW_LEVELS,
    policies=COMPARED_POLICIES,
) -> dict[str, dict[str, dict[str, int]]]:
    """Measured page reads per ``skew -> model -> policy`` (incl. none).

    Every (skew, model, policy) cell builds its model through the
    ordinary runner path, so reclustered extensions come from the
    process-wide snapshot store: one bulk load per model and one
    training per (model, policy, skew), no matter how often the
    experiment re-runs in a session.  Training executes no workload
    (:func:`~repro.clustering.recluster.recluster_model`), so the
    experiment's executions are its measured cells.  The cells differ
    only in placement, so they share one extension, generated on first
    use.
    """
    base = experiment_config(config)
    inputs = CellInputs()
    n_ops = operation_count(base)
    model_names = resolve_models(models)
    out: dict[str, dict[str, dict[str, int]]] = {}
    for skew_name, theta in skews:
        spec = navigation_spec(skew_name, theta, n_ops)
        trace = compile_trace(spec, base.n_objects)
        per_model: dict[str, dict[str, int]] = {}
        for model in model_names:
            per_policy: dict[str, int] = {}
            for policy in ("none", *policies):
                runner = BenchmarkRunner(base.with_changes(recluster=policy))
                inputs.share_extension(runner)
                result = runner.run_trace(model, trace)
                per_policy[policy] = result.raw.pages_read
            per_model[model] = per_policy
        out[skew_name] = per_model
    return out


def _delta(before: int, after: int) -> float | None:
    if before == 0:
        return None
    return 100.0 * (after - before) / before


def render(config: BenchmarkConfig = DEFAULT_CONFIG) -> str:
    """One table per skew level: page reads before/after reorganisation."""
    base = experiment_config(config)
    n_ops = operation_count(base)
    comparison = run_comparison(config)
    out = []
    for skew_name, theta in SKEW_LEVELS:
        spec = navigation_spec(skew_name, theta, n_ops)
        stats = trace_stats(compile_trace(spec, base.n_objects))
        rows = []
        for model, per_policy in comparison[skew_name].items():
            none = per_policy["none"]
            rows.append(
                [
                    model,
                    none,
                    per_policy["affinity"],
                    _delta(none, per_policy["affinity"]),
                    per_policy["hotcold"],
                    _delta(none, per_policy["hotcold"]),
                ]
            )
        out.append(
            render_table(
                f"Clustering — measured page reads, {spec.describe()}",
                ["model", "none", "affinity", "aff Δ%", "hotcold", "hot Δ%"],
                rows,
                note=(
                    f"Buffer {base.buffer_pages} pages (pressured: an eighth "
                    f"of the configured capacity); {stats.distinct_targets} "
                    f"distinct target objects, top decile draws "
                    f"{stats.top_decile_target_share:.0%} of the targeted "
                    "operations.  'none' = insertion-order placement; "
                    "reclustered cells train unmeasured on this exact trace, "
                    "then replay it measured.  Plain NSM is placement-"
                    "invariant (every access is a relation scan); DSM and "
                    "DASDBS-DSM keep large objects on private pages, so only "
                    "their page-sharing small objects can move."
                ),
            )
        )
    return "\n".join(out)
