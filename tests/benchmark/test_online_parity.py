"""Golden parity of the online-recluster axis (counters are sacred).

The online controller is opt-in machinery: with it absent — or present
but forbidden to move anything — every paper-visible quantity must be
exactly what it was before the axis existed.  Three pins:

* the default sweep axis stays ``("none",)`` and a small reference
  sweep's JSON digest is frozen byte-for-byte;
* ``--recluster online`` with ``online_move_pages=0`` is
  counter-identical to ``--recluster none`` (triggers fire, move
  nothing, and the replay cannot tell);
* with a real page budget on a drifting trace the axis must *do*
  something — at least one counter moves — so the pins above cannot
  pass vacuously.
"""

from __future__ import annotations

import hashlib

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import WorkloadSpec, compile_trace
from repro.experiments import sweep

#: Frozen before this PR's changes: the reference sweep cell's exact
#: JSON bytes.  If this moves, a default-path counter (or the JSON
#: shape) changed — exactly what the online axis must never do.
GOLDEN_SWEEP_DIGEST = (
    "4fe238d06961a004cb807b61ce2048d18b94f0edee1c4adbc792d3144bc5bf27"
)

SWEEP_CONFIG = BenchmarkConfig(n_objects=60, buffer_pages=48)

DRIFT_CONFIG = BenchmarkConfig(
    n_objects=48,
    buffer_pages=24,
    online_trigger_ops=15,
    online_move_pages=4,
)

DRIFT_SPEC = WorkloadSpec(
    name="parity-drift",
    point_weight=0.6,
    navigate_weight=0.2,
    scan_weight=0.0,
    update_weight=0.2,
    n_ops=120,
    seed=41,
    drift="step",
    drift_period=20,
    hot_fraction=0.15,
)


def test_default_recluster_axis_is_none_only():
    defaults = {axis.keyword: axis.default for axis in sweep.AXES}
    assert defaults["reclusters"] == ("none",)


def test_default_sweep_json_digest_is_frozen():
    result = sweep.run_sweep(
        SWEEP_CONFIG,
        workloads=("uniform,ops=15",),
        capacities=(24,),
        policies=("lru",),
        models=("DASDBS-NSM",),
    )
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    assert digest == GOLDEN_SWEEP_DIGEST


def _replay(config: BenchmarkConfig, mode: str):
    runner = BenchmarkRunner(config.with_changes(recluster=mode))
    trace = compile_trace(DRIFT_SPEC, config.n_objects)
    return runner.run_trace("NSM+index", trace)


def test_zero_budget_online_is_counter_identical_to_none():
    none = _replay(DRIFT_CONFIG.with_changes(online_move_pages=0), "none")
    online = _replay(DRIFT_CONFIG.with_changes(online_move_pages=0), "online")
    assert online.raw == none.raw


def test_budgeted_online_moves_at_least_one_counter():
    none = _replay(DRIFT_CONFIG, "none")
    online = _replay(DRIFT_CONFIG, "online")
    assert online.raw != none.raw
