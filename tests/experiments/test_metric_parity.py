"""Metric parity: the optimised hot paths change wall clock, nothing else.

``goldens/seed_metrics.json`` was captured from the **seed**
implementation (pre-optimisation: per-field ``struct`` serializer,
per-slot page reads, un-cached page headers, no buffer fast path) at a
small scale.  These tests re-run the same experiments through today's
optimised stack and require bit-identical results:

* the rendered text of Tables 3-8 (which embeds every normalised
  counter the paper reports) and of Table 2 (the derived stored tuple
  sizes beside the measured pages per relation),
* the raw integer counters (I/O calls, I/O pages, page fixes, buffer
  hits/misses) of every model x query cell of the measurement campaign,
* the sweep-grid JSON — byte-for-byte once the fields this PR *added*
  (``service_time_ms`` per cell, ``service_time_model`` in the grid)
  are stripped; the added fields themselves must be exact functions of
  the integer counters.

If any of these fail after touching :mod:`repro.nf2.serializer`,
:mod:`repro.storage.page` or :mod:`repro.storage.buffer`, the
optimisation changed physics, not just speed — fix the code, never the
golden.  (Refreshing the golden is legitimate only for experiments
whose *semantics* deliberately changed, recorded in CHANGES.md.)
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import sweep, table2, table3, table4, table5, table6, table7, table8
from repro.experiments.measure import FAST_CONFIG, measured_runs
from repro.models.registry import MEASURED_MODELS
from repro.benchmark.queries import QUERY_NAMES

GOLDEN_PATH = Path(__file__).parent / "goldens" / "seed_metrics.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: The scale the golden was captured at (CI-smoke scale).
CONFIG = FAST_CONFIG.with_changes(n_objects=GOLDEN["config"]["n_objects"])

TABLES = {
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "table8": table8,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_render_matches_seed(name):
    """Tables 2-8 render byte-identically to the seed implementation.

    (The shared measurement campaign is cached by ``measured_runs``, so
    Tables 3-8 cost two campaigns, not six.)
    """
    assert _sha(TABLES[name].render(CONFIG)) == GOLDEN["table_sha256"][name], (
        f"{name} output drifted from the seed capture — an optimisation "
        f"moved a paper-visible metric"
    )


def test_raw_query_counters_match_seed():
    """Raw I/O calls / pages / fixes of every model x query are identical.

    Every model the golden lists runs: the measured ones of Tables 4-7
    and NSM+index, whose counters were captured later, from the
    implementation before its access paths moved onto the NSM family's
    base.
    """
    assert set(MEASURED_MODELS) <= set(GOLDEN["query_counters"])
    runs = measured_runs(CONFIG, tuple(GOLDEN["query_counters"]), QUERY_NAMES)
    for model, per_query in GOLDEN["query_counters"].items():
        run = runs[model]
        for query, want in per_query.items():
            result = run.results.get(query)
            if want is None:
                assert result is None, f"{model}/{query}: unexpectedly supported"
                continue
            raw = result.raw
            got = [
                raw.io_calls,
                raw.io_pages,
                raw.page_fixes,
                raw.buffer_hits,
                raw.buffer_misses,
            ]
            assert got == want, f"{model}/{query}: counters {got} != seed {want}"


@pytest.fixture(scope="module")
def sweep_result():
    return sweep.run_sweep(
        CONFIG,
        workloads=("uniform", "zipf(1.0)"),
        capacities=(24, 48),
        policies=("lru", "lru-k", "2q"),
    )


def test_sweep_json_matches_seed_modulo_new_fields(sweep_result):
    """Stripping this PR's added fields reproduces the seed bytes."""
    payload = json.loads(sweep_result.to_json())
    payload["grid"].pop("service_time_model")
    for cell in payload["cells"]:
        cell.pop("service_time_ms")
    stripped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert _sha(stripped) == GOLDEN["sweep_sha256"], (
        "sweep counters drifted from the seed capture"
    )


def test_sweep_service_time_is_a_function_of_the_counters(sweep_result):
    """The added field adds information, never new measurement noise."""
    geometry = sweep.SWEEP_GEOMETRY
    for cell in sweep_result.cells:
        raw = cell.result.raw
        assert cell.service_time_ms == geometry.service_time_ms(
            raw.io_calls, raw.io_pages
        )
        assert cell.to_dict()["service_time_ms"] == cell.service_time_ms


def test_recluster_none_is_byte_identical_to_the_seed_format(sweep_result):
    """ISSUE 5's golden gate: the ``--recluster none`` axis changes not
    one byte of the sweep output — the whole JSON (no field stripping),
    and therefore every paper-visible counter inside it, matches a sweep
    run before the axis existed, and stripping the PR-3 fields still
    reproduces the seed golden hash."""
    explicit_none = sweep.run_sweep(
        CONFIG,
        workloads=("uniform", "zipf(1.0)"),
        capacities=(24, 48),
        policies=("lru", "lru-k", "2q"),
        reclusters=("none",),
    )
    default_json = sweep_result.to_json()
    assert explicit_none.to_json() == default_json
    # The axis leaves no trace in the default encoding...
    assert '"recluster"' not in default_json
    assert '"workload_stats"' not in default_json
    # ...and the counters still hash to the seed golden (the PR-3
    # service-time fields stripped exactly as the seed comparison does).
    payload = json.loads(explicit_none.to_json())
    payload["grid"].pop("service_time_model")
    for cell in payload["cells"]:
        cell.pop("service_time_ms")
    stripped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert _sha(stripped) == GOLDEN["sweep_sha256"]


def test_recluster_none_config_keeps_table_goldens():
    """An explicit ``recluster="none"`` config renders Tables 2-8 to the
    exact seed bytes (the fixed query suites never retrain)."""
    config = CONFIG.with_changes(recluster="none")
    for name, module in sorted(TABLES.items()):
        assert _sha(module.render(config)) == GOLDEN["table_sha256"][name], name
