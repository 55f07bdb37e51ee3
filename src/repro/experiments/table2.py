"""Table 2 — average DASDBS sizes of the benchmark tuples.

For every relation of every storage model: tuples per object, tuples in
total, average tuple size S, and the derived k / p / m.  Three columns
of truth are reported:

* *derived* — computed from our storage format and the configuration's
  expected sub-object counts (what the estimators use),
* *paper* — the published constants (where legible),
* *measured m* — actual page counts of the loaded engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmark.config import BenchmarkConfig, DEFAULT_CONFIG
from repro.benchmark.runner import BenchmarkRunner
from repro.core.parameters import ModelParameters, derive_parameters, paper_parameters
from repro.experiments.report import render_table
from repro.models.registry import MEASURED_MODELS


@dataclass(frozen=True)
class Table2Row:
    model: str
    relation: str
    tuples_per_object: float
    tuples_total: float
    s_tuple: float
    k: int | None
    p: int | None
    m: float
    measured_m: int | None


def _measured_pages(config: BenchmarkConfig) -> dict[str, dict[str, int]]:
    """Per-relation page counts of loaded (not queried) models.

    A relation's count covers both of its physical segments (shared
    small-record pages and private long-record pages).
    """
    runner = BenchmarkRunner(config)
    out: dict[str, dict[str, int]] = {}
    for name in MEASURED_MODELS:
        model = runner.build_model(name)
        try:
            out[name] = model.relation_pages()
        finally:
            model.engine.close()
    return out


def build_rows(
    config: BenchmarkConfig = DEFAULT_CONFIG, with_measurements: bool = True
) -> list[Table2Row]:
    derived = derive_parameters(config)
    measured = _measured_pages(config) if with_measurements else {}
    rows: list[Table2Row] = []
    for model_name, params in derived.items():
        if model_name == "NSM+index":  # same physical layout as NSM
            continue
        model_measured = measured.get(model_name, {})
        for rel in params.relations:
            rows.append(
                Table2Row(
                    model=model_name,
                    relation=rel.relation,
                    tuples_per_object=rel.tuples_per_object,
                    tuples_total=rel.tuples_total,
                    s_tuple=rel.s_tuple,
                    k=rel.k,
                    p=rel.p,
                    m=rel.m,
                    measured_m=model_measured.get(rel.relation),
                )
            )
    return rows


def paper_rows(n_objects: int = 1500) -> list[Table2Row]:
    """The published Table 2 (reconstructed cells included)."""
    rows: list[Table2Row] = []
    params: dict[str, ModelParameters] = paper_parameters(n_objects)
    for model_name, model_params in params.items():
        if model_name == "NSM+index":
            continue
        for rel in model_params.relations:
            rows.append(
                Table2Row(
                    model=model_name,
                    relation=rel.relation,
                    tuples_per_object=rel.tuples_per_object,
                    tuples_total=rel.tuples_total,
                    s_tuple=rel.s_tuple,
                    k=rel.k,
                    p=rel.p,
                    m=rel.m,
                    measured_m=None,
                )
            )
    return rows


def render(config: BenchmarkConfig = DEFAULT_CONFIG, with_measurements: bool = True) -> str:
    headers = ["model", "relation", "tuples/obj", "tuples", "S_tuple", "k", "p", "m", "measured m"]
    rows = [
        [
            r.model,
            r.relation,
            r.tuples_per_object,
            r.tuples_total,
            r.s_tuple,
            r.k,
            r.p,
            r.m,
            r.measured_m,
        ]
        for r in build_rows(config, with_measurements)
    ]
    return render_table(
        "Table 2 — average sizes of benchmark tuples (derived vs engine)",
        headers,
        rows,
        note=(
            "Paper anchors: DSM_Station S=6078 p=4 m=6000; NSM_Connection S=170 "
            "k=11 m=559; NSM_Sightseeing S=456 m=2813; DASDBS_NSM_Connection m=500."
        ),
    )
