"""Every Table 3 estimate, pinned.

``goldens/estimates.json`` holds ``AnalyticalEvaluator.estimate`` for
every registered model and query, primed or not, worst case or not,
over fourteen parameter sets: the paper's published Table 2 at two
sizes, and the Table 2 derived from our storage format at twelve
configurations that reach every branch of the costing (long and small
direct objects, one and several tuples per object, skew, tiny
extensions).  A cell is ``"<model> <query>"``, a prime marking the
primed row (the paper's DSM′) and `` worst`` the worst case; ``null``
is the paper's "-".

Floats are compared with ``rel_tol=1e-12``: a costing may reassociate
a sum, never change a term.  Regenerate only when an estimate
deliberately changes, and list every moved cell in CHANGES.md:
``PYTHONPATH=src python tests/core/test_estimates_golden.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.benchmark.config import DEFAULT_CONFIG, SKEWED_CONFIG
from repro.core.estimators import QUERIES, AnalyticalEvaluator
from repro.core.parameters import WorkloadParameters, derive_parameters, paper_parameters
from repro.models.registry import MODEL_CLASSES

GOLDEN_PATH = Path(__file__).parent / "goldens" / "estimates.json"


def _paper(n: int) -> AnalyticalEvaluator:
    return AnalyticalEvaluator(paper_parameters(n), WorkloadParameters(n, 4.096, n // 5))


def _derived(**changes) -> AnalyticalEvaluator:
    config = DEFAULT_CONFIG.with_changes(**changes)
    return AnalyticalEvaluator(derive_parameters(config), WorkloadParameters.from_config(config))


#: The derived parameter sets, by name.
DERIVED_SETS = {
    "default": {},
    "skewed": {"probability": SKEWED_CONFIG.probability, "fanout": SKEWED_CONFIG.fanout},
    "sight-0": {"max_sightseeing": 0},
    "sight-2": {"max_sightseeing": 2},
    "sight-5": {"max_sightseeing": 5},
    "sight-30": {"max_sightseeing": 30},
    "fanout-1": {"fanout": 1},
    "fanout-3": {"fanout": 3},
    "fanout-1-sight-0": {"fanout": 1, "max_sightseeing": 0},
    "probability-0.5": {"probability": 0.5},
    "n-100": {"n_objects": 100, "loops": None},
    "n-300": {"n_objects": 300, "loops": None},
}


def evaluator(name: str) -> AnalyticalEvaluator:
    """The evaluator of parameter set ``name``."""
    if name.startswith("paper-"):
        return _paper(int(name.removeprefix("paper-")))
    return _derived(**DERIVED_SETS[name])


SET_NAMES = ("paper-100", "paper-1500", *DERIVED_SETS)


def capture(name: str) -> dict[str, float | None]:
    """``{cell: estimate}`` of every model, query, primed and worst flag."""
    ev, cells = evaluator(name), {}
    for model in MODEL_CLASSES:
        for query in QUERIES:
            for primed in (False, True):
                for worst in (False, True):
                    value = ev.estimate(model, query, primed=primed, worst=worst)
                    prime, case = "'" if primed else "", " worst" if worst else ""
                    cells[f"{model} {query}{prime}{case}"] = None if value is None else float(value)
    return cells


@pytest.mark.parametrize("name", SET_NAMES)
def test_estimates_match_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    got = capture(name)
    assert set(got) == set(golden)
    for cell, want in golden.items():
        if want is None:
            assert got[cell] is None, f"{name}: {cell}"
        else:
            assert got[cell] is not None and math.isclose(got[cell], want, rel_tol=1e-12), (
                f"{name}: {cell} is {got[cell]!r}, golden {want!r}"
            )


def test_golden_covers_every_cell():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert tuple(golden) == SET_NAMES
    assert sum(map(len, golden.values())) == len(SET_NAMES) * len(MODEL_CLASSES) * len(QUERIES) * 4


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({name: capture(name) for name in SET_NAMES}, indent=1) + "\n"
    )
