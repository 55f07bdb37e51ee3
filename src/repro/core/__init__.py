"""The paper's primary contribution: the analytical disk-I/O cost model.

* :mod:`repro.core.formulas` — Equations 1-8 (plus Yao's exact formula),
* :mod:`repro.core.parameters` — Table 2 parameter derivation (from our
  storage format or from the paper's published constants),
* :mod:`repro.core.estimators` — per-model per-query estimates (Table 3),
* :mod:`repro.core.cost` — Equation 1 with concrete service-time weights,
* :mod:`repro.core.ranking` — the qualitative evaluation of Table 8,
* :mod:`repro.core.validation` — Monte-Carlo ground truth for the
  reconstructed formulas.
"""

from repro.core import formulas, validation
from repro.core.cost import DEFAULT_WEIGHTS, CostWeights
from repro.core.estimators import QUERIES, AnalyticalEvaluator
from repro.core.parameters import (
    ModelParameters,
    RelationParameters,
    StructureCounts,
    WorkloadParameters,
    derive_direct_parameters,
    derive_parameters,
    paper_parameters,
)
from repro.core.ranking import (
    FACTORS,
    GRADES,
    RankingRow,
    paper_conclusion_holds,
    rank_models,
)

__all__ = [
    "AnalyticalEvaluator",
    "CostWeights",
    "DEFAULT_WEIGHTS",
    "FACTORS",
    "GRADES",
    "ModelParameters",
    "QUERIES",
    "RankingRow",
    "RelationParameters",
    "StructureCounts",
    "WorkloadParameters",
    "derive_direct_parameters",
    "derive_parameters",
    "formulas",
    "paper_conclusion_holds",
    "paper_parameters",
    "rank_models",
    "validation",
]
