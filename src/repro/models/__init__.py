"""The four complex-object storage models of the paper (Section 3).

* :class:`~repro.models.dsm.DSMModel` — direct, whole-object access,
* :class:`~repro.models.dasdbs_dsm.DASDBSDSMModel` — direct with
  header-guided partial access,
* :class:`~repro.models.nsm.NSMModel` — fully normalized flat relations
  (plus :class:`~repro.models.nsm.NSMIndexModel`, the "NSM+index" row
  of Table 3),
* :class:`~repro.models.dasdbs_nsm.DASDBSNSMModel` — normalized with
  per-object nesting and an in-memory transformation table.
"""

from repro.models.addressing import AddressTable, Relation
from repro.models.base import Ref, StorageModel
from repro.models.dasdbs_dsm import DASDBSDSMModel
from repro.models.dasdbs_nsm import DASDBSNSMModel
from repro.models.dsm import DSMModel
from repro.models.mixed import MixedTupleStore
from repro.models.nsm import NSMIndexModel, NSMModel
from repro.models.registry import (
    FOCUS_MODELS,
    MEASURED_MODELS,
    MODEL_ALIASES,
    MODEL_CLASSES,
    create_model,
    resolve_models,
)

__all__ = [
    "AddressTable",
    "DASDBSDSMModel",
    "DASDBSNSMModel",
    "DSMModel",
    "FOCUS_MODELS",
    "MEASURED_MODELS",
    "MODEL_ALIASES",
    "MODEL_CLASSES",
    "MixedTupleStore",
    "NSMIndexModel",
    "NSMModel",
    "Ref",
    "Relation",
    "StorageModel",
    "create_model",
    "resolve_models",
]
