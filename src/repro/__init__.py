"""repro — reproduction of *An Evaluation of Physical Disk I/Os for
Complex Object Processing* (W. B. Teeuw, C. Rich, M. H. Scholl,
H. M. Blanken; ICDE 1993).

The package contains everything the paper's evaluation needs, built
from scratch:

* a DASDBS-like storage engine (:mod:`repro.storage`): simulated disk
  with I/O-call accounting, 1200-page buffer manager with fix counting,
  slotted pages, and a long-object store with the header/data page
  split;
* the NF² data model (:mod:`repro.nf2`) with a byte serialiser whose
  overheads are calibrated to the tuple sizes of the paper's Table 2;
* the four complex-object storage models (:mod:`repro.models`): DSM,
  DASDBS-DSM, NSM (± index), DASDBS-NSM;
* the revised Altair benchmark (:mod:`repro.benchmark`): the Station
  database generator and queries 1a-3b;
* the analytical cost model (:mod:`repro.core`): Equations 1-8, the
  Table 2 parameters, and per-model/per-query estimators;
* trace-driven clustering (:mod:`repro.clustering`): workload access
  statistics, affinity/hot-cold placement policies, and the on-disk
  reorganisation operator behind ``--recluster``;
* the experiment harness (:mod:`repro.experiments`): one module per
  table and figure of the paper.

Quickstart::

    from repro import BenchmarkRunner, BenchmarkConfig

    runner = BenchmarkRunner(BenchmarkConfig(n_objects=300, buffer_pages=240))
    run = runner.run_model("DASDBS-NSM")
    print(run.metric("2b", "io_pages"), "pages per navigation loop")
"""

from repro.benchmark import (
    BenchmarkConfig,
    BenchmarkRunner,
    DEFAULT_CONFIG,
    DatabaseStatistics,
    QuerySuite,
    SKEWED_CONFIG,
    WorkloadExecutor,
    WorkloadResult,
    WorkloadSpec,
    compile_trace,
    generate_stations,
    parse_workload,
    run_workload,
)
from repro.clustering import (
    AccessStats,
    RECLUSTER_POLICIES,
    placement_order,
    recluster_model,
)
from repro.core import (
    AnalyticalEvaluator,
    CostWeights,
    WorkloadParameters,
    derive_parameters,
    paper_parameters,
)
from repro.errors import ReproError
from repro.models import MODEL_CLASSES, StorageModel, create_model
from repro.nf2 import NestedTuple, RelationSchema, StorageFormat
from repro.storage import StorageEngine

__version__ = "1.0.0"

__all__ = [
    "AccessStats",
    "AnalyticalEvaluator",
    "BenchmarkConfig",
    "BenchmarkRunner",
    "CostWeights",
    "DEFAULT_CONFIG",
    "DatabaseStatistics",
    "MODEL_CLASSES",
    "NestedTuple",
    "QuerySuite",
    "RECLUSTER_POLICIES",
    "RelationSchema",
    "ReproError",
    "SKEWED_CONFIG",
    "StorageEngine",
    "StorageFormat",
    "StorageModel",
    "WorkloadExecutor",
    "WorkloadParameters",
    "WorkloadResult",
    "WorkloadSpec",
    "compile_trace",
    "create_model",
    "derive_parameters",
    "generate_stations",
    "paper_parameters",
    "parse_workload",
    "placement_order",
    "recluster_model",
    "run_workload",
    "__version__",
]
