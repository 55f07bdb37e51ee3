"""Per-session ledgers of served runs, pinned.

``goldens/session_summaries.json`` holds the ``session_summaries`` (and
the run's engine-wide ``page_fixes``) of served runs that cover every
way a fix can reach a session's ledger:

* 4 clients on each of the five models, a mix of point reads,
  navigations, full scans and root updates under buffer pressure;
* the same population over 3 hash shards;
* transient read faults absorbed by retries, and a fault rate high
  enough that some operations exhaust their budget and are abandoned;
* online reclustering, whose page moves run between operations and are
  charged to no session.

A session's ``page_fixes`` must sum with the others' to the engine's
total wherever no move batch runs.  Regenerate only when the serving
accounting deliberately changes, and list every moved run in
CHANGES.md: ``PYTHONPATH=src python tests/serving/test_session_summaries_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import WorkloadSpec, compile_trace, parse_workload
from repro.models.registry import MODEL_CLASSES
from repro.serving import ServingExecutor, make_client_traces, make_scheduler

GOLDEN_PATH = Path(__file__).parent / "goldens" / "session_summaries.json"

CONFIG = BenchmarkConfig(
    n_objects=40,
    buffer_pages=48,
    loops=5,
    q1a_sample=4,
    q1b_sample=1,
    q2a_sample=2,
    seed=3,
)

MIX = WorkloadSpec(
    name="ledger",
    point_weight=0.4,
    navigate_weight=0.3,
    scan_weight=0.05,
    update_weight=0.25,
    n_ops=24,
    seed=11,
)

DRIFT = parse_workload(
    "name=drift,point=6,navigate=2,scan=0,update=2,drift=step,period=20,"
    "window=0.15,seed=41,ops=60"
)


def served(config: BenchmarkConfig, model: str, spec: WorkloadSpec, clients: int):
    runner = BenchmarkRunner(config)
    trace = compile_trace(spec, config.n_objects)
    return runner.run_trace_serving(model, trace, clients, scheduler="round-robin")


def abandoned():
    """Some operations exhaust a one-retry budget and are abandoned."""
    runner = BenchmarkRunner(CONFIG.with_changes(faults="seed=5,read=0.6"))
    model = runner.build_model("DASDBS-NSM")
    try:
        traces = make_client_traces(MIX, model.n_objects, 3)
        executor = ServingExecutor(
            model,
            traces,
            scheduler=make_scheduler("round-robin", seed=MIX.seed),
            retry_limit=1,
        )
        plan = model.engine.fault_plan
        plan.arm()
        try:
            return executor.run()
        finally:
            plan.disarm()
    finally:
        model.engine.close()


def runs() -> dict:
    """``{name: ServingResult}`` for every pinned served run."""
    out = {}
    for model in MODEL_CLASSES:
        out[f"{model} clients=4"] = served(CONFIG, model, MIX, 4)
    sharded = CONFIG.with_changes(shards=3)
    for model in ("NSM+index", "DASDBS-NSM"):
        out[f"{model} clients=4 shards=3"] = served(sharded, model, MIX, 4)
    faulted = CONFIG.with_changes(faults="seed=5,read=0.01")
    out["DASDBS-NSM clients=3 retried"] = served(faulted, "DASDBS-NSM", MIX, 3)
    out["DASDBS-NSM clients=3 abandoned"] = abandoned()
    online = CONFIG.with_changes(recluster="online", buffer_pages=24)
    out["NSM+index clients=4 online"] = served(online, "NSM+index", DRIFT, 4)
    return out


def capture() -> dict:
    return {
        name: {
            "page_fixes": outcome.result.raw.page_fixes,
            "sessions": list(outcome.session_summaries),
        }
        for name, outcome in runs().items()
    }


@pytest.fixture(scope="module")
def captured() -> dict:
    # One JSON round trip, so the comparison is the file's own encoding.
    return json.loads(json.dumps(capture()))


def test_session_ledgers_match_golden(captured):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(captured) == set(golden)
    moved = sorted(name for name in golden if captured[name] != golden[name])
    assert not moved, f"session ledgers drifted: {moved}"


def test_the_pinned_runs_exercise_what_they_name(captured):
    assert any(s.get("retries", 0) > 0 for s in captured["DASDBS-NSM clients=3 retried"]["sessions"])
    assert any(s.get("errors", 0) > 0 for s in captured["DASDBS-NSM clients=3 abandoned"]["sessions"])
    for name, run in captured.items():
        attributed = sum(session["page_fixes"] for session in run["sessions"])
        if name.endswith("online"):
            assert 0 < attributed < run["page_fixes"]  # moves ran, unattributed
        else:
            assert attributed == run["page_fixes"] > 0, name


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
