"""Reclustered-extension parity (ISSUE 5, satellite 3).

The contract extends the clone-vs-rebuild parity of ISSUE 4 to
trace-reclustered extensions: a model served from the snapshot store's
reclustered cache must be **bit-identical** — same page image, same
allocation state, same counters for every subsequent operation — to a
freshly rebuilt model that was trained and reorganised inline.  And the
sweep must produce byte-identical JSON whether its cells run
sequentially, in a thread pool, or in a process pool (where workers map
spilled reclustered artifacts instead of retraining).
"""

from __future__ import annotations

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.snapshots import DEFAULT_STORE, SnapshotStore
from repro.benchmark.workload import WorkloadExecutor, WorkloadSpec, compile_trace
from repro.experiments import sweep

#: Models whose placement is actually access-path sensitive plus one
#: whose heap is only a small-object side car — the parity must hold
#: for both kinds.
MODELS = ("DSM", "NSM", "NSM+index", "DASDBS-NSM")

CFG = BenchmarkConfig(
    n_objects=24,
    buffer_pages=48,
    loops=3,
    q1a_sample=3,
    q1b_sample=1,
    q2a_sample=2,
    seed=17,
)

SPEC = WorkloadSpec(
    name="train",
    point_weight=0.3,
    navigate_weight=0.5,
    scan_weight=0.0,
    update_weight=0.2,
    skew="zipf",
    zipf_theta=1.1,
    n_ops=40,
    seed=9,
)
TRACE = compile_trace(SPEC, CFG.n_objects)


def _inline_reclustered(model_name: str, policy: str):
    """Rebuild from scratch, then train + recluster in place."""
    runner = BenchmarkRunner(CFG.with_changes(snapshots=False, recluster=policy))
    return runner.build_model_for_trace(model_name, TRACE)


def _cloned_reclustered(model_name: str, policy: str):
    """Serve from the snapshot store's reclustered cache."""
    runner = BenchmarkRunner(CFG.with_changes(snapshots=True, recluster=policy))
    return runner.build_model_for_trace(model_name, TRACE)


def _disk_state(model):
    snap = model.engine.snapshot()
    return (snap.image, snap.allocated, snap.next_page_id)


@pytest.mark.parametrize("policy", ["affinity", "hotcold"])
@pytest.mark.parametrize("model_name", MODELS)
class TestRecusteredCloneParity:
    def test_page_bytes_identical(self, model_name, policy):
        inline, cloned = (
            _inline_reclustered(model_name, policy),
            _cloned_reclustered(model_name, policy),
        )
        try:
            assert _disk_state(cloned) == _disk_state(inline)
            assert cloned.n_objects == inline.n_objects
            assert cloned.relation_pages() == inline.relation_pages()
        finally:
            inline.engine.close()
            cloned.engine.close()

    def test_measured_counters_identical(self, model_name, policy):
        inline, cloned = (
            _inline_reclustered(model_name, policy),
            _cloned_reclustered(model_name, policy),
        )
        try:
            want = WorkloadExecutor(inline, TRACE).run()
            got = WorkloadExecutor(cloned, TRACE).run()
            assert got.raw == want.raw
        finally:
            inline.engine.close()
            cloned.engine.close()

    def test_mutated_clone_does_not_contaminate_the_cache(self, model_name, policy):
        first = _cloned_reclustered(model_name, policy)
        try:
            refs = first.all_refs()
            first.update_roots(refs[:3], {"Name": "mutated"})
            first.engine.flush()
        finally:
            first.engine.close()
        inline, second = (
            _inline_reclustered(model_name, policy),
            _cloned_reclustered(model_name, policy),
        )
        try:
            assert _disk_state(second) == _disk_state(inline)
        finally:
            inline.engine.close()
            second.engine.close()


class TestRecusteredStore:
    def test_training_happens_once_per_key(self):
        config = CFG.with_changes(seed=8101)  # fresh key for this test
        runner = BenchmarkRunner(config.with_changes(recluster="affinity"))
        before = DEFAULT_STORE.builds
        runner.build_model_for_trace("DASDBS-NSM", TRACE).engine.close()
        runner.build_model_for_trace("DASDBS-NSM", TRACE).engine.close()
        # One base build + one reclustered build, then cache hits only.
        assert DEFAULT_STORE.builds == before + 2

    def test_key_separates_policies_and_traces(self):
        store = SnapshotStore()
        runner = BenchmarkRunner(CFG)
        affinity = store.get_reclustered(
            CFG, "DASDBS-NSM", lambda: runner.stations, runner.fmt, TRACE, "affinity"
        )
        hotcold = store.get_reclustered(
            CFG, "DASDBS-NSM", lambda: runner.stations, runner.fmt, TRACE, "hotcold"
        )
        assert affinity.key != hotcold.key
        other_trace = compile_trace(SPEC.with_changes(seed=10), CFG.n_objects)
        other = store.get_reclustered(
            CFG, "DASDBS-NSM", lambda: runner.stations, runner.fmt, other_trace, "affinity"
        )
        assert other.key != affinity.key

    def test_spilled_reclustered_artifact_round_trips(self, tmp_path):
        store = SnapshotStore()
        runner = BenchmarkRunner(CFG)
        snapshot = store.get_reclustered(
            CFG, "NSM+index", lambda: runner.stations, runner.fmt, TRACE, "affinity"
        )
        path = store.spill(snapshot, str(tmp_path), stem="artifact-0")
        worker_store = SnapshotStore()
        worker_store.preload(path)
        loaded = worker_store.get_reclustered(
            CFG,
            "NSM+index",
            lambda: pytest.fail("cache miss after preload"),
            runner.fmt,
            TRACE,
            "affinity",
        )
        assert loaded.disk == snapshot.disk
        assert loaded.model_state == snapshot.model_state


#: A tiny but fully crossed grid for the execution-path parity checks.
GRID = dict(
    workloads=(SPEC,),
    capacities=(24,),
    policies=("lru",),
    models=("NSM+index", "DASDBS-NSM"),
    reclusters=("none", "affinity"),
)


class TestSweepPathParity:
    def test_process_path_agrees_for_any_worker_count(self):
        sequential = sweep.run_sweep(CFG, **GRID)
        for workers in (2, 4):
            processed = sweep.run_sweep(CFG, processes=workers, **GRID)
            assert sequential.to_json() == processed.to_json()

    def test_snapshots_off_path_agrees(self):
        cached = sweep.run_sweep(CFG, **GRID)
        rebuilt = sweep.run_sweep(CFG.with_changes(snapshots=False), **GRID)
        assert cached.to_json() == rebuilt.to_json()

    def test_reclustered_cells_differ_from_baseline(self):
        """The axis must do something: at least one counter moves."""
        result = sweep.run_sweep(CFG, **GRID)
        by_key = {
            (cell.model, cell.recluster): cell.result.raw for cell in result.cells
        }
        assert any(
            by_key[(model, "none")] != by_key[(model, "affinity")]
            for model in GRID["models"]
        )
