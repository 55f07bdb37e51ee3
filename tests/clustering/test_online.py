"""Unit behaviour of the OnlineRecluster controller.

The fuzz and parity layers check end-to-end equivalences; these tests
pin the controller's own contract — trigger arithmetic, the min-heat
filter, once-only placement, and the zero-budget no-op.
"""

from __future__ import annotations

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.benchmark.workload import WorkloadExecutor, WorkloadSpec, compile_trace
from repro.clustering.online import OnlineRecluster
from repro.errors import BenchmarkError
from repro.serving import ServingExecutor
from tests.conftest import build_loaded_model

CONFIG = BenchmarkConfig(n_objects=30, buffer_pages=64)


@pytest.fixture
def model():
    loaded = build_loaded_model("NSM+index", generate_stations(CONFIG), 64)
    yield loaded
    loaded.engine.close()


class TestValidation:
    def test_rejects_none_policy(self, model):
        with pytest.raises(BenchmarkError):
            OnlineRecluster(model, policy="none")

    def test_rejects_bad_knobs(self, model):
        with pytest.raises(BenchmarkError):
            OnlineRecluster(model, trigger_ops=0)
        with pytest.raises(BenchmarkError):
            OnlineRecluster(model, max_moves_per_trigger=-1)
        with pytest.raises(BenchmarkError):
            OnlineRecluster(model, min_heat=0)


class TestTriggers:
    def test_fire_every_trigger_ops_and_reset_the_window(self, model):
        ctl = OnlineRecluster(model, trigger_ops=5, max_moves_per_trigger=0)
        for _ in range(14):
            ctl.note_operation((1,))
        assert ctl.ops_seen == 14
        assert ctl.triggers == 2
        # 4 operations recorded since the last trigger reset the window.
        assert ctl.window.heat[1] == 4

    def test_scans_count_as_operations(self, model):
        ctl = OnlineRecluster(model, trigger_ops=3, max_moves_per_trigger=0)
        ctl.note_scan()
        ctl.note_scan()
        ctl.note_scan()
        assert ctl.triggers == 1

    def test_both_executors_note_every_operation_scans_included(self, model):
        spec = WorkloadSpec(
            name="mixed", point_weight=2, navigate_weight=1, scan_weight=1, update_weight=1,
            n_ops=24, seed=5,
        )
        trace = compile_trace(spec, model.n_objects)
        assert trace.op_counts()["scan"] > 0
        for run in (
            lambda ctl: WorkloadExecutor(model, trace, online=ctl).run(),
            lambda ctl: ServingExecutor(model, [trace], online=ctl).run(),
        ):
            ctl = OnlineRecluster(model, trigger_ops=4, max_moves_per_trigger=0)
            run(ctl)
            assert ctl.ops_seen == len(trace.ops)
            assert ctl.triggers == len(trace.ops) // 4

    def test_zero_budget_never_moves(self, model):
        ctl = OnlineRecluster(model, trigger_ops=2, max_moves_per_trigger=0)
        for _ in range(10):
            ctl.note_operation((2, 3))
        assert ctl.triggers == 5
        assert ctl.pages_moved == 0
        assert ctl.placed == set()


class TestPlacement:
    def test_hot_objects_move_once_then_converge(self, model):
        ctl = OnlineRecluster(model, trigger_ops=4, max_moves_per_trigger=8)
        hot = (5, 6, 7)
        for _ in range(4):
            ctl.note_operation(hot)
        moved_after_first = ctl.pages_moved
        assert moved_after_first > 0
        assert set(hot) <= ctl.placed
        # The same hot set keeps hitting: no further moves, ever.
        for _ in range(12):
            ctl.note_operation(hot)
        assert ctl.triggers == 4
        assert ctl.pages_moved == moved_after_first

    def test_min_heat_filters_one_touch_objects(self, model):
        ctl = OnlineRecluster(
            model, trigger_ops=4, max_moves_per_trigger=8, min_heat=2
        )
        ctl.note_operation((1, 9))
        ctl.note_operation((1, 10))
        ctl.note_operation((1, 11))
        ctl.note_operation((1, 12))
        # Only object 1 crossed the heat threshold.
        assert ctl.placed == {1}

    def test_moves_remap_addresses(self, model):
        refs = model.all_refs()
        before = [model.fetch_full(ref) for ref in model.all_refs()]
        ctl = OnlineRecluster(model, trigger_ops=2, max_moves_per_trigger=8)
        ctl.note_operation((0, 1, 2))
        ctl.note_operation((0, 1, 2))
        assert ctl.pages_moved > 0
        assert [model.fetch_full(ref) for ref in model.all_refs()] == before
        assert len(model.all_refs()) == len(refs)


class TestSummary:
    def test_summary_shape(self, model):
        ctl = OnlineRecluster(model, trigger_ops=7, max_moves_per_trigger=3)
        ctl.note_operation((4,))
        assert ctl.summary() == {
            "policy": "hotcold",
            "trigger_ops": 7,
            "max_moves_per_trigger": 3,
            "min_heat": 2,
            "ops_seen": 1,
            "triggers": 0,
            "pages_moved": 0,
        }
