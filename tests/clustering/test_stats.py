"""Unit coverage for the access statistics, the training walk and trace digests."""

from __future__ import annotations

from repro.benchmark.workload import WorkloadSpec, compile_trace
from repro.clustering.stats import AFFINITY_PAIR_CAP, AccessStats, trace_stats
from repro.clustering.recluster import access_stats


class TestRecordOperation:
    def test_heat_counts_distinct_touches(self):
        stats = AccessStats(5)
        stats.record_operation([1, 2, 2, 1])
        stats.record_operation([1])
        assert stats.heat == [0, 2, 1, 0, 0]
        assert stats.n_ops == 2

    def test_affinity_counts_unordered_pairs(self):
        stats = AccessStats(4)
        stats.record_operation([2, 0, 1])
        assert stats.affinity_of(0, 2) == 1
        assert stats.affinity_of(2, 0) == 1
        assert stats.affinity_of(0, 1) == 1
        assert stats.affinity_of(0, 3) == 0
        stats.record_operation([0, 2])
        assert stats.affinity_of(0, 2) == 2

    def test_single_object_operation_has_no_pairs(self):
        stats = AccessStats(3)
        stats.record_operation([1])
        assert stats.affinity == {}

    def test_scan_heats_everything_without_pairs(self):
        stats = AccessStats(4)
        stats.record_scan()
        assert stats.heat == [1, 1, 1, 1]
        assert stats.affinity == {}

    def test_pair_enumeration_is_capped(self):
        stats = AccessStats(2 * AFFINITY_PAIR_CAP)
        stats.record_operation(range(2 * AFFINITY_PAIR_CAP))
        capped = AFFINITY_PAIR_CAP
        assert len(stats.affinity) == capped * (capped - 1) // 2
        # Heat is never capped.
        assert sum(stats.heat) == 2 * AFFINITY_PAIR_CAP

    def test_neighbours_sorted_strongest_first(self):
        stats = AccessStats(4)
        stats.record_operation([0, 1])
        stats.record_operation([0, 2])
        stats.record_operation([0, 2])
        neighbours = stats.neighbours()
        assert neighbours[0] == [(2, 2), (1, 1)]
        assert neighbours[2] == [(2, 0)]

    def test_summary_shape(self):
        stats = AccessStats(10)
        stats.record_operation([0, 1])
        summary = stats.summary()
        assert summary["n_ops"] == 1
        assert summary["objects_touched"] == 2
        assert summary["affinity_pairs"] == 1
        assert set(summary) == {
            "n_objects",
            "n_ops",
            "objects_touched",
            "total_object_touches",
            "max_heat",
            "top_decile_touch_share",
            "affinity_pairs",
        }


class TestTrainingWalk:
    def test_deterministic(self, small_stations):
        spec = WorkloadSpec(
            name="mix", navigate_weight=0.6, skew="zipf", n_ops=60, seed=11
        )
        trace = compile_trace(spec, len(small_stations))
        first = access_stats(trace, small_stations)
        second = access_stats(trace, small_stations)
        assert first.heat == second.heat
        assert first.affinity == second.affinity
        assert first.summary() == second.summary()

    def test_navigation_attributes_children(self, small_stations):
        """Navigate operations create affinity between root and children
        — the signal the chaining policy consumes."""
        spec = WorkloadSpec(
            name="nav-only",
            point_weight=0.0,
            navigate_weight=1.0,
            scan_weight=0.0,
            update_weight=0.0,
            n_ops=30,
            seed=2,
        )
        trace = compile_trace(spec, len(small_stations))
        stats = access_stats(trace, small_stations)
        assert stats.affinity, "navigation must produce co-access pairs"

    def test_sized_by_the_extension(self, small_stations):
        """Heat covers every object, also for a trace over a prefix."""
        spec = WorkloadSpec(name="nav-only", navigate_weight=1.0, n_ops=20, seed=2)
        trace = compile_trace(spec, len(small_stations) // 2)
        stats = access_stats(trace, small_stations)
        assert len(stats.heat) == len(small_stations)
        assert any(stats.heat[len(small_stations) // 2 :])


class TestTraceStats:
    def test_digest_matches_hand_count(self):
        spec = WorkloadSpec(name="t", n_ops=50, seed=4)
        trace = compile_trace(spec, 20)
        digest = trace_stats(trace)
        targeted = [op for op in trace.ops if op.oid >= 0]
        assert digest.n_ops == 50
        assert digest.op_counts == trace.op_counts()
        assert digest.distinct_targets == len({op.oid for op in targeted})
        assert 0.0 < digest.top_decile_target_share <= 1.0

    def test_zipf_concentrates_the_top_decile(self):
        uniform = trace_stats(
            compile_trace(WorkloadSpec(name="u", n_ops=400, seed=4), 100)
        )
        zipf = trace_stats(
            compile_trace(
                WorkloadSpec(name="z", skew="zipf", zipf_theta=1.4, n_ops=400, seed=4),
                100,
            )
        )
        assert zipf.top_decile_target_share > uniform.top_decile_target_share

    def test_to_dict_is_json_stable(self):
        digest = trace_stats(compile_trace(WorkloadSpec(n_ops=10, seed=1), 5))
        import json

        assert json.dumps(digest.to_dict(), sort_keys=True) == json.dumps(
            digest.to_dict(), sort_keys=True
        )
