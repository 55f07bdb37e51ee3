"""Workload engine: spec validation, trace determinism, execution."""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import (
    OP_KINDS,
    PRESET_WORKLOADS,
    Operation,
    WorkloadExecutor,
    WorkloadSpec,
    WorkloadTrace,
    compile_trace,
    navigate,
    parse_workload,
    run_workload,
)
from repro.errors import BenchmarkError

#: Tiny but complete configuration for executor tests.
CFG = BenchmarkConfig(
    n_objects=40,
    buffer_pages=48,
    loops=5,
    q1a_sample=4,
    q1b_sample=1,
    q2a_sample=2,
    seed=3,
)


class TestWorkloadSpec:
    def test_defaults_valid(self):
        spec = WorkloadSpec()
        assert spec.skew == "uniform" and spec.warm

    def test_mix_covers_all_kinds(self):
        assert tuple(WorkloadSpec().mix()) == OP_KINDS

    def test_rejects_negative_weight(self):
        with pytest.raises(BenchmarkError):
            WorkloadSpec(point_weight=-1.0)

    def test_rejects_all_zero_mix(self):
        with pytest.raises(BenchmarkError):
            WorkloadSpec(
                point_weight=0, navigate_weight=0, scan_weight=0, update_weight=0
            )

    def test_rejects_unknown_skew(self):
        with pytest.raises(BenchmarkError):
            WorkloadSpec(skew="pareto")

    def test_rejects_bad_theta_and_ops(self):
        with pytest.raises(BenchmarkError):
            WorkloadSpec(skew="zipf", zipf_theta=0)
        with pytest.raises(BenchmarkError):
            WorkloadSpec(n_ops=0)

    def test_describe_mentions_the_knobs(self):
        text = WorkloadSpec(name="w", skew="zipf", zipf_theta=1.5, warm=False).describe()
        assert "w:" in text and "zipf(1.5)" in text and "cold" in text


class TestTraceCompilation:
    def test_same_spec_same_trace(self):
        spec = WorkloadSpec(n_ops=100)
        assert compile_trace(spec, 50) == compile_trace(spec, 50)

    def test_different_seed_different_trace(self):
        a = compile_trace(WorkloadSpec(n_ops=100, seed=1), 50)
        b = compile_trace(WorkloadSpec(n_ops=100, seed=2), 50)
        assert a.ops != b.ops

    def test_trace_length_and_kinds(self):
        trace = compile_trace(WorkloadSpec(n_ops=250), 50)
        assert len(trace.ops) == 250
        assert sum(trace.op_counts().values()) == 250
        assert set(trace.op_counts()) == set(OP_KINDS)

    def test_oids_within_extension(self):
        trace = compile_trace(WorkloadSpec(n_ops=300, skew="zipf"), 17)
        for op in trace.ops:
            if op.kind != "scan":
                assert 0 <= op.oid < 17
            else:
                assert op.oid == -1

    def test_zipf_skews_toward_low_oids(self):
        uniform = compile_trace(WorkloadSpec(n_ops=2000), 100)
        zipf = compile_trace(
            WorkloadSpec(n_ops=2000, skew="zipf", zipf_theta=1.2), 100
        )

        def low_oid_share(trace):
            targeted = [op for op in trace.ops if op.kind != "scan"]
            return sum(1 for op in targeted if op.oid < 10) / len(targeted)

        assert low_oid_share(zipf) > 2 * low_oid_share(uniform)

    def test_rejects_empty_extension(self):
        with pytest.raises(BenchmarkError):
            compile_trace(WorkloadSpec(), 0)


class TestParseWorkload:
    def test_presets(self):
        for name, spec in PRESET_WORKLOADS.items():
            assert parse_workload(name) == spec

    def test_zipf_with_theta(self):
        spec = parse_workload("zipf(1.0)")
        assert spec.skew == "zipf" and spec.zipf_theta == 1.0
        assert spec.name == "zipf(1)"

    def test_key_value_tokens(self):
        spec = parse_workload("zipf(1.2),point=3,update=1,ops=400,cold,seed=9")
        assert spec.skew == "zipf" and spec.zipf_theta == 1.2
        assert spec.point_weight == 3 and spec.update_weight == 1
        assert spec.n_ops == 400 and not spec.warm and spec.seed == 9

    def test_unknown_token_rejected(self):
        with pytest.raises(BenchmarkError):
            parse_workload("bogus")
        with pytest.raises(BenchmarkError):
            parse_workload("frobnicate=3")
        with pytest.raises(BenchmarkError):
            parse_workload("ops=many")

    def test_preset_after_other_tokens_rejected(self):
        """A preset replaces the whole spec, so accepting it after
        overrides would silently discard them."""
        with pytest.raises(BenchmarkError):
            parse_workload("cold,uniform")
        with pytest.raises(BenchmarkError):
            parse_workload("ops=500,read-heavy")

    def test_preset_first_then_overrides(self):
        spec = parse_workload("read-heavy,ops=500,cold")
        assert spec.point_weight == 0.7 and spec.n_ops == 500 and not spec.warm


class TestExecution:
    @pytest.fixture(scope="class")
    def runner(self):
        return BenchmarkRunner(CFG)

    SPEC = WorkloadSpec(n_ops=30, seed=7)

    def test_deterministic_across_runs(self, runner):
        first = runner.run_workload("DASDBS-NSM", self.SPEC)
        second = runner.run_workload("DASDBS-NSM", self.SPEC)
        assert first.raw == second.raw
        assert first.op_counts == second.op_counts

    @pytest.mark.parametrize("model", ["DSM", "DASDBS-DSM", "NSM", "DASDBS-NSM"])
    def test_all_measured_models_supported(self, runner, model):
        result = runner.run_workload(model, self.SPEC)
        assert result.n_ops == 30
        assert result.raw.page_fixes > 0
        assert result.raw.page_fixes == result.raw.buffer_hits + result.raw.buffer_misses
        assert 0.0 <= result.hit_rate <= 1.0

    def test_cold_regime_misses_more(self, runner):
        warm = runner.run_workload("DASDBS-NSM", self.SPEC)
        cold = runner.run_workload("DASDBS-NSM", self.SPEC.with_changes(warm=False))
        assert cold.raw.buffer_misses >= warm.raw.buffer_misses
        assert cold.hit_rate <= warm.hit_rate

    def test_update_heavy_workload_writes(self, runner):
        spec = WorkloadSpec(
            name="u",
            point_weight=0,
            navigate_weight=0,
            scan_weight=0,
            update_weight=1,
            n_ops=20,
        )
        result = runner.run_workload("DSM", spec)
        assert result.raw.pages_written > 0
        assert result.op_counts["update"] == 20

    def test_per_op_normalisation(self, runner):
        result = runner.run_workload("DASDBS-NSM", self.SPEC)
        assert result.per_op.page_fixes == pytest.approx(result.raw.page_fixes / 30)

    def test_an_explicit_empty_extension_is_refused(self, runner):
        """``n_objects=0`` is not "the whole extension"."""
        model = runner.build_model("DASDBS-NSM")
        try:
            with pytest.raises(BenchmarkError, match="empty extension"):
                run_workload(self.SPEC, model, n_objects=0)
            assert model.engine.metrics.snapshot().page_fixes == 0
            assert run_workload(self.SPEC, model, n_objects=None).n_ops == 30
        finally:
            model.engine.close()

    def test_trace_larger_than_extension_rejected(self, runner):
        model = runner.build_model("DASDBS-NSM")
        try:
            trace = compile_trace(self.SPEC, CFG.n_objects + 1)
            with pytest.raises(BenchmarkError):
                WorkloadExecutor(model, trace)
        finally:
            model.engine.close()


class TestRunnerIntegration:
    def test_adopt_extension_shares_generation(self):
        base = BenchmarkRunner(CFG)
        stations = base.stations
        other = BenchmarkRunner(CFG.with_changes(buffer_pages=16, policy="2q"))
        other.adopt_extension(stations)
        assert other.stations is stations

    def test_adopted_source_is_called_on_first_use_only(self):
        stations = BenchmarkRunner(CFG).stations
        calls = []
        runner = BenchmarkRunner(CFG)
        runner.adopt_extension(lambda: calls.append(1) or stations)
        assert calls == []
        assert runner.stations is stations and runner.stations is stations
        assert calls == [1]

    def test_adopt_after_generation_rejected(self):
        runner = BenchmarkRunner(CFG)
        runner.stations
        with pytest.raises(BenchmarkError):
            runner.adopt_extension([])

    def test_shared_extension_same_results(self):
        spec = WorkloadSpec(n_ops=15, seed=5)
        solo = BenchmarkRunner(CFG).run_workload("DASDBS-NSM", spec)
        shared = BenchmarkRunner(CFG)
        shared.adopt_extension(BenchmarkRunner(CFG).stations)
        assert shared.run_workload("DASDBS-NSM", spec).raw == solo.raw


class TestPaperQueryKinds:
    """``key`` and ``navigate_update``: the two kinds only paper queries use."""

    @pytest.fixture(scope="class")
    def runner(self):
        return BenchmarkRunner(CFG)

    @staticmethod
    def replay(model, ops):
        spec = WorkloadSpec(name="paper", n_ops=len(ops))
        return WorkloadExecutor(model, WorkloadTrace(spec, CFG.n_objects, ops)).run()

    def test_key_is_the_value_selection_a_point_costs_without_oids(self, runner):
        model = runner.build_model("NSM")
        try:
            by_key = self.replay(model, (Operation("key", 3), Operation("key", 11)))
            by_point = self.replay(model, (Operation("point", 3), Operation("point", 11)))
        finally:
            model.engine.close()
        assert by_key.raw.page_fixes > 0
        assert by_key.raw == by_point.raw
        assert by_key.op_counts == {**dict.fromkeys(OP_KINDS, 0), "key": 2}
        assert set(by_point.op_counts) == set(OP_KINDS)

    def test_navigate_update_is_navigate_then_a_root_update(self, runner):
        roots = (1, 5, 9)
        model = runner.build_model("DSM")
        try:
            plain = self.replay(model, tuple(Operation("navigate", oid) for oid in roots))
            updating = self.replay(
                model, tuple(Operation("navigate_update", oid) for oid in roots)
            )
            grand = navigate(model, roots[-1])[1]
            names = {root["Name"] for root in model.fetch_roots(grand)}
        finally:
            model.engine.close()
        assert plain.raw.pages_written == 0
        assert updating.raw.pages_written > 0
        assert updating.raw.page_fixes > plain.raw.page_fixes
        assert updating.op_counts["navigate_update"] == len(roots)
        assert grand and names == {f"updated-{len(roots) - 1}"}
