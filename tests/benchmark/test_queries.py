"""Unit tests for the benchmark queries and runner."""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.queries import QUERY_NAMES, QuerySuite, paper_trace
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import WorkloadExecutor, navigate
from repro.errors import BenchmarkError, UnsupportedOperationError
from repro.models.registry import MODEL_CLASSES
from tests.conftest import TouchRecorder, build_loaded_model

CFG = BenchmarkConfig(
    n_objects=40, loops=8, q1a_sample=8, q1b_sample=2, q2a_sample=4, buffer_pages=300, seed=21
)


@pytest.fixture(scope="module")
def runner():
    return BenchmarkRunner(CFG)


@pytest.fixture(scope="module")
def dsm_results(runner):
    return runner.run_model("DSM")


class TestQueryResults:
    def test_all_queries_present(self, dsm_results):
        assert set(dsm_results.results) == set(QUERY_NAMES)

    def test_normalisation_divisors(self, runner):
        model = build_loaded_model("DSM", runner.stations, buffer_pages=300)
        suite = QuerySuite(model, CFG)
        assert suite.run("1a").divisor == CFG.q1a_sample
        assert suite.run("1b").divisor == CFG.q1b_sample
        assert suite.run("1c").divisor == CFG.n_objects
        assert suite.run("2a").divisor == CFG.q2a_sample
        assert suite.run("2b").divisor == CFG.effective_loops
        assert suite.run("3a").divisor == CFG.q2a_sample
        assert suite.run("3b").divisor == CFG.effective_loops

    def test_single_object_samples_stay_within_the_extension(self, runner):
        model = build_loaded_model("DSM", runner.stations, buffer_pages=300)
        cfg = CFG.with_changes(q1a_sample=500, q1b_sample=500)
        assert len(paper_trace("1a", cfg, model).ops) == CFG.n_objects
        assert len(paper_trace("1b", cfg, model).ops) == CFG.n_objects
        assert QuerySuite(model, cfg).run("1b").divisor == CFG.n_objects

    def test_query1a_reads_no_writes(self, dsm_results):
        raw = dsm_results.results["1a"].raw
        assert raw.pages_read > 0
        assert raw.pages_written == 0

    def test_query3_writes(self, dsm_results):
        assert dsm_results.results["3b"].raw.pages_written > 0

    @pytest.mark.parametrize("query", ["2b", "3b"])
    def test_navigation_reaches_grandchildren(self, runner, dsm_results, query):
        """Observed through the executor, 2b/3b touch more objects than roots."""
        model = build_loaded_model("DSM", runner.stations, buffer_pages=300)
        trace = paper_trace(query, CFG, model)
        assert len(trace.ops) == CFG.effective_loops
        assert any(navigate(model, op.oid)[1] for op in trace.ops)
        stats = TouchRecorder(model.n_objects)
        raw = WorkloadExecutor(model, trace, online=stats).run().raw
        assert stats.n_ops == CFG.effective_loops
        assert sum(stats.heat) > CFG.effective_loops
        assert stats.affinity
        # Recording the touches is observational.
        assert raw == dsm_results.results[query].raw

    def test_query3a_not_cheaper_than_2a(self, dsm_results):
        q2 = dsm_results.results["2a"].normalized.io_pages
        q3 = dsm_results.results["3a"].normalized.io_pages
        assert q3 >= q2

    def test_unsupported_query_returns_none(self, runner):
        nsm_run = runner.run_model("NSM", queries=("1a", "1c"))
        assert nsm_run.results["1a"] is None
        assert nsm_run.results["1c"] is not None

    def test_metric_accessor(self, dsm_results):
        assert dsm_results.metric("1c", "io_pages") > 0
        assert dsm_results.metric("1c", "page_fixes") > 0

    @pytest.mark.parametrize("query", QUERY_NAMES)
    def test_same_access_pattern_across_models(self, runner, query):
        """Every model compiles the identical operation sequence."""
        traces = {}
        for name in MODEL_CLASSES:
            model = runner.build_model(name)
            try:
                traces[name] = paper_trace(query, CFG, model)
            except UnsupportedOperationError:
                assert query == "1a" and not model.supports_oid_access
            finally:
                model.engine.close()
        assert len(traces) >= len(MODEL_CLASSES) - 1
        first = next(iter(traces.values()))
        assert all(trace.ops == first.ops for trace in traces.values())
        assert all(trace.spec.warm == first.spec.warm for trace in traces.values())

    def test_navigation_touches_the_same_objects_on_every_model(self, runner):
        """2b reaches the same children and grand-children on every model."""
        touched = {}
        for name in MODEL_CLASSES:
            model = runner.build_model(name)
            try:
                stats = TouchRecorder(model.n_objects)
                WorkloadExecutor(model, paper_trace("2b", CFG, model), online=stats).run()
                touched[name] = (stats.heat, stats.affinity)
            finally:
                model.engine.close()
        first = touched["DSM"]
        assert sum(first[0]) > CFG.effective_loops
        assert all(pair == first for pair in touched.values())

    def test_unknown_query_is_refused(self, runner):
        model = build_loaded_model("DSM", runner.stations, buffer_pages=300)
        with pytest.raises(BenchmarkError, match="unknown query"):
            paper_trace("4a", CFG, model)

    def test_queries_leave_no_fixed_pages(self, runner):
        model = build_loaded_model("DASDBS-NSM", runner.stations, buffer_pages=300)
        suite = QuerySuite(model, CFG)
        suite.run_all()
        assert model.engine.buffer.fixed_pages() == []


class TestRunner:
    def test_stations_generated_once(self, runner):
        assert runner.stations is runner.stations

    def test_statistics_consistent(self, runner):
        stats = runner.statistics()
        assert stats.n_objects == CFG.n_objects

    def test_run_models_covers_requested(self, runner):
        runs = runner.run_models(("DSM", "NSM"), queries=("1c",))
        assert set(runs) == {"DSM", "NSM"}

    def test_relation_pages_recorded(self, dsm_results):
        assert dsm_results.total_pages > 0


class TestBufferRegimes:
    def test_warm_2b_cheaper_than_cold_2a(self, runner):
        """With a buffer larger than the DB, loops amortise to near zero."""
        cfg = CFG.with_changes(buffer_pages=1200)
        run = BenchmarkRunner(cfg).run_model("DSM", queries=("2a", "2b"))
        assert run.metric("2b", "pages_read") < run.metric("2a", "pages_read")

    def test_small_buffer_causes_evictions(self):
        cfg = CFG.with_changes(buffer_pages=24)
        run = BenchmarkRunner(cfg).run_model("DSM", queries=("2b",))
        assert run.results["2b"].raw.evictions > 0

    def test_cache_overflow_raises_cost(self):
        """Figure 6's mechanism: shrinking the buffer raises 2b cost."""
        big = BenchmarkRunner(CFG.with_changes(buffer_pages=1200)).run_model(
            "DSM", queries=("2b",)
        )
        small = BenchmarkRunner(CFG.with_changes(buffer_pages=24)).run_model(
            "DSM", queries=("2b",)
        )
        assert small.metric("2b", "io_pages") > big.metric("2b", "io_pages")
