"""Integration across non-default configurations.

The analytical model and the engine must agree not only on the paper's
default setup but across the configuration space the paper explores:
the small-object regime of Figure 5 (max Sightseeings 0), the oversized
regime (30), and the skewed extension of Table 7.
"""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.queries import paper_trace
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import WorkloadExecutor
from repro.clustering.stats import AccessStats
from repro.core.estimators import AnalyticalEvaluator
from repro.core.parameters import WorkloadParameters, derive_parameters
from tests.conftest import build_loaded_model


def make_runner(**kw) -> BenchmarkRunner:
    base = dict(
        n_objects=200,
        buffer_pages=1000,
        loops=40,
        q1a_sample=20,
        q1b_sample=1,
        q2a_sample=6,
        seed=41,
    )
    base.update(kw)
    return BenchmarkRunner(BenchmarkConfig(**base))


class TestSmallObjectRegime:
    """maxSightseeing=0: direct-model objects drop below one page."""

    @pytest.fixture(scope="class")
    def runner(self):
        return make_runner(max_sightseeing=0)

    def test_parameters_flag_small(self, runner):
        params = derive_parameters(runner.config)
        assert not params["DSM"].relations[0].is_large

    def test_objects_share_pages(self, runner):
        run = runner.run_model("DSM", queries=("1c",))
        # Well under one page per object once objects share pages.
        assert run.metric("1c", "io_pages") < 1.0

    def test_estimator_tracks_engine(self, runner):
        ev = AnalyticalEvaluator(
            derive_parameters(runner.config),
            WorkloadParameters.from_config(runner.config),
        )
        run = runner.run_model("DSM", queries=("1c", "2b"))
        for query, tolerance in (("1c", 0.3), ("2b", 0.45)):
            measured = run.metric(query, "io_pages")
            estimated = ev.estimate("DSM", query)
            assert measured == pytest.approx(estimated, rel=tolerance)

    def test_dasdbs_nsm_advantage_melts(self, runner):
        """Section 5.3: "for smaller objects the advantage of DASDBS-NSM
        over the direct storage models melts away"."""
        dsm = runner.run_model("DSM", queries=("2b",)).metric("2b", "io_pages")
        dnsm = runner.run_model("DASDBS-NSM", queries=("2b",)).metric("2b", "io_pages")
        assert dsm < dnsm * 3  # within a small factor, not an order of magnitude


class TestObjectsSharingPages:
    """fanout=1, maxSightseeing=0: several direct objects per page."""

    @pytest.fixture(scope="class")
    def runner(self):
        return make_runner(fanout=1, max_sightseeing=0)

    def test_dasdbs_dsm_estimate_tracks_engine(self, runner):
        """A section read of an object sharing its page reads that page,
        as DSM does: value selection scans the relation's m pages, not
        one page per object."""
        params = derive_parameters(runner.config)
        assert not params["DASDBS-DSM"].relations[0].is_large
        assert params["DASDBS-DSM"].relations[0].k > 1
        ev = AnalyticalEvaluator(params, WorkloadParameters.from_config(runner.config))
        run = runner.run_model("DASDBS-DSM", queries=("1b", "1c", "2b"))
        for query, tolerance in (("1b", 0.3), ("1c", 0.3), ("2b", 0.45)):
            measured = run.metric(query, "io_pages")
            estimated = ev.estimate("DASDBS-DSM", query)
            assert measured == pytest.approx(estimated, rel=tolerance), query


class TestOversizedRegime:
    """maxSightseeing=30: objects span several pages."""

    @pytest.fixture(scope="class")
    def runner(self):
        return make_runner(max_sightseeing=30)

    def test_direct_objects_grow(self, runner):
        params = derive_parameters(runner.config)
        rel = params["DSM"].relations[0]
        assert rel.is_large
        assert rel.p >= 5

    def test_partial_access_advantage_grows(self, runner):
        dsm = runner.run_model("DSM", queries=("2b",)).metric("2b", "io_pages")
        ddsm = runner.run_model("DASDBS-DSM", queries=("2b",)).metric("2b", "io_pages")
        assert dsm > 2 * ddsm

    def test_model_content_equivalence(self, runner):
        model = build_loaded_model("DASDBS-DSM", runner.stations)
        oid = 5
        assert model.fetch_full(oid) == runner.stations[oid]


class TestSkewedRegime:
    """probability 0.2 / fanout 8 (Table 7)."""

    @pytest.fixture(scope="class")
    def runner(self):
        return make_runner(probability=0.2, fanout=8)

    def test_all_models_load_and_answer(self, runner):
        for name in ("DSM", "DASDBS-DSM", "NSM", "NSM+index", "DASDBS-NSM"):
            model = build_loaded_model(name, runner.stations)
            assert model.scan_all() == len(runner.stations)

    def test_navigation_equivalent_under_skew(self, runner):
        """All models traverse identical reference graphs."""
        from repro.benchmark.schema import oid_of_key

        direct = build_loaded_model("DSM", runner.stations)
        normalized = build_loaded_model("NSM", runner.stations)
        for oid in (0, 3, 11):
            d_refs = sorted(direct.fetch_refs([oid]))
            n_refs = sorted(oid_of_key(k) for k in normalized.fetch_refs(
                [normalized.ref_of(oid)]
            ))
            assert d_refs == n_refs

    def test_per_loop_means_stable(self, runner):
        """Table 7: per-loop averages similar to the uniform benchmark."""
        uniform = make_runner()
        skewed_2b = runner.run_model("DASDBS-NSM", queries=("2b",)).metric("2b", "io_pages")
        uniform_2b = uniform.run_model("DASDBS-NSM", queries=("2b",)).metric("2b", "io_pages")
        assert skewed_2b == pytest.approx(uniform_2b, rel=0.4)


class TestPageSizeConfigurations:
    @pytest.mark.parametrize("page_size", [1024, 4096])
    def test_engine_correct_at_other_page_sizes(self, page_size):
        runner = make_runner(page_size=page_size, n_objects=60, loops=10)
        model = runner.build_model("DASDBS-NSM")
        assert model.scan_all() == 60
        assert model.fetch_full(7) == runner.stations[7]

    def test_larger_pages_fewer_ios(self):
        small = make_runner(page_size=1024, n_objects=80, loops=10)
        large = make_runner(page_size=8192, n_objects=80, loops=10, buffer_pages=250)
        small_1c = small.run_model("DSM", queries=("1c",)).metric("1c", "io_pages")
        large_1c = large.run_model("DSM", queries=("1c",)).metric("1c", "io_pages")
        assert large_1c < small_1c


class TestTinyDatabases:
    """Degenerate sizes must not break anything."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_single_digit_extensions(self, n):
        runner = make_runner(n_objects=n, loops=2, q1a_sample=2, q1b_sample=1, q2a_sample=1)
        for name in ("DSM", "NSM", "DASDBS-NSM"):
            run = runner.run_model(name, queries=("1b", "1c", "2b", "3b"))
            assert run.results["1c"] is not None

    def test_objects_without_children(self):
        """Without children, 2b/3b touch only the roots and 3b writes nothing."""
        runner = make_runner(n_objects=30, probability=0.0, loops=5, q2a_sample=2)
        model = runner.build_model("DASDBS-NSM")
        try:
            raw = {}
            for query in ("2b", "3b"):
                trace = paper_trace(query, runner.config, model)
                stats = AccessStats(model.n_objects)
                raw[query] = WorkloadExecutor(model, trace, stats=stats).run().raw
                assert stats.n_ops == len(trace.ops) == 5
                assert sum(stats.heat) == len(trace.ops)
                assert not stats.affinity
            assert raw["3b"].pages_written == 0
        finally:
            model.engine.close()
