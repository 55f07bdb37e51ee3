"""Tests for the distribution extension (paper Section 5.5 forecast).

The experiment measures per-loop, per-shard pages of cold query-2b
loops on the shard engine; these tests pin the statistics' arithmetic
on hand-computed inputs, check the forecast on the measured loops,
and check the measurement itself against the unsharded engine.
"""

import hashlib

import pytest

from repro.benchmark.queries import paper_trace
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import navigate
from repro.experiments import distribution
from repro.experiments.distribution import (
    MODELS,
    N_NODES,
    coefficient_of_variation,
    loop_concentration,
    loop_pages,
    loop_totals,
    node_imbalance,
    node_totals,
    parallel_inefficiency,
)
from repro.experiments.measure import FAST_CONFIG

EXTENSIONS = {"uniform": {}, "skewed": {"probability": 0.2, "fanout": 8}}


class TestCoefficientOfVariation:
    def test_empty_is_zero(self):
        assert coefficient_of_variation(()) == 0.0

    def test_zero_mean_is_zero(self):
        assert coefficient_of_variation((0.0, 0.0, 0.0)) == 0.0

    def test_constant_values_have_no_variation(self):
        assert coefficient_of_variation((5.0, 5.0, 5.0, 5.0)) == 0.0

    def test_hand_computed_value(self):
        # mean = 3, variance = ((2-3)² + (4-3)²) / 2 = 1, cv = 1/3.
        assert coefficient_of_variation((2.0, 4.0)) == pytest.approx(1.0 / 3.0)

    def test_scale_invariance(self):
        values = (1.0, 2.0, 3.0, 4.0)
        scaled = tuple(10 * v for v in values)
        assert coefficient_of_variation(values) == pytest.approx(
            coefficient_of_variation(scaled)
        )


class TestLoopConcentration:
    def test_even_loops_have_zero_concentration(self):
        assert loop_concentration([(1, 1), (2, 0), (0, 2)]) == 0.0

    def test_concentrated_loops(self):
        # loop totals 2 and 4: cv = 1/3 — "I/Os concentrated into fewer
        # loops" shows up as a positive concentration.
        assert loop_concentration([(1, 1), (3, 1)]) == pytest.approx(1.0 / 3.0)


class TestNodeImbalance:
    def test_hand_computed_value(self):
        # node totals 10, 20, 30: mean 20, busiest 30.
        assert node_imbalance([(10, 20, 30)]) == pytest.approx(1.5)
        assert node_imbalance([(10, 0, 30), (0, 20, 0)]) == pytest.approx(1.5)

    def test_balanced_cluster_is_one(self):
        assert node_imbalance([(7, 7, 7)]) == 1.0

    def test_idle_cluster_is_one(self):
        assert node_imbalance([(0, 0)]) == 1.0


class TestParallelInefficiency:
    def test_idle_cluster_is_one(self):
        assert parallel_inefficiency([(0, 0)]) == 1.0

    def test_perfect_spread_is_one(self):
        # Two nodes, two loops, every loop spreads 2 pages evenly:
        # even share per node = 4 / 2 = 2; Σ loop max = 1 + 1 = 2.
        assert parallel_inefficiency([(1, 1), (1, 1)]) == 1.0

    def test_serialised_loops_exceed_one(self):
        # Same totals but each loop lands entirely on one node:
        # Σ loop max = 4, even share = 2 → inefficiency 2.0.
        assert parallel_inefficiency([(2, 0), (0, 2)]) == pytest.approx(2.0)


@pytest.fixture(scope="module")
def measured():
    """Per-loop, per-shard pages of every model on both extensions."""
    sharded = FAST_CONFIG.with_changes(shards=N_NODES)
    return {
        (name, extension): loop_pages(sharded.with_changes(**changes), name)
        for extension, changes in EXTENSIONS.items()
        for name in MODELS
    }


class TestForecast:
    @pytest.mark.parametrize("model", MODELS)
    def test_skew_concentrates_io_into_fewer_loops(self, measured, model):
        """Section 5.5: 'the number of physical I/Os was somewhat more
        concentrated into fewer loops' under data skew."""
        uniform = loop_concentration(measured[model, "uniform"])
        skewed = loop_concentration(measured[model, "skewed"])
        assert skewed >= uniform * 1.3

    @pytest.mark.parametrize("extension", EXTENSIONS)
    def test_total_pages_ordered_by_model(self, measured, extension):
        dsm, ddsm, dnsm = (sum(loop_totals(measured[m, extension])) for m in MODELS)
        assert dsm > ddsm > dnsm

    @pytest.mark.parametrize("extension", EXTENSIONS)
    @pytest.mark.parametrize("model", MODELS)
    def test_parallel_inefficiency_bounded(self, measured, model, extension):
        """Per-loop node hotspots cost at most n_nodes of slowdown."""
        assert 1.0 <= parallel_inefficiency(measured[model, extension]) <= N_NODES

    @pytest.mark.parametrize("extension", EXTENSIONS)
    @pytest.mark.parametrize("model", MODELS)
    def test_loop_and_node_totals_agree(self, measured, model, extension):
        loops = measured[model, extension]
        assert len(loops) == FAST_CONFIG.effective_loops
        assert all(len(loop) == N_NODES for loop in loops)
        assert sum(loop_totals(loops)) == sum(node_totals(loops))


def unsharded_loop_pages(config, name):
    """Pages read by every cold query-2b loop on the unsharded engine."""
    model = BenchmarkRunner(config).build_model(name)
    metrics, loops = model.engine.metrics, []
    try:
        for operation in paper_trace("2b", config, model).ops:
            model.engine.restart_buffer()
            before = metrics.pages_read
            navigate(model, operation.oid)
            loops.append(metrics.pages_read - before)
    finally:
        model.engine.close()
    return loops


@pytest.mark.parametrize("extension", EXTENSIONS)
@pytest.mark.parametrize("model", MODELS)
def test_sharded_loops_read_what_the_unsharded_engine_reads(model, extension):
    """Every replica stores the canonical layout and each object is read
    on its owner, so a cold loop's pages summed over the shards equal
    the unsharded loop's whenever no page it reads holds objects of two
    owners: the direct models at this scale.  DASDBS-NSM packs the
    records of many objects onto one page; objects owned by different
    shards then share a page, each owner reads its own replica's copy,
    and the sharded loop reads at least as much."""
    config = FAST_CONFIG.with_changes(n_objects=60, **EXTENSIONS[extension])
    sharded = loop_totals(loop_pages(config.with_changes(shards=N_NODES), model))
    unsharded = unsharded_loop_pages(config, model)
    assert len(sharded) == len(unsharded) == config.effective_loops
    if model == "DASDBS-NSM":
        assert all(s >= u for s, u in zip(sharded, unsharded))
        assert sum(sharded) > sum(unsharded)
    else:
        assert sharded == unsharded


class TestPinnedRender:
    """The ``distribution --fast`` render stays exactly as captured."""

    def test_fast_render(self):
        rendered = distribution.render(FAST_CONFIG).encode()
        assert hashlib.sha256(rendered).hexdigest() == (
            "8c4a337fdc2fd6bb5de88b2a6fd1a8b8008382af4a4333bdbbe47b936307dae5"
        )
