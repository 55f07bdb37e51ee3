"""Tests for the distribution extension (paper Section 5.5 forecast)."""

import hashlib

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.generator import generate_stations
from repro.distribution import ClusterLoad, NodePlacement, simulate_navigation_load
from repro.distribution.cluster import DISTRIBUTED_MODELS, navigation_page_costs
from repro.errors import BenchmarkError
from repro.experiments import distribution
from repro.experiments.measure import FAST_CONFIG

UNIFORM = BenchmarkConfig(n_objects=400, seed=5)
SKEWED = UNIFORM.with_changes(probability=0.2, fanout=8)


class TestPlacement:
    def test_round_robin_covers_all_nodes(self):
        placement = NodePlacement.round_robin(10, 4)
        assert set(placement.node_of) == {0, 1, 2, 3}
        assert placement.node_of[:4] == (0, 1, 2, 3)

    def test_hashed_deterministic(self):
        a = NodePlacement.hashed(50, 4, seed=1)
        b = NodePlacement.hashed(50, 4, seed=1)
        assert a == b

    def test_invalid_node_count(self):
        with pytest.raises(BenchmarkError):
            NodePlacement.round_robin(10, 0)


class TestClusterLoad:
    def test_statistics(self):
        load = ClusterLoad((10.0, 20.0, 30.0))
        assert load.total == 60.0
        assert load.mean == 20.0
        assert load.max_node == 30.0
        assert load.imbalance == pytest.approx(1.5)
        assert load.coefficient_of_variation > 0

    def test_balanced_cluster(self):
        load = ClusterLoad((5.0, 5.0, 5.0))
        assert load.imbalance == 1.0
        assert load.coefficient_of_variation == 0.0

    def test_idle_cluster(self):
        load = ClusterLoad((0.0, 0.0))
        assert load.imbalance == 1.0


class TestSimulation:
    def test_total_load_ordered_by_model_cost(self):
        """Per-access page costs order the models as in the paper."""
        stations = generate_stations(UNIFORM)
        dsm = simulate_navigation_load(stations, model="DSM", n_nodes=8)
        ddsm = simulate_navigation_load(stations, model="DASDBS-DSM", n_nodes=8)
        dnsm = simulate_navigation_load(stations, model="DASDBS-NSM", n_nodes=8)
        assert dsm.total > ddsm.total > dnsm.total

    def test_unknown_model_rejected(self):
        with pytest.raises(BenchmarkError):
            simulate_navigation_load(generate_stations(UNIFORM), model="XSM")

    def test_placement_size_checked(self):
        stations = generate_stations(UNIFORM)
        with pytest.raises(BenchmarkError):
            simulate_navigation_load(
                stations, placement=NodePlacement.round_robin(5, 2)
            )

    def test_deterministic(self):
        stations = generate_stations(UNIFORM)
        a = simulate_navigation_load(stations, model="DSM", seed=3)
        b = simulate_navigation_load(stations, model="DSM", seed=3)
        assert a == b

    @pytest.mark.parametrize("model", ["DSM", "DASDBS-DSM", "DASDBS-NSM"])
    def test_skew_concentrates_io_into_fewer_loops(self, model):
        """Section 5.5: 'the number of physical I/Os was somewhat more
        concentrated into fewer loops' — and in a distributed system
        that concentration lands on single nodes per loop."""
        uniform = simulate_navigation_load(
            generate_stations(UNIFORM), model=model, n_nodes=8, seed=17
        )
        skewed = simulate_navigation_load(
            generate_stations(SKEWED), model=model, n_nodes=8, seed=17
        )
        assert skewed.loop_concentration > uniform.loop_concentration * 1.3

    def test_parallel_inefficiency_bounded(self):
        """Per-loop node hotspots cost at most n_nodes of slowdown."""
        load = simulate_navigation_load(
            generate_stations(UNIFORM), model="DSM", n_nodes=8, seed=17
        )
        assert 1.0 <= load.parallel_inefficiency <= 8.0

    def test_loop_statistics_present(self):
        load = simulate_navigation_load(
            generate_stations(UNIFORM), model="DSM", n_nodes=4, loops=20
        )
        assert len(load.loop_totals) == 20
        assert len(load.loop_max_node) == 20
        assert sum(load.loop_totals) == pytest.approx(load.total)

    def test_generates_extension_when_not_given(self):
        load = simulate_navigation_load(
            config=BenchmarkConfig(n_objects=50, seed=2), model="DASDBS-NSM", n_nodes=4
        )
        assert load.total > 0


class TestPinnedCosts:
    """The per-object page costs, and the ``distribution --fast`` render
    built from them, stay exactly as captured."""

    def test_fast_render(self):
        rendered = distribution.render(FAST_CONFIG).encode()
        assert hashlib.sha256(rendered).hexdigest() == (
            "8fcabd08f7db48beba6ab47b4e7ce84d0840825b233e616db61e9cfb73357674"
        )

    @pytest.mark.parametrize(
        "changes, totals",
        [
            ({}, (1084.0, 558.0, 300.0)),
            ({"probability": 0.2, "fanout": 8}, (1075.0, 589.0, 318.0)),
        ],
        ids=["uniform", "skewed"],
    )
    def test_navigation_page_costs(self, changes, totals):
        stations = generate_stations(FAST_CONFIG.with_changes(**changes))
        got = tuple(sum(navigation_page_costs(stations, model)) for model in DISTRIBUTED_MODELS)
        assert got == totals
