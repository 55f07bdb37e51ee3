"""The sweep's ``--clients`` axis: byte-parity default, served grid.

Same contract as the recluster axis before it: with the default axis
``(1,)`` the sweep's text and JSON output are byte-for-byte what a
pre-axis sweep emitted; any other axis routes every cell through the
serving layer and adds the (simulated-time, hence byte-reproducible)
latency/throughput fields uniformly.
"""

import json

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.workload import WorkloadSpec
from repro.errors import BenchmarkError
from repro.experiments import sweep
from repro.experiments.cli import main

CFG = BenchmarkConfig(
    n_objects=30,
    buffer_pages=32,
    loops=3,
    q1a_sample=3,
    q1b_sample=1,
    q2a_sample=2,
    seed=3,
)
WORKLOADS = (WorkloadSpec(name="u", n_ops=10, seed=5),)
CAPACITIES = (8, 24)
POLICIES = ("lru",)
MODELS = ("DASDBS-NSM",)


def run(**kwargs):
    return sweep.run_sweep(CFG, WORKLOADS, CAPACITIES, POLICIES, MODELS, **kwargs)


@pytest.fixture(scope="module")
def base():
    return run()


@pytest.fixture(scope="module")
def served():
    return run(clients=(1, 3))


class TestDefaultAxisParity:
    def test_explicit_default_is_byte_identical(self, base):
        explicit = run(clients=(1,))
        assert explicit.to_json() == base.to_json()
        assert sweep.render_result(explicit) == sweep.render_result(base)

    def test_default_json_carries_no_serving_fields(self, base):
        payload = json.loads(base.to_json())
        assert "clients" not in payload["grid"]
        assert "serving" not in payload["grid"]
        for cell in payload["cells"]:
            assert "clients" not in cell and "serving" not in cell

    def test_multi_client_flag(self, base, served):
        assert base.active_axes == ()
        assert [axis.keyword for axis in served.active_axes] == ["clients"]


class TestServedGrid:
    def test_clients_multiply_the_grid(self, base, served):
        assert len(served.cells) == 2 * len(base.cells)
        assert {c.clients for c in served.cells} == {1, 3}

    def test_single_client_cells_keep_their_counters(self, base, served):
        by_key = {
            (c.workload, c.capacity, c.policy, c.model): c
            for c in served.cells
            if c.clients == 1
        }
        for cell in base.cells:
            twin = by_key[(cell.workload, cell.capacity, cell.policy, cell.model)]
            assert twin.result.raw == cell.result.raw

    def test_every_cell_carries_the_serving_digest(self, served):
        payload = json.loads(served.to_json())
        assert payload["grid"]["clients"] == [1, 3]
        assert payload["grid"]["serving"] == {"scheduler": "fifo"}
        for cell in payload["cells"]:
            digest = cell["serving"]
            assert digest["clients"] == cell["clients"]
            assert digest["n_ops"] == cell["clients"] * 10
            assert digest["requests_per_second"] > 0
            assert digest["latency_p99_ms"] >= digest["latency_p50_ms"] > 0

    def test_rendered_table_gains_latency_columns(self, base, served):
        text = sweep.render_result(served)
        for column in ("clients", "p50 ms", "p99 ms", "req/s"):
            assert column in text
        assert "p50 ms" not in sweep.render_result(base)

    def test_process_pool_path_matches(self, served):
        via_processes = run(clients=(1, 3), processes=2)
        assert via_processes.to_json() == served.to_json()


class TestValidation:
    def test_bad_client_axis_rejected(self):
        with pytest.raises(BenchmarkError):
            run(clients=())
        with pytest.raises(BenchmarkError):
            run(clients=(0,))
        with pytest.raises(BenchmarkError):
            run(clients=(2, 2))

    def test_bad_scheduler_rejected(self):
        with pytest.raises(BenchmarkError):
            run(clients=(2,), scheduler="lottery")


class TestCLI:
    def test_clients_flag_reaches_the_sweep(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--fast",
                "--objects",
                "30",
                "--workloads",
                "uniform,ops=10",
                "--capacities",
                "24",
                "--policies",
                "lru",
                "--models",
                "DASDBS-NSM",
                "--clients",
                "1",
                "2",
                "--scheduler",
                "priority",
                "--sweep-json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        payload = json.loads(json_path.read_text())
        assert payload["grid"]["clients"] == [1, 2]
        assert payload["grid"]["serving"] == {"scheduler": "priority"}

    def test_bad_clients_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--fast", "--clients", "0"])
