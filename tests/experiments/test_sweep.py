"""Sensitivity-sweep grid driver: coverage, determinism, CLI path."""

import json

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.workload import WorkloadSpec
from repro.errors import ModelError
from repro.experiments import sweep
from repro.experiments.cli import main
from repro.models.registry import resolve_models

#: Tiny grid that still crosses every axis.
CFG = BenchmarkConfig(
    n_objects=30,
    buffer_pages=32,
    loops=3,
    q1a_sample=3,
    q1b_sample=1,
    q2a_sample=2,
    seed=3,
)
WORKLOADS = (
    WorkloadSpec(name="u", n_ops=10, seed=5),
    WorkloadSpec(name="z", n_ops=10, seed=5, skew="zipf", zipf_theta=1.0),
)
CAPACITIES = (8, 24)
POLICIES = ("lru", "lru-k", "2q")
MODELS = ("DASDBS-DSM", "DASDBS-NSM")


@pytest.fixture(scope="module")
def result():
    return sweep.run_sweep(CFG, WORKLOADS, CAPACITIES, POLICIES, MODELS)


class TestGrid:
    def test_cell_count_is_the_cross_product(self, result):
        assert len(result.cells) == 2 * 2 * 3 * 2

    def test_cells_cover_every_axis_value(self, result):
        assert {c.workload for c in result.cells} == {"u", "z"}
        assert {c.capacity for c in result.cells} == set(CAPACITIES)
        assert {c.policy for c in result.cells} == set(POLICIES)
        assert {c.model for c in result.cells} == set(MODELS)

    def test_every_cell_ran_the_full_trace(self, result):
        for cell in result.cells:
            assert cell.result.n_ops == 10
            raw = cell.result.raw
            assert raw.page_fixes == raw.buffer_hits + raw.buffer_misses

    def test_larger_buffer_never_hits_less(self, result):
        """Within one workload × policy × model, growing the buffer
        cannot lower the LRU hit rate (stack property holds for this
        monotone trace)."""
        for cell in result.cells:
            if cell.capacity != 8 or cell.policy != "lru":
                continue
            bigger = next(
                c
                for c in result.cells
                if c.capacity == 24
                and c.policy == "lru"
                and c.workload == cell.workload
                and c.model == cell.model
            )
            assert bigger.result.hit_rate >= cell.result.hit_rate


class TestDeterminism:
    def test_json_byte_identical_across_runs(self, result):
        again = sweep.run_sweep(CFG, WORKLOADS, CAPACITIES, POLICIES, MODELS)
        assert again.to_json() == result.to_json()

    def test_parallel_equals_sequential(self, result):
        """Worker count never moves a byte (2 workers are covered below)."""
        parallel = sweep.run_sweep(
            CFG, WORKLOADS, CAPACITIES, POLICIES, MODELS, processes=4
        )
        assert parallel.to_json() == result.to_json()

    def test_processes_equal_sequential(self, result):
        """Worker processes regenerate the deterministic extension, so
        the grid is byte-identical to the in-process run."""
        multiproc = sweep.run_sweep(
            CFG, WORKLOADS, CAPACITIES, POLICIES, MODELS, processes=2
        )
        assert multiproc.to_json() == result.to_json()

    def test_snapshot_clones_change_no_byte(self, result):
        """ISSUE 4 acceptance: the module fixture runs with the snapshot
        store on (the default); rebuilding every cell from scratch must
        produce the identical JSON."""
        rebuilt = sweep.run_sweep(
            CFG.with_changes(snapshots=False), WORKLOADS, CAPACITIES, POLICIES, MODELS
        )
        assert rebuilt.to_json() == result.to_json()

    def test_the_extension_is_generated_only_when_a_cell_builds(self, result, monkeypatch):
        """The grid shares one lazy extension per data-knob key: never
        generated when every cell clones from the (warm) snapshot store,
        generated once — not once per cell — when cells rebuild."""
        generated = []
        generate = sweep.generate_stations
        monkeypatch.setattr(
            sweep, "generate_stations", lambda config: generated.append(1) or generate(config)
        )
        cloned = sweep.run_sweep(CFG, WORKLOADS, CAPACITIES, POLICIES, MODELS)
        assert generated == []
        rebuilt = sweep.run_sweep(
            CFG.with_changes(snapshots=False), WORKLOADS, CAPACITIES, POLICIES, MODELS
        )
        assert generated == [1]
        assert cloned.to_json() == rebuilt.to_json() == result.to_json()

    def test_process_path_spilled_snapshots_change_no_byte(self, result):
        """Workers cloning from spilled snapshot artifacts produce the
        same bytes as workers rebuilding from scratch."""
        spilled = sweep.run_sweep(
            CFG, WORKLOADS, CAPACITIES, POLICIES, MODELS, processes=2
        )
        rebuilt = sweep.run_sweep(
            CFG.with_changes(snapshots=False),
            WORKLOADS,
            CAPACITIES,
            POLICIES,
            MODELS,
            processes=2,
        )
        assert spilled.to_json() == rebuilt.to_json() == result.to_json()

    def test_json_is_valid_and_raw_integer(self, result):
        payload = json.loads(result.to_json())
        assert len(payload["cells"]) == len(result.cells)
        for cell in payload["cells"]:
            for counter in ("read_calls", "pages_read", "page_fixes", "evictions"):
                assert isinstance(cell[counter], int)
        assert payload["grid"]["capacities"] == list(CAPACITIES)

    def test_json_carries_service_time_estimates(self, result):
        """Every cell reports the Equation-1 service-time estimate, an
        exact function of its integer counters under the advertised
        geometry."""
        payload = json.loads(result.to_json())
        model = payload["grid"]["service_time_model"]
        for cell in payload["cells"]:
            calls = cell["read_calls"] + cell["write_calls"]
            pages = cell["pages_read"] + cell["pages_written"]
            expected = (
                model["positioning_ms"] * calls
                + model["transfer_ms_per_page"] * pages
            )
            assert cell["service_time_ms"] == expected


class TestRendering:
    def test_render_result_one_table_per_workload(self, result):
        text = sweep.render_result(result)
        assert text.count("Sweep —") == 2
        assert "calls/op" in text and "hit rate" in text

    def test_render_writes_json(self, tmp_path):
        path = tmp_path / "grid.json"
        text = sweep.render(
            CFG,
            workloads=WORKLOADS[:1],
            capacities=(8,),
            policies=("lru",),
            models=("DASDBS-NSM",),
            json_path=str(path),
        )
        assert "Sweep —" in text
        assert json.loads(path.read_text())["cells"]

    def test_string_workloads_are_parsed(self):
        result = sweep.run_sweep(
            CFG, ("uniform",), (8,), ("lru",), ("DASDBS-NSM",)
        )
        assert result.workloads[0].name == "uniform"

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError):
            sweep.run_sweep(CFG, WORKLOADS, (8,), ("lru",), ("NOPE",))

    def test_duplicate_workload_names_rejected(self):
        """Cells are keyed by workload name; duplicates would conflate
        two specs' cells indistinguishably."""
        from repro.errors import BenchmarkError

        twins = (WorkloadSpec(name="u", n_ops=5), WorkloadSpec(name="u", n_ops=9))
        with pytest.raises(BenchmarkError):
            sweep.run_sweep(CFG, twins, (8,), ("lru",), ("DASDBS-NSM",))

    def test_precompiled_trace_matches_run_workload(self):
        """run_trace (the sweep's path) and run_workload agree."""
        from repro.benchmark.runner import BenchmarkRunner
        from repro.benchmark.workload import compile_trace

        spec = WORKLOADS[0]
        runner = BenchmarkRunner(CFG)
        via_spec = runner.run_workload("DASDBS-NSM", spec)
        via_trace = runner.run_trace(
            "DASDBS-NSM", compile_trace(spec, CFG.n_objects)
        )
        assert via_spec.raw == via_trace.raw

    def test_model_aliases_resolve(self):
        assert resolve_models(["focus"]) == ("DSM", "DASDBS-DSM", "DASDBS-NSM")
        assert resolve_models(["measured", "DSM"]) == (
            "DSM",
            "DASDBS-DSM",
            "NSM",
            "DASDBS-NSM",
        )


class TestCLI:
    def test_sweep_subcommand(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--fast",
                "--objects",
                "30",
                "--ops",
                "8",
                "--capacities",
                "8",
                "16",
                "--policies",
                "lru",
                "2q",
                "--workloads",
                "uniform",
                "zipf(1.0)",
                "--models",
                "DASDBS-NSM",
                "--sweep-json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep —" in out
        payload = json.loads(json_path.read_text())
        assert len(payload["cells"]) == 2 * 2 * 2 * 1

    def test_no_snapshots_flag_changes_no_byte(self, tmp_path):
        args = [
            "sweep",
            "--fast",
            "--objects",
            "30",
            "--ops",
            "8",
            "--capacities",
            "16",
            "--policies",
            "lru",
            "--workloads",
            "uniform",
            "--models",
            "DASDBS-NSM",
        ]
        on_path, off_path = tmp_path / "on.json", tmp_path / "off.json"
        assert main(args + ["--snapshots", "--sweep-json", str(on_path)]) == 0
        assert main(args + ["--no-snapshots", "--sweep-json", str(off_path)]) == 0
        assert on_path.read_bytes() == off_path.read_bytes()

    def test_cli_rejects_bad_capacity(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--capacities", "0"])

    def test_cli_rejects_bad_workload(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "nonsense"])

    def test_cli_rejects_bad_policy(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--policies", "mru"])

    def test_cli_rejects_bad_ops(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--ops", "0"])
