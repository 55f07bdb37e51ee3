"""Smoke and structure tests for the experiment harness (small scale)."""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.experiments import (
    ablations,
    figure5,
    figure6,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from repro.experiments.cli import EXPERIMENTS, main
from repro.experiments.report import fmt_value, render_series, render_table

#: Tiny but complete configuration for harness tests.
CFG = BenchmarkConfig(
    n_objects=50,
    buffer_pages=60,
    loops=10,
    q1a_sample=6,
    q1b_sample=1,
    q2a_sample=3,
    seed=3,
)

#: Larger configuration for the scale-dependent ranking checks.
RANKING_CFG = BenchmarkConfig(
    n_objects=200,
    buffer_pages=160,
    q1a_sample=10,
    q1b_sample=1,
    q2a_sample=4,
    seed=3,
)


class TestReportHelpers:
    def test_fmt_none(self):
        assert fmt_value(None) == "-"

    def test_fmt_int(self):
        assert fmt_value(1200) == "1200"

    def test_fmt_float_magnitudes(self):
        assert fmt_value(3.14159) == "3.14"
        assert fmt_value(123.456) == "123.5"
        assert fmt_value(6078.0) == "6078"
        assert fmt_value(0.0) == "0"

    def test_fmt_bool(self):
        assert fmt_value(True) == "yes"

    def test_render_table_alignment(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], [None, "x"]], note="n")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert text.endswith("n\n")

    def test_render_series(self):
        text = render_series("S", "x", [1, 2], {"m": [10, 20]})
        assert "m" in text and "20" in text


class TestTableBuilders:
    def test_table2_rows_cover_models(self):
        rows = table2.build_rows(CFG, with_measurements=True)
        models = {row.model for row in rows}
        assert models == {"DSM", "DASDBS-DSM", "NSM", "DASDBS-NSM"}
        for row in rows:
            assert row.m > 0

    def test_table2_paper_rows(self):
        rows = table2.paper_rows()
        dsm = next(r for r in rows if r.relation == "DSM_Station")
        assert dsm.s_tuple == 6078.0

    def test_table3_rows_have_primed_variants(self):
        rows = table3.build_rows(CFG, "derived")
        labels = [row[0] for row in rows]
        assert "DSM" in labels and "DSM'" in labels
        assert len(rows) == 10  # 5 models × (plain + primed)

    def test_table4_rows(self):
        rows = table4.build_rows(CFG)
        assert len(rows) == 4
        dsm_row = next(r for r in rows if r[0] == "DSM")
        assert all(v is not None and v > 0 for v in dsm_row[1:])

    def test_table5_pages_per_write_call(self):
        batch = table5.pages_per_write_call(CFG)
        assert batch["DASDBS-DSM"] == pytest.approx(1.0)  # pool writes
        assert batch["DSM"] >= 1.0

    def test_table6_totals(self):
        """NSM dominates fixes once relations span enough pages; at the
        paper's scale the factor is ~15x (370,000 fixes).  Scale-dependent,
        so this check runs on the larger ranking configuration."""
        fixes = table6.total_fixes_2b(RANKING_CFG)
        assert max(fixes, key=fixes.get) == "NSM"

    def test_table7_skew_rows(self):
        rows = table7.build_rows(CFG)
        for row in rows:
            assert row[1] is not None and row[2] is not None

    def test_table8_conclusion(self):
        """The Section 6 conclusion emerges at sufficient database scale
        (tiny extensions make NSM's scans artificially cheap)."""
        assert table8.conclusion_holds(RANKING_CFG)

    def test_figure5_series_shapes(self):
        series = figure5.build_series(CFG, levels=(0, 15), queries=("2b",))
        assert set(series["2b"]) == {"DSM", "DASDBS-DSM", "DASDBS-NSM"}
        assert all(len(v) == 2 for v in series["2b"].values())

    def test_figure6_series(self):
        series = figure6.build_series(CFG, sizes=(40, 80))
        assert len(series) == 3
        for s in series:
            assert len(s.measured) == 2
            assert all(w >= b for w, b in zip(s.worst_case, s.best_case))

    def test_ablation_formula_accuracy(self):
        rows = ablations.formula_accuracy_rows(cases=((10, 500, 50),), trials=100)
        case, cardenas, yao, simulated = rows[0]
        assert cardenas == pytest.approx(simulated, rel=0.1)
        assert yao == pytest.approx(simulated, rel=0.05)


class TestRenderedReports:
    @pytest.mark.parametrize("module", [table2, table3, table4, table7, table8])
    def test_render_produces_text(self, module):
        text = module.render(CFG)
        assert "Table" in text
        assert len(text.splitlines()) > 5


class TestCLI:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "table8",
            "figure5",
            "figure6",
            "ablations",
            "distribution",
            "clustering",
            "drift",
            "sweep",
            "sharding",
        }

    def test_cli_runs_selected_experiment(self, capsys):
        assert main(["table3", "--fast", "--objects", "50"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sweep", "--fast", "--serving-workers", "2"], "--serving-workers"),
            (["perf"], "unknown experiment(s): perf"),
            (["perf", "--perf-check", "x"], "--perf-check"),
        ],
    )
    def test_cli_removed_knobs_are_usage_errors(self, capsys, argv, named):
        """PR 23 left no aliases: threaded serving's flag, the ``perf``
        sub-command and its flags fail like any other unknown input."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and named in err

    def test_cli_backend_flag(self, capsys, tmp_path):
        code = main(
            ["table3", "--fast", "--objects", "50", "--backend", "file",
             "--backend-path", str(tmp_path / "pages")]
        )
        assert code == 0
        assert "Table 3" in capsys.readouterr().out

    def test_cli_trace_requires_backend_path(self):
        with pytest.raises(SystemExit):
            main(["table3", "--fast", "--backend", "trace"])

    @pytest.mark.parametrize("experiment", ["sharding", "distribution"])
    @pytest.mark.parametrize("flag", ["faults", "trace"])
    def test_cli_refuses_sharded_experiment_up_front(
        self, capsys, tmp_path, experiment, flag
    ):
        """Both experiments build sharded models: a flag a sharded
        config refuses is a usage error before the first experiment
        prints anything."""
        flags = {
            "faults": ["--faults", "seed=1,read=0.1"],
            "trace": ["--backend", "trace", "--backend-path", str(tmp_path)],
        }[flag]
        with pytest.raises(SystemExit) as exit_info:
            main(["table2", experiment, "--fast", "--objects", "60", *flags])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "shards cannot be combined" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["distribution", "--faults", "none"],
            ["table3", "--faults", "seed=1,read=0.1"],
        ],
        ids=["no-faults", "unsharded-experiment"],
    )
    def test_cli_sharded_refusal_is_scoped(self, capsys, argv):
        """The refusal fires only for a fault plan that injects, and only
        when a sharded experiment is selected."""
        assert main([*argv, "--fast", "--objects", "60"]) == 0
        assert "finished in" in capsys.readouterr().out

    def test_cli_rejects_nonpositive_objects(self):
        with pytest.raises(SystemExit):
            main(["table3", "--fast", "--objects", "0"])

    def test_cli_recluster_axis(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--fast", "--objects", "50", "--ops", "12",
             "--capacities", "24", "--policies", "lru",
             "--models", "DASDBS-NSM", "--workloads", "zipf(1.0)",
             "--recluster", "none", "affinity",
             "--sweep-json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recluster" in out
        payload = json_path.read_text()
        assert '"recluster": "affinity"' in payload
        assert '"workload_stats"' in payload

    def test_cli_rejects_unknown_recluster_policy(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--recluster", "dstc"])
