"""The axis table is the whole mechanism: one entry adds an axis.

A toy axis is appended to :data:`repro.experiments.sweep.AXES` by
monkeypatching — no other edit — and must show up in the grid JSON, the
cell JSON, the text table and the CLI at a non-default value, and leave
all four untouched at its default.
"""

import json

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.errors import BenchmarkError
from repro.experiments import sweep
from repro.experiments.cli import main

CFG = BenchmarkConfig(n_objects=30, buffer_pages=32, seed=3)
GRID = dict(
    workloads=("uniform,ops=8",),
    capacities=(16,),
    policies=("lru",),
    models=("DASDBS-NSM",),
)


def _check_trigger(value):
    ops = int(value)
    if ops < 1:
        raise BenchmarkError(f"trigger periods must be at least 1, got {value!r}")
    return ops


#: Crosses ``BenchmarkConfig.online_trigger_ops`` (a real config field,
#: so the coordinate reaches the cell's configuration on its own).
TOY = sweep.Axis(
    keyword="triggers",
    field="online_trigger_ops",
    default=(CFG.online_trigger_ops,),
    check=_check_trigger,
    flag="--toy-triggers",
    help="toy axis",
    argparse={"metavar": "OPS", "type": int},
    grid=lambda result: {"toy_grid_key": True},
    cell=lambda cell: {"toy_cell_key": cell.online_trigger_ops * 2},
    columns=(("toy col", lambda cell: cell.online_trigger_ops),),
    note=lambda result: "  Toy note.",
)


@pytest.fixture
def toy_axis(monkeypatch):
    monkeypatch.setattr(sweep, "AXES", sweep.AXES + (TOY,))


def test_toy_axis_appears_everywhere_when_non_default(toy_axis):
    result = sweep.run_sweep(CFG, **GRID, triggers=(7, 9))
    assert [cell.online_trigger_ops for cell in result.cells] == [7, 9]
    payload = json.loads(result.to_json())
    assert payload["grid"]["triggers"] == [7, 9]
    assert payload["grid"]["toy_grid_key"] is True
    assert [c["online_trigger_ops"] for c in payload["cells"]] == [7, 9]
    assert [c["toy_cell_key"] for c in payload["cells"]] == [14, 18]
    text = sweep.render_result(result)
    assert "online_trigger_ops" in text and "toy col" in text and "Toy note." in text
    # The coordinate reached each cell's configuration, in both paths.
    pooled = sweep.run_sweep(CFG, **GRID, triggers=(7, 9), processes=2)
    assert pooled.to_json() == result.to_json()


def test_toy_axis_vanishes_at_its_default(toy_axis, monkeypatch):
    with_axis = sweep.run_sweep(CFG, **GRID, triggers=TOY.default)
    monkeypatch.undo()
    without = sweep.run_sweep(CFG, **GRID)
    assert with_axis.to_json() == without.to_json()
    assert sweep.render_result(with_axis) == sweep.render_result(without)
    assert "toy" not in with_axis.to_json()


def test_toy_axis_values_go_through_its_check(toy_axis):
    for bad in ((), (0,), (5, 5)):
        with pytest.raises(BenchmarkError):
            sweep.run_sweep(CFG, **GRID, triggers=bad)


def test_toy_axis_gets_its_cli_flag(toy_axis, tmp_path, capsys):
    args = ["sweep", "--fast", "--objects", "30", "--workloads", "uniform,ops=8",
            "--capacities", "16", "--policies", "lru", "--models", "DASDBS-NSM"]
    on, off = tmp_path / "on.json", tmp_path / "off.json"
    assert main(args + ["--toy-triggers", "7", "9", "--sweep-json", str(on)]) == 0
    assert "toy col" in capsys.readouterr().out
    assert json.loads(on.read_text())["grid"]["triggers"] == [7, 9]
    assert main(args + ["--sweep-json", str(off)]) == 0
    assert "toy" not in capsys.readouterr().out
    assert "triggers" not in json.loads(off.read_text())["grid"]
    with pytest.raises(SystemExit):
        main(args + ["--toy-triggers", "0"])


def test_unknown_axis_keyword_is_a_type_error():
    with pytest.raises(TypeError):
        sweep.run_sweep(CFG, **GRID, triggers=(7,))
