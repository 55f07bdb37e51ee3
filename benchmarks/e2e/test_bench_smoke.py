"""Smoke test of the end-to-end benchmark (collected by the tier-1 suite).

Runs every workload in-process at 2 % size, once untraced and once
traced, and checks the contract ``BENCHMARK.json`` states: every
declared metric is emitted under a well-formed name, the traced replays
reproduce the untraced counters, and each layer works on the workloads
its table row says it does.
"""

from __future__ import annotations

import json
import os
import re

import pytest

import compare
import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = 0.02


@pytest.fixture(scope="module")
def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {
        name: run.measure(name, seed=7, seconds=0, trace=True, scale=SCALE, say=lambda _: None)
        for name in workloads.BY_NAME
    }


def test_manifest_matches_the_benchmark(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == [(name, unit, better, bound) for name, (unit, better, bound, _) in run.END_TO_END.items()]
    assert len(manifest["end_to_end"]) <= 16
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == layers.per_layer_units()
    assert len(manifest["per_layer"]) <= 128
    assert all(set(m) == {"name", "unit", "better"} for m in manifest["per_layer"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in manifest[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)


@pytest.mark.parametrize("name", list(workloads.BY_NAME))
def test_every_end_to_end_metric_is_emitted(name):
    result = run.measure(name, seed=7, seconds=0, trace=False, scale=SCALE, say=lambda _: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for metric, cell in result["metrics"].items():
        assert cell["unit"] == run.END_TO_END[metric][0]
        assert cell["value"] > 0, metric  # the contract: a metric is never 0
    assert result["metrics"]["ok_share"]["value"] == 1.0


def test_every_layer_metric_is_emitted_and_counters_survive_tracing(traced):
    for name, result in traced.items():
        # ``correct`` includes: untraced, shallow and layers pass agree
        # on the counter checksum, and the span stack never broke.
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == set(layers.per_layer_units()), name


def test_layers_work_where_the_table_says(traced):
    def calls(name: str, layer: str) -> int:
        return traced[name]["metrics"][f"{layer}.calls"]["value"]

    for layer in layers.LAYERS:
        assert any(calls(name, layer) for name in traced), f"{layer} never ran"
    assert calls("raw_pages", "nf2") == calls("raw_pages", "models") == 0
    for layer, home in (
        ("sharding", "shard_mix"),
        ("serving", "serve_tickets"),
        ("experiments.sweep", "sweep_grid"),
    ):
        assert [name for name in traced if calls(name, layer)] == [home]
    assert traced["raw_pages"]["metrics"]["storage.backends.bytes_written"]["value"] > 0
    assert traced["serve_tickets"]["metrics"]["serving.sim_rps"]["value"] > 0
    assert traced["shard_mix"]["metrics"]["sharding.replica_pages_total"]["value"] > 0
    assert traced["sweep_grid"]["metrics"]["experiments.sweep.cells"]["value"] == 72


def test_a_wrong_checksum_fails_the_replay():
    workload = workloads.BY_NAME["read_hot"]
    gate = run.Gate(workload, seed=1, pinned={"seed": 1, "checksums": {"read_hot": "0" * 64}})
    prepared = workloads.prepare(workload.sized(SCALE, SCALE), 1)
    try:
        outcome = workloads.replay(prepared)
    finally:
        prepared.close()
    gate.admit(outcome, "replay")
    assert gate.failed == gate.attempted == outcome.ops
    assert "checksum" in gate.problems[0]


def test_compare_verdicts():
    def cell(median, iqr=0.0):
        return {"median": median, "iqr": iqr}

    assert compare.verdict(cell(100), cell(104), "lower", 0.1, False)[1] == "same"
    assert compare.verdict(cell(100), cell(120), "lower", 0.1, False)[1] == "worse"
    assert compare.verdict(cell(100), cell(120), "higher", 0.1, False)[1] == "better"
    assert compare.verdict(cell(100, 15), cell(101), "lower", 0.1, False)[1] == "unresolved"
    assert compare.verdict(cell(2.5), cell(2.5), "lower", 0.05, True)[1] == "same"
    assert compare.verdict(cell(2.5), cell(2.5001), "lower", 0.05, True)[1] == "differs"
