"""Backend parity and parallel-runner tests (ISSUE 1 acceptance).

The same benchmark must produce identical metrics no matter which disk
backend holds the bytes, and no matter how many worker threads run the
independent models.
"""

from __future__ import annotations

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.runner import BenchmarkRunner
from repro.errors import BenchmarkError

#: Small but complete: all four measured models, all seven queries.
CFG = BenchmarkConfig(
    n_objects=40,
    buffer_pages=60,
    loops=8,
    q1a_sample=5,
    q1b_sample=1,
    q2a_sample=3,
    seed=11,
)

MODELS = ("DSM", "DASDBS-DSM", "NSM", "DASDBS-NSM")
QUERIES = ("1b", "1c", "2a", "2b", "3b")


def run_with(config: BenchmarkConfig):
    return BenchmarkRunner(config).run_models(MODELS, QUERIES)


def raw_snapshots(runs):
    """(model, query) -> raw MetricsSnapshot (None when unsupported)."""
    return {
        (model, query): (result.raw if result is not None else None)
        for model, run in runs.items()
        for query, result in run.results.items()
    }


class TestBackendParity:
    def test_memory_vs_file_identical_counters(self, tmp_path):
        """io_calls, io_pages and fixes must match snapshot-for-snapshot."""
        memory = run_with(CFG.with_changes(backend="memory"))
        file = run_with(
            CFG.with_changes(backend="file", backend_path=str(tmp_path / "pages"))
        )
        assert raw_snapshots(memory) == raw_snapshots(file)

    def test_memory_vs_trace_identical_counters(self, tmp_path):
        memory = run_with(CFG.with_changes(backend="memory"))
        trace = run_with(
            CFG.with_changes(backend="trace", backend_path=str(tmp_path / "traces"))
        )
        assert raw_snapshots(memory) == raw_snapshots(trace)

    def test_trace_files_written_per_model(self, tmp_path):
        root = tmp_path / "traces"
        run_with(CFG.with_changes(backend="trace", backend_path=str(root)))
        written = sorted(p.name for p in root.iterdir())
        assert written == sorted(f"{model}.jsonl" for model in MODELS)
        assert all((root / name).stat().st_size > 0 for name in written)

    def test_repeat_runs_do_not_clobber_trace_files(self, tmp_path):
        """Several experiments into one directory keep every trace."""
        root = tmp_path / "traces"
        config = CFG.with_changes(backend="trace", backend_path=str(root))
        BenchmarkRunner(config).run_model("DSM", ("1c",))
        BenchmarkRunner(config).run_model("DSM", ("1c",))
        assert sorted(p.name for p in root.iterdir()) == [
            "DSM-2.jsonl",
            "DSM.jsonl",
        ]

    def test_memory_backend_ignores_backend_path(self, tmp_path):
        """No decoy .pages files for the pathless memory backend."""
        root = tmp_path / "unused"
        config = CFG.with_changes(backend="memory", backend_path=str(root))
        BenchmarkRunner(config).run_model("DSM", ("1c",))
        assert not root.exists()

    def test_backend_path_must_be_directory(self, tmp_path):
        collide = tmp_path / "not-a-dir"
        collide.write_text("")
        config = CFG.with_changes(backend="file", backend_path=str(collide))
        with pytest.raises(BenchmarkError):
            BenchmarkRunner(config).run_model("DSM", ("1c",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(BenchmarkError):
            CFG.with_changes(backend="tape")


class TestRunModels:
    def test_result_order_follows_names(self):
        runs = BenchmarkRunner(CFG).run_models(MODELS, ("1c",))
        assert tuple(runs) == MODELS

    def test_thread_pool_knob_is_gone(self):
        """The `jobs` knob was deleted, not deprecated: every spelling of
        it is an error rather than a silently accepted no-op."""
        from repro.experiments import sweep
        from repro.experiments.cli import main

        with pytest.raises(TypeError):
            BenchmarkConfig(jobs=2)
        with pytest.raises(TypeError):
            BenchmarkRunner(CFG).run_models(MODELS, ("1c",), jobs=2)
        with pytest.raises(TypeError):
            sweep.run_sweep(CFG, jobs=2)
        with pytest.raises(SystemExit):
            main(["table3", "--fast", "--jobs", "2"])
