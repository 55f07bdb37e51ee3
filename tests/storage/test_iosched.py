"""The I/O coalescing scheduler: fewer real calls, identical counters.

Covers the decorator in isolation (against a call-counting inner
backend) and composed into the engine and the serving layer:

* reads are sorted/merged/de-duplicated into fewer inner calls, with
  the ``submitted_runs``/``coalesced_runs`` pair quantifying the win;
* writes are deferred, merged and flushed in page order; staged pages
  serve read-after-write from the overlay;
* every paper-visible counter is bit-identical with the scheduler on
  or off, and its coalescing decisions under the serving layer are
  the same from run to run.
"""

import pytest

from repro.benchmark.config import BenchmarkConfig
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.workload import (
    WorkloadExecutor,
    WorkloadSpec,
    compile_trace,
)
from repro.errors import BenchmarkError
from repro.serving import ServingExecutor, make_client_traces, make_scheduler
from repro.storage import IOScheduler, MemoryBackend, StorageEngine

PAGE = 256


class CountingBackend(MemoryBackend):
    """Memory backend that records every read/write call's page ids."""

    def __init__(self, page_size=PAGE):
        super().__init__(page_size)
        self.read_calls = []
        self.write_calls = []

    def read_run(self, page_ids):
        self.read_calls.append(list(page_ids))
        return super().read_run(page_ids)

    def write_run(self, items):
        items = list(items)
        self.write_calls.append([pid for pid, _ in items])
        return super().write_run(items)


@pytest.fixture
def sched():
    inner = CountingBackend()
    scheduler = IOScheduler(inner, flush_pages=1000)
    scheduler.allocate_run(0, 16)
    inner.write_run(  # seed page contents behind the scheduler's back
        [(i, bytes([i + 1]) * PAGE) for i in range(16)]
    )
    inner.read_calls.clear()
    inner.write_calls.clear()
    return scheduler


class TestReadCoalescing:
    def test_interleaved_run_issues_one_sorted_call(self, sched):
        out = sched.read_run([3, 1, 2])
        assert [bytes(p) for p in out] == [
            bytes([4]) * PAGE,
            bytes([2]) * PAGE,
            bytes([3]) * PAGE,
        ]
        assert sched.inner.read_calls == [[1, 2, 3]]
        # Request order held two runs ([3], [1, 2]); one was issued.
        assert (sched.submitted_runs, sched.coalesced_runs) == (2, 1)

    def test_duplicates_deduplicated(self, sched):
        out = sched.read_run([2, 2, 3])
        assert [bytes(p) for p in out] == [
            bytes([3]) * PAGE,
            bytes([3]) * PAGE,
            bytes([4]) * PAGE,
        ]
        assert sched.inner.read_calls == [[2, 3]]

    def test_read_after_write_served_from_overlay(self, sched):
        sched.write_run([(5, b"N" * PAGE)])
        assert sched.inner.write_calls == []  # still staged
        out = sched.read_run([5, 6])
        assert bytes(out[0]) == b"N" * PAGE  # overlay, not stale disk
        assert bytes(out[1]) == bytes([7]) * PAGE
        assert sched.inner.read_calls == [[6]]  # only the true miss

    def test_fully_overlaid_read_issues_nothing(self, sched):
        sched.write_run([(4, b"O" * PAGE)])
        before = sched.coalesced_runs
        out = sched.read_run([4])
        assert bytes(out[0]) == b"O" * PAGE
        assert sched.inner.read_calls == []
        assert sched.coalesced_runs == before


class TestWriteDeferral:
    def test_adjacent_runs_merge_on_flush(self, sched):
        sched.write_run([(0, b"a" * PAGE)])
        sched.write_run([(2, b"c" * PAGE)])
        sched.write_run([(1, b"b" * PAGE)])
        assert sched.submitted_runs == 3
        sched.flush()
        assert sched.inner.write_calls == [[0, 1, 2]]  # one merged call
        assert sched.coalesced_runs == 1
        assert sched.read_run([0, 1, 2]) == [
            b"a" * PAGE,
            b"b" * PAGE,
            b"c" * PAGE,
        ]

    def test_rewrite_keeps_latest_image(self, sched):
        sched.write_run([(3, b"1" * PAGE)])
        sched.write_run([(3, b"2" * PAGE)])
        sched.flush()
        assert sched.inner.write_calls == [[3]]
        assert bytes(sched.inner.read_run([3])[0]) == b"2" * PAGE

    def test_auto_flush_at_threshold(self):
        inner = CountingBackend()
        scheduler = IOScheduler(inner, flush_pages=4)
        scheduler.allocate_run(0, 8)
        for i in range(4):
            scheduler.write_run([(i, bytes([i]) * PAGE)])
        assert inner.write_calls == [[0, 1, 2, 3]]
        assert scheduler.pending_pages == 0

    def test_free_drops_staged_page(self, sched):
        sched.write_run([(7, b"x" * PAGE)])
        sched.free(7)
        sched.flush()
        assert sched.inner.write_calls == []

    def test_reallocation_drops_stale_staging(self, sched):
        sched.write_run([(8, b"stale" + bytes(PAGE - 5))])
        sched.free(8)
        sched.allocate_run(8, 1)
        sched.flush()
        assert sched.inner.write_calls == []
        assert bytes(sched.read_run([8])[0]) == bytes(PAGE)

    def test_sync_and_snapshot_flush_first(self, sched):
        sched.write_run([(9, b"s" * PAGE)])
        image = sched.snapshot()
        assert image[9] == b"s" * PAGE
        assert sched.inner.write_calls == [[9]]
        sched.write_run([(10, b"t" * PAGE)])
        sched.sync()
        assert sched.inner.write_calls == [[9], [10]]

    def test_restore_discards_staging(self, sched):
        image = sched.snapshot()
        sched.write_run([(1, b"z" * PAGE)])
        sched.restore(image)
        assert sched.pending_pages == 0
        assert bytes(sched.read_run([1])[0]) == bytes([2]) * PAGE

    def test_drop_pending_loses_unissued_writes(self, sched):
        sched.write_run([(2, b"gone" + bytes(PAGE - 4))])
        sched.drop_pending()
        sched.flush()
        assert sched.inner.write_calls == []
        assert bytes(sched.read_run([2])[0]) == bytes([3]) * PAGE

    def test_zero_copy_forwards_inner(self, tmp_path):
        from repro.storage import MmapBackend

        assert IOScheduler(MemoryBackend(PAGE)).zero_copy is False
        mm = MmapBackend(PAGE, path=str(tmp_path / "z.pages"))
        assert IOScheduler(mm).zero_copy is True
        mm.close()


CFG = BenchmarkConfig(
    n_objects=40,
    buffer_pages=48,
    loops=5,
    q1a_sample=4,
    q1b_sample=1,
    q2a_sample=2,
    seed=3,
)

MODEL = "DASDBS-NSM"


def run_workload_cells(io_scheduler, backend="file"):
    """One workload replay; returns (metrics dict, scheduler counters)."""
    runner = BenchmarkRunner(
        CFG.with_changes(backend=backend, io_scheduler=io_scheduler)
    )
    model = runner.build_model(MODEL)
    try:
        spec = WorkloadSpec(name="iosched", n_ops=60, seed=11)
        trace = compile_trace(spec, CFG.n_objects)
        result = WorkloadExecutor(model, trace).run()
        model.engine.flush()  # issue any deferred writes before reading
        scheduler = model.engine.io_scheduler
        counters = (
            (scheduler.submitted_runs, scheduler.coalesced_runs)
            if scheduler is not None
            else None
        )
        return (result.raw, dict(result.op_counts)), counters
    finally:
        model.engine.close()


class TestEngineComposition:
    def test_counters_identical_scheduler_on_off(self):
        off, none = run_workload_cells(False)
        on, counters = run_workload_cells(True)
        assert none is None
        assert off == on
        submitted, coalesced = counters
        assert submitted >= coalesced > 0

    def test_config_rejects_scheduler_with_faults(self):
        with pytest.raises(BenchmarkError, match="io_scheduler"):
            CFG.with_changes(io_scheduler=True, faults="seed=1,read=0.01")

    def test_recover_drops_scheduler_staging(self):
        engine = StorageEngine(
            page_size=PAGE, buffer_pages=8, io_scheduler=True
        )
        heap = engine.new_heap("t")
        heap.insert(b"r" * 40)
        engine.flush()  # buffer write-back lands in the scheduler...
        assert engine.io_scheduler.pending_pages > 0
        engine.recover()  # ...and a crash loses it
        assert engine.io_scheduler.pending_pages == 0
        engine.close()


class TestServingDeterminism:
    def test_served_coalescing_is_repeatable(self):
        """Two served runs: identical coalescing decisions and identical
        paper counters (storage operations arrive in grant order)."""
        outcomes = []
        for _ in range(2):
            runner = BenchmarkRunner(
                CFG.with_changes(backend="file", io_scheduler=True)
            )
            model = runner.build_model(MODEL)
            try:
                spec = WorkloadSpec(name="det", n_ops=30, seed=7)
                traces = make_client_traces(spec, model.n_objects, 4)
                result = ServingExecutor(
                    model, traces, scheduler=make_scheduler("fifo")
                ).run()
                model.engine.flush()
                scheduler = model.engine.io_scheduler
                outcomes.append(
                    (
                        scheduler.submitted_runs,
                        scheduler.coalesced_runs,
                        result.result.raw,
                        dict(result.result.op_counts),
                    )
                )
            finally:
                model.engine.close()
        assert outcomes[0] == outcomes[1]
        submitted, coalesced = outcomes[0][0], outcomes[0][1]
        assert submitted >= coalesced > 0
