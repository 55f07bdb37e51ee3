"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments                 # everything, full scale (slow)
    repro-experiments --fast          # everything, reduced scale
    repro-experiments table3 table4   # selected experiments
    repro-experiments table4 --fast --backend file
                                      # real file I/O
    repro-experiments sweep --fast --workloads uniform "zipf(1.0)" \
        --capacities 300 1200 4800 --policies lru lru-k 2q
                                      # buffer-sensitivity grid
    repro-experiments clustering --fast
                                      # page reads before/after trace-
                                      # driven on-disk reorganisation
    repro-experiments sweep --fast --recluster none affinity
                                      # placement as a sweep axis
    python -m repro.experiments       # same as repro-experiments
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.benchmark.config import BenchmarkConfig, DEFAULT_CONFIG
from repro.benchmark.workload import parse_workload
from repro.errors import ReproError
from repro.storage.backends import BACKEND_NAMES
from repro.storage.buffer import POLICY_NAMES
from repro.serving.scheduler import SCHEDULER_NAMES
from repro.sharding.router import SHARD_POLICIES
from repro.experiments import (
    ablations,
    clustering,
    distribution,
    drift,
    figure5,
    figure6,
    sharding,
    sweep,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from repro.experiments.measure import FAST_CONFIG

EXPERIMENTS: dict[str, Callable[[BenchmarkConfig], str]] = {
    "table2": table2.render,
    "table3": table3.render,
    "table4": table4.render,
    "table5": table5.render,
    "table6": table6.render,
    "table7": table7.render,
    "table8": table8.render,
    "figure5": figure5.render,
    "figure6": figure6.render,
    "ablations": ablations.render,
    "distribution": distribution.render,
    "clustering": clustering.render,
    "drift": drift.render,
    "sweep": sweep.render,
    "sharding": sharding.render,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'An Evaluation of Physical "
            "Disk I/Os for Complex Object Processing' (ICDE 1993)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=f"experiments to run (default: all; known: {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced database scale (300 objects, scaled buffer)",
    )
    parser.add_argument(
        "--objects",
        dest="n_objects",
        type=int,
        default=None,
        help="override the database size",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help=(
            "disk backend: 'memory' (simulated, default), 'file' (real "
            "pread/pwrite against a backing file), 'mmap' (memory-mapped "
            "backing file, zero-copy reads), 'direct' (O_DIRECT via an "
            "aligned bounce pool, page cache excluded; falls back to "
            "buffered I/O where unsupported), 'trace' (memory plus a "
            "replayable JSONL call trace); I/O counts are identical across "
            "backends"
        ),
    )
    parser.add_argument(
        "--backend-path",
        default=None,
        metavar="DIR",
        help=(
            "directory for per-model backend files (backing .pages files "
            "for --backend file/mmap/direct, .jsonl traces for --backend "
            "trace); default: anonymous temp files (required for "
            "--backend trace)"
        ),
    )
    parser.add_argument(
        "--io-scheduler",
        dest="io_scheduler",
        action="store_true",
        default=None,
        help=(
            "coalesce backend I/O across serving sessions below the "
            "accounting layer (sorted/merged reads, deferred/merged "
            "writes): fewer, larger real calls, bit-identical counters "
            "and sweep JSON (default: off; incompatible with --faults)"
        ),
    )
    parser.add_argument(
        "--snapshots",
        dest="snapshots",
        action="store_true",
        default=None,
        help=(
            "build each (model, scale, page-size) extension once and serve "
            "every experiment/sweep cell a restored clone — bit-identical "
            "counters, much less wall clock (default: on; the trace backend "
            "always rebuilds so traces stay replayable)"
        ),
    )
    parser.add_argument(
        "--no-snapshots",
        dest="snapshots",
        action="store_false",
        help="rebuild the extension for every model run / sweep cell",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject storage faults into workload replays: 'none' (default, "
            "byte-identical output to a run without the flag) or a "
            "comma-joined spec like 'seed=7,torn=0.02,drop=0.02,read=0.1' "
            "or 'seed=1,crash_at=120'; enables page checksums and the "
            "intent journal, arms the plan only around measured replays, "
            "and turns extension snapshots off"
        ),
    )
    group = parser.add_argument_group(
        "sweep options", "grid axes of the 'sweep' experiment (ignored elsewhere)"
    )
    group.add_argument(
        "--workloads",
        nargs="+",
        default=list(sweep.DEFAULT_WORKLOADS),
        metavar="SPEC",
        help=(
            "workload specs: presets (uniform, zipf, read-heavy, "
            "update-heavy, scan-only), 'zipf(θ)', or comma-joined "
            "key=value tokens, e.g. 'zipf(1.2),point=3,update=1,ops=400,cold' "
            "(default: uniform 'zipf(1.0)')"
        ),
    )
    group.add_argument(
        "--capacities",
        nargs="+",
        type=int,
        default=list(sweep.DEFAULT_CAPACITIES),
        metavar="PAGES",
        help="buffer capacities in pages (default: 300 1200 4800)",
    )
    group.add_argument(
        "--policies",
        nargs="+",
        default=list(sweep.DEFAULT_POLICIES),
        metavar="POLICY",
        choices=POLICY_NAMES,
        help=f"replacement policies (default: lru lru-k 2q; known: {', '.join(POLICY_NAMES)})",
    )
    group.add_argument(
        "--models",
        nargs="+",
        default=["measured"],
        metavar="MODEL",
        help=(
            "storage models or aliases 'measured'/'focus'/'all' "
            "(default: measured)"
        ),
    )
    group.add_argument(
        "--ops",
        type=int,
        default=None,
        metavar="N",
        help="override the operation count of every workload spec",
    )
    for axis in sweep.AXES:
        group.add_argument(
            axis.flag,
            dest=axis.keyword,
            nargs="+",
            default=list(axis.default),
            help=axis.help,
            **axis.argparse,
        )
    group.add_argument(
        "--scheduler",
        default=sweep.DEFAULT_SCHEDULER,
        choices=SCHEDULER_NAMES,
        help=(
            "admission scheduler fixing the deterministic grant order of "
            f"serving cells (default: {sweep.DEFAULT_SCHEDULER}; known: "
            f"{', '.join(SCHEDULER_NAMES)})"
        ),
    )
    group.add_argument(
        "--shard-policy",
        default=sweep.DEFAULT_SHARD_POLICY,
        choices=SHARD_POLICIES,
        help=(
            "OID-to-shard assignment of sharded cells: 'hash' (seeded "
            "CRC32 scatter, default) or 'range' (contiguous OID bands)"
        ),
    )
    group.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run sweep cells in N worker processes instead of one after "
            "another (CPU-bound grids scale past the GIL; workers clone "
            "from extensions the parent spills once, results are identical)"
        ),
    )
    group.add_argument(
        "--sweep-json",
        default=None,
        metavar="FILE",
        help="also write the sweep grid as deterministic JSON to FILE",
    )
    args = parser.parse_args(argv)

    if args.backend == "trace" and not args.backend_path:
        # Without a destination the recorded trace would be buffered in
        # RAM and discarded when each engine closes.
        parser.error("--backend trace requires --backend-path DIR for the JSONL traces")
    if args.processes is not None and args.processes < 1:
        parser.error("--processes must be at least 1")
    # Every other range check and refusal is the config's, the workload
    # spec's and the sweep's own, made here — the whole grid is laid
    # out — so a bad flag is a usage error before any experiment starts.
    config_flags = ("n_objects", "backend", "backend_path", "io_scheduler", "snapshots", "faults")
    overrides = {
        name: getattr(args, name)
        for name in config_flags
        if getattr(args, name) is not None
    }
    selected = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(known: {', '.join(EXPERIMENTS)})"
        )
    try:
        config = (FAST_CONFIG if args.fast else DEFAULT_CONFIG).with_changes(**overrides)
        if {"sharding", "distribution"} & set(selected):
            # Both build sharded models: a sharded config's refusals
            # (faults, the trace backend) apply to the run.
            config.with_changes(shards=sharding.N_SHARDS)
        workloads = [parse_workload(text) for text in args.workloads]
        if args.ops is not None:
            workloads = [spec.with_changes(n_ops=args.ops) for spec in workloads]
        grid = dict(
            workloads=workloads,
            capacities=args.capacities,
            policies=args.policies,
            models=args.models,
            scheduler=args.scheduler,
            shard_policy=args.shard_policy,
            **{axis.keyword: getattr(args, axis.keyword) for axis in sweep.AXES},
        )
        sweep.plan_sweep(config, **grid)
    except ReproError as exc:
        parser.error(str(exc))

    runners = dict(EXPERIMENTS)
    runners["sweep"] = lambda cfg: sweep.render(
        cfg, json_path=args.sweep_json, processes=args.processes, **grid
    )
    for name in selected:
        started = time.time()
        try:
            print(runners[name](config))
        except ReproError as exc:
            print(f"repro-experiments: error: {exc}", file=sys.stderr)
            return 2
        print(f"[{name} finished in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
