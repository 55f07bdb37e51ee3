#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see README.md beside this file).

One measured run of one workload — the form the benchmark driver calls::

    python3 benchmarks/e2e/run.py --workload read_hot --seed 7 --seconds 10 --trace 0

sets up, replays the workload's fixed unit of work until ``--seconds``
of replay time have passed, checks every replay's output and prints the
end-to-end metrics (``--trace 0``) or, from a shallow and a fully
spanned replay, the per-layer metrics (``--trace 1``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Without ``--workload`` the command runs every workload, each
*(workload, repeat)* in a fresh child process, repeats interleaved
round-robin, then one traced child per workload, and writes the medians
and inter-quartile ranges to ``--out``::

    python3 benchmarks/e2e/run.py [--seed 1993] [--repeats 5] [--seconds 10] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from statistics import median, quantiles  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: The seed whose checksums ``baseline.json`` pins.
DEFAULT_SEED = 1993
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: End-to-end metrics: name -> (unit, better, bound, exact).  ``bound``
#: is the share of the parent's median by which a metric may worsen
#: before it counts as a regression.  The host-time bounds are three
#: times the widest seed-to-seed spread seen on the 2-core reference
#: sandbox (README.md, "Steadiness").  *Exact* metrics derive from
#: integer counters and repeat bit for bit for one seed, which
#: ``--compare`` and the counter checksums enforce; their bound only has
#: to cover the move from one seed's trace to another's, which is all
#: the driver's spread check can see of them.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, False),
    "ops_per_s": ("ops/s", "higher", 0.25, False),
    "cpu_s_per_kop": ("s/kop", "lower", 0.25, False),
    "peak_rss_mb": ("MiB", "lower", 0.10, False),
    "ok_share": ("ratio", "higher", 0.001, True),
    "io_calls_per_op": ("calls/op", "lower", 0.15, True),
    "io_pages_per_op": ("pages/op", "lower", 0.15, True),
    "page_fixes_per_op": ("fixes/op", "lower", 0.15, True),
    "sim_ms_per_op": ("sim_ms/op", "lower", 0.15, True),
    "space_amp": ("ratio", "lower", 0.01, True),
}


def _load_package():
    """Import the package under test from this checkout's ``src``.

    Never from an installed copy: the benchmark measures the tree it
    sits in, and must fail where that tree is absent.
    """
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.exit(f"run.py: no package to measure at {SOURCE}")
    for path in (SOURCE, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def _timed(fn):
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    outcome = fn()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    outcome.settle()
    return outcome, wall, cpu


class Gate:
    """The correctness gate of one run: counts operations and failures."""

    def __init__(self, workload, seed: int, pinned: dict) -> None:
        self.workload = workload
        self.reference: str | None = None
        if seed == pinned["seed"] and workload.full_size:
            self.reference = pinned["checksums"].get(workload.name)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def admit(self, outcome, what: str) -> None:
        """Count one replay; its operations fail together if it is wrong."""
        found = []
        if outcome.errors:
            found.append(f"{outcome.errors} operations reported errors")
        if self.reference is None:
            self.reference = outcome.checksum
        elif outcome.checksum != self.reference:
            found.append(f"checksum {outcome.checksum[:12]} != {self.reference[:12]}")
        workload = self.workload
        if workload.full_size and not (
            workload.hit_rate_min <= outcome.hit_rate <= workload.hit_rate_max
        ):
            found.append(f"hit rate {outcome.hit_rate:.4f} outside the workload's window")
        self.attempted += outcome.ops
        if found:
            self.failed += outcome.ops
            self.problems += [f"{what}: {problem}" for problem in found]

    def crashed(self, what: str) -> None:
        ops = self.workload.nominal_ops
        self.attempted += ops
        self.failed += ops
        self.problems.append(f"{what}: {traceback.format_exc(limit=4).strip()}")


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    startup_s: float = 0.0,
    say=print,
) -> dict:
    """One run of one workload; returns the driver's result object.

    ``startup_s`` is the time from process start until the package was
    imported; ``setup_s`` adds the median of the run's set-ups to it.
    """
    import workloads as wl

    workload = wl.BY_NAME[name].sized(scale, min(1.0, scale**0.5))
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)["pinned"]
    gate = Gate(workload, seed, pinned)
    setups = []
    prepared = None
    try:
        for _ in range(SETUP_REPEATS if seconds > 0 and not trace else 1):
            if prepared is not None:
                prepared.close()
            started = time.perf_counter()
            prepared = wl.prepare(workload, seed)
            setups.append(time.perf_counter() - started)
        gate.problems += wl.verify_models(prepared)
        try:
            warm_up, _, _ = _timed(lambda: wl.replay(prepared, 0.1))
            if warm_up.errors:
                gate.problems.append(f"warm-up: {warm_up.errors} operations reported errors")
            if trace:
                metrics = _measure_layers(wl, prepared, gate)
            else:
                metrics = _measure_end_to_end(wl, prepared, gate, seconds)
                metrics["setup_s"] = startup_s + median(setups)
        except Exception:
            gate.crashed("replay")
            metrics = {}
    finally:
        if prepared is not None:
            prepared.close()
    if gate.problems and not gate.failed:
        gate.failed = gate.attempted  # a wrong object store taints every replay
    if not trace and metrics:
        metrics["ok_share"] = 1.0 - gate.failed / gate.attempted
    if trace:
        from layers import per_layer_units

        units = per_layer_units()
    else:
        units = {key: spec[0] for key, spec in END_TO_END.items()}
    for problem in gate.problems:
        say(f"PROBLEM {problem}")
    say(f"checksum {gate.reference}")
    for key, value in metrics.items():
        say(f"{key} {value:.6g} {units[key]}")
    return {
        "correct": not gate.problems and set(metrics) == set(units),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def _measure_end_to_end(wl, prepared, gate: Gate, seconds: float) -> dict:
    first = None
    rates, costs = [], []
    measured = 0.0
    while measured < seconds or first is None:
        outcome, wall, cpu = _timed(lambda: wl.replay(prepared))
        gate.admit(outcome, f"replay {len(rates) + 1}")
        first = first or outcome
        rates.append(outcome.ops / wall)
        costs.append(1000.0 * cpu / outcome.ops)
        measured += wall
    counters = first.counters
    return {
        "ops_per_s": median(rates),
        "cpu_s_per_kop": median(costs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "io_calls_per_op": counters.io_calls / first.ops,
        "io_pages_per_op": counters.io_pages / first.ops,
        "page_fixes_per_op": counters.page_fixes / first.ops,
        "sim_ms_per_op": first.sim_ms / first.ops,
        "space_amp": wl.space_amplification(prepared),
    }


def _measure_layers(wl, prepared, gate: Gate) -> dict:
    """Untraced, shallow and fully spanned replay of the same unit."""
    from layers import layer_metrics, layer_targets, operation_metrics, operation_targets
    from tracer import Tracer

    plain, plain_wall, _ = _timed(lambda: wl.replay(prepared))
    gate.admit(plain, "untraced replay")
    stem = os.path.join(wl.RESULTS_DIR, f"spans-{prepared.workload.name}")

    shallow = Tracer()
    with shallow.installed(operation_targets()):
        outcome, _, _ = _timed(lambda: wl.replay(prepared))
    gate.admit(outcome, "shallow pass")
    shallow.write_jsonl(f"{stem}-shallow.jsonl")

    deep = Tracer()
    with deep.installed(layer_targets()):
        outcome, traced_wall, _ = _timed(lambda: wl.replay(prepared))
    gate.admit(outcome, "layers pass")
    deep.write_jsonl(f"{stem}-layers.jsonl")
    for tracer in (shallow, deep):
        if tracer.broken:
            gate.problems.append(f"tracer: {tracer.broken}")

    metrics = layer_metrics(deep, traced_wall, outcome, prepared)
    metrics.update(operation_metrics(shallow))
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    return metrics


# -- the whole benchmark -----------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", str(scale),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "checksum": None}
    result["checksum"] = next(
        (line.split()[1] for line in lines if line.startswith("checksum ")), None
    )
    for line in lines:
        if line.startswith("PROBLEM "):
            print(f"  {name}: {line}")
    return result


def spread(values: list[float]) -> float:
    """Inter-quartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return q3 - q1


def _summary(runs: list[dict]) -> dict:
    out = {}
    for key in runs[0]["metrics"]:
        values = [run["metrics"][key]["value"] for run in runs if key in run["metrics"]]
        out[key] = {
            "median": median(values),
            "iqr": spread(values),
            "n": len(values),
            "unit": runs[0]["metrics"][key]["unit"],
        }
    return out


def run_all(names, seed: int, repeats: int, seconds: float, scale: float, out: str | None) -> int:
    """Every workload, one fresh child per (workload, repeat)."""
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(repeats):  # round-robin: a slow phase hits every workload alike
        for name in names:
            print(f"repeat {repeat + 1}/{repeats} {name}", flush=True)
            runs[name].append(_child(name, seed, seconds, 0, scale))
    report = {"seed": seed, "repeats": repeats, "seconds": seconds, "scale": scale, "workloads": {}}
    ok = True
    for name in names:
        print(f"traced {name}", flush=True)
        traced = _child(name, seed, seconds, 1, scale)
        every = [*runs[name], traced]
        checksums = {run["checksum"] for run in every}
        correct = all(run["correct"] for run in every) and len(checksums) == 1
        ok = ok and correct
        report["workloads"][name] = {
            "correct": correct,
            "checksum": runs[name][0]["checksum"],
            "attempted": sum(run["attempted"] for run in every),
            "failed": sum(run["failed"] for run in every),
            "end_to_end": _summary(runs[name]),
            "per_layer": _summary([traced]),
        }
    for name, entry in report["workloads"].items():
        print(f"\n{name}  correct={entry['correct']}  checksum={entry['checksum']}")
        for key, cell in {**entry["end_to_end"], **entry["per_layer"]}.items():
            print(
                f"  {key:42s} {cell['median']:14.6g} {cell['unit']:12s} "
                f"iqr {cell['iqr']:.3g} n={cell['n']}"
            )
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="replay time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink sizes (smoke runs)")
    parser.add_argument("--repeats", type=int, default=5, help="children per workload")
    parser.add_argument("--out", help="write the whole benchmark's results here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare, END_TO_END)
    wl = _load_package()
    startup_s = time.perf_counter() - _STARTED
    if args.workload is None:
        names = list(wl.BY_NAME)
        return run_all(names, args.seed, args.repeats, args.seconds, args.scale, args.out)
    if args.workload not in wl.BY_NAME:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(wl.BY_NAME)})")
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, startup_s
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
