"""``run.py --compare A.json B.json``: did B get worse than A?

Reads two result files written by ``run.py --out`` and prints, per
workload and end-to-end metric, both medians, both inter-quartile
ranges, the relative move from A to B, the metric's bound and a verdict:

``same``        the median moved by no more than the bound
``better``      it moved past the bound in the metric's good direction
``worse``       it moved past the bound in the bad direction
``unresolved``  a run-to-run spread (IQR) wider than the bound hides the answer
``differs``     an exact (counter-derived) metric is not bit-equal

The exit code is 0 only if every row is ``same`` or ``better``.
"""

from __future__ import annotations

import json


def verdict(a: dict, b: dict, better: str, bound: float, exact: bool) -> tuple[float, str]:
    """Relative move of B against A (positive = worse) and its verdict."""
    base = a["median"]
    move = (b["median"] - base) / base if base else 0.0
    if better == "higher":
        move = -move
    if exact:
        return move, "same" if a["median"] == b["median"] else "differs"
    if max(a["iqr"], b["iqr"]) > bound * abs(base):
        return move, "unresolved"
    if move > bound:
        return move, "worse"
    return move, "better" if move < -bound else "same"


def compare(path_a: str, path_b: str, end_to_end: dict) -> int:
    """Print the comparison table; 0 if nothing is worse or unresolved."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    settings = ("seed", "seconds", "scale")
    if any(a[key] != b[key] for key in settings):
        print("the two files were measured with different settings:")
        for key in settings:
            print(f"  {key}: {a[key]} vs {b[key]}")
        return 2
    bad = 0
    header = (
        f"{'workload':14s} {'metric':18s} {'A median':>12s} {'A iqr':>10s} "
        f"{'B median':>12s} {'B iqr':>10s} {'worse by':>9s} {'bound':>6s}  verdict"
    )
    print(header)
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:14s} missing from {path_b}")
            bad += 1
            continue
        if entry_a["checksum"] != entry_b["checksum"]:
            print(f"{name:14s} counter checksums differ")
            bad += 1
        for metric, (_unit, better, bound, exact) in end_to_end.items():
            cell_a, cell_b = entry_a["end_to_end"][metric], entry_b["end_to_end"][metric]
            move, word = verdict(cell_a, cell_b, better, bound, exact)
            bad += word not in ("same", "better")
            print(
                f"{name:14s} {metric:18s} {cell_a['median']:12.6g} {cell_a['iqr']:10.3g} "
                f"{cell_b['median']:12.6g} {cell_b['iqr']:10.3g} {move:+9.2%} "
                f"{'exact' if exact else format(bound, '.0%'):>6s}  {word}"
            )
    return 1 if bad else 0
