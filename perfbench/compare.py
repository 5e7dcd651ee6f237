"""Compare two sets of benchmark records, metric by metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out FILE`` appends, one run per
line.  The comparison refuses (exit code 2) when the records' context
stamps differ in any of :data:`STAMP_KEYS`: numbers taken on another
core count, interpreter or numpy are not comparable.  Otherwise it
prints, per workload and end-to-end metric, both medians, the base's
quartile spread and a verdict against the metric's bound, and exits 1
if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import catalog

#: Stamp fields that must be equal for two records to be comparable.
STAMP_KEYS = ("nproc", "python", "numpy", "machine")


def load(path: str) -> List[Dict]:
    """The untraced records of one file."""
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if not r.get("trace")]


def stamp_mismatch(base: List[Dict], change: List[Dict]) -> List[str]:
    """Descriptions of every stamp key whose values differ."""
    problems = []
    for key in STAMP_KEYS:
        values = {str(r["context"].get(key)) for r in base + change}
        if len(values) > 1:
            problems.append(f"{key}: {sorted(values)}")
    return problems


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, relative change)`` of the change's median."""
    b, c = statistics.median(base), statistics.median(change)
    rel = (c - b) / b if b else 0.0
    worse = rel if better == "lower" else -rel
    if worse > bound:
        return "regressed", rel
    if spread(base) > bound:
        return "unresolved", rel
    return "ok", rel


def compare(base: List[Dict], change: List[Dict]) -> int:
    """Print the comparison table; returns the process exit code."""
    problems = stamp_mismatch(base, change)
    if problems:
        print("refusing to compare: context stamps differ: "
              + "; ".join(problems))
        return 2
    regressed = False
    for workload, _why in catalog.WORKLOADS:
        rows_b = [r for r in base if r["workload"] == workload]
        rows_c = [r for r in change if r["workload"] == workload]
        if not rows_b or not rows_c:
            continue
        print(f"== {workload}: {len(rows_b)} base / {len(rows_c)} "
              f"change runs ==")
        for name, unit, better, bound in catalog.END_TO_END:
            vb = [r["metrics"][name] for r in rows_b]
            vc = [r["metrics"][name] for r in rows_c]
            word, rel = verdict(vb, vc, better, bound)
            regressed |= word == "regressed"
            print(f"{name:14s} {statistics.median(vb):12.4f} -> "
                  f"{statistics.median(vc):12.4f} {unit:5s} "
                  f"{rel:+7.1%} (base spread {spread(vb):.1%}, "
                  f"bound {bound:.0%}) {word}")
    return 1 if regressed else 0


def main(argv: List[str]) -> int:
    """``compare.py BASE.jsonl CHANGE.jsonl``."""
    if len(argv) != 2:
        print(main.__doc__, file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
