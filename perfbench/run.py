"""The repository's benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-10k-day --seed 1 \\
        --seconds 8 --trace 0

Prints every metric by name and unit, a context stamp and the full
record, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` they are the per-layer split from a traced run.  See
``perfbench/README.md`` for the workloads and how to read the split.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

import catalog
import servebench
import simbench

def _source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (stands in for the commit
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return out.stdout.decode().strip() if out.returncode == 0 else "unknown"


def context_stamp() -> Dict:
    """What the numbers depend on besides the code under test.

    ``compare.py`` refuses to compare results whose ``STAMP_KEYS``
    differ; the commit, source digest and load average are recorded
    for the reader.
    """
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_digest": _source_digest(Path("src")),
        "loadavg_1m": os.getloadavg()[0],
    }


def _check_names(metrics: Dict, trace: bool) -> None:
    table = catalog.PER_LAYER if trace else catalog.END_TO_END
    expected = [entry[0] for entry in table]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise RuntimeError(f"metric set mismatch: missing {missing}, "
                           f"extra {extra}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload; returns the raw result with its metric values."""
    if workload in simbench.SIM_WORKLOADS:
        result = simbench.run_workload(workload, seed, trace)
    else:
        result = servebench.run_workload(workload, seed, trace, seconds)
    if trace:
        layers = dict.fromkeys((e[0] for e in catalog.PER_LAYER), 0.0)
        layers.update(result["layers"])
        layers.update((k, v) for k, v in result["e2e"].items()
                      if k.startswith("op."))
        for total, parts in catalog.SUMS.items():
            remainder = parts[-1]
            layers[remainder] = layers[total] - sum(
                layers[p] for p in parts[:-1])
        result["metrics"] = layers
    else:
        result["metrics"] = {e[0]: result["e2e"][e[0]]
                             for e in catalog.END_TO_END}
    return result


def print_report(workload: str, result: Dict, trace: bool) -> None:
    """Human-readable lines: each metric, and each traced sum as a tree."""
    values = result["metrics"]
    print(f"== {workload} ({'traced' if trace else 'end to end'}) ==")
    if trace:
        listed = set()
        for total, parts in catalog.SUMS.items():
            print(f"{total:28s} {values[total]:14.6f} "
                  f"{catalog.unit_of(total)}")
            for part in parts:
                print(f"  {part:26s} {values[part]:14.6f} "
                      f"{catalog.unit_of(part)}")
            listed.update((total,) + parts)
        for name, unit, _better in catalog.PER_LAYER:
            if name not in listed:
                print(f"{name:28s} {values[name]:14.6f} {unit}")
    else:
        for name, unit, _better, _bound in catalog.END_TO_END:
            print(f"{name:28s} {values[name]:14.6f} {unit}")
        for name, value in result["e2e"].items():
            if name.startswith("op."):
                print(f"{name:28s} {value:14.6f} "
                      f"{catalog.unit_of(name)} (reported, not gated)")
    attempted = result["attempted"]
    print(f"{'failed_ratio':28s} {result['failed'] / attempted:14.6f} "
          f"({result['failed']} of {attempted} operations)")
    for phase in result.get("load", {}).get("phases", []):
        print(f"  phase {phase['name']:8s} n={phase['n']:<5d} "
              f"p50={phase['lat_p50_ms']:.3f}ms "
              f"p90={phase['lat_p90_ms']:.3f}ms "
              f"p99={phase['lat_p99_ms']:.3f}ms "
              f"rps={phase['achieved_rps']:.1f} "
              f"late_p99={phase['late_p99_ms']:.2f}ms "
              f"late_max={phase['late_max_ms']:.2f}ms "
              f"valid={phase['valid']} passed={phase.get('passed', '-')}")


def main(argv=None) -> int:
    """Parse arguments, measure, print; exit code 0 on a measured run."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="JSONL",
                        help="also append the full record to this file")
    args = parser.parse_args(argv)
    if not (Path("src") / "repro" / "__init__.py").exists():
        print("perfbench: run from the repository root (no src/repro "
              "here)", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    stamp = context_stamp()
    result = measure(args.workload, args.seed, args.seconds, trace)
    _check_names(result["metrics"], trace)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": trace, "context": stamp, **result}
    print_report(args.workload, result, trace)
    print("context: " + json.dumps(stamp, sort_keys=True))
    print("record: " + json.dumps(record, sort_keys=True, default=str))
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True, default=str)
                         + "\n")
    unit = catalog.unit_of
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
