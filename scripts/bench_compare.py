#!/usr/bin/env python
"""Diff two bench reports; fail on perf regression (the CI sentinel).

Usage::

    python scripts/bench_compare.py CURRENT.json BASELINE.json
                                    [--tolerance 0.15]
                                    [--min-kernel-ms 5.0]

Compares per-case ``ms_per_step`` / ``ms_per_step_per_1k_routers`` and
the per-kernel cumulative milliseconds from the ``profile`` blocks
(see :func:`repro.bench.compare_reports`).  Exit codes: 0 when no
metric regressed beyond the tolerance, 1 on regression, 2 on unreadable
reports or a schema mismatch (a layout change invalidates the
comparison -- regenerate the baseline).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import (  # noqa: E402
    DEFAULT_MIN_KERNEL_MS,
    DEFAULT_TOLERANCE,
    compare_reports,
    render_comparison,
)


def _load(path: Path, label: str) -> dict:
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"cannot read {label} report {path}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(report, dict):
        print(f"{label} report {path} is not a JSON object",
              file=sys.stderr)
        raise SystemExit(2)
    return report


def main(argv=None) -> int:
    """Compare two reports; exit 0 / 1 / 2 (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="python scripts/bench_compare.py",
        description="Diff a bench report against a baseline; "
                    "exit 1 on regression.")
    parser.add_argument("current", type=Path,
                        help="freshly generated bench report")
    parser.add_argument("baseline", type=Path,
                        help="baseline bench report to diff against")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="fractional slowdown tolerated "
                             "(default: %(default)s)")
    parser.add_argument("--min-kernel-ms", type=float,
                        default=DEFAULT_MIN_KERNEL_MS,
                        help="skip kernels whose baseline total is below "
                             "this (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.tolerance <= 0:
        print("--tolerance must be positive", file=sys.stderr)
        return 2
    current = _load(args.current, "current")
    baseline = _load(args.baseline, "baseline")
    try:
        comparison = compare_reports(current, baseline,
                                     tolerance=args.tolerance,
                                     min_kernel_ms=args.min_kernel_ms)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    render_comparison(comparison, sys.stdout)
    return 1 if comparison["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
