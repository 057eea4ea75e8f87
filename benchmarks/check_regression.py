#!/usr/bin/env python
"""CI perf-regression gate: compare benchmark JSON output against baselines.

The serving and VM benchmark suites write their headline numbers to
``benchmarks/results/*.json`` (via ``bench_utils.record_json``).  This script
compares every metric against the committed ``benchmarks/baselines/*.json``
and fails (exit 1) when a metric regresses past its tolerance band -- by
default a throughput drop of more than 25%.

Baseline schema (one file per results file, same stem)::

    {
      "metric_name": {"value": 123.4, "rel_tol": 0.25, "direction": "higher"},
      ...
    }

``direction: "higher"`` gates ``current >= value * (1 - rel_tol)`` (through-
put-like metrics); ``direction: "lower"`` gates ``current <= value *
(1 + rel_tol)`` (latency-like metrics).  Metrics present in the results but
absent from the baseline are reported as NEW and do not gate; metrics in the
baseline with no measurement FAIL (the benchmark that produces them did not
run).

Typical usage::

    # in CI, after running the benchmark suites:
    python benchmarks/check_regression.py

    # refresh the committed baselines from the latest local run
    # (e.g. after landing an intentional perf change):
    python benchmarks/check_regression.py --update-baselines
    git add benchmarks/baselines/ && git commit ...

Absolute req/s baselines carry wide tolerances (containers differ); the
ratio metrics (speedups, router overhead) are the tight, portable gates.
Stdlib-only on purpose: runs before/without the package being installed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
DEFAULT_RESULTS = HERE / "results"
DEFAULT_BASELINES = HERE / "baselines"

#: Tolerance assigned to metrics that enter a baseline via --update-baselines.
DEFAULT_REL_TOL = 0.25

#: Substrings marking lower-is-better metrics when creating new baselines.
_LOWER_HINTS = ("_ms", "latency", "_vs_batch")


def _guess_direction(metric: str) -> str:
    return "lower" if any(hint in metric for hint in _LOWER_HINTS) else "higher"


def _load(path: Path) -> Dict[str, object]:
    return json.loads(path.read_text(encoding="utf-8"))


def _format_row(columns: List[str], widths: List[int]) -> str:
    return "  ".join(col.ljust(width) for col, width in zip(columns, widths)).rstrip()


def check(results_dir: Path, baselines_dir: Path) -> int:
    """Compare results against baselines; print the table; return exit code."""
    baseline_files = sorted(baselines_dir.glob("*.json"))
    if not baseline_files:
        print(f"no baselines under {baselines_dir}; run with --update-baselines first")
        return 1
    rows: List[List[str]] = []
    failures = 0
    for baseline_path in baseline_files:
        baseline = _load(baseline_path)
        results_path = results_dir / baseline_path.name
        results = _load(results_path) if results_path.exists() else {}
        for metric, spec in sorted(baseline.items()):
            value = float(spec["value"])
            rel_tol = float(spec.get("rel_tol", DEFAULT_REL_TOL))
            direction = str(spec.get("direction", "higher"))
            current = results.get(metric)
            if current is None:
                failures += 1
                rows.append([baseline_path.stem, metric, f"{value:.3f}", "MISSING", "-", "FAIL"])
                continue
            current = float(current)
            if direction == "higher":
                limit = value * (1.0 - rel_tol)
                ok = current >= limit
            else:
                limit = value * (1.0 + rel_tol)
                ok = current <= limit
            change = (current - value) / value if value else 0.0
            if not ok:
                failures += 1
            rows.append(
                [
                    baseline_path.stem,
                    metric,
                    f"{value:.3f}",
                    f"{current:.3f}",
                    f"{change:+.1%}",
                    "ok" if ok else f"FAIL ({direction} than {limit:.3f} allowed)",
                ]
            )
        # Metrics measured but not yet gated: visible, non-blocking.
        for metric in sorted(set(results) - set(baseline)):
            rows.append(
                [baseline_path.stem, metric, "-", f"{float(results[metric]):.3f}", "-", "NEW"]
            )

    header = ["suite", "metric", "baseline", "current", "change", "status"]
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))]
    print(_format_row(header, widths))
    print(_format_row(["-" * width for width in widths], widths))
    for row in rows:
        print(_format_row(row, widths))
    if failures:
        print(f"\n{failures} metric(s) regressed past their tolerance band.")
        print("If the change is intentional, refresh the baselines:")
        print("    python benchmarks/check_regression.py --update-baselines")
        return 1
    print(f"\nall {len(rows)} metric(s) within tolerance.")
    return 0


def update_baselines(results_dir: Path, baselines_dir: Path) -> int:
    """Rewrite the baselines from the current results, keeping tolerances."""
    results_files = sorted(results_dir.glob("*.json"))
    if not results_files:
        print(f"no benchmark JSON under {results_dir}; run the benchmark suites first")
        return 1
    baselines_dir.mkdir(parents=True, exist_ok=True)
    for results_path in results_files:
        results = _load(results_path)
        baseline_path = baselines_dir / results_path.name
        existing = _load(baseline_path) if baseline_path.exists() else {}
        baseline = {}
        for metric, current in sorted(results.items()):
            spec = dict(existing.get(metric, {}))
            spec["value"] = float(current)
            spec.setdefault("rel_tol", DEFAULT_REL_TOL)
            spec.setdefault("direction", _guess_direction(metric))
            baseline[metric] = spec
        baseline_path.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {baseline_path} ({len(baseline)} metrics)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", type=Path, default=DEFAULT_RESULTS,
                        help="directory holding the benchmark JSON output")
    parser.add_argument("--baselines-dir", type=Path, default=DEFAULT_BASELINES,
                        help="directory holding the committed baselines")
    parser.add_argument("--update-baselines", action="store_true",
                        help="rewrite the baselines from the current results "
                             "(preserves per-metric tolerances) instead of checking")
    args = parser.parse_args(argv)
    if args.update_baselines:
        return update_baselines(args.results_dir, args.baselines_dir)
    return check(args.results_dir, args.baselines_dir)


if __name__ == "__main__":
    sys.exit(main())
