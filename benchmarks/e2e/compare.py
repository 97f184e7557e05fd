#!/usr/bin/env python3
"""Compare two sets of benchmark reports metric by metric.

    python3 benchmarks/e2e/compare.py A1.json [A2.json ...] -- B1.json [...]

``A`` is the parent, ``B`` the change; each file is a report written by
``run.py --out`` (one workload or all four).  For every (workload,
end-to-end metric) the tool prints each side's median and quartiles and
a verdict against the metric's bound in ``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, unless every B run beats every A run;
* ``better`` — at least 10 pairs (A[i], B[i]), B wins 9 in 10 of them
  and the medians differ by more than A's own quartile distance;
* ``same`` — otherwise.

Exit status 1 when any metric is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, in file order, untraced runs only."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        for run in report.get("runs", [report]):
            for name, entry in run.get("end_to_end", {}).items():
                values.setdefault((run["workload"], name), []).append(entry["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], bound: float, lower: bool) -> Tuple[str, float]:
    """``(verdict, relative change)``; a positive change is a worsening."""
    qa, qb = quartiles(a), quartiles(b)
    base = abs(qa[1]) or 1.0
    sign = 1.0 if lower else -1.0
    change = sign * (qb[1] - qa[1]) / base
    spread_a = (qa[2] - qa[0]) / base
    spread_b = (qb[2] - qb[0]) / (abs(qb[1]) or 1.0)
    beats = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    if max(spread_a, spread_b) > bound:
        if all(beats(y, x) for x in a for y in b):
            return "better", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and -change > spread_a:
        return "better", change
    return "same", change


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    failing = 0
    header = (
        f"{'workload':<15} {'metric':<12} {'unit':<11} "
        f"{'A median [q1, q3]':<30} {'B median [q1, q3]':<30} "
        f"{'change':>8} {'bound':>6}  verdict"
    )
    print(header)
    for key in sorted(set(side_a) & set(side_b)):
        workload, name = key
        if name not in metrics:
            continue
        metric = metrics[name]
        a, b = side_a[key], side_b[key]
        result, change = verdict(a, b, metric["bound"], metric["better"] == "lower")
        failing += result in ("worse", "unresolved")
        qa, qb = quartiles(a), quartiles(b)
        print(
            f"{workload:<15} {name:<12} {metric['unit']:<11} "
            f"{f'{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]':<30} "
            f"{f'{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]':<30} "
            f"{change:>+8.1%} {metric['bound']:>6.0%}  {result}"
        )
    missing = sorted(set(side_a) ^ set(side_b))
    if missing:
        print(f"only on one side: {missing}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
