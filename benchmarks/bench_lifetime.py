"""Lifetime-trajectory recorder: ``python benchmarks/bench_lifetime.py``.

Runs the fault-adaptive lifetime engine (DESIGN.md §12) head-to-head
against the static baseline on frozen scenarios — two Table-1 assays
under a seeded wear-out model — and writes the results to
``BENCH_lifetime.json`` at the repository root, one committed-format
snapshot per run.  The headline number per scenario is the **gain**:
assay repetitions to failure with adaptive remapping divided by the
static design's repetitions.

``--check`` compares every scenario against the checked-in baseline
(``benchmarks/data/lifetime_baseline.json``), writes its report only
to an explicit ``--output`` (:mod:`bench_output`), and exits non-zero
when any of these trip:

* gain below :data:`GAIN_FLOOR` (the ISSUE acceptance bar: adaptive
  remapping must buy >= 1.5x repetitions-to-failure);
* adaptive repetitions below 80% of the baseline's — the engine is
  seeded-deterministic, so a real drop means remapping got worse, not
  noise;
* wall time beyond ``max(2.5x baseline, baseline + 30s)`` — loose on
  purpose, it only catches order-of-magnitude blowups;
* a baseline scenario missing from the current run entirely.

Run with ``PYTHONPATH=src`` from the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

from bench_output import add_output_argument, write_report

ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = (
    Path(__file__).resolve().parent / "data" / "lifetime_baseline.json"
)
DEFAULT_OUTPUT = ROOT / "BENCH_lifetime.json"

#: Frozen scenarios: seeded wear-out on over-provisioned Table-1 grids
#: (remapping needs spare area; see repro.experiments.lifetime).  The
#: small wear budget compresses a chip's whole service life into CI
#: seconds without changing the adaptive-vs-static structure.
SCENARIOS = (
    {
        "case": "pcr",
        "grid": 11,
        "mapper": "auto",
        "wear_budget": 500,
        "seed": 7,
        "max_runs": 100,
    },
    {
        "case": "mixing_tree",
        "grid": 13,
        "mapper": "greedy",
        "wear_budget": 500,
        "seed": 7,
        "max_runs": 100,
    },
)

#: ``--check`` fails when any scenario's gain drops below this (the
#: ISSUE acceptance criterion).
GAIN_FLOOR = 1.5

#: ... or its adaptive repetitions fall below this fraction of baseline.
RUNS_REGRESSION_LIMIT = 0.80

#: ... or its wall time, by the larger of this factor and this many
#: seconds of slack (loose: only order-of-magnitude blowups trip it).
WALL_REGRESSION_FACTOR = 2.5
WALL_REGRESSION_SLACK_SECONDS = 30.0


def run_scenario(scenario: Dict) -> Dict:
    from repro.experiments.lifetime import run_lifetime

    start = time.perf_counter()
    payload = run_lifetime(
        scenario["case"],
        mapper=scenario["mapper"],
        grid=scenario["grid"],
        wear_budget=scenario["wear_budget"],
        seed=scenario["seed"],
        max_runs=scenario["max_runs"],
        mode="compare",
    )
    wall = time.perf_counter() - start
    return {
        "scenario": dict(scenario),
        "gain": payload["gain"],
        "adaptive_runs": payload["adaptive"]["runs"],
        "static_runs": payload["static"]["runs"],
        "adaptive_remaps": payload["adaptive"]["remaps"],
        "adaptive_terminal": payload["adaptive"]["terminal_cause"],
        "static_terminal": payload["static"]["terminal_cause"],
        "dead_cells": len(payload["adaptive"]["final_health"]["dead_cells"]),
        "dead_edges": len(payload["adaptive"]["final_health"]["dead_edges"]),
        "wall_seconds": round(wall, 2),
    }


def record() -> Dict:
    report: Dict = {"schema": 1, "scenarios": {}}
    for scenario in SCENARIOS:
        name = scenario["case"]
        print(
            f"scenario {name} (grid {scenario['grid']}, budget "
            f"{scenario['wear_budget']}, seed {scenario['seed']}) ..."
        )
        report["scenarios"][name] = run_scenario(scenario)
    return report


def check_against_baseline(report: Dict) -> List[str]:
    """Regressions of the frozen scenarios vs the baseline (see module
    docstring for the gates)."""
    if not BASELINE_PATH.exists():
        return [f"missing baseline {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text())
    failures: List[str] = []
    for name, frozen in baseline.get("scenarios", {}).items():
        current = report["scenarios"].get(name)
        if current is None:
            failures.append(f"{name}: scenario missing from this run")
            continue
        if current["gain"] < GAIN_FLOOR:
            failures.append(
                f"{name}: gain {current['gain']:.2f} below the "
                f"{GAIN_FLOOR}x acceptance floor"
            )
        runs_floor = frozen["adaptive_runs"] * RUNS_REGRESSION_LIMIT
        if current["adaptive_runs"] < runs_floor:
            failures.append(
                f"{name}: {current['adaptive_runs']} adaptive runs vs "
                f"baseline {frozen['adaptive_runs']} "
                f"(< {runs_floor:.0f} allowed)"
            )
        wall_limit = max(
            frozen["wall_seconds"] * WALL_REGRESSION_FACTOR,
            frozen["wall_seconds"] + WALL_REGRESSION_SLACK_SECONDS,
        )
        if current["wall_seconds"] > wall_limit:
            failures.append(
                f"{name}: {current['wall_seconds']:.1f}s wall vs baseline "
                f"{frozen['wall_seconds']:.1f}s (> {wall_limit:.1f}s allowed)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_output_argument(parser, DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on gain/runs/wall regressions vs the checked-in "
        "baseline (see module docstring for the gates)",
    )
    args = parser.parse_args(argv)

    report = record()
    write_report(report, args.output, args.check, DEFAULT_OUTPUT)
    for name, entry in report["scenarios"].items():
        print(
            f"  {name}: adaptive {entry['adaptive_runs']} vs static "
            f"{entry['static_runs']} runs ({entry['gain']:.2f}x), "
            f"{entry['adaptive_remaps']} remaps, "
            f"{entry['wall_seconds']:.1f}s"
        )

    if args.check:
        failures = check_against_baseline(report)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
