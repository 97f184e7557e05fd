"""Perf-trajectory recorder: ``python benchmarks/bench_record.py``.

Times the exact-solver microbenchmarks and writes the results to
``BENCH_ilp.json`` at the repository root — one committed-format
snapshot per run, so the performance trajectory of the from-scratch ILP
stack is visible in CI artifacts over time.

``probes`` entries are deterministic branch & bound runs on small exact
sub-models of the table-1 cases (the same construction as the
``python -m repro profile`` solver probe), warm-started and
cold-started: wall time, node count, simplex iterations and dual pivots
per run, plus the cold/warm iteration ratio.  (Schema 1 also carried a
``mapping`` section with end-to-end synthesis wall times; it tracked
the heuristic mapper, drifted from the solver numbers it sat next to,
and was never gated — schema 2 drops it.  End-to-end placements are
covered by the frozen-fixture benchmarks.)

``--check`` compares every baseline probe against the checked-in
baseline (``benchmarks/data/bench_baseline.json``), writes its report
only to an explicit ``--output`` (:mod:`bench_output`), and exits
non-zero when any of these trip:

* branch & bound node count >20% over baseline — the tripwire for
  search blow-ups that wall-clock noise would hide;
* simplex iterations >20% over baseline — catches pivot-count
  regressions that leave the tree shape intact;
* wall time beyond ``max(2.5x baseline, baseline + 1s)`` — loose on
  purpose (CI machines are noisy), it only catches order-of-magnitude
  blowups;
* a baseline probe missing from the current run entirely.

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
BASELINE_PATH = Path(__file__).resolve().parent / "data" / "bench_baseline.json"
DEFAULT_OUTPUT = ROOT / "BENCH_ilp.json"

#: Solver microbenchmarks: (case, #tasks, anchor stride).  Small enough
#: that a warm + cold pair stays seconds-scale in CI, large enough to
#: branch and pivot for real.
PROBES = (
    ("pcr", 2, 3),
    ("exponential_dilution", 2, 4),
)

#: ``--check`` fails when a probe's node count exceeds baseline by this.
NODE_REGRESSION_LIMIT = 0.20

#: ... or its simplex iteration count (same relative limit).
ITERATION_REGRESSION_LIMIT = 0.20

#: ... or its wall time, by the larger of this factor and this many
#: seconds of slack (loose: only order-of-magnitude blowups trip it).
WALL_REGRESSION_FACTOR = 2.5
WALL_REGRESSION_SLACK_SECONDS = 1.0


def probe_model(case_name: str, n_tasks: int, stride: int):
    """The exact sub-model the solver probes run: first ``n_tasks``
    tasks of the case on a coarse anchor grid."""
    from repro.assays import get_case, schedule_for
    from repro.core.mapping_model import MappingModelBuilder, MappingSpec
    from repro.core.tasks import build_tasks

    case = get_case(case_name)
    graph = case.graph()
    schedule = schedule_for(case, case.policies(1)[0])
    tasks = build_tasks(graph, schedule)
    spec = MappingSpec(
        grid=case.grid, tasks=tasks[:n_tasks], anchor_stride=stride
    )
    return MappingModelBuilder(spec).build().model


def run_probe(case_name: str, n_tasks: int, stride: int) -> Dict:
    model = probe_model(case_name, n_tasks, stride)
    entry: Dict = {"tasks": n_tasks, "anchor_stride": stride}
    # Untimed warmup solve: the first solve in a cold process pays the
    # lazy scipy.sparse imports and first-``splu`` compilation, which
    # once inflated whichever run was timed first by ~0.2 s and faked a
    # warm-start "regression" on the PCR probe (warm 0.288 s recorded vs
    # 0.088 s real).  Warm both paths' machinery before timing either.
    model.solve(
        backend="branch_bound",
        lp_max_iterations=200_000,
        warm_start=True,
    )
    for label, warm in (("cold", False), ("warm", True)):
        start = time.perf_counter()
        solution = model.solve(
            backend="branch_bound",
            lp_max_iterations=200_000,
            warm_start=warm,
        )
        wall = time.perf_counter() - start
        stats = solution.stats
        entry[label] = {
            "wall_seconds": round(wall, 4),
            "status": solution.status.value,
            "objective": solution.objective,
            "nodes": int(stats["nodes_explored"]),
            "simplex_iterations": int(stats["simplex_iterations"]),
            "dual_pivots": int(stats["dual_pivots"]),
            "warm_starts": int(stats["warm_starts"]),
            "warm_fallbacks": int(stats["warm_fallbacks"]),
        }
    warm_iters = max(entry["warm"]["simplex_iterations"], 1)
    entry["iteration_ratio"] = round(
        entry["cold"]["simplex_iterations"] / warm_iters, 2
    )
    return entry


def record() -> Dict:
    report: Dict = {"schema": 2, "probes": {}}
    for case_name, n_tasks, stride in PROBES:
        print(f"probe {case_name} ({n_tasks} tasks, stride {stride}) ...")
        report["probes"][case_name] = run_probe(case_name, n_tasks, stride)
    return report


def check_against_baseline(report: Dict) -> List[str]:
    """Regressions of the frozen probes vs the baseline (see module
    docstring for the gates)."""
    if not BASELINE_PATH.exists():
        return [f"missing baseline {BASELINE_PATH}"]
    baseline = json.loads(BASELINE_PATH.read_text())
    failures: List[str] = []
    for case_name, frozen in baseline.get("probes", {}).items():
        current = report["probes"].get(case_name)
        if current is None:
            failures.append(f"{case_name}: probe missing from this run")
            continue
        for label in ("warm", "cold"):
            for metric, rel_limit in (
                ("nodes", NODE_REGRESSION_LIMIT),
                ("simplex_iterations", ITERATION_REGRESSION_LIMIT),
            ):
                expected = frozen[label][metric]
                actual = current[label][metric]
                limit = expected * (1.0 + rel_limit)
                if actual > limit:
                    failures.append(
                        f"{case_name} [{label}]: {actual} {metric} vs "
                        f"baseline {expected} (> {limit:.0f} allowed)"
                    )
            wall_expected = frozen[label]["wall_seconds"]
            wall_actual = current[label]["wall_seconds"]
            wall_limit = max(
                wall_expected * WALL_REGRESSION_FACTOR,
                wall_expected + WALL_REGRESSION_SLACK_SECONDS,
            )
            if wall_actual > wall_limit:
                failures.append(
                    f"{case_name} [{label}]: {wall_actual:.2f}s wall vs "
                    f"baseline {wall_expected:.2f}s "
                    f"(> {wall_limit:.2f}s allowed)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_output_argument(parser, DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on node/iteration/wall regressions vs the checked-in "
        "baseline (see module docstring for the gates)",
    )
    args = parser.parse_args(argv)

    report = record()
    write_report(report, args.output, args.check, DEFAULT_OUTPUT)
    for case_name, entry in report["probes"].items():
        print(
            f"  {case_name}: warm {entry['warm']['simplex_iterations']} vs "
            f"cold {entry['cold']['simplex_iterations']} iterations "
            f"({entry['iteration_ratio']}x), "
            f"{entry['warm']['nodes']}/{entry['cold']['nodes']} nodes"
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
