"""Anytime-race benchmark: ``python benchmarks/bench_anytime.py [--check]``.

Measures the anytime mapper tier (DESIGN.md §13) on the same solver
probes ``bench_record.py`` uses, plus the full PCR mapping problem, and
writes ``BENCH_anytime.json``.  ``--check`` enforces the tier's
contract with absolute gates (no baseline file needed) and writes its
report only to an explicit ``--output`` (:mod:`bench_output`):

* **first feasible** — the heuristic lane produces a feasible full-PCR
  mapping in under :data:`FIRST_FEASIBLE_LIMIT_SECONDS`;
* **never worse** — on every probe the race's final objective is no
  worse than the exact ILP solved alone on the same model;
* **anytime speedup** — on the exponential-dilution probe at a
  :data:`RACE_BUDGET_SECONDS` budget, the race holds a *certified*
  incumbent matching the ILP-alone objective at least
  :data:`SPEEDUP_FACTOR` times sooner than the ILP alone finishes.

Run with ``PYTHONPATH=src`` from the repository root.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List

from bench_output import add_output_argument, write_report

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_anytime.json"

#: The solver probes raced against the ILP: (case, #tasks, stride).
PROBES = (
    ("pcr", 2, 3),
    ("exponential_dilution", 2, 4),
)

#: Budget handed to every race.
RACE_BUDGET_SECONDS = 1.0

#: ``--check``: full-PCR first feasible must land under this.
FIRST_FEASIBLE_LIMIT_SECONDS = 0.100

#: ``--check``: certified-incumbent time must beat ILP-alone wall by
#: at least this factor on the exponential probe.
SPEEDUP_FACTOR = 2.0
SPEEDUP_PROBE = "exponential_dilution"


def _probe_spec(case_name: str, n_tasks: int, stride: int):
    from repro.assays import get_case, schedule_for
    from repro.core.mapping_model import MappingSpec
    from repro.core.tasks import build_tasks

    case = get_case(case_name)
    schedule = schedule_for(case, case.policies(1)[0])
    tasks = build_tasks(case.graph(), schedule)
    return MappingSpec(
        grid=case.grid, tasks=tasks[:n_tasks], anchor_stride=stride
    )


def _full_spec(case_name: str):
    from repro.assays import get_case, schedule_for
    from repro.core.mapping_model import MappingSpec
    from repro.core.tasks import build_tasks

    case = get_case(case_name)
    schedule = schedule_for(case, case.policies(1)[0])
    tasks = build_tasks(case.graph(), schedule)
    return MappingSpec(grid=case.grid, tasks=tasks)


def _warmup() -> None:
    """Absorb lazy scipy imports so the first timed solve is honest."""
    from repro.core.mappers import ILPMapper

    ILPMapper(backend="branch_bound").map_tasks(_probe_spec("pcr", 1, 3))


def run_probe_race(case_name: str, n_tasks: int, stride: int) -> Dict:
    """One probe: ILP alone (timed) vs the anytime race (budgeted)."""
    from repro.core.anytime import AnytimeMapper, race_winner
    from repro.core.mappers import ILPMapper
    from repro.resilience import Deadline

    start = time.perf_counter()
    ilp = ILPMapper(backend="branch_bound").map_tasks(
        _probe_spec(case_name, n_tasks, stride)
    )
    ilp_wall = time.perf_counter() - start

    race = AnytimeMapper(seed=0).map_tasks(
        _probe_spec(case_name, n_tasks, stride),
        deadline=Deadline(RACE_BUDGET_SECONDS),
    )
    stats = race.stats
    return {
        "tasks": n_tasks,
        "stride": stride,
        "budget_seconds": RACE_BUDGET_SECONDS,
        "ilp_objective": ilp.objective,
        "ilp_wall_seconds": round(ilp_wall, 6),
        "race_objective": race.objective,
        "race_optimal": race.optimal,
        "race_winner": race_winner(stats),
        "first_feasible_seconds": round(
            stats.get("first_feasible_seconds", float("nan")), 6
        ),
        "seconds_to_best_certified": round(
            stats.get("seconds_to_best_certified", float("nan")), 6
        ),
        "offers_certified": stats.get("offers_certified", 0.0),
        "external_offers_seen": stats.get(
            "solver_external_offers_seen", 0.0
        ),
        "lns_rounds": stats.get("lns_rounds", 0.0),
        "timeline_events": len(stats.get("race_timeline", [])),
    }


def run_first_feasible() -> Dict:
    """The full PCR mapping problem: how fast is a usable answer?"""
    from repro.core.anytime import AnytimeMapper, race_winner
    from repro.resilience import Deadline

    race = AnytimeMapper(seed=0).map_tasks(
        _full_spec("pcr"), deadline=Deadline(RACE_BUDGET_SECONDS)
    )
    stats = race.stats
    return {
        "case": "pcr",
        "budget_seconds": RACE_BUDGET_SECONDS,
        "first_feasible_seconds": round(
            stats["first_feasible_seconds"], 6
        ),
        "seconds_to_best_certified": round(
            stats.get("seconds_to_best_certified", float("nan")), 6
        ),
        "objective": race.objective,
        "offers_certified": stats.get("offers_certified", 0.0),
        "race_winner": race_winner(stats),
    }


def record() -> Dict:
    _warmup()
    report: Dict = {
        "schema": 1,
        "budget_seconds": RACE_BUDGET_SECONDS,
        "first_feasible": run_first_feasible(),
        "probes": {},
    }
    for case_name, n_tasks, stride in PROBES:
        report["probes"][case_name] = run_probe_race(
            case_name, n_tasks, stride
        )
    return report


def check(report: Dict) -> List[str]:
    failures: List[str] = []
    ff = report["first_feasible"]["first_feasible_seconds"]
    if ff >= FIRST_FEASIBLE_LIMIT_SECONDS:
        failures.append(
            f"first feasible on full pcr took {ff * 1000:.1f} ms "
            f"(>= {FIRST_FEASIBLE_LIMIT_SECONDS * 1000:.0f} ms allowed)"
        )
    for case_name, _, _ in PROBES:
        entry = report["probes"].get(case_name)
        if entry is None:
            failures.append(f"{case_name}: probe missing from report")
            continue
        if entry["race_objective"] > entry["ilp_objective"]:
            failures.append(
                f"{case_name}: race objective {entry['race_objective']} "
                f"worse than ILP alone {entry['ilp_objective']}"
            )
        if entry["offers_certified"] < 1:
            failures.append(
                f"{case_name}: no heuristic incumbent certified"
            )
    speedup_entry = report["probes"].get(SPEEDUP_PROBE)
    if speedup_entry is not None:
        certified_at = speedup_entry["seconds_to_best_certified"]
        ilp_wall = speedup_entry["ilp_wall_seconds"]
        if not certified_at or certified_at != certified_at:  # NaN
            failures.append(
                f"{SPEEDUP_PROBE}: no certified incumbent time recorded"
            )
        elif ilp_wall < SPEEDUP_FACTOR * certified_at:
            failures.append(
                f"{SPEEDUP_PROBE}: certified incumbent at "
                f"{certified_at:.3f}s is not {SPEEDUP_FACTOR:g}x faster "
                f"than the {ilp_wall:.3f}s ILP-alone solve"
            )
        if (
            speedup_entry["race_objective"]
            > speedup_entry["ilp_objective"]
        ):
            failures.append(
                f"{SPEEDUP_PROBE}: certified objective "
                f"{speedup_entry['race_objective']} worse than ILP "
                f"alone {speedup_entry['ilp_objective']}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_output_argument(parser, DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when a race gate is violated (first-feasible "
        "latency, never-worse objective, anytime speedup)",
    )
    args = parser.parse_args(argv)

    report = record()
    write_report(report, args.output, args.check, DEFAULT_OUTPUT)
    ff = report["first_feasible"]
    print(
        f"  pcr first feasible {ff['first_feasible_seconds'] * 1000:.1f} ms,"
        f" certified best at {ff['seconds_to_best_certified']:.3f} s"
    )
    for case_name, entry in report["probes"].items():
        print(
            f"  {case_name}: race {entry['race_objective']} "
            f"(won by {entry['race_winner']}) vs ILP "
            f"{entry['ilp_objective']} in {entry['ilp_wall_seconds']:.3f}s;"
            f" certified at {entry['seconds_to_best_certified']:.3f}s"
        )

    if args.check:
        failures = check(report)
        if failures:
            print("ANYTIME BENCHMARK GATES FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print("anytime gates passed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
