"""Solver and mapper profiling: ``python -m repro profile <case>``.

Runs one benchmark case end to end with :mod:`repro.obs` telemetry
enabled and emits a JSON + text report of the hot-path counters:

* ``mapper.*`` — window solves, greedy fallbacks, refinement tallies;
* ``routing.*`` — Dijkstra calls, heap pops, rip-up & re-route events;
* ``scipy.*`` — HiGHS MILP solves and node counts (the default mapping
  backend);
* ``resilience.*`` — degradation-ladder rung engagements (DESIGN.md
  §9); a clean run has none;
* ``supervisor.*`` / ``checkpoint.*`` — crash-safety counters
  (DESIGN.md §14): supervised-worker attempts, retries and kills, and
  checkpoint-journal hits/misses/appends/rejections; present when the
  run uses ``--supervised`` or ``--checkpoint`` and summarized in a
  ``crash_safety`` report section;
* ``bb.*`` / ``simplex.*`` — the from-scratch branch & bound and
  simplex.  The full synthesis usually runs on HiGHS, so these are
  exercised by a **solver probe**: a small mapping sub-model (the
  case's first two tasks on a coarse anchor grid) solved exactly with
  ``backend="branch_bound"``.

The report doubles as the CI benchmark-smoke artifact: a run that
crashes, loses counters or silently stops exploring nodes fails there
before it confuses a real experiment.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from repro import obs
from repro.core.anytime import AnytimeMapper, race_winner
from repro.core.mappers import BaseMapper, GreedyMapper, ILPMapper, WindowedILPMapper
from repro.errors import ReproError

#: Mapper names accepted by the CLI; None = automatic selection.
MAPPER_CHOICES = ("auto", "greedy", "ilp", "windowed_ilp", "anytime")

#: Budget for the ``--race`` probe when the profile run has none.
DEFAULT_RACE_BUDGET = 1.0


def _make_mapper(name: str) -> Optional[BaseMapper]:
    if name == "auto":
        return None
    if name == "greedy":
        return GreedyMapper()
    if name == "ilp":
        return ILPMapper()
    if name == "windowed_ilp":
        return WindowedILPMapper()
    if name == "anytime":
        # The race tier (DESIGN.md §13); pair with --time-budget, or
        # it degenerates to the exact lane plus a bounded LNS warm-up.
        return AnytimeMapper()
    raise ReproError(
        f"unknown mapper {name!r}; choose from {', '.join(MAPPER_CHOICES)}"
    )


def _solver_probe(case) -> Dict[str, float]:
    """Solve a small exact sub-model with the from-scratch stack.

    Two tasks on a stride-3 anchor grid keep the model around 40
    binaries — enough to branch, prune and pivot (so every ``bb.*`` and
    ``simplex.*`` counter is exercised) while staying well under a
    second.
    """
    from repro.assays import schedule_for
    from repro.core.mapping_model import MappingModelBuilder, MappingSpec
    from repro.core.tasks import build_tasks

    graph = case.graph()
    policy = case.policies(1)[0]
    schedule = schedule_for(case, policy)
    tasks = build_tasks(graph, schedule)
    spec = MappingSpec(grid=case.grid, tasks=tasks[:2], anchor_stride=3)
    built = MappingModelBuilder(spec).build()
    start = time.perf_counter()
    solution = built.model.solve(
        backend="branch_bound", lp_max_iterations=100_000
    )
    probe = {
        "variables": float(built.model.num_vars),
        "status": solution.status.value,
        "wall_seconds": time.perf_counter() - start,
    }
    probe.update({k: float(v) for k, v in solution.stats.items()})
    return probe


def _race_probe(case, budget: float) -> dict:
    """Run one anytime race on the case's full mapping problem.

    A standalone :class:`AnytimeMapper` run (outside the synthesis
    pipeline, like :func:`_solver_probe`) so the report can show the
    race anatomy — first feasible, certified incumbents, the
    incumbent-gap timeline, and which lane won at budget expiry.
    """
    from repro.assays import schedule_for
    from repro.core.mapping_model import MappingSpec
    from repro.core.tasks import build_tasks
    from repro.resilience import Deadline

    graph = case.graph()
    policy = case.policies(1)[0]
    schedule = schedule_for(case, policy)
    tasks = build_tasks(graph, schedule)
    spec = MappingSpec(grid=case.grid, tasks=tasks)
    start = time.perf_counter()
    result = AnytimeMapper().map_tasks(spec, deadline=Deadline(budget))
    stats = result.stats
    report = {
        "budget_seconds": budget,
        "wall_seconds": time.perf_counter() - start,
        "objective": result.objective,
        "optimal": result.optimal,
        "winner": race_winner(stats),
        "timeline": stats.get("race_timeline", []),
    }
    for key in (
        "first_feasible_seconds",
        "seconds_to_best_certified",
        "heuristic_objective",
        "exact_objective",
        "lns_rounds",
        "lns_accepted",
        "offers_made",
        "offers_certified",
        "injectable",
    ):
        if key in stats:
            report[key] = stats[key]
    return report


def run_profile(
    case_name: str,
    policy_index: int = 1,
    mapper: str = "auto",
    probe: bool = True,
    time_budget: Optional[float] = None,
    certify: str = "off",
    race: bool = False,
    supervised: bool = False,
    checkpoint: Optional[str] = None,
) -> dict:
    """Profile one benchmark case; returns the JSON-ready report.

    ``certify`` forwards to :attr:`SynthesisConfig.certify`; with
    ``"audit"``/``"strict"`` the report grows an ``audit`` section and
    the ``certify.*`` telemetry counters appear.  ``race=True`` forces
    the anytime mapper for the synthesis and appends a ``race`` section
    profiling one standalone race (budgeted by ``time_budget``, default
    :data:`DEFAULT_RACE_BUDGET`).  ``supervised``/``checkpoint``
    forward to the crash-safety layer (DESIGN.md §14); either one adds
    a ``crash_safety`` section summarizing the ``supervisor.*`` and
    ``checkpoint.*`` counters.
    """
    from repro.assays import get_case, schedule_for
    from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig

    case = get_case(case_name)
    graph = case.graph()
    policy = case.policies(policy_index)[policy_index - 1]
    schedule = schedule_for(case, policy)

    if race and mapper == "auto":
        mapper = "anytime"
    obs.reset()
    obs.enable()
    try:
        start = time.perf_counter()
        result = ReliabilitySynthesizer(
            SynthesisConfig(
                grid=case.grid,
                mapper=_make_mapper(mapper),
                time_budget=time_budget,
                certify=certify,
                supervised=supervised,
                checkpoint=checkpoint,
            )
        ).synthesize(graph, schedule)
        wall = time.perf_counter() - start
        probe_stats = _solver_probe(case) if probe else None
        race_stats = (
            _race_probe(case, time_budget or DEFAULT_RACE_BUDGET)
            if race
            else None
        )
        telemetry = obs.snapshot()
    finally:
        obs.disable()

    m = result.metrics
    report = {
        "case": case.name,
        "policy": policy_index,
        "mapper": m.mapper,
        "wall_seconds": wall,
        "metrics": {
            "vs_setting1": m.setting1.max_total,
            "vs_setting2": m.setting2.max_total,
            "used_valves": m.used_valves,
            "role_changing_valves": m.role_changing_valves,
            "mapping_objective": m.mapping_objective,
            "algorithm_iterations": m.algorithm_iterations,
            "routed_paths": len(result.routes),
        },
        "telemetry": telemetry,
    }
    if result.resilience is not None:
        report["resilience"] = result.resilience.as_dict()
    if result.audit is not None:
        report["audit"] = result.audit.as_dict()
    if supervised or checkpoint:
        counters = telemetry["counters"]
        timers = telemetry["timers"]
        section = {
            "supervised": supervised,
            "checkpoint_dir": checkpoint,
            "supervisor": {
                name[len("supervisor."):]: value
                for name, value in sorted(counters.items())
                if name.startswith("supervisor.")
            },
            "journal": {
                name[len("checkpoint."):]: value
                for name, value in sorted(counters.items())
                if name.startswith("checkpoint.")
            },
        }
        wall = timers.get("supervisor.worker_wall")
        if wall is not None:
            section["worker_wall_seconds"] = wall["seconds"]
        backoff = timers.get("supervisor.backoff")
        if backoff is not None:
            section["backoff_seconds"] = backoff["seconds"]
        report["crash_safety"] = section
    if probe_stats is not None:
        report["solver_probe"] = probe_stats
    if race_stats is not None:
        report["race"] = race_stats
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of :func:`run_profile`'s output."""
    lines: List[str] = []
    m = report["metrics"]
    lines.append(
        f"profile: {report['case']} policy {report['policy']} "
        f"(mapper {report['mapper']}, {report['wall_seconds']:.2f} s)"
    )
    lines.append(
        f"  vs1 {m['vs_setting1']}  vs2 {m['vs_setting2']}  "
        f"#v {m['used_valves']}  objective {m['mapping_objective']}  "
        f"{m['routed_paths']} routed paths"
    )
    counters = report["telemetry"]["counters"]
    timers = report["telemetry"]["timers"]
    if counters:
        lines.append("  counters:")
        for name in sorted(counters):
            lines.append(f"    {name:<28} {counters[name]:>12}")
    if timers:
        lines.append("  timers:")
        for name in sorted(timers):
            t = timers[name]
            lines.append(
                f"    {name:<28} {t['seconds']:>10.4f} s over "
                f"{t['events']} event(s)"
            )
    resilience = report.get("resilience")
    if resilience:
        if resilience["degraded"]:
            rungs = ", ".join(
                f"{rung} x{n}"
                for rung, n in sorted(resilience["rungs"].items())
            )
            lines.append(f"  resilience: DEGRADED — {rungs}")
        else:
            budget = resilience.get("budget")
            within = (
                f" (within the {budget:g} s budget)"
                if budget is not None
                else ""
            )
            lines.append(f"  resilience: no degradation{within}")
    audit = report.get("audit")
    if audit is not None:
        if audit["ok"]:
            lines.append(
                f"  audit: CLEAN ({len(audit['checks'])} checks)"
            )
        else:
            lines.append(
                f"  audit: FAILED — {len(audit['violations'])} violation(s)"
            )
            for violation in audit["violations"]:
                lines.append(
                    f"    [{violation['kind']}] {violation['subject']}: "
                    f"{violation['detail']}"
                )
    crash = report.get("crash_safety")
    if crash:
        sup = crash["supervisor"]
        journal = crash["journal"]
        bits = []
        if crash["supervised"]:
            attempts = sup.get("attempts", 0)
            retries = sup.get("retries", 0)
            kills = sum(
                v for k, v in sup.items() if k.startswith("kills_")
            )
            bits.append(
                f"supervised ({attempts:.0f} attempt(s), "
                f"{retries:.0f} retried, {kills:.0f} killed"
                + (
                    f", {crash['worker_wall_seconds']:.2f} s in workers"
                    if "worker_wall_seconds" in crash
                    else ""
                )
                + ")"
            )
        if crash["checkpoint_dir"]:
            bits.append(
                f"journal {crash['checkpoint_dir']} "
                f"({journal.get('hits', 0):.0f} hit(s), "
                f"{journal.get('misses', 0):.0f} miss(es), "
                f"{journal.get('appends', 0):.0f} appended, "
                f"{journal.get('rejected', 0):.0f} rejected)"
            )
        lines.append("  crash safety: " + "; ".join(bits))
    probe = report.get("solver_probe")
    if probe:
        lines.append(
            f"  solver probe: {probe['status']} in "
            f"{probe['wall_seconds']:.3f} s "
            f"({probe['variables']:.0f} vars, "
            f"{probe['nodes_explored']:.0f} nodes, "
            f"{probe['simplex_iterations']:.0f} simplex iterations)"
        )
        if "warm_starts" in probe:
            lines.append(
                f"    warm starts {probe['warm_starts']:.0f} "
                f"(basis hits {probe['basis_reuse_hits']:.0f}, "
                f"dual pivots {probe['dual_pivots']:.0f}, "
                f"cold fallbacks {probe['warm_fallbacks']:.0f})"
            )
    race = report.get("race")
    if race:
        lines.append(
            f"  anytime race ({race['budget_seconds']:g} s budget): "
            f"{race['winner']} lane won with objective "
            f"{race['objective']}"
            f"{' (proven optimal)' if race['optimal'] else ''}"
        )
        if "first_feasible_seconds" in race:
            lines.append(
                f"    first feasible in "
                f"{race['first_feasible_seconds']*1000:.1f} ms, "
                f"best certified at "
                f"{race.get('seconds_to_best_certified', float('nan')):.3f}"
                f" s, {race.get('lns_rounds', 0):.0f} LNS rounds "
                f"({race.get('lns_accepted', 0):.0f} accepted)"
            )
        timeline = race.get("timeline") or []
        incumbents = [e for e in timeline if e["kind"] == "incumbent"]
        if incumbents:
            series = ", ".join(
                f"{e['objective']:g}@{e['t']:.2f}s[{e['source']}]"
                for e in incumbents
            )
            lines.append(f"    incumbent gap timeline: {series}")
    return "\n".join(lines)


def main(
    case_name: str,
    policy_index: int = 1,
    mapper: str = "auto",
    json_path: Optional[str] = None,
    probe: bool = True,
    time_budget: Optional[float] = None,
    certify: str = "off",
    race: bool = False,
    supervised: bool = False,
    checkpoint: Optional[str] = None,
) -> dict:
    report = run_profile(
        case_name, policy_index=policy_index, mapper=mapper, probe=probe,
        time_budget=time_budget, certify=certify, race=race,
        supervised=supervised, checkpoint=checkpoint,
    )
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    print(format_report(report))
    if json_path:
        print(f"report written to {json_path}")
    return report
