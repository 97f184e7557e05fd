"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1 [case ...]`` — regenerate Table 1 (all cases by default);
* ``figures [figN ...]`` — regenerate the paper's figures;
* ``cases`` — list the benchmark assays;
* ``synth ASSAY [--grid N] [--schedule SCHEDULE_FILE]
  [--time-budget S] [--supervised] [--checkpoint DIR]`` — synthesize a
  user assay written in the text format (see
  :mod:`repro.assay.textio`) or a benchmark case from the registry,
  printing metrics and placements; ``--supervised`` runs the exact
  solves in watched subprocesses and ``--checkpoint DIR`` journals
  certified window solutions so a crashed run resumes where it died
  (DESIGN.md §14);
* ``profile CASE [--policy N] [--mapper M] [--json FILE]
  [--time-budget S] [--certify LEVEL]`` — run one benchmark case with
  solver telemetry enabled and report the hot-path counters (see
  :mod:`repro.experiments.profile`);
* ``audit CASE [--policy N] [--certify audit|strict] [--json FILE]
  [--time-budget S]`` — synthesize one benchmark case and run the
  independent design audit (DESIGN.md §10); exits nonzero in strict
  mode when any violation survives;
* ``lifetime CASE [--wear-budget N] [--fail-prob P] [--faults SITE...]
  [--mode compare|adaptive|static] [--json FILE]`` — run the
  fault-adaptive lifetime engine (DESIGN.md §12): repeat the assay
  under a stochastic + wear-driven failure model, remapping around
  dead hardware, and report repetitions-to-failure adaptive vs.
  static;
* ``serve [--host H] [--port P] [--grid N] [--workers N]
  [--queue-capacity N] [--time-budget S] [--cache-dir DIR]`` — run the
  resilient synthesis-as-a-service engine (DESIGN.md §15): an NDJSON
  TCP server with a canonical result cache, single-flight dedup,
  admission control/load shedding and a per-problem circuit breaker.

``--time-budget S`` bounds the whole synthesis to ``S`` seconds of
wall clock; when the budget runs short the run degrades along the
ladder of DESIGN.md §9 and the report says which rungs engaged.

Exit codes (consistent across every command, tested by
``tests/test_cli.py``):

* ``0`` — success;
* ``1`` — the operation itself failed (infeasible synthesis, strict
  audit violations, a solver fault): a one-line ``error:`` message on
  stderr, never a raw traceback;
* ``2`` — the *user's input* was invalid (malformed assay/schedule
  file, unknown case name, bad arguments — argparse's own convention):
  the structured parse error on stderr, never a raw traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.assay.scheduler import ListScheduler, SchedulerConfig
from repro.assay.textio import graph_from_text, schedule_from_text
from repro.core.synthesis import ReliabilitySynthesizer, SynthesisConfig
from repro.errors import (
    AssayError,
    GeometryError,
    ReproError,
    SchedulingError,
)
from repro.experiments.profile import MAPPER_CHOICES
from repro.geometry import GridSpec
from repro.viz import actuation_summary, render_gantt, render_heatmap


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import main as table1_main

    table1_main(args.cases or None)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import main as figures_main

    figures_main(args.figures or None)
    return 0


def _cmd_cases(_: argparse.Namespace) -> int:
    from repro.assays import list_cases

    for case in list_cases():
        print(
            f"{case.name:<24} {case.title:<24} "
            f"{case.total_operations:>3} ops "
            f"({case.mix_operations} mixing), grid "
            f"{case.grid.width}x{case.grid.height}"
        )
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    from repro.experiments.acceleration import main as speedup_main

    speedup_main(args.cases or None)
    return 0


def _load_synth_input(args: argparse.Namespace):
    """Resolve ``synth``'s ASSAY argument to ``(graph, schedule, grid)``.

    The argument is either a text-format assay file (see
    :mod:`repro.assay.textio`) or the name of a benchmark case from the
    registry (see ``python -m repro cases``) — files win when both
    exist.  Registry cases default to their own grid; ``--grid`` always
    overrides.
    """
    path = Path(args.assay)
    if path.exists():
        graph = graph_from_text(path.read_text())
        graph.validate()
        grid = GridSpec(args.grid or 10, args.grid or 10)
        if args.schedule:
            schedule = schedule_from_text(
                Path(args.schedule).read_text(), graph
            )
            schedule.validate()
        else:
            schedule = ListScheduler(SchedulerConfig()).schedule(graph)
        return graph, schedule, grid

    from repro.assays import get_case, list_cases, schedule_for

    try:
        case = get_case(args.assay)
    except ReproError:
        names = ", ".join(c.name for c in list_cases())
        # An unknown name is the user's typo, not an operation failure:
        # AssayError so main() maps it to exit code 2.
        raise AssayError(
            f"{args.assay!r} is neither an assay file nor a benchmark "
            f"case (known cases: {names})"
        ) from None
    graph = case.graph()
    policy = case.policies(1)[0]
    schedule = schedule_for(case, policy)
    grid = (
        GridSpec(args.grid, args.grid) if args.grid else case.grid
    )
    return graph, schedule, grid


def _cmd_synth(args: argparse.Namespace) -> int:
    graph, schedule, grid = _load_synth_input(args)

    print(render_gantt(schedule))
    result = ReliabilitySynthesizer(
        SynthesisConfig(
            grid=grid,
            time_budget=args.time_budget,
            supervised=args.supervised,
            checkpoint=args.checkpoint,
        )
    ).synthesize(graph, schedule)
    m = result.metrics
    print(f"\nvs 1max = {m.setting1}   vs 2max = {m.setting2}")
    print(f"#v = {m.used_valves}   role-changing valves = "
          f"{m.role_changing_valves}   mapper = {m.mapper}")
    if result.resilience is not None and result.resilience.degraded:
        print(f"degraded: {result.resilience.summary()}")
    print("\nplacements:")
    for name, device in sorted(result.devices.items()):
        print(f"  {name:>12} -> {device.placement} "
              f"[{device.start},{device.end})")
    print("\n" + render_heatmap(result.grid_setting1))
    print(actuation_summary(result.grid_setting1))
    if args.simulate:
        from repro.core.simulation import simulate

        report = simulate(result)
        print(
            f"\nsimulation: OK — {report.transports_executed} transports, "
            f"{report.products_delivered} product(s) delivered, peak "
            f"occupancy {report.peak_occupied_cells} cells"
        )
    if args.export:
        from repro.core.export import design_json

        Path(args.export).write_text(design_json(result))
        print(f"design written to {args.export}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.profile import main as profile_main

    profile_main(
        args.case,
        policy_index=args.policy,
        mapper=args.mapper,
        json_path=args.json,
        probe=not args.no_probe,
        time_budget=args.time_budget,
        certify=args.certify,
        race=args.race,
        supervised=args.supervised,
        checkpoint=args.checkpoint,
    )
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    from repro.experiments.lifetime import main as lifetime_main

    return lifetime_main(
        args.case,
        policy_index=args.policy,
        mapper=args.mapper,
        grid=args.grid,
        wear_budget=args.wear_budget,
        valve_fail_prob=args.fail_prob,
        edge_fail_prob=args.edge_fail_prob,
        wear_acceleration=args.wear_acceleration,
        seed=args.seed,
        max_runs=args.max_runs,
        mode=args.mode,
        remap_budget=args.remap_budget,
        max_attempts=args.max_attempts,
        preventive_horizon=args.preventive_horizon,
        warm_start=not args.no_warm_start,
        faults=args.faults,
        faults_seed=args.faults_seed,
        json_path=args.json,
        show_events=args.events,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.engine import ServeConfig, ServeEngine, ServeServer

    config = ServeConfig(
        grid=GridSpec(args.grid, args.grid),
        queue_capacity=args.queue_capacity,
        workers=args.workers,
        time_budget=args.time_budget,
        cache_dir=args.cache_dir,
        supervised=args.supervised,
    )

    async def run() -> None:
        server = ServeServer(ServeEngine(config), args.host, args.port)
        await server.start()
        print(
            f"serving on {args.host}:{server.port} "
            f"(grid {args.grid}x{args.grid}, {args.workers} worker(s), "
            f"queue {args.queue_capacity})"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("serve: shut down")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.certify.runner import run_audit

    return run_audit(
        args.case,
        policy_index=args.policy,
        certify=args.certify,
        json_path=args.json,
        time_budget=args.time_budget,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reliability-aware synthesis for flow-based "
        "microfluidic biochips (DAC 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="regenerate Table 1")
    p_table.add_argument("cases", nargs="*", help="benchmark case names")
    p_table.set_defaults(func=_cmd_table1)

    p_fig = sub.add_parser("figures", help="regenerate the figures")
    p_fig.add_argument(
        "figures", nargs="*",
        help="fig2 fig3 fig5 fig7 fig9 fig10 (default: all)",
    )
    p_fig.set_defaults(func=_cmd_figures)

    p_cases = sub.add_parser("cases", help="list benchmark assays")
    p_cases.set_defaults(func=_cmd_cases)

    p_speed = sub.add_parser(
        "speedup", help="future-work study: dynamic-architecture speedup"
    )
    p_speed.add_argument("cases", nargs="*", help="benchmark case names")
    p_speed.set_defaults(func=_cmd_speedup)

    p_synth = sub.add_parser(
        "synth",
        help="synthesize a text-format assay or a benchmark case",
    )
    p_synth.add_argument(
        "assay",
        help="assay description file, or a benchmark case name "
        "(see 'cases')",
    )
    p_synth.add_argument(
        "--schedule", help="schedule file (default: list-schedule it)"
    )
    p_synth.add_argument(
        "--grid", type=int, default=None, metavar="N",
        help="grid side length (default 10 for assay files, the case "
        "grid for benchmark cases)",
    )
    p_synth.add_argument(
        "--simulate", action="store_true",
        help="replay the result on the chip simulator",
    )
    p_synth.add_argument(
        "--export", metavar="FILE",
        help="write the manufactured design as JSON",
    )
    p_synth.add_argument(
        "--time-budget", type=float, default=None, metavar="S",
        help="wall-clock budget in seconds for the whole synthesis "
        "(degrades instead of overrunning)",
    )
    p_synth.add_argument(
        "--supervised", action="store_true",
        help="run exact solves in supervised subprocesses with a "
        "heartbeat watchdog and retry-with-backoff (DESIGN.md §14)",
    )
    p_synth.add_argument(
        "--checkpoint", metavar="DIR",
        help="append certified window solutions to DIR/journal.jsonl "
        "and resume from it after a crash (DESIGN.md §14)",
    )
    p_synth.set_defaults(func=_cmd_synth)

    p_prof = sub.add_parser(
        "profile", help="run one case with solver telemetry enabled"
    )
    p_prof.add_argument("case", help="benchmark case name (see 'cases')")
    p_prof.add_argument(
        "--policy", type=int, default=1, help="policy index (default 1)"
    )
    p_prof.add_argument(
        "--mapper", default="auto",
        choices=MAPPER_CHOICES,
        help="mapping engine (default: automatic selection; 'anytime' "
        "races LNS against the exact ILP, see DESIGN.md §13)",
    )
    p_prof.add_argument(
        "--race", action="store_true",
        help="force the anytime mapper and append a race-anatomy "
        "section (first feasible, certified incumbents, gap timeline, "
        "winning lane); uses --time-budget, default 1 s",
    )
    p_prof.add_argument(
        "--json", metavar="FILE", help="also write the report as JSON"
    )
    p_prof.add_argument(
        "--no-probe", action="store_true",
        help="skip the branch-&-bound/simplex solver probe",
    )
    p_prof.add_argument(
        "--time-budget", type=float, default=None, metavar="S",
        help="wall-clock budget in seconds for the whole synthesis "
        "(degrades instead of overrunning)",
    )
    p_prof.add_argument(
        "--certify", default="off", choices=["off", "audit", "strict"],
        help="run the certification layer during the profiled synthesis "
        "(default off; see DESIGN.md §10)",
    )
    p_prof.add_argument(
        "--supervised", action="store_true",
        help="run exact solves in supervised subprocesses and report "
        "the supervisor.* counters (DESIGN.md §14)",
    )
    p_prof.add_argument(
        "--checkpoint", metavar="DIR",
        help="journal certified window solutions to DIR and report "
        "the checkpoint.* counters (DESIGN.md §14)",
    )
    p_prof.set_defaults(func=_cmd_profile)

    p_audit = sub.add_parser(
        "audit", help="synthesize one case and audit the result"
    )
    p_audit.add_argument("case", help="benchmark case name (see 'cases')")
    p_audit.add_argument(
        "--policy", type=int, default=1, help="policy index (default 1)"
    )
    p_audit.add_argument(
        "--certify", default="strict", choices=["audit", "strict"],
        help="strict (default) exits nonzero on violations; audit only "
        "reports them",
    )
    p_audit.add_argument(
        "--json", metavar="FILE", help="also write the audit report as JSON"
    )
    p_audit.add_argument(
        "--time-budget", type=float, default=None, metavar="S",
        help="wall-clock budget in seconds for the whole synthesis "
        "(degrades instead of overrunning)",
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_life = sub.add_parser(
        "lifetime",
        help="fault-adaptive lifetime: repetitions-to-failure with "
        "remapping around dead hardware (DESIGN.md §12)",
    )
    p_life.add_argument("case", help="benchmark case name (see 'cases')")
    p_life.add_argument(
        "--policy", type=int, default=1, help="policy index (default 1)"
    )
    p_life.add_argument(
        "--mapper", default="auto",
        choices=MAPPER_CHOICES,
        help="mapping engine used for every (re)synthesis",
    )
    p_life.add_argument(
        "--grid", type=int, default=None, metavar="N",
        help="grid side length (default: the case grid + 2 per side — "
        "remapping needs spare area)",
    )
    p_life.add_argument(
        "--wear-budget", type=int, default=None, metavar="N",
        help="reliable actuations per valve/edge (default 4000)",
    )
    p_life.add_argument(
        "--fail-prob", type=float, default=0.0, metavar="P",
        help="per-run random death probability of each used valve cell",
    )
    p_life.add_argument(
        "--edge-fail-prob", type=float, default=0.0, metavar="P",
        help="per-run random death probability of each used channel edge",
    )
    p_life.add_argument(
        "--wear-acceleration", type=float, default=0.0, metavar="A",
        help="extra death hazard per unit wear fraction (worn valves "
        "fail more often)",
    )
    p_life.add_argument(
        "--seed", type=int, default=0, help="failure-model RNG seed"
    )
    p_life.add_argument(
        "--max-runs", type=int, default=200,
        help="stop after this many successful repetitions (default 200)",
    )
    p_life.add_argument(
        "--mode", default="compare",
        choices=["compare", "adaptive", "static"],
        help="compare (default) runs both the adaptive and the static "
        "engine on identical seeded failures",
    )
    p_life.add_argument(
        "--remap-budget", type=float, default=None, metavar="S",
        help="wall-clock budget per remap attempt in seconds (attempts "
        "back off geometrically; default unbounded)",
    )
    p_life.add_argument(
        "--max-attempts", type=int, default=3,
        help="remap attempts per failure before the chip is scrap",
    )
    p_life.add_argument(
        "--preventive-horizon", type=int, default=1, metavar="N",
        help="remap preventively when the design has <= N runs left "
        "(wear leveling; negative disables)",
    )
    p_life.add_argument(
        "--no-warm-start", action="store_true",
        help="disable the incremental warm-start remap attempt",
    )
    p_life.add_argument(
        "--faults", action="append", metavar="SITE[:SPEC][@AFTER]",
        help="arm a chaos site for the run, e.g. chip.valve_dead:2@3 "
        "(fire twice, skipping 3 checks) or chip.edge_dead:p0.05 "
        "(5%% per check); repeatable",
    )
    p_life.add_argument(
        "--faults-seed", type=int, default=0,
        help="seed for probabilistic chaos plans",
    )
    p_life.add_argument(
        "--events", action="store_true",
        help="print the per-failure event log",
    )
    p_life.add_argument(
        "--json", metavar="FILE", help="also write the report as JSON"
    )
    p_life.set_defaults(func=_cmd_lifetime)

    p_serve = sub.add_parser(
        "serve",
        help="run the resilient synthesis service (DESIGN.md §15)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7415,
        help="TCP port (0 picks a free one; default 7415)",
    )
    p_serve.add_argument(
        "--grid", type=int, default=10, metavar="N",
        help="grid side length every assay is synthesized onto",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="concurrent solver threads"
    )
    p_serve.add_argument(
        "--queue-capacity", type=int, default=16,
        help="bounded job queue; submissions past capacity are rejected",
    )
    p_serve.add_argument(
        "--time-budget", type=float, default=5.0, metavar="S",
        help="default per-job synthesis budget in seconds",
    )
    p_serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="CRC-guarded on-disk result cache (default: memory only)",
    )
    p_serve.add_argument(
        "--supervised", action="store_true",
        help="run exact solves in supervised subprocesses (DESIGN.md §14)",
    )
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AssayError, SchedulingError, GeometryError) as exc:
        # The user's input was invalid — same exit code argparse uses
        # for bad arguments, and never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        # The operation failed (infeasible, solver fault, bad journal).
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
