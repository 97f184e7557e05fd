"""Lifetime experiments: ``python -m repro lifetime <case>``.

Drives the fault-adaptive lifetime engine (DESIGN.md §12) on one
benchmark assay: the assay repeats on a single chip under a stochastic
+ wear-driven failure model, and the engine re-synthesizes around dead
hardware until no feasible mapping remains.  The headline number is
**assay repetitions to failure**, adaptive vs. static — the service
life bought by the ability to remap.

The engine needs spare chip area to map around failures, so by default
the Table-1 grid is over-provisioned by :data:`GRID_MARGIN` cells per
side (``--grid`` overrides).  ``--faults`` arms the chaos sites
(``chip.valve_dead``, ``chip.edge_dead``, and any other documented
site) for the duration of the run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.geometry import GridSpec
from repro.resilience.faults import FAULTS, FaultSpec

#: Cells added to each side of the Table-1 grid by default: remapping
#: around dead hardware needs spare area the wear-optimal grids of
#: Table 1 do not have.
GRID_MARGIN = 2


def parse_fault(text: str) -> Tuple[str, FaultSpec]:
    """``site[:SPEC][@AFTER]`` -> (site, FaultSpec).

    ``SPEC`` is a fire count (``chip.valve_dead:2``) or a probability
    (``chip.valve_dead:p0.05`` — every eligible call fires with that
    chance); ``@AFTER`` skips the first calls
    (``chip.valve_dead:1@3`` fires on the 4th check).
    """
    site, _, rest = text.partition(":")
    if not site:
        raise ReproError(f"bad fault spec {text!r}: empty site")
    times: Optional[int] = 1
    after = 0
    prob: Optional[float] = None
    if rest:
        count, _, after_text = rest.partition("@")
        if after_text:
            after = int(after_text)
        if count.startswith("p"):
            prob = float(count[1:])
            times = None
        elif count:
            times = int(count)
    return site, FaultSpec(times=times, after=after, prob=prob)


def run_lifetime(
    case_name: str,
    policy_index: int = 1,
    mapper: str = "auto",
    grid: Optional[int] = None,
    wear_budget: Optional[int] = None,
    valve_fail_prob: float = 0.0,
    edge_fail_prob: float = 0.0,
    wear_acceleration: float = 0.0,
    seed: int = 0,
    max_runs: int = 200,
    mode: str = "compare",
    remap_budget: Optional[float] = None,
    max_attempts: int = 3,
    preventive_horizon: Optional[int] = 1,
    warm_start: bool = True,
    faults: Optional[List[str]] = None,
    faults_seed: int = 0,
) -> dict:
    """Run the lifetime engine on one case; returns the JSON report."""
    from repro.assays import get_case, schedule_for
    from repro.core.lifetime import DEFAULT_WEAR_BUDGET
    from repro.core.synthesis import SynthesisConfig
    from repro.experiments.profile import _make_mapper
    from repro.resilience.remap import (
        AdaptiveLifetimeEngine,
        FailureModel,
        RemapPolicy,
        compare_lifetimes,
    )

    if mode not in ("compare", "adaptive", "static"):
        raise ReproError(f"unknown mode {mode!r}")
    case = get_case(case_name)
    graph = case.graph()
    policy = case.policies(policy_index)[policy_index - 1]
    schedule = schedule_for(case, policy)
    side = grid if grid is not None else max(
        case.grid.width, case.grid.height
    ) + GRID_MARGIN
    config = SynthesisConfig(
        grid=GridSpec(side, side), mapper=_make_mapper(mapper)
    )
    model = FailureModel(
        wear_budget=wear_budget if wear_budget is not None
        else DEFAULT_WEAR_BUDGET,
        valve_fail_prob=valve_fail_prob,
        edge_fail_prob=edge_fail_prob,
        wear_acceleration=wear_acceleration,
        seed=seed,
    )
    if preventive_horizon is not None and preventive_horizon < 0:
        preventive_horizon = None  # CLI convention: negative disables
    remap_policy = RemapPolicy(
        max_attempts=max_attempts,
        remap_budget=remap_budget,
        warm_start=warm_start,
        preventive_horizon=preventive_horizon,
    )

    plan: Dict[str, FaultSpec] = dict(
        parse_fault(text) for text in (faults or [])
    )

    def execute() -> dict:
        if mode == "compare":
            comparison = compare_lifetimes(
                graph, schedule, config,
                model=model, policy=remap_policy, max_runs=max_runs,
            )
            return comparison.as_dict()
        engine = AdaptiveLifetimeEngine(
            graph, schedule, config, model=model, policy=remap_policy
        )
        report = engine.run(max_runs=max_runs, adaptive=mode == "adaptive")
        return {mode: report.as_dict()}

    if plan:
        with FAULTS.inject(plan, seed=faults_seed):
            payload = execute()
            payload["faults_fired"] = FAULTS.fired()
    else:
        payload = execute()
    payload["case"] = case.name
    payload["policy"] = policy_index
    payload["grid"] = side
    payload["seed"] = seed
    payload["max_runs"] = max_runs
    return payload


def _print_report(tag: str, data: dict) -> None:
    print(
        f"{tag:<9} {data['runs']:>4} runs   {data['failures']:>3} failures   "
        f"{data['remaps']:>3} remaps   "
        f"{data['terminal_cause'] or 'run limit'}"
    )


def main(
    case_name: str,
    *,
    json_path: Optional[str] = None,
    show_events: bool = False,
    **options,
) -> int:
    """Print one :func:`run_lifetime` report; ``options`` go to it."""
    payload = run_lifetime(case_name, **options)
    budget = None
    for key in ("adaptive", "static"):
        if key in payload:
            budget = payload[key]["wear_budget"]
    print(
        f"lifetime {payload['case']} policy {payload['policy']} on "
        f"{payload['grid']}x{payload['grid']}, wear budget {budget}, "
        f"seed {payload['seed']}"
    )
    for key in ("static", "adaptive"):
        if key in payload:
            _print_report(key, payload[key])
    if "gain" in payload:
        print(f"gain: {payload['gain']:.2f}x repetitions-to-failure")
    if payload.get("faults_fired"):
        print(f"chaos faults fired: {payload['faults_fired']}")
    report = payload.get("adaptive") or payload.get("static")
    dead = report["final_health"]
    print(
        f"final dead hardware: {len(dead['dead_cells'])} valve cells, "
        f"{len(dead['dead_edges'])} channel edges"
    )
    if show_events:
        print("events:")
        for event in report["events"]:
            print(f"  run {event['run']:>4}  {event['kind']:<12} "
                  f"{event['detail']}")
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"report written to {json_path}")
    return 0
