"""Wear leveling across repeated assay executions (extension).

The paper synthesizes one assay execution.  A chip that repeats the
same assay with the *same* placements concentrates wear on the same
valves every run; because the architecture is programmable, consecutive
runs can instead use *different* placements — the valve-role-changing
idea lifted to the run level.

:func:`plan_repetitions` synthesizes each run with the accumulated pump
load of all previous runs as the mapping model's base load, so the
optimizer steers new rings toward fresh valves.  The result is a longer
chip life than repeating one layout (quantified by
:func:`leveled_lifetime`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Tuple

from repro.errors import SynthesisError
from repro.geometry import Point
from repro.architecture.device import Placement
from repro.assay.schedule import Schedule
from repro.assay.sequencing_graph import SequencingGraph
from repro.core.lifetime import DEFAULT_WEAR_BUDGET
from repro.core.mappers import GreedyMapper
from repro.core.mapping_model import MappingSpec
from repro.core.storage import StoragePlan
from repro.core.synthesis import SynthesisConfig
from repro.core.tasks import MappingTask, build_tasks


@dataclass
class RepetitionPlan:
    """Placements for every planned run plus the accumulated wear."""

    runs: List[Dict[str, object]]  # one placements dict per run
    load: Dict[Point, int]  # accumulated pump load per valve

    @property
    def run_count(self) -> int:
        return len(self.runs)

    @property
    def max_load(self) -> int:
        return max(self.load.values(), default=0)

    def wear_after(self, runs: int) -> int:
        """Max pump load after the first ``runs`` executions."""
        if not 0 <= runs <= len(self.runs):
            raise SynthesisError(f"plan has {len(self.runs)} runs, not {runs}")
        load: Dict[Point, int] = {}
        for placements in self.runs[:runs]:
            for name, placement in placements.items():
                rate = self._rates[name]
                for cell in placement.pump_cells():
                    load[cell] = load.get(cell, 0) + rate
        return max(load.values(), default=0)

    # filled by plan_repetitions
    _rates: Dict[str, int] = None  # type: ignore[assignment]


def _leveled_runs(
    graph: SequencingGraph,
    schedule: Schedule,
    config: SynthesisConfig,
    tasks: List[MappingTask],
) -> Iterator[Tuple[Dict[str, Placement], Dict[Point, int]]]:
    """Endless wear-leveled runs: each run's placements and the
    accumulated pump load after it.

    Each run maps the same tasks with all previous runs' pump wear as
    base load; the greedy balancer (fast, deterministic) then prefers
    fresh valves, rotating the layout around the grid.
    """
    storage_plan = StoragePlan(graph, schedule)
    mapper = GreedyMapper()
    load: Dict[Point, int] = {}
    while True:
        spec = MappingSpec(
            grid=config.grid,
            tasks=tasks,
            base_load=dict(load),
            anchor_stride=config.anchor_stride,
            distance_limit=config.distance_limit,
            routing_convenient=config.routing_convenient,
            allow_storage_overlap=config.allow_storage_overlap,
        )
        result = mapper.map_tasks(spec)
        violations = storage_plan.overlap_violations(result.placements)
        if violations:
            spec.forbidden_overlaps |= violations
            result = mapper.map_tasks(spec)
        load = dict(load)
        for task in tasks:
            for cell in result.placements[task.name].pump_cells():
                load[cell] = load.get(cell, 0) + task.pump_rate
        yield result.placements, load


def plan_repetitions(
    graph: SequencingGraph,
    schedule: Schedule,
    config: SynthesisConfig,
    runs: int,
) -> RepetitionPlan:
    """Plan ``runs`` executions with run-to-run wear leveling."""
    if runs < 1:
        raise SynthesisError("need at least one run")
    tasks = build_tasks(graph, schedule)
    planned = list(
        islice(_leveled_runs(graph, schedule, config, tasks), runs)
    )
    plan = RepetitionPlan(
        runs=[placements for placements, _ in planned], load=planned[-1][1]
    )
    plan._rates = {t.name: t.pump_rate for t in tasks}
    return plan


def leveled_lifetime(
    graph: SequencingGraph,
    schedule: Schedule,
    config: SynthesisConfig,
    wear_budget: int = DEFAULT_WEAR_BUDGET,
    max_runs: int = 512,
) -> int:
    """Executions before the first valve exceeds the budget, with
    run-to-run leveling.  Compare against
    :func:`repro.core.lifetime.synthesis_lifetime` (fixed layout)."""
    tasks = build_tasks(graph, schedule)
    completed = 0
    runs = _leveled_runs(graph, schedule, config, tasks)
    for _, load in islice(runs, max_runs):
        if max(load.values(), default=0) > wear_budget:
            break
        completed += 1
    return completed
