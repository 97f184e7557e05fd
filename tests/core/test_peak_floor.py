"""Soundness of the peak floor (DESIGN.md §13, "The peak floor").

:meth:`MappingSpec.peak_floor` is ``max(largest rate or base load,
g * ceil(S / (g * |V|)))``: ``S`` is every task's pump rate times its
smallest candidate ring plus the base loads, ``V`` the valves any
candidate ring or base load covers, and ``g`` the gcd of the rates and
base loads.  The anytime race stops at an incumbent that meets it, so
an unsound floor would end a race early with a non-optimal answer.

Pinned here, with the mean recomputed from :meth:`Placement.pump_cells`
rather than from the builder's ring arrays:

* the floor is at most the HiGHS MILP optimum, and the unrounded mean
  ``S / |V|`` at most the LP-relaxation optimum, on fuzzed specs at
  strides 1–3 on 6x6–10x10 grids, on rolling-horizon windows with base
  load, and under a health mask and blocked cells;
* the lattice step ``g`` counts base loads;
* the floors of the Table 1 budget rows as synthesized.
"""

import math
import random
import warnings
from fractions import Fraction

import pytest
from scipy.optimize import linprog

from repro.architecture.health import ChipHealth
from repro.assays import get_case, schedule_for
from repro.core import ReliabilitySynthesizer, SynthesisConfig
from repro.core.mappers import GreedyMapper, window_subspec
from repro.core.mapping_model import MappingModelBuilder, MappingSpec
from repro.core.tasks import build_tasks
from repro.errors import DegradedResultWarning, SynthesisError
from repro.geometry import GridSpec, Point

from tests.conftest import build_tiny_assay, highs_peak, record_race_specs


def fuzz_tasks(seed, ops):
    case = get_case(f"fuzz:{seed}:{ops}")
    return build_tasks(case.graph(), schedule_for(case, case.policies(1)[0]))


def reference_mean(spec):
    """``(S / |V|, g)`` from the placements' own pump cells."""
    rates = [task.pump_rate for task in spec.tasks]
    loads = list(spec.base_load.values())
    valves = set(spec.base_load)
    total = sum(loads)
    for task in spec.tasks:
        rings = [p.pump_cells() for p in spec.candidate_placements(task)]
        total += task.pump_rate * min(len(ring) for ring in rings)
        for ring in rings:
            valves.update(ring)
    return Fraction(total, len(valves)), math.gcd(*rates, *loads)


def lp_relaxation(spec):
    c, A_ub, b_ub, A_eq, b_eq, bounds, _ = (
        MappingModelBuilder(spec).build().model.to_arrays()
    )
    result = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    assert result.status == 0
    return result.fun


def assert_sound(spec):
    mean, step = reference_mean(spec)
    largest = max(
        [t.pump_rate for t in spec.tasks] + list(spec.base_load.values())
    )
    floor = spec.peak_floor()
    assert floor == max(largest, step * math.ceil(mean / step))
    assert floor % step == 0
    assert float(mean) <= lp_relaxation(spec) + 1e-6
    assert floor <= highs_peak(spec)


@pytest.mark.parametrize(
    "seed,ops,size,stride",
    [
        (seed, ops, size, stride)
        for stride, ops_range in ((1, (4, 5, 6)), (2, (5, 6, 7)), (3, (6, 7, 8)))
        for seed, size in ((3, 6), (7, 7), (11, 8), (29, 10))
        for ops in ops_range
    ],
)
def test_floor_bounds_milp_and_mean_bounds_lp(seed, ops, size, stride):
    spec = MappingSpec(
        grid=GridSpec(size, size), tasks=fuzz_tasks(seed, ops),
        anchor_stride=stride,
    )
    assert_sound(spec)


@pytest.mark.parametrize("seed,ops,stride", [(7, 8, 2), (13, 7, 1)])
def test_windows_with_base_load_are_bounded(seed, ops, stride):
    tasks = fuzz_tasks(seed, ops)
    spec = MappingSpec(grid=GridSpec(8, 8), tasks=tasks, anchor_stride=stride)
    ordered = sorted(tasks, key=lambda t: (t.start, t.name))
    placements = dict(GreedyMapper().map_tasks(spec).placements)
    for window in (ordered[:2], ordered[-3:]):
        sub = window_subspec(spec, window, ordered, placements)
        assert sub.base_load
        assert_sound(sub)


def test_health_mask_and_blocked_cells_shrink_the_valves():
    rng = random.Random(3)
    grid = GridSpec(8, 8)
    cells = list(grid.cells())
    spec = MappingSpec(
        grid=grid,
        tasks=fuzz_tasks(3, 6),
        anchor_stride=2,
        blocked_cells=frozenset({Point(0, 0), Point(7, 3)}),
        health=ChipHealth().kill_cells(rng.sample(cells, 4)),
    )
    assert_sound(spec)


def test_base_loads_refine_the_lattice_step():
    # Rates of 40 and a base load of 20 on every valve a candidate pumps
    # on: the mean is 24.4 + 20, every peak is a multiple of 20, not of
    # 40, so the floor is 60 rather than 80.
    tasks = fuzz_tasks(7, 6)
    assert {t.pump_rate for t in tasks} == {40}
    bare = MappingSpec(grid=GridSpec(6, 6), tasks=tasks)
    valves = {
        cell
        for task in tasks
        for p in bare.candidate_placements(task)
        for cell in p.pump_cells()
    }
    spec = MappingSpec(
        grid=GridSpec(6, 6), tasks=tasks,
        base_load={cell: 20 for cell in valves},
    )
    mean, step = reference_mean(spec)
    assert step == 20
    assert 40 < mean <= 60
    assert spec.peak_floor() == 60
    assert_sound(spec)


def test_floor_without_a_mean_is_the_largest_load():
    spec = MappingSpec(
        grid=GridSpec(6, 6), tasks=[], base_load={Point(1, 1): 40}
    )
    assert spec.peak_floor() == 40
    assert MappingSpec(grid=GridSpec(6, 6), tasks=[]).peak_floor() == 0
    # A volume-8 task has no candidate on 2x3: the spec is infeasible,
    # the floor is still defined, and the mapper reports the
    # infeasibility.
    graph, schedule = build_tiny_assay()
    unplaceable = MappingSpec(
        grid=GridSpec(2, 3), tasks=build_tasks(graph, schedule)
    )
    with pytest.raises(SynthesisError):
        unplaceable.candidate_placements(unplaceable.tasks[0])
    assert unplaceable.peak_floor() == 40


#: The floor of the first spec each ``table1_budget`` row's race gets.
BUDGET_FLOORS = [
    ("pcr", 1, 2.0, 40),
    ("mixing_tree", 1, 2.0, 80),
    ("exponential_dilution", 3, 4.0, 80),
]


@pytest.mark.parametrize("case_name,policy,budget,floor", BUDGET_FLOORS)
def test_table1_budget_floors(monkeypatch, case_name, policy, budget, floor):
    specs = record_race_specs(monkeypatch)
    case = get_case(case_name)
    schedule = schedule_for(case, case.policies(policy)[policy - 1])
    config = SynthesisConfig(grid=case.grid, time_budget=budget)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedResultWarning)
        ReliabilitySynthesizer(config).synthesize(case.graph(), schedule)
    assert specs[0].peak_floor() == floor
