"""Differential check: the from-scratch branch & bound against HiGHS.

On seeded random assays (``fuzz:<seed>:<ops>``) the mapping model of a
2- or 3-task rolling-horizon window (coarse ``anchor_stride=3`` grid) is
solved by both MILP backends.  Whenever both prove optimality they must
report the same optimum, and the window's root LP relaxation — solved
by the sparse-LU engine — must carry an exact-arithmetic certificate
(:func:`repro.certify.lp.certify_lp`) that matches HiGHS' LP optimum.
A presolve stopped after any number of rows keeps HiGHS' MILP optimum
on the same windows, and on windows whose other tasks are committed
(where presolve has rows to drop, bounds to tighten and big-M
coefficients to shrink): every reduction it applied before the stop is
implied by the original rows.  Whole small fuzzed assays at
``anchor_stride=2`` must close to HiGHS' optimum with a certified
incumbent, and a second solve must explore the identical tree.
"""

import itertools

import numpy as np
import pytest

from repro.assays import get_case, schedule_for
from repro.certify.lp import certify_lp, certify_solution
from repro.core.mappers import GreedyMapper, window_subspec
from repro.core.mapping_model import MappingModelBuilder, MappingSpec
from repro.core.tasks import build_tasks
from repro.ilp import CompiledModel, SolveStatus
from repro.ilp.presolve import presolve_arrays
from tests.conftest import case_model

#: Node cap for the branch & bound side: a window that needs more
#: nodes ends FEASIBLE (or NO_SOLUTION) and is not compared, which
#: keeps the test fast.
_MAX_NODES = 80


def _windows(seed: int):
    """``(label, model)`` for the 2- and 3-task windows of one assay."""
    case = get_case(f"fuzz:{seed}:6")
    schedule = schedule_for(case, case.policies(1)[0])
    tasks = build_tasks(case.graph(), schedule)
    for lo, size in ((0, 2), (len(tasks) - 2, 2), (0, 3)):
        window = tasks[lo : lo + size]
        spec = MappingSpec(grid=case.grid, tasks=window, anchor_stride=3)
        yield f"{case.name}[{lo}:{lo + size}]", MappingModelBuilder(spec).build().model


def _committed_windows(seed: int):
    """``(label, model)`` for 2-task windows with every other task
    committed at its packer placement."""
    case = get_case(f"fuzz:{seed}:6")
    schedule = schedule_for(case, case.policies(1)[0])
    tasks = build_tasks(case.graph(), schedule)
    spec = MappingSpec(grid=case.grid, tasks=tasks, anchor_stride=3)
    ordered = sorted(tasks, key=lambda t: (t.start, t.name))
    placements = dict(GreedyMapper().map_tasks(spec).placements)
    for lo in (0, len(ordered) - 2):
        window = ordered[lo : lo + 2]
        sub = window_subspec(spec, window, ordered, placements)
        yield (
            f"{case.name}[{lo}:{lo + 2}]+committed",
            MappingModelBuilder(sub).build().model,
        )


def _root_lp_certifies(model) -> float:
    from scipy.optimize import linprog

    c, a_ub, b_ub, a_eq, b_eq, bounds, _ = model.to_arrays()
    root = CompiledModel(c, a_ub, b_ub, a_eq, b_eq).solve(bounds, want_duals=True)
    assert root.status is SolveStatus.OPTIMAL
    cert = certify_lp(root, c, a_ub, b_ub, a_eq, b_eq, bounds)
    assert cert.status == "certified", [str(v) for v in cert.violations]
    ref = linprog(
        c,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if a_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if a_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    assert ref.status == 0
    assert root.objective == pytest.approx(ref.fun, abs=1e-6)
    return root.objective


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_branch_bound_matches_highs_on_fuzzed_windows(seed: int) -> None:
    compared = 0
    for label, model in _windows(seed):
        root_bound = _root_lp_certifies(model)
        mine = model.solve(backend="branch_bound", max_nodes=_MAX_NODES)
        highs = model.solve(backend="scipy")
        assert highs.status is SolveStatus.OPTIMAL, label
        # The root relaxation bounds every integral answer from below.
        assert highs.objective >= root_bound - 1e-6, label
        if mine.status is SolveStatus.OPTIMAL:
            assert mine.objective == pytest.approx(highs.objective, abs=1e-6), label
            compared += 1
        elif mine.status is SolveStatus.FEASIBLE:
            assert mine.objective >= highs.objective - 1e-6, label
        else:  # cut short before any incumbent: no claim either way
            assert mine.status is SolveStatus.NO_SOLUTION, label
    # The 2-task windows of these seeds close well inside the node cap.
    assert compared >= 2


@pytest.mark.parametrize(
    "case_name", ["fuzz:3:4", "fuzz:4:4", "fuzz:5:4", "fuzz:7:4", "fuzz:3:5"]
)
def test_whole_fuzzed_assays_close_to_the_highs_optimum(case_name: str) -> None:
    model = case_model(case_name, stride=2)
    mine = model.solve(backend="branch_bound")
    highs = model.solve(backend="scipy")
    assert highs.status is SolveStatus.OPTIMAL
    assert mine.status is SolveStatus.OPTIMAL
    assert mine.objective == pytest.approx(highs.objective, abs=1e-6)
    cert = certify_solution(model, mine)
    assert cert.status == "certified", [str(v) for v in cert.violations]
    again = model.solve(backend="branch_bound")
    assert again.nodes_explored == mine.nodes_explored
    assert again.stats["simplex_iterations"] == mine.stats["simplex_iterations"]
    assert again.values == mine.values


def _highs_milp(c, a_ub, b_ub, a_eq, b_eq, bounds, integrality) -> float:
    from scipy.optimize import Bounds, LinearConstraint, milp

    constraints = []
    if a_ub.shape[0]:
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if a_eq.shape[0]:
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
    lo, hi = zip(*bounds)
    result = milp(
        c,
        constraints=constraints,
        integrality=np.asarray(integrality, dtype=int),
        bounds=Bounds(lo, hi),
    )
    assert result.status == 0
    return result.fun


@pytest.mark.parametrize("seed", [1, 2])
def test_presolve_stopped_after_k_rows_keeps_the_highs_optimum(seed: int) -> None:
    reductions = 0
    for label, model in itertools.chain(_windows(seed), _committed_windows(seed)):
        arrays = model.to_arrays()
        c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = arrays
        reference = _highs_milp(*arrays)
        polls = itertools.count()
        *_, full = presolve_arrays(
            a_ub, b_ub, a_eq, b_eq, bounds, integrality,
            stop=lambda: next(polls) < 0,
        )
        rows = next(polls)  # the rows a full presolve visits
        reductions += full.stats["rows_dropped"] + full.stats["coeffs_strengthened"]
        for k in sorted({0, 1, 2, rows // 4, rows // 2, 3 * rows // 4, rows - 1}):
            polls = itertools.count()
            *reduced, info = presolve_arrays(
                a_ub, b_ub, a_eq, b_eq, bounds, integrality,
                stop=lambda: next(polls) >= k,
            )
            assert info.stats["stopped"] == 1, (label, k)
            new_a_ub, new_b_ub, new_a_eq, new_b_eq, new_bounds = reduced
            optimum = _highs_milp(
                c, new_a_ub, new_b_ub, new_a_eq, new_b_eq, new_bounds,
                integrality,
            )
            assert optimum == pytest.approx(reference, abs=1e-6), (label, k)
    assert reductions > 0  # the stops cut real reductions short
