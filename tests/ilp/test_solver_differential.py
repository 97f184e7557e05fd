"""Differential check: the from-scratch branch & bound against HiGHS.

On seeded random assays (``fuzz:<seed>:<ops>``) the mapping model of a
2- or 3-task rolling-horizon window (coarse ``anchor_stride=3`` grid) is
solved by both MILP backends.  Whenever both prove optimality they must
report the same optimum, and the window's root LP relaxation — solved
by the sparse-LU engine — must carry an exact-arithmetic certificate
(:func:`repro.certify.lp.certify_lp`) that matches HiGHS' LP optimum.
"""

import pytest

from repro.assays import get_case, schedule_for
from repro.certify.lp import certify_lp
from repro.core.mapping_model import MappingModelBuilder, MappingSpec
from repro.core.tasks import build_tasks
from repro.ilp import CompiledModel, SolveStatus

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
