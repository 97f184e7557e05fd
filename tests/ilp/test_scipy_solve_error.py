"""Regression: HiGHS "Solve error" (status 4) falls back to branch & bound.

scipy 1.17's HiGHS returns status 4 on this specific tiny MILP (found
by the hypothesis backend-agreement property and minimized by hand);
the model is perfectly well-posed, so the backend must not report
NO_SOLUTION.  The fallback re-solves with the from-scratch branch &
bound and marks the solution with ``scipy_solve_error``.
"""

from repro.ilp import Model, SolveStatus
from repro.obs import TELEMETRY


def _model() -> Model:
    model = Model("highs_status4")
    x0 = model.add_binary("x0")
    x2 = model.add_continuous("x2", ub=5)
    model.add_constr(2 * x0 + 2 * x2 <= 5)
    model.add_constr(-2 * x0 + 3 * x2 <= 5)
    model.maximize(3 * x2)
    return model


def test_scipy_solve_error_falls_back_to_branch_bound():
    solution = _model().solve(backend="scipy")
    assert solution.status is SolveStatus.OPTIMAL
    assert _model().check_solution(solution.values) == []
    reference = _model().solve(backend="branch_bound")
    assert abs(solution.objective - reference.objective) < 1e-6
    # When HiGHS solves this model cleanly (a future scipy fix), the
    # fallback simply stops firing — only pin the stats when it did.
    if solution.stats.get("scipy_solve_error"):
        assert solution.backend == "branch_bound"


def test_scipy_solve_error_counts_telemetry():
    TELEMETRY.reset()
    TELEMETRY.enable()
    try:
        solution = _model().solve(backend="scipy")
    finally:
        TELEMETRY.disable()
    counters = TELEMETRY.snapshot()["counters"]
    if solution.stats.get("scipy_solve_error"):
        assert counters.get("scipy.solve_errors", 0) >= 1
