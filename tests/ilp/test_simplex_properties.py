"""Property-based stress tests for the from-scratch simplex.

Random bounded LPs with mixed inequality/equality rows are solved by
both the from-scratch simplex and HiGHS; statuses and optimal values
must agree, and every reported optimum must actually be feasible.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ilp.compiled import CompiledModel
from repro.ilp.solution import SolveStatus


def solve_cold(c, a_ub, b_ub, a_eq, b_eq, bounds):
    return CompiledModel(c, a_ub, b_ub, a_eq, b_eq).solve(bounds)


@st.composite
def random_lp(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m_ub = draw(st.integers(min_value=0, max_value=4))
    m_eq = draw(st.integers(min_value=0, max_value=2))
    coef = st.integers(min_value=-4, max_value=4)

    c = np.array([draw(coef) for _ in range(n)], dtype=float)
    a_ub = np.array(
        [[draw(coef) for _ in range(n)] for _ in range(m_ub)], dtype=float
    ).reshape(m_ub, n)
    b_ub = np.array(
        [draw(st.integers(min_value=0, max_value=15)) for _ in range(m_ub)],
        dtype=float,
    )
    # Equality rows built to be satisfiable by a known point inside the
    # bounds, so "infeasible" only arises from genuine conflicts.
    x0 = np.array(
        [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)],
        dtype=float,
    )
    a_eq = np.array(
        [[draw(coef) for _ in range(n)] for _ in range(m_eq)], dtype=float
    ).reshape(m_eq, n)
    b_eq = a_eq @ x0 if m_eq else np.zeros(0)
    bounds = [(0.0, 8.0)] * n
    return c, a_ub, b_ub, a_eq, b_eq, bounds


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_lp())
def test_simplex_agrees_with_highs(problem):
    from scipy.optimize import linprog

    c, a_ub, b_ub, a_eq, b_eq, bounds = problem
    mine = solve_cold(c, a_ub, b_ub, a_eq, b_eq, bounds)
    ref = linprog(
        c,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    if ref.status == 0:
        assert mine.status is SolveStatus.OPTIMAL
        assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
        # The reported point must satisfy every constraint.
        x = mine.x
        assert np.all(x >= -1e-7) and np.all(x <= 8 + 1e-7)
        if a_ub.size:
            assert np.all(a_ub @ x <= b_ub + 1e-6)
        if a_eq.size:
            assert np.allclose(a_eq @ x, b_eq, atol=1e-6)
    elif ref.status == 2:
        assert mine.status is SolveStatus.INFEASIBLE
    # (bounded problem: HiGHS never reports unbounded here)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(random_lp())
def test_simplex_deterministic(problem):
    c, a_ub, b_ub, a_eq, b_eq, bounds = problem
    first = solve_cold(c, a_ub, b_ub, a_eq, b_eq, bounds)
    second = solve_cold(c, a_ub, b_ub, a_eq, b_eq, bounds)
    assert first.status is second.status
    if first.status is SolveStatus.OPTIMAL:
        assert first.objective == second.objective
        assert np.array_equal(first.x, second.x)
