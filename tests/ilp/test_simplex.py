"""Unit tests for the from-scratch simplex LP engine (cold solves)."""

import math

import numpy as np
import pytest

from repro.ilp.compiled import CompiledModel
from repro.ilp.solution import SolveStatus

INF = math.inf


def lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), bounds=None):
    c = np.array(c, dtype=float)
    n = len(c)
    a_ub = np.array(a_ub, dtype=float).reshape(-1, n)
    a_eq = np.array(a_eq, dtype=float).reshape(-1, n)
    b_ub = np.array(b_ub, dtype=float)
    b_eq = np.array(b_eq, dtype=float)
    bounds = bounds or [(0.0, INF)] * n
    return CompiledModel(c, a_ub, b_ub, a_eq, b_eq).solve(bounds)


class TestBasicLPs:
    def test_simple_maximization_as_min(self):
        # max x+y s.t. x<=2, y<=3  ->  min -(x+y) = -5
        res = lp([-1, -1], a_ub=[[1, 0], [0, 1]], b_ub=[2, 3])
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-5.0)
        assert res.x == pytest.approx([2.0, 3.0])

    def test_equality_constraint(self):
        res = lp([1, 2], a_eq=[[1, 1]], b_eq=[4])
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(4.0)  # all mass on x

    def test_negative_rhs_row(self):
        # -x <= -2  (i.e. x >= 2), minimize x
        res = lp([1], a_ub=[[-1]], b_ub=[-2])
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([2.0])

    def test_finite_bounds(self):
        res = lp([-1], bounds=[(1.0, 4.0)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == pytest.approx([4.0])

    def test_negative_lower_bound(self):
        res = lp([1], bounds=[(-5.0, 5.0)])
        assert res.x == pytest.approx([-5.0])

    def test_free_variable(self):
        res = lp([1], a_ub=[[-1]], b_ub=[3], bounds=[(-INF, INF)])
        assert res.x == pytest.approx([-3.0])

    def test_upper_bounded_only_variable(self):
        res = lp([-1], bounds=[(-INF, 7.0)])
        assert res.x == pytest.approx([7.0])


class TestStatuses:
    def test_infeasible(self):
        res = lp([1], a_ub=[[1], [-1]], b_ub=[1, -3])  # x<=1 and x>=3
        assert res.status is SolveStatus.INFEASIBLE

    def test_infeasible_bounds(self):
        res = lp([1], bounds=[(3.0, 1.0)])
        assert res.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        res = lp([-1])  # min -x, x >= 0 unbounded
        assert res.status is SolveStatus.UNBOUNDED

    def test_degenerate_redundant_rows(self):
        res = lp(
            [1, 1],
            a_eq=[[1, 1], [2, 2]],
            b_eq=[2, 4],  # consistent duplicates
        )
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0)


class TestAgainstScipy:
    """Cross-check random LPs against HiGHS."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lp_matches_highs(self, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        n, m = 5, 4
        c = rng.integers(-5, 6, n).astype(float)
        a = rng.integers(-3, 4, (m, n)).astype(float)
        b = rng.integers(2, 12, m).astype(float)  # positive: x=0 feasible
        bounds = [(0.0, 10.0)] * n  # bounded: never unbounded
        mine = lp(c, a_ub=a, b_ub=b, bounds=bounds)
        ref = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        assert mine.status is SolveStatus.OPTIMAL
        assert ref.status == 0
        assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
