"""Exact-arithmetic presolve: each reduction, and end-to-end equivalence.

Every reduction in :mod:`repro.ilp.presolve` claims to preserve the
mixed-integer feasible set exactly.  These tests pin each reduction on
a hand-built instance where the intended effect is checkable by eye,
then close the loop: seeded random MILPs must reach the same optimum
with presolve on and off.
"""

import math
import random

import numpy as np
import pytest

from repro.ilp import Model, SolveStatus, quicksum
from repro.ilp.branch_bound import solve_branch_bound
from repro.ilp.presolve import presolve_arrays


def _arrays(a_ub, b_ub, bounds, integrality, a_eq=None, b_eq=None):
    n = len(bounds)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=float)
    a_eq = (
        np.asarray(a_eq, dtype=float).reshape(-1, n)
        if a_eq is not None
        else np.zeros((0, n))
    )
    b_eq = np.asarray(b_eq, dtype=float) if b_eq is not None else np.zeros(0)
    return a_ub, b_ub, a_eq, b_eq, list(bounds), np.asarray(integrality, dtype=bool)


class TestReductions:
    def test_singleton_row_folds_into_bound(self):
        out = presolve_arrays(
            *_arrays([[2.0, 0.0]], [6.0], [(0.0, 10.0), (0.0, 10.0)], [0, 0])
        )
        a_ub, _, _, _, bounds, info = out
        assert a_ub.shape[0] == 0  # the row is gone...
        assert bounds[0] == (0.0, 3.0)  # ...folded into the bound
        assert info.stats["rows_dropped"] == 1

    def test_redundant_row_dropped(self):
        out = presolve_arrays(
            *_arrays([[1.0, 1.0]], [100.0], [(0.0, 1.0), (0.0, 1.0)], [1, 1])
        )
        a_ub, _, _, _, _, info = out
        assert a_ub.shape[0] == 0
        assert info.stats["rows_dropped"] == 1
        assert info.kept_ub == []

    def test_bound_tightening_rounds_integer_bounds(self):
        # 2x + 3y <= 7 with x, y >= 0: y <= 7/3, so integer y <= 2.
        out = presolve_arrays(
            *_arrays(
                [[2.0, 3.0]], [7.0], [(0.0, 10.0), (0.0, 10.0)], [0, 1]
            )
        )
        _, _, _, _, bounds, info = out
        assert bounds[1][1] == 2.0
        assert info.stats["bounds_tightened"] >= 1

    def test_singleton_equality_fixes_variable(self):
        out = presolve_arrays(
            *_arrays(
                [[1.0, 1.0]], [10.0], [(0.0, 10.0), (0.0, 10.0)], [0, 0],
                a_eq=[[3.0, 0.0]], b_eq=[6.0],
            )
        )
        _, _, a_eq, _, bounds, info = out
        assert a_eq.shape[0] == 0
        assert bounds[0] == (2.0, 2.0)
        assert info.stats["vars_fixed"] == 1

    def test_big_m_coefficient_strengthens(self):
        # Indicator row 3y - 100 z <= 2 with y in [0, 4]: when z = 1 the
        # row is slack by construction, and the worst excess over z = 0
        # is 3*4 - 2 = 10, so the -100 shrinks to exactly -10.
        out = presolve_arrays(
            *_arrays(
                [[3.0, -100.0]], [2.0], [(0.0, 4.0), (0.0, 1.0)], [0, 1]
            )
        )
        a_ub, _, _, _, _, info = out
        assert a_ub.shape[0] == 1
        assert a_ub[0, 1] == pytest.approx(-10.0)
        assert info.stats["coeffs_strengthened"] == 1

    def test_crossed_integer_bounds_flag_infeasible(self):
        # 0.6 <= x <= 0.4 is empty for integer x (ceil 1 > floor 0).
        out = presolve_arrays(
            *_arrays([[1.0], [-1.0]], [0.4, -0.6], [(0.0, 1.0)], [1])
        )
        _, _, _, _, bounds, info = out
        assert info.infeasible
        assert bounds[info.infeasible_var][0] > bounds[info.infeasible_var][1]

    def test_expand_row_duals_scatters_zeros(self):
        out = presolve_arrays(
            *_arrays(
                [[2.0, 0.0], [1.0, 1.0]],
                [6.0, 4.0],
                [(0.0, 10.0), (0.0, 10.0)],
                [0, 0],
            )
        )
        _, _, _, _, _, info = out
        # The singleton row folded away; the surviving row's dual must
        # land back on its original index with zeros elsewhere.
        kept = len(info.kept_ub)
        y_ub, y_eq = info.expand_row_duals(np.full(kept, -2.5), np.zeros(0))
        assert y_ub.shape == (2,)
        assert sorted(np.flatnonzero(y_ub)) == info.kept_ub
        assert y_eq.shape == (0,)


class TestEndToEndEquivalence:
    def _random_milp(self, rng: random.Random) -> Model:
        n = rng.randint(2, 6)
        model = Model("presolve-equiv")
        variables = []
        for i in range(n):
            kind = rng.choice(["binary", "integer", "continuous"])
            if kind == "binary":
                variables.append(model.add_binary(f"x{i}"))
            elif kind == "integer":
                variables.append(model.add_integer(f"x{i}", ub=5))
            else:
                variables.append(model.add_continuous(f"x{i}", ub=5))
        for _ in range(rng.randint(1, 5)):
            coefs = [rng.randint(-3, 3) for _ in range(n)]
            if not any(coefs):
                continue
            model.add_constr(
                quicksum(c * x for c, x in zip(coefs, variables))
                <= rng.randint(0, 12)
            )
        model.maximize(
            quicksum(rng.randint(-5, 5) * x for x in variables)
        )
        return model

    def test_seeded_random_milps_agree(self):
        rng = random.Random(1952)  # Dantzig's simplex paper
        reduced_something = 0
        for _ in range(40):
            model = self._random_milp(rng)
            on = solve_branch_bound(model, presolve=True)
            off = solve_branch_bound(model, presolve=False)
            assert on.status is off.status is SolveStatus.OPTIMAL
            assert on.objective == pytest.approx(off.objective, abs=1e-6)
            assert model.check_solution(on.values) == []
            reduced_something += int(
                on.stats["presolve_rows_dropped"]
                + on.stats["presolve_bounds_tightened"]
                > 0
            )
        # The sample must actually exercise the reductions, not vacuously
        # compare two identical no-op solves.
        assert reduced_something >= 10

    def test_presolve_proves_infeasibility(self):
        model = Model("empty-box")
        x = model.add_integer("x", ub=1)
        model.add_constr(2 * x >= 1.2)  # x >= 0.6
        model.add_constr(2 * x <= 0.8)  # x <= 0.4
        model.minimize(x)
        sol = solve_branch_bound(model, presolve=True)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_big_m_disjunction_bound_tightens(self):
        # The paper's non-overlap pattern: presolve must shrink the big
        # M without changing the optimum.
        model = Model("disjunction")
        a = model.add_integer("a", ub=6)
        b = model.add_integer("b", ub=6)
        model.add_big_m_disjunction(
            [a - b >= 2, b - a >= 2], big_m=1000
        )
        model.add_constr(a + b <= 8)
        model.maximize(a + b)
        on = solve_branch_bound(model, presolve=True)
        off = solve_branch_bound(model, presolve=False)
        assert on.objective == pytest.approx(off.objective)
        assert on.stats["presolve_coeffs_strengthened"] >= 1
