"""Unit tests for the from-scratch branch & bound MILP solver."""

import itertools

import pytest

from repro.ilp import CompiledModel, Model, SolveStatus, quicksum
from repro.ilp.branch_bound import solve_branch_bound
from repro.ilp.incumbent import IncumbentPool
from tests.conftest import case_model


def knapsack_model():
    m = Model("knapsack")
    values = [10, 13, 7, 8, 6]
    weights = [5, 6, 3, 4, 2]
    xs = [m.add_binary(f"x{i}") for i in range(5)]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= 10)
    m.maximize(quicksum(v * x for v, x in zip(values, xs)))
    return m, xs


class TestBranchBound:
    def test_knapsack_optimum(self):
        m, xs = knapsack_model()
        sol = solve_branch_bound(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(23.0)  # items 0, 2 and 4
        for x in xs:
            assert sol.value(x) in (0.0, 1.0)

    def test_integer_variable_branching(self):
        m = Model()
        x = m.add_integer("x", ub=10)
        y = m.add_integer("y", ub=10)
        m.add_constr(2 * x + 3 * y <= 12)
        m.maximize(3 * x + 4 * y)
        sol = solve_branch_bound(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(18.0)  # x=6, y=0
        assert sol.value(x) == pytest.approx(6.0)

    def test_lp_relaxation_gap_is_closed(self):
        # Relaxation gives x = 1.5; the MILP must settle on an integer.
        m = Model()
        x = m.add_integer("x", ub=10)
        m.add_constr(2 * x <= 3)
        m.maximize(x)
        sol = solve_branch_bound(m)
        assert sol.objective == pytest.approx(1.0)

    def test_infeasible_model(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constr(x >= 2)
        assert solve_branch_bound(m).status is SolveStatus.INFEASIBLE

    def test_unbounded_model(self):
        m = Model()
        x = m.add_integer("x")  # no upper bound
        m.maximize(x)
        assert solve_branch_bound(m).status is SolveStatus.UNBOUNDED

    def test_node_limit_degrades_gracefully(self):
        m, _ = knapsack_model()
        sol = solve_branch_bound(m, max_nodes=1)
        assert sol.status in (SolveStatus.FEASIBLE, SolveStatus.NO_SOLUTION)

    def test_equality_constrained_milp(self):
        m = Model()
        x = m.add_integer("x", ub=5)
        y = m.add_integer("y", ub=5)
        m.add_constr(x + y == 4)
        m.minimize(3 * x + y)
        sol = solve_branch_bound(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value(x) == 0.0 and sol.value(y) == 4.0

    def test_values_exactly_integral(self):
        m, xs = knapsack_model()
        sol = solve_branch_bound(m)
        for x in xs:
            assert sol.value(x) == int(sol.value(x))


class TestIterationAccounting:
    """``stats["simplex_iterations"]``, ``dual_pivots``, ``warm_starts``
    and ``warm_fallbacks`` are sums over every LP solved, the root
    relaxation and the rounding dive included (a 2-task mapping
    window's root takes dozens of pivots)."""

    @staticmethod
    def _spy(monkeypatch, stop_first_after=None, pool=None):
        results = []
        original = CompiledModel.solve

        def spy(self, bounds, basis=None, **kwargs):
            if stop_first_after is not None and not results:
                # Close the race's pool part-way through the root LP.
                outer, polls = kwargs["stop"], itertools.count()

                def stop():
                    if next(polls) >= stop_first_after:
                        pool.close()
                    return outer()

                kwargs["stop"] = stop
            res = original(self, bounds, basis=basis, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(CompiledModel, "solve", spy)
        return results

    def test_finished_search_counts_every_solve(self, monkeypatch):
        results = self._spy(monkeypatch)
        sol = solve_branch_bound(case_model("fuzz:1:6", stride=3, hi=2))
        assert sol.status is SolveStatus.OPTIMAL
        assert results[0].iterations > 0  # the root relaxation
        assert sol.stats["dive_solves"] > 0
        assert sol.stats["simplex_iterations"] == sum(
            r.iterations for r in results
        )
        assert sol.stats["dual_pivots"] == sum(r.dual_pivots for r in results)
        assert sol.stats["warm_starts"] == sum(
            r.warm_started for r in results
        )
        assert sol.stats["warm_fallbacks"] == sum(
            r.cold_fallback for r in results
        )
        # The dive's warm solves are among them.
        dive = results[1:1 + int(sol.stats["dive_solves"])]
        assert any(r.warm_started for r in dive)

    def test_search_stopped_in_its_root_lp(self, monkeypatch):
        pool = IncumbentPool()
        results = self._spy(monkeypatch, stop_first_after=10, pool=pool)
        sol = solve_branch_bound(
            case_model("fuzz:1:6", stride=3, hi=2), incumbent=pool
        )
        assert sol.status is SolveStatus.NO_SOLUTION
        assert len(results) == 1
        assert results[0].status is SolveStatus.NO_SOLUTION
        assert sol.stats["simplex_iterations"] == results[0].iterations > 0
