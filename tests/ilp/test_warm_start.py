"""Warm-started branch & bound is equivalent to the cold-start path.

The compiled-model warm-start architecture (parent basis + dual
simplex, see ``repro.ilp.compiled``) is a pure performance feature: on
every instance it must report the same status and, when an optimum
exists, the same objective (within ``absolute_gap``) as the cold-start
path behind ``warm_start=False``.  These tests pin that contract on
seeded random MILPs and on hand-built degenerate/infeasible/unbounded
instances, and exercise the dual-simplex path and the Bland
anti-cycling safeguard directly.
"""

import math
import random
import time

import numpy as np
import pytest

from repro.ilp import CompiledModel, Model, SolveStatus, quicksum


def _random_milp(rng: random.Random) -> Model:
    """A small bounded MILP with x = 0 feasible (statuses predictable)."""
    n = rng.randint(2, 6)
    m = rng.randint(1, 5)
    model = Model("random-warm")
    variables = []
    for i in range(n):
        kind = rng.choice(["binary", "integer", "continuous"])
        if kind == "binary":
            variables.append(model.add_binary(f"x{i}"))
        elif kind == "integer":
            variables.append(model.add_integer(f"x{i}", ub=5))
        else:
            variables.append(model.add_continuous(f"x{i}", ub=5))
    for _ in range(m):
        coefs = [rng.randint(-3, 3) for _ in range(n)]
        if not any(coefs):
            continue
        rhs = rng.randint(0, 12)
        model.add_constr(
            quicksum(c * x for c, x in zip(coefs, variables)) <= rhs
        )
    obj = [rng.randint(-5, 5) for _ in range(n)]
    model.maximize(quicksum(c * x for c, x in zip(obj, variables)))
    return model


def _solve_both(model: Model, **kwargs):
    # Presolve and the rounding dive are disabled here on purpose: these
    # tests isolate the warm-start machinery, and both stages would
    # otherwise close many roots (or pre-seed an incumbent) before a
    # single branching (dual-simplex) step.
    warm = model.solve(
        backend="branch_bound", warm_start=True,
        presolve=False, dive=False, **kwargs
    )
    cold = model.solve(
        backend="branch_bound", warm_start=False,
        presolve=False, dive=False, **kwargs
    )
    return warm, cold


class TestRandomizedEquivalence:
    def test_seeded_random_milps_agree(self):
        rng = random.Random(20150607)  # DAC'15 vintage
        exercised_dual = 0
        for _ in range(60):
            model = _random_milp(rng)
            warm, cold = _solve_both(model)
            assert warm.status is cold.status
            assert warm.status is SolveStatus.OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
            assert model.check_solution(warm.values) == []
            assert model.check_solution(cold.values) == []
            # The cold path must never report warm activity.
            assert cold.stats["warm_starts"] == 0
            assert cold.stats["dual_pivots"] == 0
            assert cold.stats["basis_reuse_hits"] == 0
            exercised_dual += int(warm.stats["dual_pivots"] > 0)
        # The sample must actually exercise the dual-simplex warm path,
        # not just instances whose root relaxation is already integral.
        # (Dantzig pricing lands on different optimal vertices than pure
        # Bland did, so slightly fewer roots come out fractional.)
        assert exercised_dual >= 8

    def test_warm_start_reuses_bases_on_branching_instance(self):
        model = Model("knapsack")
        xs = [model.add_binary(f"x{i}") for i in range(8)]
        weights = [5, 7, 11, 3, 13, 8, 9, 4]
        values = [9, 12, 16, 5, 21, 13, 15, 7]
        model.add_constr(
            quicksum(w * x for w, x in zip(weights, xs)) <= 23
        )
        model.maximize(quicksum(v * x for v, x in zip(values, xs)))
        warm, cold = _solve_both(model)
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.stats["basis_reuse_hits"] > 0
        assert warm.stats["warm_starts"] > 0
        # Warm starting is the point: strictly fewer pivots overall.
        assert warm.stats["simplex_iterations"] < cold.stats["simplex_iterations"]


class TestWarmStartGates:
    """Warm starts have no gate: no row count and no clock turns them off."""

    def test_governor_probe_preserves_answers(self):
        # A dense random model with a deep tree, the kind whose warm
        # solves cost more wall than cold ones: warm starts stay on and
        # must still match the cold path's status and objective.
        rng = random.Random(5)
        model = Model("dense")
        xs = [model.add_binary(f"x{i}") for i in range(30)]
        for _ in range(64):
            coefs = [rng.randint(1, 9) for _ in range(30)]
            model.add_constr(
                quicksum(c * x for c, x in zip(coefs, xs))
                <= rng.randint(90, 150)
            )
        model.maximize(
            quicksum(rng.randint(1, 20) * x for x in xs)
        )
        warm, cold = _solve_both(model)
        assert warm.status is cold.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.stats["warm_starts"] > 0
        assert model.check_solution(warm.values) == []

    def test_tree_does_not_depend_on_the_clock(self, monkeypatch):
        # A mapping window whose tree is deep enough that a wall-clock
        # policy would have measured it: slowing every warm solve by
        # 20 ms must change neither the tree nor the answer.
        from repro.ilp.branch_bound import solve_branch_bound
        from tests.conftest import case_model

        model = case_model("fuzz:1:6", stride=3, lo=2, hi=4)

        def fingerprint(solution):
            return (
                solution.status,
                solution.objective,
                solution.nodes_explored,
                solution.stats["simplex_iterations"],
                solution.stats["dual_pivots"],
                sorted((v.name, x) for v, x in solution.values.items()),
            )

        first = fingerprint(solve_branch_bound(model))
        second = fingerprint(solve_branch_bound(model))
        original = CompiledModel.solve

        def slow_warm_solve(self, bounds, basis=None, **kwargs):
            if basis is not None:
                time.sleep(0.02)
            return original(self, bounds, basis=basis, **kwargs)

        monkeypatch.setattr(CompiledModel, "solve", slow_warm_solve)
        slowed = fingerprint(solve_branch_bound(model))
        assert first[0] is SolveStatus.OPTIMAL
        assert first[2] > 32  # deep enough for a timing policy to act
        assert first == second == slowed


class TestStatuses:
    def test_infeasible_both_ways(self):
        model = Model("infeasible")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constr(x + y <= 1)
        model.add_constr(x + y >= 2)
        model.minimize(x)
        warm, cold = _solve_both(model)
        assert warm.status is SolveStatus.INFEASIBLE
        assert cold.status is SolveStatus.INFEASIBLE

    def test_unbounded_both_ways(self):
        model = Model("unbounded")
        x = model.add_continuous("x", lb=0.0, ub=math.inf)
        model.add_constr(x >= 1)
        model.maximize(x)
        warm, cold = _solve_both(model)
        assert warm.status is SolveStatus.UNBOUNDED
        assert cold.status is SolveStatus.UNBOUNDED


class TestCompiledModelDirect:
    """The compiled engine itself: warm re-solve after a bound move."""

    def _knapsack_arrays(self):
        c = np.array([-9.0, -12.0, -16.0, -5.0])  # maximize → minimize -v
        a_ub = np.array([[5.0, 7.0, 11.0, 3.0]])
        b_ub = np.array([13.0])
        a_eq = np.zeros((0, 4))
        b_eq = np.zeros(0)
        return CompiledModel(c, a_ub, b_ub, a_eq, b_eq)

    def test_warm_resolve_matches_cold_after_tightening(self):
        compiled = self._knapsack_arrays()
        bounds = [(0.0, 1.0)] * 4
        root = compiled.solve(bounds)
        assert root.status is SolveStatus.OPTIMAL
        assert root.basis is not None
        # Tighten the most fractional variable to 0, as branching would.
        frac = max(range(4), key=lambda j: abs(root.x[j] - round(root.x[j])))
        child_bounds = list(bounds)
        child_bounds[frac] = (0.0, 0.0)
        warm = compiled.solve(child_bounds, basis=root.basis)
        cold = compiled.solve(child_bounds)
        assert warm.status is cold.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.warm_started
        assert not warm.cold_fallback
        assert warm.iterations <= cold.iterations

    def test_degenerate_lp_bland_anti_cycling(self):
        # Beale's classic cycling example: the textbook pivot rule loops
        # forever on it; Bland's rule (used by the primal phase) must
        # terminate at the optimum -1/20.
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        a_ub = np.array(
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        b_ub = np.array([0.0, 0.0, 1.0])
        compiled = CompiledModel(c, a_ub, b_ub, np.zeros((0, 4)), np.zeros(0))
        result = compiled.solve(
            [(0.0, math.inf)] * 4, max_iterations=10_000
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-0.05, abs=1e-9)

    def test_singular_basis_falls_back_cold(self):
        # A stale basis snapshot can be structurally singular by the
        # time a node reuses it (e.g. a corrupted cache).  The warm path must detect the
        # singular factorization and recover through the cold start —
        # same OPTIMAL answer, with the wasted reuse attempt recorded —
        # never crash or pivot on garbage factors.
        c = np.array([-9.0, -12.0, -16.0, -5.0])
        a_ub = np.array([[5.0, 7.0, 11.0, 3.0], [1.0, 1.0, 1.0, 1.0]])
        b_ub = np.array([13.0, 2.0])
        compiled = CompiledModel(c, a_ub, b_ub, np.zeros((0, 4)), np.zeros(0))
        bounds = [(0.0, 1.0)] * 4
        reference = compiled.solve(bounds)
        assert reference.status is SolveStatus.OPTIMAL
        m = compiled.m
        assert m > 1
        # Repeat the same slack column in every basis slot: rank 1,
        # certainly singular for m > 1.
        from repro.ilp.compiled import AT_LOWER, BASIC, Basis

        singular_basic = np.full(m, compiled.n, dtype=np.int64)
        status = np.full(compiled.total_ext, AT_LOWER, dtype=np.int8)
        status[compiled.n] = BASIC
        bad = Basis(singular_basic, status)
        res = compiled.solve(bounds, basis=bad)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(reference.objective, abs=1e-9)
        assert res.cold_fallback
        assert not res.warm_started

    def test_singular_basis_recovery_inside_branch_bound(self):
        # End to end: corrupt every stored basis the search hands back
        # to the engine and the MILP answer must still match the clean
        # run, with the fallbacks showing up in the stats.
        model = Model("knapsack")
        xs = [model.add_binary(f"x{i}") for i in range(8)]
        weights = [5, 7, 11, 3, 13, 8, 9, 4]
        values = [9, 12, 16, 5, 21, 13, 15, 7]
        model.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= 23)
        # A second row so the basis has rank to lose (m >= 2 below).
        model.add_constr(quicksum(xs) <= 5)
        model.maximize(quicksum(v * x for v, x in zip(values, xs)))
        clean = model.solve(
            backend="branch_bound", warm_start=True,
            presolve=False, dive=False,
        )

        from repro.ilp import compiled as compiled_mod

        original = compiled_mod.CompiledModel.solve

        def corrupting_solve(self, bounds, basis=None, **kwargs):
            if basis is not None:
                basis = basis.copy()
                basis.basic[:] = basis.basic[0]  # rank-1: singular
            return original(self, bounds, basis=basis, **kwargs)

        compiled_mod.CompiledModel.solve = corrupting_solve
        try:
            corrupted = model.solve(
                backend="branch_bound", warm_start=True,
                presolve=False, dive=False,
            )
        finally:
            compiled_mod.CompiledModel.solve = original
        assert corrupted.status is SolveStatus.OPTIMAL
        assert corrupted.objective == pytest.approx(clean.objective)
        assert corrupted.stats["warm_fallbacks"] > 0
        assert model.check_solution(corrupted.values) == []

    def test_degenerate_dual_resolve(self):
        # A primal-degenerate optimum (several constraints tight with
        # zero slack): the warm re-solve after tightening runs the dual
        # simplex across degenerate breakpoints and must still match
        # the cold answer.
        c = np.array([-1.0, -1.0])
        a_ub = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b_ub = np.array([1.0, 1.0, 2.0])  # all three tight at (1, 1)
        compiled = CompiledModel(c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0))
        bounds = [(0.0, 2.0), (0.0, 2.0)]
        root = compiled.solve(bounds)
        assert root.status is SolveStatus.OPTIMAL
        child = [(0.0, 0.5), (0.0, 2.0)]
        warm = compiled.solve(child, basis=root.basis)
        cold = compiled.solve(child)
        assert warm.status is cold.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.objective == pytest.approx(-1.5, abs=1e-9)
