"""Exact-arithmetic LP certificates across every LP engine.

Each solve path (the compiled simplex cold and warm-started, and
scipy/HiGHS linprog as an external reference) solves the same seeded
random LPs; the
:mod:`repro.certify` layer must be able to certify every OPTIMAL answer
through the duality-gap proof, and every INFEASIBLE answer that carries
a Farkas ray.  A non-finite claimed value fails its certificate
instead of raising.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.certify.lp import certify_assignment, certify_lp, certify_solution
from repro.ilp import Model
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.expr import LinExpr
from repro.ilp.compiled import CompiledModel, LpResult
from repro.ilp.solution import Solution, SolveStatus


def _random_lp(rng: np.random.Generator, n: int = 6, m: int = 4):
    """A bounded random LP that is feasible by construction (x=0)."""
    c = rng.uniform(-5.0, 5.0, size=n)
    a_ub = rng.uniform(-2.0, 2.0, size=(m, n))
    b_ub = rng.uniform(0.5, 4.0, size=m)  # x = 0 satisfies every row
    a_eq = np.zeros((0, n))
    b_eq = np.zeros(0)
    bounds = [(-1.0, 3.0)] * n
    return c, a_ub, b_ub, a_eq, b_eq, bounds


def _scipy_solve(c, a_ub, b_ub, a_eq, b_eq, bounds) -> LpResult:
    from scipy.optimize import linprog

    res = linprog(
        c,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if a_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if a_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LpResult(SolveStatus.INFEASIBLE)
    assert res.status == 0, res.message
    duals = []
    ineq = getattr(res, "ineqlin", None)
    if ineq is not None and a_ub.size:
        duals.extend(np.asarray(ineq.marginals).tolist())
    eq = getattr(res, "eqlin", None)
    if eq is not None and a_eq.size:
        duals.extend(np.asarray(eq.marginals).tolist())
    return LpResult(
        SolveStatus.OPTIMAL,
        x=np.asarray(res.x),
        objective=float(res.fun),
        duals=np.asarray(duals),
    )


def _engines():
    def compiled_cold(c, a_ub, b_ub, a_eq, b_eq, bounds):
        return CompiledModel(c, a_ub, b_ub, a_eq, b_eq).solve(
            bounds, want_duals=True
        )

    def compiled_warm(c, a_ub, b_ub, a_eq, b_eq, bounds):
        compiled = CompiledModel(c, a_ub, b_ub, a_eq, b_eq)
        parent = compiled.solve(bounds, want_duals=False)
        # Re-solve under a tightened box from the parent basis: the
        # dual-simplex warm path produces the certified answer.
        tighter = [(lo, hi - 0.25) for lo, hi in bounds]
        return compiled.solve(tighter, basis=parent.basis, want_duals=True)

    return {
        "compiled-cold": compiled_cold,
        "compiled-warm": compiled_warm,
        "scipy-linprog": _scipy_solve,
    }


@pytest.mark.parametrize("engine", sorted(_engines()))
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_lps_certify(engine: str, seed: int) -> None:
    rng = np.random.default_rng(seed)
    c, a_ub, b_ub, a_eq, b_eq, bounds = _random_lp(rng)
    solve = _engines()[engine]
    if engine == "compiled-warm":
        result = solve(c, a_ub, b_ub, a_eq, b_eq, bounds)
        # warm solves certify against the bounds they actually solved
        bounds = [(lo, hi - 0.25) for lo, hi in bounds]
    else:
        result = solve(c, a_ub, b_ub, a_eq, b_eq, bounds)
    assert result.status is SolveStatus.OPTIMAL
    cert = certify_lp(result, c, a_ub, b_ub, a_eq, b_eq, bounds)
    assert cert.ok, [str(v) for v in cert.violations]
    assert cert.status == "certified"
    assert "weak-duality-gap" in cert.checks


@pytest.mark.parametrize("engine", sorted(_engines()))
def test_engines_agree_and_certify(engine: str) -> None:
    """All engines find the same optimum on one fixed LP."""
    c = np.array([-1.0, -2.0, 0.5])
    a_ub = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b_ub = np.array([4.0, 3.0])
    a_eq = np.zeros((0, 3))
    b_eq = np.zeros(0)
    bounds = [(0.0, 3.0)] * 3
    result = _engines()[engine](c, a_ub, b_ub, a_eq, b_eq, bounds)
    if engine == "compiled-warm":  # the warm path solved a tighter box
        bounds = [(lo, hi - 0.25) for lo, hi in bounds]
    assert result.status is SolveStatus.OPTIMAL
    cert = certify_lp(result, c, a_ub, b_ub, a_eq, b_eq, bounds)
    assert cert.ok, [str(v) for v in cert.violations]
    if engine != "compiled-warm":  # warm solves a tightened box
        assert result.objective == pytest.approx(-7.0)


def test_beale_degenerate_certifies() -> None:
    """Beale's cycling example: degenerate pivots, exact optimum -0.05."""
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a_ub = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b_ub = np.array([0.0, 0.0, 1.0])
    a_eq = np.zeros((0, 4))
    b_eq = np.zeros(0)
    bounds = [(0.0, np.inf)] * 4
    for engine in ("compiled-cold", "scipy-linprog"):
        result = _engines()[engine](c, a_ub, b_ub, a_eq, b_eq, bounds)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-0.05)
        cert = certify_lp(result, c, a_ub, b_ub, a_eq, b_eq, bounds)
        assert cert.ok, (engine, [str(v) for v in cert.violations])


@pytest.mark.parametrize("engine", ["compiled-cold"])
def test_farkas_infeasible_certifies(engine: str) -> None:
    """x + y <= 1 and x + y >= 3 cannot both hold on [0, 10]^2."""
    c = np.array([1.0, 1.0])
    a_ub = np.array([[1.0, 1.0], [-1.0, -1.0]])
    b_ub = np.array([1.0, -3.0])
    a_eq = np.zeros((0, 2))
    b_eq = np.zeros(0)
    bounds = [(0.0, 10.0)] * 2
    result = _engines()[engine](c, a_ub, b_ub, a_eq, b_eq, bounds)
    assert result.status is SolveStatus.INFEASIBLE
    cert = certify_lp(result, c, a_ub, b_ub, a_eq, b_eq, bounds)
    assert cert.status == "certified", [str(v) for v in cert.violations]
    assert "farkas-margin" in cert.checks
    assert cert.details["farkas_margin"] > 0


def test_warm_start_infeasible_farkas_certifies() -> None:
    """The dual-simplex warm path emits a usable ray too."""
    c = np.array([1.0, 1.0])
    a_ub = np.array([[1.0, 1.0]])
    b_ub = np.array([1.0])
    a_eq = np.zeros((0, 2))
    b_eq = np.zeros(0)
    compiled = CompiledModel(c, a_ub, b_ub, a_eq, b_eq)
    parent = compiled.solve([(0.0, 1.0)] * 2)
    assert parent.status is SolveStatus.OPTIMAL
    # Tightened child box forces x + y >= 4 > 1: dual-infeasible.
    child_bounds = [(2.0, 3.0)] * 2
    result = compiled.solve(child_bounds, basis=parent.basis, want_duals=True)
    assert result.status is SolveStatus.INFEASIBLE
    cert = certify_lp(result, c, a_ub, b_ub, a_eq, b_eq, child_bounds)
    assert cert.status == "certified", [str(v) for v in cert.violations]


def test_wrong_objective_is_rejected() -> None:
    """A tampered optimum fails the certificate, not an exception."""
    c = np.array([1.0, 2.0])
    a_ub = np.array([[1.0, 1.0]])
    b_ub = np.array([2.0])
    a_eq = np.zeros((0, 2))
    b_eq = np.zeros(0)
    bounds = [(0.0, 5.0)] * 2
    result = CompiledModel(c, a_ub, b_ub, a_eq, b_eq).solve(
        bounds, want_duals=True
    )
    assert result.status is SolveStatus.OPTIMAL
    result.objective = result.objective - 1.0
    cert = certify_lp(result, c, a_ub, b_ub, a_eq, b_eq, bounds)
    assert not cert.ok
    assert any(v.kind == "lp-objective-mismatch" for v in cert.violations)


def test_tampered_solution_vector_is_rejected() -> None:
    c = np.array([-1.0, -1.0])
    a_ub = np.array([[1.0, 1.0]])
    b_ub = np.array([1.0])
    a_eq = np.zeros((0, 2))
    b_eq = np.zeros(0)
    bounds = [(0.0, 1.0)] * 2
    result = CompiledModel(c, a_ub, b_ub, a_eq, b_eq).solve(
        bounds, want_duals=True
    )
    result.x = result.x + 0.5  # pushes the packed row over its rhs
    cert = certify_lp(result, c, a_ub, b_ub, a_eq, b_eq, bounds)
    assert not cert.ok
    assert any(v.kind == "lp-primal-infeasible" for v in cert.violations)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_lp_vector_fails_not_raises(bad: float) -> None:
    """A NaN or infinite entry in a claimed x fails the certificate,
    with a violation that names the entry."""
    c = np.array([1.0, 1.0])
    a_ub = np.array([[1.0, 1.0]])
    b_ub = np.array([2.0])
    a_eq = np.zeros((0, 2))
    b_eq = np.zeros(0)
    result = LpResult(SolveStatus.OPTIMAL, x=np.array([bad, 1.0]), objective=1.0)
    cert = certify_lp(result, c, a_ub, b_ub, a_eq, b_eq, [(0.0, 5.0)] * 2)
    assert cert.status == "failed"
    assert [(v.kind, v.subject) for v in cert.violations] == [("lp-non-finite", "x[0]")]
    assert str(bad) in cert.violations[0].detail


def _one_variable_model():
    model = Model("one")
    x = model.add_continuous("x", ub=10.0)
    model.add_constr(x <= 5.0, "cap")
    model.minimize(x)
    return model, x


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_milp_value_fails_not_raises(bad: float) -> None:
    model, x = _one_variable_model()
    sol = Solution(SolveStatus.FEASIBLE, objective=1.0, values={x: bad})
    cert = certify_solution(model, sol)
    assert cert.status == "failed"
    assert [(v.kind, v.subject) for v in cert.violations] == [("milp-non-finite", "x")]
    assert str(bad) in cert.violations[0].detail
    # The heuristic lanes' entry point evaluates the objective itself.
    assert certify_assignment(model, {x: bad}).status == "failed"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_milp_objective_fails_not_raises(bad: float) -> None:
    model, x = _one_variable_model()
    sol = Solution(SolveStatus.FEASIBLE, objective=bad, values={x: 1.0})
    cert = certify_solution(model, sol)
    assert cert.status == "failed"
    assert [(v.kind, v.subject) for v in cert.violations] == [
        ("milp-non-finite", "objective")
    ]


def test_non_finite_milp_coefficient_fails_not_raises() -> None:
    model, x = _one_variable_model()
    model.add_constr(Constraint(LinExpr({x: math.nan}), Sense.LE, 1.0), "nan-row")
    cert = certify_solution(model, Solution(SolveStatus.FEASIBLE, 1.0, {x: 1.0}))
    assert cert.status == "failed"
    assert [(v.kind, v.subject) for v in cert.violations] == [
        ("milp-non-finite", "nan-row")
    ]


def _dense_column_products(a_ub, a_eq, y):
    """Reference for the certificate's ``y A``: every entry of every
    column of the dense ``[a_ub; a_eq]``, as the dual and Farkas parts
    once walked it."""
    from fractions import Fraction

    a = np.vstack([a_ub.toarray(), a_eq.toarray()])
    out = []
    for j in range(a.shape[1]):
        acc = Fraction(0)
        for i in range(a.shape[0]):
            if a[i, j] != 0.0:
                acc += y[i] * Fraction(float(a[i, j]))
        out.append(acc)
    return out


def _window_lps():
    """``(label, arrays, result)``: the root LP of every solver
    differential window with duals, the same duals perturbed, and an
    infeasible child (one task's selections fixed to 0) with its
    Farkas ray, perturbed too."""
    from tests.ilp.test_solver_differential import _committed_windows, _windows

    for seed in (1, 2):
        for label, model in list(_windows(seed)) + list(_committed_windows(seed)):
            c, a_ub, b_ub, a_eq, b_eq, bounds, _ = model.to_arrays()
            compiled = CompiledModel(c, a_ub, b_ub, a_eq, b_eq)
            arrays = (c, a_ub, b_ub, a_eq, b_eq)
            root = compiled.solve(bounds, want_duals=True)
            assert root.status is SolveStatus.OPTIMAL, label
            yield label, arrays, bounds, root
            for scale in (1.5, -1.0):
                yield label, arrays, bounds, LpResult(
                    SolveStatus.OPTIMAL, x=root.x, objective=root.objective,
                    duals=root.duals * scale,
                )
            row = a_eq.getrow(0)  # one task's one-hot row
            child = list(bounds)
            for j in row.indices:
                child[j] = (0.0, 0.0)
            dead = compiled.solve(child, want_duals=True)
            assert dead.status is SolveStatus.INFEASIBLE, label
            assert dead.farkas is not None, label
            yield label, arrays, child, dead
            yield label, arrays, child, LpResult(
                SolveStatus.INFEASIBLE, farkas=dead.farkas * -0.5
            )


def test_column_walk_matches_the_dense_reference(monkeypatch) -> None:
    """The dual and Farkas parts walk column nonzeros (CSC); on the
    mapping windows every verdict, violation and figure equals the
    dense m x n walk."""
    import repro.certify.lp as lp

    outcomes = set()
    for label, arrays, bounds, result in _window_lps():
        got = certify_lp(result, *arrays, bounds)
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_column_products", _dense_column_products)
            want = certify_lp(result, *arrays, bounds)
        assert got.status == want.status, label
        assert [v.as_dict() for v in got.violations] == [
            v.as_dict() for v in want.violations
        ], label
        assert got.details == want.details, label
        outcomes.add((got.kind, got.status))
    # Both certificate kinds, each passing and failing, were compared.
    assert {("lp-optimal", "certified"), ("lp-optimal", "failed"),
            ("lp-infeasible", "certified"), ("lp-infeasible", "failed")} <= outcomes
