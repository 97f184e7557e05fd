"""Differential check: the scaled-int kernel against ``Fraction`` arithmetic.

:mod:`repro.ilp.exact` replays rows on Python ints over a common power
of two.  The certificate replay (:func:`repro.certify.lp.certify_solution`,
the primal part of :func:`repro.certify.lp.certify_lp`) and the presolve
(:func:`repro.ilp.presolve.presolve_arrays`) run on it.  This file keeps
a plain :class:`fractions.Fraction` reference of each, and only here.

On seeded fuzzed models -- non-integral (0.1, 1/3), huge (1e300) and
subnormal (5e-324) coefficients, mixed signs, all three senses, rows
placed exactly on the ``eps * mass`` boundary -- every accept/reject
decision, every reported figure, every presolve reduction, the presolve
``stats`` and the output arrays must be identical to the reference.
The mapping windows of the solver differential test are covered too.

The presolve reference stores its results the way the shipped presolve
does: every bound rounds outward, so an integer bound beyond ``2**53``
never rounds inward and one beyond the float range becomes an infinity
instead of raising ``OverflowError``.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from repro.certify.lp import certify_lp, certify_solution
from repro.ilp import Model, SolveStatus
from repro.ilp.compiled import LpResult
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.exact import row_violated
from repro.ilp.expr import LinExpr
from repro.ilp.presolve import presolve_arrays
from repro.ilp.solution import Solution
from repro.ilp.tolerances import CERT_EPS, GAP_EPS, MILP_GAP_RTOL
from repro.ilp.variable import VarType
from tests.ilp.test_solver_differential import _committed_windows, _windows

_COEFS = (1.0, -1.0, 2.0, -3.0, 40.0, 0.5, 0.1, -0.1, 1 / 3, -1 / 3,
          1e300, -1e300, 5e-324, -5e-324, 7.25, -1e-7)
_VALUES = (0.0, 0.0, 1.0, 1.0, 2.0, -1.0, 0.5, 0.1, 1 / 3, 1e-300,
           3.0000000001, 0.9999999, 1e10, -2.5)
_BOUNDS = (0.0, 1.0, -2.0, 5.0, 0.5, 1 / 3, 2.75, 1e300, 1e-300, -0.1)


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------


def _f(v: float) -> Fraction:
    return Fraction(float(v))


def _float(v: Fraction, default: float = 0.0) -> float:
    """``float(v)``, or ``default`` beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return default


def _report(v: Fraction) -> float:
    """A replayed figure as reported: ``float(v)``, ±inf beyond range."""
    return _float(v, math.inf if v > 0 else -math.inf)


def _ref_row(coefs, values, rhs, sense, eps=CERT_EPS):
    """The Fraction row replay: ``None`` when it holds, else ``lhs``."""
    lhs = Fraction(0)
    mass = Fraction(1)
    for a, x in zip(coefs, values):
        term = _f(a) * _f(x)
        lhs += term
        mass += abs(term)
    b = _f(rhs)
    tol = eps * (mass + abs(b))
    if sense == "<=":
        bad = lhs - b > tol
    elif sense == ">=":
        bad = b - lhs > tol
    else:
        bad = abs(lhs - b) > tol
    return _report(lhs) if bad else None


def _ref_certify_solution(model, solution, eps=CERT_EPS):
    """Violations ``(kind, subject, measured, expected)`` of the
    Fraction MILP replay."""
    from repro.ilp.model import ObjectiveSense

    out = []
    values = {v: _f(solution.values.get(v, 0.0)) for v in model.variables}
    for var in model.variables:
        val = values[var]
        scale = eps * (1 + abs(val))
        if math.isfinite(var.lb) and val < _f(var.lb) - scale:
            out.append(("milp-bound", var.name, float(val), var.lb))
        if math.isfinite(var.ub) and val > _f(var.ub) + scale:
            out.append(("milp-bound", var.name, float(val), var.ub))
        if var.vtype.is_integral:
            nearest = Fraction(round(val))
            if abs(val - nearest) > eps:
                out.append(("milp-integrality", var.name, float(val), float(nearest)))
    for idx, con in enumerate(model.constraints):
        terms = con.expr.terms
        lhs = _ref_row(terms.values(), [values[v] for v in terms], con.rhs,
                       con.sense.value, eps)
        if lhs is not None:
            out.append(("milp-constraint", con.name or f"constraint {idx}", lhs, con.rhs))
    obj = _f(model.objective.constant)
    for var, coef in model.objective.terms.items():
        obj += _f(coef) * values[var]
    reported = _f(solution.objective)
    if abs(obj - reported) > eps * (1 + abs(obj)):
        out.append(("milp-objective", "objective", float(reported), _report(obj)))
    obj_min = _report(obj if model.objective_sense is ObjectiveSense.MINIMIZE else -obj)
    best = solution.stats.get("best_bound")
    if best is not None and math.isfinite(best):
        slack = MILP_GAP_RTOL * (1.0 + abs(obj_min))
        if float(best) > obj_min + slack:
            out.append(("milp-bound-invalid", "best_bound", float(best), obj_min))
        if solution.status is SolveStatus.OPTIMAL:
            cap = solution.stats.get("absolute_gap", GAP_EPS)
            if obj_min - float(best) > float(cap) + slack:
                out.append(("milp-gap-open", "best_bound",
                            obj_min - float(best), float(cap)))
    return out


def _ref_lp_primal(x, c, a_ub, b_ub, a_eq, b_eq, bounds, objective, eps=CERT_EPS):
    """Violations of the dense Fraction primal replay of ``certify_lp``."""
    out = []
    for label, mat, rhs, sense in (("ub", a_ub, b_ub, "<="), ("eq", a_eq, b_eq, "==")):
        for i in range(mat.shape[0]):
            cols = [j for j in range(len(x)) if mat[i, j] != 0.0]
            lhs = _ref_row([mat[i, j] for j in cols], [x[j] for j in cols],
                           rhs[i], sense, eps)
            if lhs is not None:
                out.append(("lp-primal-infeasible", f"{label}-row {i}", lhs, float(rhs[i])))
    for j, (lo, hi) in enumerate(bounds):
        xj = _f(x[j])
        scale = eps * (1 + abs(xj))
        if math.isfinite(lo) and xj < _f(lo) - scale:
            out.append(("lp-bound-violated", f"x[{j}]", float(xj), lo))
        if math.isfinite(hi) and xj > _f(hi) + scale:
            out.append(("lp-bound-violated", f"x[{j}]", float(xj), hi))
    cx = sum((_f(c[j]) * _f(x[j]) for j in range(len(x))), Fraction(0))
    if abs(cx - _f(objective)) > eps * (1 + abs(cx)):
        out.append(("lp-objective-mismatch", "objective", objective, _report(cx)))
    return out


def _ref_round(v, up: bool) -> float:
    """Round a rational to a float on the safe side (outward)."""
    try:
        f = float(v)
    except OverflowError:
        big = sys.float_info.max
        if up:
            return math.inf if v > 0 else -big
        return big if v > 0 else -math.inf
    if up and Fraction(f) < v:
        f = math.nextafter(f, math.inf)
    if not up and Fraction(f) > v:
        f = math.nextafter(f, -math.inf)
    return f


def _ref_presolve(a_ub, b_ub, a_eq, b_eq, bounds, integrality):
    """The Fraction presolve: ``(arrays..., bounds, kept_ub, kept_eq,
    infeasible_var, stats)``."""
    n = len(bounds)
    a_ub = np.array(a_ub, dtype=float).reshape(-1, n)
    stats = dict(rows_dropped=0, bounds_tightened=0, coeffs_strengthened=0,
                 vars_fixed=0, passes=0, stopped=0)
    inf = math.inf
    lb, ub = [], []
    for j, (lo, hi) in enumerate(bounds):
        lo_v = _f(lo) if math.isfinite(lo) else -inf
        hi_v = _f(hi) if math.isfinite(hi) else inf
        if integrality[j]:
            lo_v = Fraction(math.ceil(lo_v)) if lo_v != -inf else lo_v
            hi_v = Fraction(math.floor(hi_v)) if hi_v != inf else hi_v
        lb.append(lo_v)
        ub.append(hi_v)
    infeasible = []
    ub_rows = [{int(j): _f(a_ub[i, j]) for j in np.flatnonzero(a_ub[i])}
               for i in range(a_ub.shape[0])]
    ub_rhs = [_f(v) for v in b_ub]
    eq_rows = [{int(j): _f(a_eq[i, j]) for j in np.flatnonzero(a_eq[i])}
               for i in range(a_eq.shape[0])]
    eq_rhs = [_f(v) for v in b_eq]
    alive_ub = [True] * len(ub_rows)
    alive_eq = [True] * len(eq_rows)

    def term_range(j, a):
        lo_t = a * lb[j] if lb[j] != -inf else (-inf if a > 0 else inf)
        hi_t = a * ub[j] if ub[j] != inf else (inf if a > 0 else -inf)
        return (hi_t, lo_t) if a < 0 else (lo_t, hi_t)

    def set_lb(j, v):
        if integrality[j]:
            v = Fraction(math.ceil(v))
        if lb[j] == -inf or v > lb[j]:
            lb[j] = v
            stats["bounds_tightened"] += 1
            if ub[j] != inf and lb[j] > ub[j]:
                infeasible.append(j)
            return True
        return False

    def set_ub(j, v):
        if integrality[j]:
            v = Fraction(math.floor(v))
        if ub[j] == inf or v < ub[j]:
            ub[j] = v
            stats["bounds_tightened"] += 1
            if lb[j] != -inf and lb[j] > ub[j]:
                infeasible.append(j)
            return True
        return False

    changed = True
    while changed and not infeasible and stats["passes"] < 4:
        changed = False
        stats["passes"] += 1
        for i, row in enumerate(eq_rows):
            if not alive_eq[i] or len(row) != 1:
                continue
            (j, a), = row.items()
            v = eq_rhs[i] / a
            if integrality[j] and v.denominator != 1:
                set_lb(j, v)
                set_ub(j, v)
                break
            if _ref_round(v, True) != v:
                continue
            hit = set_lb(j, v) | set_ub(j, v)
            alive_eq[i] = False
            stats["rows_dropped"] += 1
            stats["vars_fixed"] += 1
            changed = changed or hit
        if infeasible:
            break
        for i, row in enumerate(ub_rows):
            if not alive_ub[i]:
                continue
            b = ub_rhs[i]
            if len(row) == 1:
                (j, a), = row.items()
                changed |= set_ub(j, b / a) if a > 0 else set_lb(j, b / a)
                alive_ub[i] = False
                stats["rows_dropped"] += 1
                if infeasible:
                    break
                continue
            ranges = {j: term_range(j, a) for j, a in row.items()}
            his = [h for _, h in ranges.values()]
            inf_hi = sum(h == inf for h in his)
            max_act = sum((h for h in his if h != inf), Fraction(0))
            if inf_hi == 0 and max_act <= b:
                alive_ub[i] = False
                stats["rows_dropped"] += 1
                changed = True
                continue
            los = [lo for lo, _ in ranges.values()]
            inf_lo = sum(lo == -inf for lo in los)
            min_act = sum((lo for lo in los if lo != -inf), Fraction(0))
            for j, a in row.items():
                lo_t = ranges[j][0]
                if inf_lo - (lo_t == -inf) > 0:
                    continue
                room = b - (min_act - (lo_t if lo_t != -inf else 0))
                changed |= set_ub(j, room / a) if a > 0 else set_lb(j, room / a)
                if infeasible:
                    break
                ranges[j] = term_range(j, a)
            if infeasible:
                break
            if inf_hi == 0:
                for j, a in list(row.items()):
                    if a >= 0 or not integrality[j] or lb[j] != 0 or ub[j] != 1:
                        continue
                    hi_t = ranges[j][1]
                    excess = (max_act - hi_t) - b
                    if excess > 0 and -a > excess:
                        row[j] = Fraction(_ref_round(-excess, False))
                        max_act = max_act - hi_t + term_range(j, row[j])[1]
                        stats["coeffs_strengthened"] += 1
                        changed = True

    kept_ub = [i for i, alive in enumerate(alive_ub) if alive]
    kept_eq = [i for i, alive in enumerate(alive_eq) if alive]
    new_a_ub = np.zeros((len(kept_ub), n))
    for out, i in enumerate(kept_ub):
        for j, a in ub_rows[i].items():
            new_a_ub[out, j] = float(a)
    new_bounds = [
        (_ref_round(lo, False) if lo != -inf else -inf,
         _ref_round(hi, True) if hi != inf else inf)
        for lo, hi in zip(lb, ub)
    ]
    return (new_a_ub, np.array([float(ub_rhs[i]) for i in kept_ub]),
            np.array(a_eq)[kept_eq], np.array(b_eq)[kept_eq], new_bounds,
            kept_ub, kept_eq, infeasible[-1] if infeasible else None, stats)


# ---------------------------------------------------------------------------
# Fuzzed models
# ---------------------------------------------------------------------------


def _boundary_row(rng: random.Random):
    """Coefficients, values and a rhs of 0 whose residual sits exactly
    on ``eps * (1 + mass + |rhs|)`` (for ``CERT_EPS == 1e-6``):
    ``P - N == (1 + P + N) / 10**6`` with ``P = 500000 + 1000001 t`` and
    ``N = 499999 + 999999 t``, split into dyadic coefficient/value
    pairs."""
    assert CERT_EPS == Fraction(1, 10**6)
    t = rng.randint(0, 3)
    pos, neg = 500000 + 1000001 * t, 499999 + 999999 * t
    coefs, values = [], []
    for total, sign in ((pos, 1.0), (neg, -1.0)):
        part = rng.randint(0, total)
        for piece in (part, total - part):
            if piece:
                scale = rng.choice((1.0, 2.0, 0.5, 0.25))
                coefs.append(sign * piece / scale)
                values.append(scale)
    return coefs, values


def _fuzz_model(rng: random.Random):
    """A model, an assignment and a reported objective."""
    model = Model("exact-fuzz")
    variables = []
    for i in range(rng.randint(1, 6)):
        kind = rng.choice((VarType.BINARY, VarType.INTEGER, VarType.CONTINUOUS))
        lo = rng.choice((0.0, -2.0, -math.inf, 0.5))
        hi = rng.choice((1.0, 5.0, math.inf, 2.75, 1e300))
        if lo > hi:
            lo, hi = hi, lo
        variables.append(model.add_var(f"x{i}", lo, hi, kind))
    values = {v: rng.choice(_VALUES) for v in variables}
    for r in range(rng.randint(1, 6)):
        sense = rng.choice((Sense.LE, Sense.GE, Sense.EQ))
        if rng.random() < 0.25:
            coefs, vals = _boundary_row(rng)
            terms = {}
            for coef, val in zip(coefs, vals):
                var = model.add_continuous(f"b{r}_{len(terms)}", -math.inf, math.inf)
                terms[var] = coef
                values[var] = val
            if sense is Sense.GE:
                terms = {v: -c for v, c in terms.items()}
            rhs = 0.0
            if rng.random() < 0.5:
                # One ulp past the boundary: now the row must fail.
                var = next(iter(terms))
                terms[var] = math.nextafter(terms[var], math.copysign(math.inf, terms[var]))
        else:
            chosen = rng.sample(variables, rng.randint(1, len(variables)))
            terms = {v: rng.choice(_COEFS) for v in chosen}
            lhs = sum(_f(c) * _f(values[v]) for v, c in terms.items())
            near = _float(lhs)
            rhs = rng.choice((near, near + rng.choice((1e-7, -1e-5, 0.0)),
                              rng.choice(_COEFS), 0.0))
        model.add_constr(Constraint(LinExpr(terms), sense, rhs), f"r{r}")
    model.minimize(LinExpr({v: rng.choice(_COEFS) for v in variables},
                           rng.choice((0.0, 1.5, -1 / 3))))
    exact = _f(model.objective.constant) + sum(
        _f(c) * _f(values[v]) for v, c in model.objective.terms.items())
    near = _float(exact)
    objective = rng.choice((near, near * (1 + 1e-5), near + 1e-7))
    return model, values, objective


def _views(cert):
    return [(v.kind, v.subject, v.measured, v.expected) for v in cert.violations]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_boundary_row_is_exact():
    # P = 500000, N = 499999: residual 1, tolerance (1 + 999999) / 1e6 = 1.
    assert row_violated([500000.0, -499999.0], [(1, 1), (1, 1)], 0.0, "<=", CERT_EPS) is None
    assert _ref_row([500000.0, -499999.0], [1.0, 1.0], 0.0, "<=") is None
    past = math.nextafter(500000.0, math.inf)
    assert row_violated([past, -499999.0], [(1, 1), (1, 1)], 0.0, "<=", CERT_EPS) is not None
    assert _ref_row([past, -499999.0], [1.0, 1.0], 0.0, "<=") is not None


@pytest.mark.parametrize("seed", range(6))
def test_certify_solution_matches_fraction_replay(seed):
    rng = random.Random(seed)
    decisions = set()
    for _ in range(120):
        model, values, objective = _fuzz_model(rng)
        status = rng.choice((SolveStatus.FEASIBLE, SolveStatus.OPTIMAL))
        stats = {} if rng.random() < 0.5 else {"best_bound": rng.choice((objective, objective - 1.0, objective + 1.0))}
        sol = Solution(status, objective=objective, values=dict(values), stats=stats)
        got = certify_solution(model, sol)
        want = _ref_certify_solution(model, sol)
        assert _views(got) == want
        decisions.add(got.status)
    assert decisions == {"certified", "failed"}


@pytest.mark.parametrize("seed", range(4))
def test_certify_lp_primal_replay_matches_fraction_replay(seed):
    rng = random.Random(100 + seed)
    for _ in range(60):
        n, m_ub, m_eq = rng.randint(1, 5), rng.randint(0, 4), rng.randint(0, 2)
        pick = lambda: rng.choice(_COEFS) if rng.random() < 0.6 else 0.0  # noqa: E731
        a_ub = np.array([[pick() for _ in range(n)] for _ in range(m_ub)]).reshape(m_ub, n)
        a_eq = np.array([[pick() for _ in range(n)] for _ in range(m_eq)]).reshape(m_eq, n)
        x = np.array([rng.choice(_VALUES) for _ in range(n)])
        b_ub = np.array([_float(sum(_f(a) * _f(v) for a, v in zip(row, x)))
                         + rng.choice((0.0, 1e-7, -1e-3)) for row in a_ub])
        b_eq = np.array([_float(sum(_f(a) * _f(v) for a, v in zip(row, x)))
                         + rng.choice((0.0, 1e-9, 1.0)) for row in a_eq])
        c = np.array([rng.choice(_COEFS) for _ in range(n)])
        bounds = [(rng.choice((-math.inf, 0.0, -1.0)), rng.choice((math.inf, 1.0, 2.75)))
                  for _ in range(n)]
        cx = _float(sum(_f(cj) * _f(v) for cj, v in zip(c, x)))
        objective = rng.choice((cx, cx + 1e-3))
        result = LpResult(SolveStatus.OPTIMAL, x=x, objective=objective)
        got = certify_lp(result, c, a_ub, b_ub, a_eq, b_eq, bounds)
        want = _ref_lp_primal(x, c, a_ub, b_ub, a_eq, b_eq, bounds, objective)
        assert _views(got) == want


def _dense(a):
    """Rows as a dense array (presolve returns CSR; the reference is dense)."""
    return a.toarray() if hasattr(a, "toarray") else np.asarray(a)


def _assert_presolve_matches(a_ub, b_ub, a_eq, b_eq, bounds, integrality):
    got = presolve_arrays(a_ub, b_ub, a_eq, b_eq, bounds, integrality)
    want = _ref_presolve(_dense(a_ub), b_ub, _dense(a_eq), b_eq, bounds, integrality)
    for g, w in zip(got[:4], want[:4]):
        g = _dense(g)
        assert g.shape == w.shape and np.array_equal(g, w)
    info = got[5]
    assert got[4] == want[4]
    assert (info.kept_ub, info.kept_eq, info.infeasible_var, info.stats) == want[5:]
    return info.stats


@pytest.mark.parametrize("seed", range(6))
def test_presolve_matches_fraction_presolve(seed):
    rng = random.Random(1000 + seed)
    totals = dict(rows_dropped=0, bounds_tightened=0, coeffs_strengthened=0, vars_fixed=0)
    for _ in range(80):
        n = rng.randint(1, 6)
        integrality = [rng.random() < 0.6 for _ in range(n)]
        bounds = []
        for j in range(n):
            if integrality[j] and rng.random() < 0.5:
                bounds.append((0.0, 1.0))  # binary: big-M candidates
                continue
            lo = rng.choice((-math.inf,) + _BOUNDS)
            hi = rng.choice((math.inf,) + _BOUNDS)
            bounds.append((min(lo, hi), max(lo, hi)))

        def row():
            support = rng.sample(range(n), rng.randint(1, n))
            out = [0.0] * n
            for j in support:
                out[j] = rng.choice(_COEFS)
            if rng.random() < 0.3:  # a big-M indicator column
                binaries = [j for j in range(n) if bounds[j] == (0.0, 1.0)]
                if binaries:
                    out[rng.choice(binaries)] = -rng.choice((1000.0, 40.0, 1e300))
            return out

        m_ub, m_eq = rng.randint(0, 6), rng.randint(0, 2)
        a_ub = np.array([row() for _ in range(m_ub)]).reshape(m_ub, n)
        a_eq = np.array([row() for _ in range(m_eq)]).reshape(m_eq, n)
        b_ub = np.array([rng.choice(_BOUNDS + (3.0, -1.0, 1 / 3)) for _ in range(m_ub)])
        b_eq = np.array([rng.choice(_BOUNDS) for _ in range(m_eq)])
        stats = _assert_presolve_matches(a_ub, b_ub, a_eq, b_eq, bounds, integrality)
        for key in totals:
            totals[key] += stats[key]
    # The fuzz must exercise every reduction, not compare no-ops.
    assert all(totals.values()), totals


@pytest.mark.parametrize("seed", [11, 12])
def test_mapping_windows_match_fraction_references(seed):
    for label, model in list(_windows(seed)) + list(_committed_windows(seed)):
        _, a_ub, b_ub, a_eq, b_eq, bounds, integrality = model.to_arrays()
        _assert_presolve_matches(a_ub, b_ub, a_eq, b_eq, bounds, integrality)
        rng = random.Random(label)
        assignment = {v: float(rng.randint(0, 1)) if v.vtype.is_integral
                      else rng.uniform(0, 80) for v in model.variables}
        objective = model.objective.evaluate(assignment)
        sol = Solution(SolveStatus.FEASIBLE, objective=objective, values=assignment)
        assert _views(certify_solution(model, sol)) == _ref_certify_solution(model, sol)
