"""Independent LP/MILP certificates in exact arithmetic.

The checkers here never reuse solver internals: they take a claimed
answer plus the *original* problem data and re-verify the claim
exactly, so the checker itself introduces zero rounding error — every
tolerance below exists only to absorb the *solver's* float error, never
the checker's.  Row, bound, integrality and objective replays run on
scaled Python ints (:mod:`repro.ilp.exact`: every finite float is
dyadic); the LP dual and Farkas aggregates, whose multipliers mix rows,
stay :class:`fractions.Fraction` and walk the constraint columns'
nonzeros.  A non-finite claimed value fails its certificate instead of
raising.

Certificate math (DESIGN.md §10):

* **OPTIMAL** — primal feasibility is replayed row by row; dual
  feasibility and weak duality are checked from the returned row
  multipliers ``y``: with reduced costs ``d = c - y A`` the dual
  objective is ``g = y b + sum_j d_j * (lb_j if d_j > 0 else ub_j)``,
  and ``g <= c x`` always (weak duality), so ``|c x - g|`` small proves
  optimality.  Near-zero reduced costs are dropped into an explicit
  allowance instead of being multiplied by a bound.
* **INFEASIBLE** — a Farkas ray ``y`` (``y <= 0`` on the ``<=`` rows)
  aggregates the rows into ``q = y A``; if ``y b`` exceeds the maximum
  of ``q x`` over the variable box, no feasible point can exist.
* **MILP** — the incumbent is replayed against every row of the
  model's CSR store (:meth:`~repro.ilp.model.Model.rows`, the rows the
  solvers read), and the reported objective / best bound / gap are
  cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.certify.report import Violation
from repro.ilp.exact import Ratio, beyond, common, row_sums, row_violated, to_float
from repro.ilp.model import EQ, GE, LE, ObjectiveSense
from repro.ilp.solution import SolveStatus
from repro.ilp.sparse import as_csr
from repro.ilp.tolerances import CERT_EPS, GAP_EPS, MILP_GAP_RTOL

_ZERO = Fraction(0)
#: Row sense codes of :class:`repro.ilp.model.Rows` as replay senses.
_SENSES = {LE: "<=", GE: ">=", EQ: "=="}


@dataclass
class Certificate:
    """Outcome of one independent certificate verification.

    ``status`` is ``"certified"`` (every runnable check passed),
    ``"failed"`` (at least one violation), or ``"skipped"`` (nothing
    could be verified — e.g. an INFEASIBLE verdict with no ray
    attached).  ``checks`` lists what actually ran.
    """

    kind: str
    status: str = "certified"
    checks: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "failed"

    def ran(self, check: str) -> None:
        if check not in self.checks:
            self.checks.append(check)

    def fail(
        self,
        kind: str,
        subject: str,
        detail: str,
        measured: Optional[float] = None,
        expected: Optional[float] = None,
    ) -> None:
        self.status = "failed"
        self.violations.append(Violation(kind, subject, detail, measured, expected))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "status": self.status,
            "checks": list(self.checks),
            "violations": [v.as_dict() for v in self.violations],
            "details": dict(self.details),
        }


def _frac(value: float) -> Fraction:
    """Exact rational of a finite float (callers gate infinities)."""
    return Fraction(float(value))


def _finite(value: float) -> bool:
    return math.isfinite(value)


def _outside(value: Ratio, bound: float, below: bool, eps: Fraction) -> bool:
    """Whether ``value`` lies below (``below``) or above a finite bound
    by more than ``eps * (1 + |value|)``."""
    v, b, d = common(value, bound.as_integer_ratio())
    return beyond(b - v if below else v - b, d + abs(v), eps)


def _mismatch(replayed: Ratio, reported: float, eps: Fraction) -> bool:
    """Whether ``|replayed - reported| > eps * (1 + |replayed|)``."""
    o, r, d = common(replayed, reported.as_integer_ratio())
    return beyond(abs(o - r), d + abs(o), eps)


def _gate_finite(cert: Certificate, name: str, values: Sequence[float]) -> None:
    """Fail ``cert`` on every non-finite entry of a claimed vector."""
    for j, v in enumerate(values):
        if not _finite(v):
            cert.fail("lp-non-finite", f"{name}[{j}]", f"claimed value is {v}",
                      measured=v)


# ---------------------------------------------------------------------------
# LP certificates
# ---------------------------------------------------------------------------


def certify_lp(
    result,
    c: np.ndarray,
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    eps: Fraction = CERT_EPS,
) -> Certificate:
    """Verify an :class:`~repro.ilp.compiled.LpResult` against the data
    that produced it.

    OPTIMAL verdicts get a primal-feasibility replay plus (when the
    solve attached duals) a dual-feasibility / weak-duality proof;
    INFEASIBLE verdicts get a Farkas-ray check.  Other statuses are
    unverifiable here and return a ``skipped`` certificate.  The rows
    may be dense or sparse; they are read as CSR.
    """
    n = len(c)
    a_ub = as_csr(a_ub, n)
    a_eq = as_csr(a_eq, n)
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    b_eq = np.asarray(b_eq, dtype=float).ravel()
    eps = Fraction(eps)
    if result.status is SolveStatus.OPTIMAL:
        return _certify_optimal(result, c, a_ub, b_ub, a_eq, b_eq, bounds, eps)
    if result.status is SolveStatus.INFEASIBLE:
        return _certify_infeasible(result, c, a_ub, b_ub, a_eq, b_eq, bounds, eps)
    cert = Certificate(kind="lp-other", status="skipped")
    cert.details["reason"] = f"status {result.status.value} carries no certificate"
    return cert


def _column_products(a_ub, a_eq, y: List[Fraction]) -> List[Fraction]:
    """``y A`` exactly, for ``A = [a_ub; a_eq]``: each column's nonzeros
    (CSC) are walked once, skipping rows whose multiplier is zero."""
    from scipy.sparse import vstack

    csc = vstack([a_ub, a_eq], format="csc")
    ptr = csc.indptr.tolist()
    rows = csc.indices.tolist()
    coefs = csc.data.tolist()
    out = []
    for j in range(csc.shape[1]):
        acc = _ZERO
        for k in range(ptr[j], ptr[j + 1]):
            if y[rows[k]]:
                acc += y[rows[k]] * _frac(coefs[k])
        out.append(acc)
    return out


def _certify_optimal(
    result,
    c: np.ndarray,
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    eps: Fraction,
) -> Certificate:
    cert = Certificate(kind="lp-optimal")
    xs = [float(v) for v in result.x]
    reported = float(result.objective)
    cert.ran("finite")
    _gate_finite(cert, "x", xs)
    if not _finite(reported):
        cert.fail("lp-non-finite", "objective", f"reported objective is {reported}",
                  measured=reported)
    if result.duals is not None:
        _gate_finite(cert, "y", [float(v) for v in result.duals])
    if not cert.ok:
        return cert
    xr = [v.as_integer_ratio() for v in xs]

    # Primal feasibility, exact row replay of each row's nonzeros with a
    # relative slack that scales with the row's own magnitude
    # (cancellation-aware).
    cert.ran("primal-feasibility")
    for label, mat, rhs, sense in (
        ("ub", a_ub, b_ub, "<="),
        ("eq", a_eq, b_eq, "=="),
    ):
        coefs = mat.data.tolist()
        cols = mat.indices.tolist()
        starts = mat.indptr.tolist()
        for i in range(mat.shape[0]):
            lo, hi = starts[i], starts[i + 1]
            b_i = float(rhs[i])
            try:
                lhs = row_violated(
                    coefs[lo:hi], map(xr.__getitem__, cols[lo:hi]), b_i, sense, eps
                )
            except (ValueError, OverflowError):
                cert.fail(
                    "lp-non-finite", f"{label}-row {i}",
                    "row carries a non-finite coefficient or right-hand side",
                )
                continue
            if lhs is not None:
                cert.fail(
                    "lp-primal-infeasible",
                    f"{label}-row {i}",
                    "replayed row violates its right-hand side",
                    measured=lhs,
                    expected=b_i,
                )

    cert.ran("bounds")
    for j, (lo, hi) in enumerate(bounds):
        for bound, below in ((lo, True), (hi, False)):
            if _finite(bound) and _outside(xr[j], float(bound), below, eps):
                cert.fail(
                    "lp-bound-violated", f"x[{j}]",
                    "value below its lower bound" if below
                    else "value above its upper bound",
                    measured=xs[j], expected=bound,
                )

    cert.ran("objective-report")
    try:
        cn, _, cd = row_sums([float(v) for v in c], xr)
    except (ValueError, OverflowError):
        cert.fail("lp-non-finite", "objective", "cost vector is not finite")
        return cert
    if _mismatch((cn, cd), reported, eps):
        cert.fail(
            "lp-objective-mismatch", "objective",
            "reported optimum differs from the replayed c @ x",
            measured=reported, expected=to_float(cn, cd),
        )
    cx = Fraction(cn, cd)

    if result.duals is None:
        cert.details["dual"] = "no multipliers attached; primal-only certificate"
        return cert

    x = [Fraction(n, d) for n, d in xr]
    cF = [_frac(v) for v in c]
    y = [_frac(v) for v in result.duals]
    m_ub = a_ub.shape[0]

    # Dual sign: inequality-row multipliers must price <= rows, i.e.
    # y_i <= 0 in this minimize convention (tiny positives are noise).
    cert.ran("dual-sign")
    for i in range(m_ub):
        if y[i] > eps:
            cert.fail(
                "lp-dual-sign", f"ub-row {i}",
                "inequality multiplier has the wrong sign",
                measured=float(y[i]), expected=0.0,
            )
        elif y[i] > _ZERO:
            y[i] = _ZERO

    # Reduced costs d = c - y A, then the weak-duality bound
    # g = y b + sum_j d_j * (lb if d_j > 0 else ub) <= c x.  A near-zero
    # reduced cost contributes an explicit allowance (|d_j| times the
    # variable's reach) instead of poisoning g through a huge bound.
    cert.ran("dual-feasibility")
    cert.ran("weak-duality-gap")
    g = _ZERO
    for i in range(m_ub):
        g += y[i] * _frac(b_ub[i])
    for k in range(a_eq.shape[0]):
        g += y[m_ub + k] * _frac(b_eq[k])
    allowance = _ZERO
    ya = _column_products(a_ub, a_eq, y)
    for j in range(len(x)):
        d = cF[j] - ya[j]
        lo, hi = bounds[j]
        reach = max(
            abs(_frac(lo)) if _finite(lo) else _ZERO,
            abs(_frac(hi)) if _finite(hi) else _ZERO,
            abs(x[j]),
            Fraction(1),
        )
        if abs(d) <= eps:
            allowance += abs(d) * reach
        elif d > _ZERO:
            if not _finite(lo):
                cert.fail(
                    "lp-dual-infeasible", f"x[{j}]",
                    "positive reduced cost on a variable with no lower bound",
                    measured=float(d),
                )
                return cert
            g += d * _frac(lo)
        else:
            if not _finite(hi):
                cert.fail(
                    "lp-dual-infeasible", f"x[{j}]",
                    "negative reduced cost on a variable with no upper bound",
                    measured=float(d),
                )
                return cert
            g += d * _frac(hi)
    gap = abs(cx - g)
    cert.details["duality_gap"] = float(gap)
    if gap > eps * (1 + abs(cx)) + allowance:
        cert.fail(
            "lp-duality-gap", "objective",
            "primal and dual objectives disagree beyond tolerance",
            measured=float(g), expected=float(cx),
        )
    return cert


def _certify_infeasible(
    result,
    c: np.ndarray,
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    eps: Fraction,
) -> Certificate:
    cert = Certificate(kind="lp-infeasible")

    # An empty box needs no ray.
    cert.ran("trivial-bounds")
    for j, (lo, hi) in enumerate(bounds):
        if lo > hi:
            cert.details["reason"] = f"empty bound box on x[{j}]"
            return cert

    if result.farkas is None:
        cert.status = "skipped"
        cert.details["reason"] = "no Farkas ray attached to the INFEASIBLE verdict"
        return cert

    cert.ran("finite")
    _gate_finite(cert, "y", [float(v) for v in result.farkas])
    if not cert.ok:
        return cert
    y = [_frac(v) for v in result.farkas]
    m_ub = a_ub.shape[0]

    cert.ran("farkas-sign")
    for i in range(m_ub):
        if y[i] > eps:
            cert.fail(
                "lp-farkas-sign", f"ub-row {i}",
                "Farkas multiplier on a <= row must be nonpositive",
                measured=float(y[i]), expected=0.0,
            )
            return cert
        if y[i] > _ZERO:
            y[i] = _ZERO

    # Aggregate: with y <= 0 on <= rows, any feasible x satisfies
    # q x >= y b where q = y A.  If max_{box} q x < y b, no x exists.
    cert.ran("farkas-margin")
    yb = _ZERO
    for i in range(m_ub):
        yb += y[i] * _frac(b_ub[i])
    for k in range(a_eq.shape[0]):
        yb += y[m_ub + k] * _frac(b_eq[k])
    q = _column_products(a_ub, a_eq, y)

    upper = _ZERO
    allowance = _ZERO
    for j, (lo, hi) in enumerate(bounds):
        reach = max(
            abs(_frac(lo)) if _finite(lo) else _ZERO,
            abs(_frac(hi)) if _finite(hi) else _ZERO,
            Fraction(1),
        )
        if abs(q[j]) <= eps:
            allowance += abs(q[j]) * reach
            continue
        if q[j] > _ZERO:
            if not _finite(hi):
                cert.fail(
                    "lp-farkas-unbounded", f"x[{j}]",
                    "ray needs an upper bound the variable does not have",
                    measured=float(q[j]),
                )
                return cert
            upper += q[j] * _frac(hi)
        else:
            if not _finite(lo):
                cert.fail(
                    "lp-farkas-unbounded", f"x[{j}]",
                    "ray needs a lower bound the variable does not have",
                    measured=float(q[j]),
                )
                return cert
            upper += q[j] * _frac(lo)
    margin = yb - upper
    cert.details["farkas_margin"] = float(margin)
    if margin <= allowance:
        cert.fail(
            "lp-farkas-weak", "ray",
            "Farkas ray does not separate the right-hand side from the box",
            measured=float(margin), expected=float(allowance),
        )
    return cert


# ---------------------------------------------------------------------------
# MILP certificates
# ---------------------------------------------------------------------------


def certify_solution(model, solution, eps: Fraction = CERT_EPS) -> Certificate:
    """Replay a MILP :class:`~repro.ilp.solution.Solution` against the
    original :class:`~repro.ilp.model.Model`, exactly.

    Replays the model's own CSR store (:meth:`Model.rows`), the rows
    every solver reads, with their senses and names.  Bounds,
    integrality, rows and the objective replay on scaled ints
    (:mod:`repro.ilp.exact`).  Also audits the reported objective and —
    when the backend published one — the claimed best bound / gap.  A
    non-finite value, objective or coefficient fails the certificate;
    it never raises.
    """
    cert = Certificate(kind="milp")
    if not solution.status.has_solution:
        cert.status = "skipped"
        cert.details["reason"] = f"status {solution.status.value} has no incumbent"
        return cert

    eps = Fraction(eps)
    cert.ran("milp-finite")
    values: List[Ratio] = []
    for var in model.variables:
        val = float(solution.values.get(var, 0.0))
        if _finite(val):
            values.append(val.as_integer_ratio())
        else:
            cert.fail(
                "milp-non-finite", var.name, f"variable value is {val}",
                measured=val,
            )
    reported = float(solution.objective)
    if not _finite(reported):
        cert.fail(
            "milp-non-finite", "objective", f"reported objective is {reported}",
            measured=reported,
        )
    if not cert.ok:
        return cert

    cert.ran("milp-bounds")
    cert.ran("milp-integrality")
    for var, (vn, vd) in zip(model.variables, values):
        for bound, below in ((var.lb, True), (var.ub, False)):
            if _finite(bound) and _outside((vn, vd), bound, below, eps):
                cert.fail(
                    "milp-bound", var.name,
                    "value below its lower bound" if below
                    else "value above its upper bound",
                    measured=to_float(vn, vd), expected=bound,
                )
        if var.vtype.is_integral and vd != 1:
            # Nearest integer, ties to even (as round() on a rational).
            low, rem = divmod(vn, vd)
            nearest = low + (2 * rem > vd or (2 * rem == vd and low % 2 == 1))
            if beyond(abs(vn - nearest * vd), vd, eps):
                cert.fail(
                    "milp-integrality", var.name,
                    "integer variable carries a fractional value",
                    measured=to_float(vn, vd), expected=float(nearest),
                )

    cert.ran("milp-constraints")
    rows = model.rows()
    ptr, cols, coefs = (a.tolist() for a in (rows.indptr, rows.indices, rows.data))
    senses = [_SENSES[code] for code in rows.sense.tolist()]
    for idx, rhs in enumerate(rows.rhs.tolist()):
        lo, hi = ptr[idx], ptr[idx + 1]
        try:
            lhs = row_violated(
                coefs[lo:hi], map(values.__getitem__, cols[lo:hi]),
                rhs, senses[idx], eps,
            )
        except (ValueError, OverflowError):
            cert.fail(
                "milp-non-finite", rows.names[idx] or f"constraint {idx}",
                "row carries a non-finite coefficient or right-hand side",
            )
            continue
        if lhs is not None:
            cert.fail(
                "milp-constraint", rows.names[idx] or f"constraint {idx}",
                "replayed incumbent violates this row",
                measured=lhs, expected=rhs,
            )

    cert.ran("milp-objective")
    objective = model.objective
    try:
        on, _, od = row_sums(
            objective.terms.values(),
            (values[var.index] for var in objective.terms),
        )
        on, cn, od = common((on, od), objective.constant.as_integer_ratio())
    except (ValueError, OverflowError):
        cert.fail(
            "milp-non-finite", "objective",
            "objective carries a non-finite coefficient or constant",
        )
        return cert
    obj = to_float(on + cn, od)
    if _mismatch((on + cn, od), reported, eps):
        cert.fail(
            "milp-objective", "objective",
            "reported objective differs from the replayed incumbent value",
            measured=reported, expected=obj,
        )

    # Gap audit: the claimed best bound must not beat the (replayed)
    # incumbent, and an OPTIMAL verdict must actually close the gap.
    obj_min = obj if model.objective_sense is ObjectiveSense.MINIMIZE else -obj
    best_bound = solution.stats.get(
        "best_bound", solution.stats.get("mip_dual_bound")
    )
    if best_bound is not None and _finite(best_bound):
        cert.ran("milp-gap")
        slack = MILP_GAP_RTOL * (1.0 + abs(obj_min))
        if float(best_bound) > obj_min + slack:
            cert.fail(
                "milp-bound-invalid", "best_bound",
                "claimed lower bound exceeds the replayed incumbent",
                measured=float(best_bound), expected=obj_min,
            )
        if solution.status is SolveStatus.OPTIMAL:
            gap_cap = solution.stats.get(
                "absolute_gap", solution.stats.get("mip_gap", GAP_EPS)
            )
            if obj_min - float(best_bound) > float(gap_cap) + slack:
                cert.fail(
                    "milp-gap-open", "best_bound",
                    "OPTIMAL claimed but the bound leaves a gap",
                    measured=obj_min - float(best_bound),
                    expected=float(gap_cap),
                )
    return cert


def certify_assignment(model, values, eps: Fraction = CERT_EPS) -> "Certificate":
    """Replay a bare variable assignment as a FEASIBLE incumbent.

    The heuristic lanes of the anytime mapper produce assignments
    (``{Var: value}``), not :class:`~repro.ilp.solution.Solution`
    objects; this wraps one — objective evaluated from the model itself,
    never trusted from the producer — and runs the exact MILP replay of
    :func:`certify_solution` on it.  Used to certify every heuristic
    incumbent before it is offered to the branch & bound search
    (DESIGN.md §13).
    """
    from repro.ilp.solution import Solution

    shadow = Solution(
        SolveStatus.FEASIBLE,
        objective=model.objective.evaluate(values),
        values=dict(values),
        backend="assignment-replay",
    )
    return certify_solution(model, shadow, eps=eps)
