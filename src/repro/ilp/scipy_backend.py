"""HiGHS backend: map a :class:`repro.ilp.model.Model` to scipy's MILP.

The same model object solved by the from-scratch branch & bound can be
handed to :func:`scipy.optimize.milp` (HiGHS).  This backend is the
default for the large dynamic-device mapping models of the bigger
benchmark assays; correctness-critical tests cross-check it against the
from-scratch solver on small instances.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.errors import CertificationError, SolverError
from repro.ilp.model import Model
from repro.ilp.solution import Solution, SolveStatus
from repro.obs import TELEMETRY
from repro.resilience.faults import FAULTS


def solve_scipy(
    model: Model,
    time_limit: Optional[float] = None,
    certify: str = "off",
) -> Solution:
    """Optimize ``model`` with scipy/HiGHS.

    Returns a :class:`Solution`; statuses map as: 0 → OPTIMAL,
    2 → INFEASIBLE, 3 → UNBOUNDED, 1 (iteration/time limit) → FEASIBLE
    when an incumbent exists else NO_SOLUTION.

    ``certify`` (``off``/``audit``/``strict``) replays any incumbent
    against the original model through :mod:`repro.certify` — HiGHS is
    external code, so the exact-arithmetic replay is the only line of
    defense against a miscommunicated model or a wrong answer.  Strict
    mode raises :class:`~repro.errors.CertificationError` on failure.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    if certify not in ("off", "audit", "strict"):
        raise SolverError(
            f"unknown certify level {certify!r}; expected off/audit/strict"
        )
    if FAULTS.armed and FAULTS.should_fire("scipy.milp"):
        raise SolverError("injected scipy/HiGHS backend failure (chaos test)")

    start = time.monotonic()
    c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = model.to_arrays()

    constraints = []
    if a_ub.shape[0]:
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if a_eq.shape[0]:
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))

    lower = np.array([lb for lb, _ in bounds])
    upper = np.array([ub for _, ub in bounds])
    options: Dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    res = milp(
        c=c,
        constraints=constraints,
        bounds=Bounds(lower, upper),
        integrality=integrality,
        options=options or None,
    )
    wall = time.monotonic() - start
    stats = {}
    for key in ("mip_node_count", "mip_gap", "mip_dual_bound"):
        value = getattr(res, key, None)
        if value is not None:
            stats[key] = float(value)
    if TELEMETRY.enabled:
        TELEMETRY.count("scipy.milp_solves")
        TELEMETRY.count("scipy.mip_nodes", int(stats.get("mip_node_count", 0)))
        TELEMETRY.add_time("scipy.milp", wall)

    if res.status not in (0, 1, 2, 3):
        # HiGHS reported a solve error (status 4) — seen on specific
        # small MILPs where the presolved problem trips an internal
        # assertion.  The model itself is fine, so re-solve with the
        # from-scratch branch & bound instead of reporting NO_SOLUTION
        # for a feasible model.
        if TELEMETRY.enabled:
            TELEMETRY.count("scipy.solve_errors")
        remaining = None
        if time_limit is not None:
            remaining = max(0.01, time_limit - wall)
        fallback = model.solve(
            backend="branch_bound", time_limit=remaining, certify=certify
        )
        fallback.stats["scipy_solve_error"] = 1.0
        return fallback

    if res.status == 2:
        return Solution(
            SolveStatus.INFEASIBLE, backend="scipy", wall_time=wall, stats=stats
        )
    if res.status == 3:
        return Solution(
            SolveStatus.UNBOUNDED, backend="scipy", wall_time=wall, stats=stats
        )
    if res.x is None:
        return Solution(
            SolveStatus.NO_SOLUTION, backend="scipy", wall_time=wall, stats=stats
        )

    values = {}
    for var in model.variables:
        val = float(res.x[var.index])
        if var.vtype.is_integral:
            val = float(round(val))
        values[var] = val
    objective = model.objective.evaluate(values)
    status = SolveStatus.OPTIMAL if res.status == 0 else SolveStatus.FEASIBLE
    sol = Solution(
        status,
        objective=objective,
        values=values,
        backend="scipy",
        wall_time=wall,
        stats=stats,
        nodes_explored=int(stats.get("mip_node_count", 0)),
    )
    if certify != "off":
        from repro.certify.lp import certify_solution

        cert = certify_solution(model, sol)
        sol.stats["milp_certified"] = (
            1.0 if cert.status == "certified" else 0.0
        )
        if TELEMETRY.enabled:
            TELEMETRY.count("certify.milp")
            if cert.status == "failed":
                TELEMETRY.count("certify.milp_failed")
        if cert.status == "failed" and certify == "strict":
            raise CertificationError(
                "MILP certificate failed (scipy backend): "
                + "; ".join(str(v) for v in cert.violations)
            )
    return sol
