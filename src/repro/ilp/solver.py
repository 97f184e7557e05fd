"""Backend dispatch for MILP solving."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SolverError
from repro.ilp.model import Model
from repro.ilp.solution import Solution

#: Threshold (in number of variables) above which "auto" prefers HiGHS.
_AUTO_SCIPY_THRESHOLD = 60


def available_backends() -> List[str]:
    """Names of usable backends on this machine, fastest-preferred first."""
    backends = []
    try:  # pragma: no cover - environment probe
        from scipy.optimize import milp  # noqa: F401

        backends.append("scipy")
    except ImportError:  # pragma: no cover - scipy is a hard dependency here
        pass
    backends.append("branch_bound")
    return backends


def solve(
    model: Model,
    backend: str = "auto",
    time_limit: Optional[float] = None,
    certify: str = "off",
    **kwargs,
) -> Solution:
    """Optimize ``model`` with the selected backend.

    ``backend`` is one of:

    * ``"auto"`` — the from-scratch branch & bound for small models,
      HiGHS for anything sizable (keeps tests exercising both paths);
    * ``"scipy"`` — :func:`scipy.optimize.milp` (HiGHS);
    * ``"branch_bound"`` — the from-scratch solver; extra ``kwargs``
      (``max_nodes``, ``lp_max_iterations``, ``warm_start``, ...) are
      forwarded.

    ``certify`` (``off``/``audit``/``strict``) runs the independent
    certificate layer (:mod:`repro.certify`) on whatever the backend
    returns; ``"strict"`` raises
    :class:`~repro.errors.CertificationError` on a failed check.
    """
    if backend == "auto":
        if model.num_vars > _AUTO_SCIPY_THRESHOLD and "scipy" in available_backends():
            backend = "scipy"
        else:
            backend = "branch_bound"

    if backend == "scipy":
        from repro.ilp.scipy_backend import solve_scipy

        return solve_scipy(model, time_limit=time_limit, certify=certify)
    if backend == "branch_bound":
        from repro.ilp.branch_bound import solve_branch_bound

        return solve_branch_bound(
            model, time_limit=time_limit, certify=certify, **kwargs
        )
    raise SolverError(f"unknown backend {backend!r}; try one of "
                      f"{['auto'] + available_backends()}")
