"""Independent certification layer (DESIGN.md §10).

Everything in this package re-derives claims from original inputs and
never reuses solver or pipeline internals:

* :func:`certify_lp` — exact-arithmetic LP optimality / infeasibility
  certificates (duality gap, Farkas rays);
* :func:`certify_solution` — MILP incumbent replay against the
  original :class:`~repro.ilp.model.Model`;
* :func:`certify_assignment` — the same replay for a bare variable
  assignment (heuristic incumbents of the anytime race);
* :func:`audit` — whole-design audits of a
  :class:`~repro.core.result.SynthesisResult`.
"""

from repro.certify.audit import audit
from repro.certify.lp import (
    Certificate,
    certify_assignment,
    certify_lp,
    certify_solution,
)
from repro.certify.report import AuditReport, Violation

__all__ = [
    "AuditReport",
    "Certificate",
    "Violation",
    "audit",
    "certify_assignment",
    "certify_lp",
    "certify_solution",
]
