"""Centralized floating-point tolerances for the LP/MILP stack.

Every eps constant used by the from-scratch solvers lives here, with
its semantics documented once, instead of being re-declared (and
silently diverging) across :mod:`repro.ilp.compiled` and
:mod:`repro.ilp.branch_bound`.  The
certification layer (:mod:`repro.certify`) imports the same constants,
so the checker and the solvers always agree on what "zero" means.

Semantics, grouped by role:

========================  =============================================
constant                  meaning
========================  =============================================
``OPTIMALITY_EPS``        reduced-cost threshold: a column with
                          ``|d_j| <= OPTIMALITY_EPS`` is priced as
                          non-improving (primal and dual simplex)
``FEASIBILITY_EPS``       primal bound-violation threshold of the dual
                          simplex violation scan
``PIVOT_EPS``             minimum pivot magnitude accepted when driving
                          artificials out of the basis / before a dual
                          pivot (smaller pivots mean a singular basis)
``PHASE1_EPS``            phase-1 objective above this proves
                          infeasibility (below it, residual artificial
                          mass is rounding noise)
``DUAL_FLIP_EPS``         slack band of the bound-flipping dual ratio
                          test (``gain >= remaining - DUAL_FLIP_EPS``)
``INTEGRALITY_EPS``       how far from the nearest integer a relaxation
                          value may sit and still count as integral
``GAP_EPS``               absolute branch & bound gap: nodes
                          whose bound cannot beat the incumbent by more
                          than this are pruned
``CHECK_EPS``             constraint/bound satisfaction tolerance of
                          ``Model.check_solution`` and
                          ``Constraint.satisfied_by``
``RESIDUAL_EPS``          ``||A x - b||_inf`` threshold of the revised
                          simplex residual monitor; exceeding it
                          triggers an early refactorization
``CERT_EPS``              exact-arithmetic certificate slack: the
                          :mod:`repro.certify` checkers accept primal /
                          dual / complementary-slackness residuals up
                          to this.  It is the rational ``p/q`` of a
                          :class:`fractions.Fraction`: a row replayed
                          on scaled ints (:mod:`repro.ilp.exact`)
                          fails when ``resid * q > p * (mass + |b|)``,
                          so the checker itself never rounds
``MILP_GAP_RTOL``         relative slack when auditing a reported MILP
                          gap against the replayed incumbent and bound
========================  =============================================
"""

from __future__ import annotations

from fractions import Fraction

#: Reduced-cost / pricing tolerance of the primal and dual simplex.
OPTIMALITY_EPS = 1e-9

#: Primal-feasibility tolerance of the dual simplex violation scan.
FEASIBILITY_EPS = 1e-8

#: Minimum acceptable pivot magnitude (artificial eviction, dual pivot).
PIVOT_EPS = 1e-7

#: Phase-1 objective above this is a proof of infeasibility.
PHASE1_EPS = 1e-7

#: Slack band of the bound-flipping dual ratio test.
DUAL_FLIP_EPS = 1e-12

#: Distance from the nearest integer still counted as integral.
INTEGRALITY_EPS = 1e-6

#: Default absolute branch & bound pruning gap.
GAP_EPS = 1e-6

#: Constraint/bound satisfaction tolerance of the modeling layer.
CHECK_EPS = 1e-6

#: ``||A x - b||_inf`` threshold of the residual monitor.
RESIDUAL_EPS = 1e-7

#: Exact-arithmetic certificate slack (a Fraction ``p/q``: the scaled-int
#: row replay compares ``resid * q`` against ``p * (mass + |b|)``).
CERT_EPS = Fraction(1, 10**6)

#: Relative slack when auditing a reported MILP gap.
MILP_GAP_RTOL = 1e-4
