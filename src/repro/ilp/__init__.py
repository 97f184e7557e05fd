"""A small mixed-integer linear programming stack, built from scratch.

The paper solves its dynamic-device mapping model with Gurobi (Section 4).
Gurobi is proprietary, so this package provides the substrate instead:

* a modeling layer in the spirit of the paper's formulation —
  :class:`~repro.ilp.model.Model`, :class:`~repro.ilp.variable.Var`,
  :class:`~repro.ilp.expr.LinExpr`,
  :class:`~repro.ilp.constraint.Constraint` — including the big-M
  disjunction helper used for the non-overlap constraints (eqs. 3–8).
  A model stores its rows once, as CSR, and every backend reads them;
* one LP engine written from scratch: a **compiled-model
  bounded-variable revised simplex** (:mod:`repro.ilp.compiled`) over a
  sparse LU basis factorization, with a dual-simplex phase for warm
  starts from a stored basis;
* a **branch & bound** MILP solver (:mod:`repro.ilp.branch_bound`) on
  top: the standard form is compiled once per search, the root
  relaxation is solved once, cold, and every other node warm starts
  from its parent's optimal basis, so the tree never depends on the
  clock;
* an optional fast backend that maps the same model onto
  :func:`scipy.optimize.milp` (HiGHS).

The model is backend-independent: tests assert that the from-scratch
solver and HiGHS agree on every optimum.
"""

from repro.ilp.variable import Var, VarType
from repro.ilp.expr import LinExpr
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.model import Model, quicksum
from repro.ilp.compiled import Basis, CompiledModel
from repro.ilp.solution import Solution, SolveStatus
from repro.ilp.solver import solve, available_backends

__all__ = [
    "Var",
    "VarType",
    "LinExpr",
    "Constraint",
    "Sense",
    "Model",
    "quicksum",
    "Basis",
    "CompiledModel",
    "Solution",
    "SolveStatus",
    "solve",
    "available_backends",
]
