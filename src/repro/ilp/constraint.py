"""Linear constraints for the MILP modeling layer."""

from __future__ import annotations

import enum
from typing import Dict

from repro.errors import ModelError
from repro.ilp.expr import LinExpr
from repro.ilp.tolerances import CHECK_EPS
from repro.ilp.variable import Var


class Sense(enum.Enum):
    """Direction of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Constraint:
    """A constraint ``expr (<=|>=|==) rhs`` in normalized form.

    Normalization moves every variable to the left and the constant to
    the right, i.e. ``sum(coef_j * var_j) sense rhs``, which is the form
    both solvers consume.
    """

    __slots__ = ("expr", "sense", "rhs", "name")

    def __init__(self, expr: LinExpr, sense: Sense, rhs: float, name: str = ""):
        if expr.is_constant():
            raise ModelError("constraint has no variables")
        self.expr = expr
        self.sense = sense
        self.rhs = float(rhs)
        self.name = name

    @classmethod
    def from_sides(cls, lhs: LinExpr, rhs: LinExpr, sense: Sense) -> "Constraint":
        """Build from ``lhs sense rhs``, normalizing constants to the right."""
        diff = lhs - rhs
        constant = diff.constant
        normalized = LinExpr(diff.terms, 0.0)
        return cls(normalized, sense, -constant)

    # A Constraint must never be used where a bool is expected — that is
    # almost always a forgotten ``model.add_constr(...)`` or an accidental
    # ``==`` between expressions in ordinary code.
    def __bool__(self) -> bool:
        raise ModelError(
            "a Constraint is not a boolean; did you forget "
            "model.add_constr(...)?"
        )

    def satisfied_by(self, values: Dict[Var, float], tol: float = CHECK_EPS) -> bool:
        """Whether an assignment satisfies this constraint within ``tol``."""
        lhs = self.expr.evaluate(values)
        if self.sense is Sense.LE:
            return lhs <= self.rhs + tol
        if self.sense is Sense.GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol

    def violation(self, values: Dict[Var, float]) -> float:
        """Nonnegative amount by which the assignment violates this row."""
        lhs = self.expr.evaluate(values)
        if self.sense is Sense.LE:
            return max(0.0, lhs - self.rhs)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{self.expr!r} {self.sense.value} {self.rhs:g}"
