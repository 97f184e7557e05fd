"""Linear expressions over decision variables."""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Dict, Iterable, Union

from repro.errors import ModelError
from repro.ilp.variable import Var

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ilp.constraint import Constraint

Operand = Union["LinExpr", Var, float, int]


class LinExpr:
    """An affine expression ``sum(coef_j * var_j) + constant``.

    Immutable by convention: arithmetic returns new expressions.  Terms
    with coefficient exactly 0.0 are dropped so expression size stays
    proportional to the true support — important for the mapping model,
    whose pump-load rows (eq. 2) touch only the valves under a device.
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Dict[Var, float] | None = None, constant: float = 0.0):
        self.terms: Dict[Var, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def coerce(value: Operand) -> "LinExpr":
        """Lift a number or variable to a :class:`LinExpr`."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Var):
            return value.to_expr()
        if isinstance(value, numbers.Real):
            return LinExpr({}, float(value))
        raise ModelError(f"cannot use {value!r} in a linear expression")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Operand) -> "LinExpr":
        rhs = LinExpr.coerce(other)
        terms = dict(self.terms)
        for var, coef in rhs.terms.items():
            new = terms.get(var, 0.0) + coef
            if new == 0.0:
                terms.pop(var, None)
            else:
                terms[var] = new
        return LinExpr(terms, self.constant + rhs.constant)

    def __radd__(self, other: Operand) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other: Operand) -> "LinExpr":
        return self.__add__(LinExpr.coerce(other) * -1.0)

    def __rsub__(self, other: Operand) -> "LinExpr":
        return (self * -1.0).__add__(other)

    def __mul__(self, coef) -> "LinExpr":
        if not isinstance(coef, numbers.Real):
            raise ModelError("expressions can only be scaled by constants")
        c = float(coef)
        if c == 0.0:
            return LinExpr({}, 0.0)
        return LinExpr(
            {var: c * k for var, k in self.terms.items()}, c * self.constant
        )

    def __rmul__(self, coef) -> "LinExpr":
        return self.__mul__(coef)

    def __neg__(self) -> "LinExpr":
        return self.__mul__(-1.0)

    # -- comparisons build constraints ---------------------------------------

    def __le__(self, other: Operand) -> "Constraint":
        from repro.ilp.constraint import Constraint, Sense

        return Constraint.from_sides(self, LinExpr.coerce(other), Sense.LE)

    def __ge__(self, other: Operand) -> "Constraint":
        from repro.ilp.constraint import Constraint, Sense

        return Constraint.from_sides(self, LinExpr.coerce(other), Sense.GE)

    def __eq__(self, other):  # type: ignore[override]
        from repro.ilp.constraint import Constraint, Sense

        return Constraint.from_sides(self, LinExpr.coerce(other), Sense.EQ)

    __hash__ = None  # type: ignore[assignment]  # expressions are not hashable

    # -- inspection ------------------------------------------------------------

    def variables(self) -> Iterable[Var]:
        """The variables with nonzero coefficient."""
        return self.terms.keys()

    def coefficient(self, var: Var) -> float:
        """Coefficient of ``var`` (0.0 when absent)."""
        return self.terms.get(var, 0.0)

    def evaluate(self, values: Dict[Var, float]) -> float:
        """Value of the expression under an assignment."""
        return self.constant + sum(
            coef * values.get(var, 0.0) for var, coef in self.terms.items()
        )

    def is_constant(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)
