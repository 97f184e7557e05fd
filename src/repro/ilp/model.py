"""The MILP model container and big-M helpers.

The modeling vocabulary here is deliberately close to the paper's
formulation (Section 3.2): binary selection variables, integer load
variables, linear constraints, a big-M disjunction helper implementing
eqs. (4)–(8), and the relaxable variant with the auxiliary binary ``c5``
of eq. (12).

A :class:`Model` stores its rows once, as CSR (:class:`Rows`) that
every solver and checker reads: :meth:`Model.add_rows` appends a whole
block, :meth:`Model.add_constr` one hand-built
:class:`~repro.ilp.constraint.Constraint`.  Variables stay
:class:`~repro.ilp.variable.Var` column handles.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.ilp.constraint import Constraint, Sense
from repro.ilp.expr import LinExpr
from repro.ilp.tolerances import CHECK_EPS
from repro.ilp.variable import Var, VarType

#: Row sense codes of the CSR store (:attr:`Rows.sense`).
LE, GE, EQ = 1, -1, 0
_CODE = {Sense.LE: LE, Sense.GE: GE, Sense.EQ: EQ}
_SENSE = {code: sense for sense, code in _CODE.items()}


def quicksum(items: Iterable) -> LinExpr:
    """Sum variables/expressions/constants into one :class:`LinExpr`.

    Unlike built-in :func:`sum`, this grows a single mutable accumulator,
    which keeps model construction linear in the number of terms.
    """
    terms: Dict[Var, float] = {}
    constant = 0.0
    for item in items:
        expr = LinExpr.coerce(item)
        constant += expr.constant
        for var, coef in expr.terms.items():
            terms[var] = terms.get(var, 0.0) + coef
    return LinExpr({v: c for v, c in terms.items() if c != 0.0}, constant)


class ObjectiveSense(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Rows(NamedTuple):
    """Constraint rows as canonical CSR: row ``i`` is
    ``sum(data[k] * x[indices[k]] for k in range(indptr[i], indptr[i+1]))
    sense[i] rhs[i]``, with sorted column indices and no stored zero."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    sense: np.ndarray  # LE / GE / EQ codes
    rhs: np.ndarray
    names: List[str]

    def activity(self, x: np.ndarray) -> np.ndarray:
        """Every row's left-hand side at the point ``x``."""
        row_of = np.repeat(np.arange(len(self.rhs)), np.diff(self.indptr))
        return np.bincount(
            row_of, weights=self.data * x[self.indices], minlength=len(self.rhs)
        )


class Model:
    """A mixed-integer linear program.

    Construction is solver-agnostic; call :meth:`solve` (or
    :func:`repro.ilp.solver.solve`) to optimize with either the
    from-scratch branch & bound or the scipy/HiGHS backend.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Var] = []
        self._blocks = [Rows(
            np.zeros(1, np.int64),
            *(np.zeros(0, t) for t in (np.int64, float, np.int8, float)),
            [],
        )]
        self.set_cost([], [])

    # -- variables -----------------------------------------------------------

    def add_var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Var:
        """Create and register a new decision variable."""
        index = len(self.variables)
        var = Var(name or f"x{index}", index, lb, ub, vtype)
        self.variables.append(var)
        return var

    def add_binary(self, name: str = "") -> Var:
        """A 0/1 variable — e.g. a selection variable ``s[x,y,k,i]``."""
        return self.add_var(name, 0.0, 1.0, VarType.BINARY)

    def add_integer(self, name: str = "", lb: float = 0.0, ub: float = math.inf) -> Var:
        """An integer variable — e.g. a valve load ``v[x,y]``."""
        return self.add_var(name, lb, ub, VarType.INTEGER)

    def add_continuous(
        self, name: str = "", lb: float = 0.0, ub: float = math.inf
    ) -> Var:
        return self.add_var(name, lb, ub, VarType.CONTINUOUS)

    # -- constraints -----------------------------------------------------------

    def add_rows(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        coefs: np.ndarray,
        sense,
        rhs: Sequence[float],
        names: Sequence[str],
    ) -> None:
        """Append a block of rows given as triplets: ``coefs[k]`` sits in
        the block's row ``rows[k]`` at column ``cols[k]``.

        ``sense`` is one code or one per row.  Zero coefficients are
        dropped and each row's columns sorted, so the store stays
        canonical CSR; a row left without a variable is an error, as in
        :class:`~repro.ilp.constraint.Constraint`.
        """
        m = len(names)
        rows, cols, coefs = (np.asarray(a) for a in (rows, cols, coefs))
        keep = coefs != 0.0
        rows, cols = rows[keep].astype(np.int64), cols[keep].astype(np.int64)
        if cols.size and (cols.min() < 0 or cols.max() >= len(self.variables)):
            raise ModelError("constraint uses a variable from another model")
        order = np.argsort(rows * len(self.variables) + cols, kind="stable")
        lengths = np.bincount(rows, minlength=m)
        if m and not lengths.all():
            raise ModelError("constraint has no variables")
        self._blocks.append(Rows(
            np.concatenate(([0], np.cumsum(lengths))),
            cols[order],
            np.asarray(coefs[keep], dtype=float)[order],
            np.broadcast_to(np.asarray(sense, dtype=np.int8), (m,)).copy(),
            np.asarray(rhs, dtype=float).reshape(m),
            list(names),
        ))

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                f"add_constr expects a Constraint, got {type(constraint).__name__}"
            )
        for var in constraint.expr.variables():
            owned = (
                var.index < len(self.variables)
                and self.variables[var.index] is var
            )
            if not owned:
                raise ModelError(
                    f"constraint uses variable {var.name} from another model"
                )
        if name:
            constraint.name = name
        terms = constraint.expr.terms
        self.add_rows(
            np.zeros(len(terms), dtype=np.int64),
            [var.index for var in terms],
            list(terms.values()),
            _CODE[constraint.sense],
            [constraint.rhs],
            [constraint.name],
        )
        return constraint

    def add_big_m_disjunction(
        self,
        constraints: Sequence[Constraint],
        big_m: float,
        name: str = "",
        relax_var: Optional[Var] = None,
    ) -> List[Var]:
        """Require at least one of ``constraints`` to hold (eqs. 4–8).

        Each constraint gets an auxiliary binary ``c_k`` that, when 1,
        relaxes its row by ``big_m`` (eqs. 4–7).  The cardinality row
        ``sum(c_k) == n - 1`` (eq. 8) forces at least one row to stay
        active.  When ``relax_var`` (the paper's ``c5``, eq. 12) is
        given, the row becomes ``sum(c_k) == n - 1 + relax_var`` so a
        solver may switch the whole disjunction off by setting
        ``relax_var = 1`` — the in-situ storage / parent-device overlap
        permission of Section 3.3.

        Returns the auxiliary binaries ``[c_1 .. c_n]``.
        """
        if not constraints:
            raise ModelError("disjunction needs at least one constraint")
        auxiliaries: List[Var] = []
        for k, con in enumerate(constraints):
            aux = self.add_binary(f"{name}.c{k + 1}" if name else f"c{k + 1}")
            auxiliaries.append(aux)
            if con.sense is Sense.LE:
                relaxed = con.expr - big_m * aux <= con.rhs
            elif con.sense is Sense.GE:
                relaxed = con.expr + big_m * aux >= con.rhs
            else:
                raise ModelError("disjunction terms must be inequalities")
            self.add_constr(relaxed, f"{name}.term{k + 1}" if name else "")
        cardinality = quicksum(auxiliaries)
        rhs: LinExpr = LinExpr({}, float(len(constraints) - 1))
        if relax_var is not None:
            rhs = rhs + relax_var
        self.add_constr(cardinality == rhs, f"{name}.card" if name else "")
        return auxiliaries

    # -- objective ------------------------------------------------------------

    def set_objective(
        self, expr, sense: ObjectiveSense = ObjectiveSense.MINIMIZE
    ) -> None:
        expr = LinExpr.coerce(expr)
        self.set_cost(
            [var.index for var in expr.terms], list(expr.terms.values()),
            expr.constant, sense,
        )

    def set_cost(
        self,
        cols: Sequence[int],
        coefs: Sequence[float],
        constant: float = 0.0,
        sense: ObjectiveSense = ObjectiveSense.MINIMIZE,
    ) -> None:
        """The objective ``constant + sum(coefs[k] * x[cols[k]])``."""
        self._obj_cols = np.asarray(cols, dtype=np.int64)
        self._obj_coefs = np.asarray(coefs, dtype=float)
        self._obj_constant = float(constant)
        self.objective_sense = sense

    def minimize(self, expr) -> None:
        self.set_objective(expr, ObjectiveSense.MINIMIZE)

    def maximize(self, expr) -> None:
        self.set_objective(expr, ObjectiveSense.MAXIMIZE)

    @property
    def objective(self) -> LinExpr:
        """The objective as a (derived, read-only) expression."""
        terms = zip(
            map(self.variables.__getitem__, self._obj_cols.tolist()),
            self._obj_coefs.tolist(),
        )
        return LinExpr(dict(terms), self._obj_constant)

    # -- inspection -------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.vtype.is_integral)

    @property
    def num_constrs(self) -> int:
        return sum(len(block.rhs) for block in self._blocks)

    def rows(self) -> Rows:
        """The constraint store (appended blocks are merged on demand).

        Merging is idempotent: two threads reading a finished model (the
        anytime race's lanes) may both merge and get equal stores."""
        blocks = self._blocks
        if len(blocks) == 1:
            return blocks[0]
        offsets = np.cumsum([0] + [len(b.indices) for b in blocks])
        merged = Rows(
            np.concatenate(
                [[0]] + [b.indptr[1:] + o for b, o in zip(blocks, offsets)]
            ),
            *(np.concatenate([b[f] for b in blocks]) for f in range(1, 5)),
            [name for b in blocks for name in b.names],
        )
        self._blocks = [merged]
        return merged

    def constraint(self, i: int) -> Constraint:
        """Row ``i`` of the store as a :class:`Constraint`."""
        rows = self.rows()
        lo, hi = rows.indptr[i], rows.indptr[i + 1]
        terms = dict(zip(
            map(self.variables.__getitem__, rows.indices[lo:hi].tolist()),
            rows.data[lo:hi].tolist(),
        ))
        return Constraint(
            LinExpr(terms), _SENSE[int(rows.sense[i])], float(rows.rhs[i]),
            rows.names[i],
        )

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """Every row as a :class:`Constraint` — a view derived from the
        store; editing it does not change the model."""
        return tuple(self.constraint(i) for i in range(self.num_constrs))

    def check_solution(
        self, values: Dict[Var, float], tol: float = CHECK_EPS
    ) -> List[str]:
        """Names/reprs of constraints and bounds violated by ``values``."""
        variables = self.variables
        x = np.array([values.get(v, 0.0) for v in variables], dtype=float)
        lb = np.array([v.lb for v in variables], dtype=float)
        ub = np.array([v.ub for v in variables], dtype=float)
        integral = np.array([v.vtype.is_integral for v in variables], dtype=bool)
        bad_bound = (x < lb - tol) | (x > ub + tol)
        bad_int = integral & (np.abs(x - np.round(x)) > tol)
        problems: List[str] = []
        for j in np.flatnonzero(bad_bound | bad_int).tolist():
            var = variables[j]
            val = values.get(var, 0.0)
            if bad_bound[j]:
                problems.append(f"bound violated: {var.name}={val}")
            if bad_int[j]:
                problems.append(f"integrality violated: {var.name}={val}")
        rows = self.rows()
        lhs = rows.activity(x)
        ok = np.where(
            rows.sense == LE,
            lhs <= rows.rhs + tol,
            np.where(
                rows.sense == GE,
                lhs >= rows.rhs - tol,
                np.abs(lhs - rows.rhs) <= tol,
            ),
        )
        for i in np.flatnonzero(~ok).tolist():
            problems.append(f"constraint violated: {self.constraint(i)!r}")
        return problems

    # -- matrix form --------------------------------------------------------------

    def to_arrays(self):
        """Minimize-form ``(c, A_ub, b_ub, A_eq, b_eq, bounds,
        integrality)`` for the LP/MILP backends, with ``A_ub`` and
        ``A_eq`` as canonical CSR (``scipy.sparse.csr_matrix``).

        ``>=`` rows are negated into ``A_ub``; maximization negates the
        objective, and callers that need the true objective value negate
        back (both backends in this package do).  ``integrality`` flags
        integral columns 1, continuous 0.
        """
        from scipy.sparse import csr_matrix

        n = self.num_vars
        c = np.zeros(n)
        c[self._obj_cols] = self._obj_coefs
        if self.objective_sense is ObjectiveSense.MAXIMIZE:
            c = -c
        rows = self.rows()
        sign = np.where(rows.sense == GE, -1.0, 1.0)
        signed = csr_matrix(
            (rows.data * np.repeat(sign, np.diff(rows.indptr)), rows.indices,
             rows.indptr),
            shape=(len(rows.rhs), n),
        )
        ub = np.flatnonzero(rows.sense != EQ)
        eq = np.flatnonzero(rows.sense == EQ)
        bounds = [(v.lb, v.ub) for v in self.variables]
        integrality = np.array(
            [1 if v.vtype.is_integral else 0 for v in self.variables]
        )
        return (
            c, signed[ub], sign[ub] * rows.rhs[ub], signed[eq], rows.rhs[eq],
            bounds, integrality,
        )

    # -- solving ------------------------------------------------------------------

    def solve(self, backend: str = "auto", **kwargs):
        """Optimize the model; see :func:`repro.ilp.solver.solve`."""
        from repro.ilp.solver import solve as _solve

        return _solve(self, backend=backend, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Model({self.name}: {self.num_vars} vars "
            f"({self.num_integer_vars} integral), {self.num_constrs} constrs)"
        )
