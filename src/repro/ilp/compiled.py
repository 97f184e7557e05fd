"""Compiled LP standard form + bounded-variable revised simplex.

This is the LP engine underneath the from-scratch branch & bound MILP
solver (:mod:`repro.ilp.branch_bound`), which solves one relaxation
per tree node; every node differs from its parent by a single
variable-bound tightening.  The engine is built around that:

* :class:`CompiledModel` performs the standard-form conversion **once
  per search**.  Variables keep their native bounds (no mirror/split
  columns, no bound rows): the matrix is ``[A_ub | I slacks | I
  artificials]`` over ``A_eq`` stacked below, shared by every node;
  only the bound vectors change from node to node.
* the revised simplex core works directly on bounded variables — a
  nonbasic variable sits at its lower or upper bound (or at zero when
  free) and may *bound-flip* without a basis change.
* a **dual simplex** phase re-solves a child node from its parent's
  optimal basis: tightening one bound leaves the basis dual feasible,
  so a handful of dual pivots replace a full phase-1 + phase-2 cold
  start.  :class:`Basis` snapshots are small (two integer arrays) and
  are stored on the branch & bound nodes.
* the constraint matrix is held in CSC form and the basis is
  factorized by ``scipy.sparse.linalg.splu`` (Markowitz-style
  fill-reducing LU).  Pivots extend the factorization through an **eta
  file** (product-form updates applied during every FTRAN/BTRAN)
  instead of touching the factors, with periodic refactorization — and
  early refactorization when the residual monitor sees drift.  Pricing
  is Dantzig (most-improving reduced cost) with an automatic switch to
  Bland's rule after a run of degenerate pivots, so termination stays
  guaranteed.

Statuses and optimal objectives are identical to the cold-start path;
the equivalence is asserted both ways in ``tests/ilp/test_warm_start.py``
and benchmarked in ``benchmarks/test_warm_start_speedup.py``.  Answers
are checked against exact-arithmetic certificates
(:mod:`repro.certify.lp`) and against scipy's HiGHS
(``tests/ilp/test_engine_equivalence.py``,
``tests/ilp/test_solver_differential.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ilp.solution import SolveStatus
from repro.ilp.tolerances import (
    DUAL_FLIP_EPS,
    FEASIBILITY_EPS,
    OPTIMALITY_EPS,
    PHASE1_EPS,
    PIVOT_EPS,
    RESIDUAL_EPS,
)
from repro.obs import TELEMETRY

#: Aliases kept for existing importers; the documented constants live in
#: :mod:`repro.ilp.tolerances`.
_EPS = OPTIMALITY_EPS
_FEAS_EPS = FEASIBILITY_EPS
_PIVOT_EPS = PIVOT_EPS
#: Refactorize the basis (drop the eta file and re-run the LU) every
#: this many pivots.  Applying the eta file costs one dense saxpy per
#: recorded pivot per solve, so the cycle length trades a cheap
#: periodic LU against linearly growing FTRAN/BTRAN cost; 32 measures
#: better than 64 on the mapping models.
_REFACTOR_EVERY = 32
#: Residual-monitor cadence: halfway through each refactor cycle the
#: primal core checks ``||A x - b||_inf`` and refactorizes early when
#: the product-form updates have drifted past ``RESIDUAL_EPS``.
_MONITOR_AT = _REFACTOR_EVERY // 2
#: Dantzig pricing falls back to Bland's rule after this many
#: consecutive degenerate basis changes (anti-cycling guarantee); a
#: nondegenerate step switches back.
_BLAND_AFTER = 100

#: Nonbasic/basic markers in :attr:`Basis.status`.
BASIC = 0
AT_LOWER = -1
AT_UPPER = 1
FREE = 2


@dataclass
class LpResult:
    """Raw result of an LP solve in the original variable space.

    ``iterations`` counts every pivot (primal and dual) and
    ``dual_pivots`` the dual-simplex share of them; ``basis`` is the
    optimal basis snapshot for child-node reuse, and ``warm_started`` /
    ``cold_fallback`` record whether a supplied parent basis was
    actually used or had to be abandoned.

    The certificate fields are filled only when the solve was asked for
    them (``want_duals=True``): ``duals`` holds one multiplier per
    original row (``a_ub`` rows first, then ``a_eq`` rows; <= 0 on the
    inequality rows) at an OPTIMAL verdict, ``farkas`` the same-shaped
    infeasibility ray at an INFEASIBLE verdict.  They are consumed by
    :mod:`repro.certify`.
    """

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: float = math.nan
    iterations: int = 0
    dual_pivots: int = 0
    basis: Optional[Basis] = None
    warm_started: bool = False
    cold_fallback: bool = False
    duals: Optional[np.ndarray] = None
    farkas: Optional[np.ndarray] = None


@dataclass
class Basis:
    """A simplex basis snapshot: which columns are basic, and where the
    nonbasic ones rest.

    ``basic`` holds the ``m`` basic column indices (row order); ``status``
    marks every extended column BASIC / AT_LOWER / AT_UPPER / FREE.
    Snapshots are immutable by convention — warm solves copy before
    pivoting — so one snapshot may be shared by both children of a node.
    """

    basic: np.ndarray
    status: np.ndarray

    def copy(self) -> "Basis":
        return Basis(self.basic.copy(), self.status.copy())


class _Exhausted(Exception):
    """Internal: the pivot cap was reached (maps to NO_SOLUTION)."""


class _SingularBasis(Exception):
    """Internal: refactorization failed (warm solves fall back cold)."""


class _SparseLuFactor:
    """Sparse LU basis factorization with an eta-file for updates.

    ``refactor`` runs ``scipy.sparse.linalg.splu`` on the basis columns
    of the CSC matrix (fill-reducing column ordering, Markowitz-style
    threshold pivoting inside SuperLU).  A pivot does not touch the
    factors: it appends an **eta vector** so that
    ``B_k^-1 = E_k ... E_1 B_0^-1``, and every FTRAN/BTRAN applies the
    eta file on top of the triangular solves.  The file is dropped at
    the next refactorization (periodic, or early via the residual
    monitor), which bounds both memory and the per-solve eta cost.
    """

    def __init__(self, a_csc) -> None:
        self._a = a_csc
        self._m = a_csc.shape[0]
        self._lu = None
        self._identity = False
        #: eta file: list of ``(r, eta)`` with ``eta = col - e_r`` where
        #: ``col`` is column ``r`` of the elementary matrix ``E``.
        self._etas: List[Tuple[int, np.ndarray]] = []

    def refactor(self, basic: np.ndarray) -> None:
        from scipy.sparse.linalg import splu

        self._etas = []
        if self._m == 0:
            self._lu = None
            return
        # Identity fast path: every cold start seeds the basis with one
        # slack or artificial per row, i.e. B = I exactly.  Detecting
        # that from the CSC structure costs O(m) and skips SuperLU
        # entirely — the branch-&-bound cold path refactors this basis
        # once per node.
        ap, ai, ax = self._a.indptr, self._a.indices, self._a.data
        starts = ap[basic]
        if (
            np.all(ap[basic + 1] - starts == 1)
            and np.array_equal(ai[starts], np.arange(self._m, dtype=ai.dtype))
            and np.all(ax[starts] == 1.0)
        ):
            self._lu = None
            self._identity = True
            return
        self._identity = False
        b = self._a[:, basic].tocsc()
        try:
            self._lu = splu(b)
        except RuntimeError:  # "Factor is exactly singular"
            raise _SingularBasis()
        # SuperLU happily factors numerically-degenerate bases into
        # factors with absurd scale; a quick conditioning probe turns
        # those into the cold-start fallback instead of garbage pivots.
        probe = self._lu.solve(np.ones(self._m))
        if not np.all(np.isfinite(probe)):
            raise _SingularBasis()

    def ftran(self, v: np.ndarray) -> np.ndarray:
        if self._m == 0:
            return np.zeros(0)
        u = v.copy() if self._identity else self._lu.solve(v)
        for r, eta in self._etas:
            t = u[r]
            if t != 0.0:
                u += t * eta
        return u

    def btran(self, v: np.ndarray) -> np.ndarray:
        if self._m == 0:
            return np.zeros(0)
        t = np.asarray(v, dtype=float).copy()
        for r, eta in reversed(self._etas):
            t[r] += float(t @ eta)
        return t if self._identity else self._lu.solve(t, trans="T")

    def row(self, r: int) -> np.ndarray:
        e = np.zeros(self._m)
        e[r] = 1.0
        return self.btran(e)

    def update(self, w: np.ndarray, r: int) -> None:
        eta = w / -w[r]
        eta[r] = 1.0 / w[r] - 1.0
        self._etas.append((r, eta))


class CompiledModel:
    """Standard equality form with native variable bounds, built once.

    Columns are ``[structural | slack per <= row | artificial per row]``;
    rows are ``A_ub`` stacked over ``A_eq``.  Slacks live in ``[0, inf)``;
    artificials are pinned to ``[0, 0]`` except while a cold phase 1
    temporarily opens row ``i``'s artificial to cover its residual.
    """

    def __init__(
        self,
        c: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
    ) -> None:
        from scipy.sparse import csc_matrix

        n = len(c)
        a_ub = (
            np.asarray(a_ub, dtype=float).reshape(-1, n)
            if np.size(a_ub)
            else np.zeros((0, n))
        )
        a_eq = (
            np.asarray(a_eq, dtype=float).reshape(-1, n)
            if np.size(a_eq)
            else np.zeros((0, n))
        )
        m_ub = a_ub.shape[0]
        m = m_ub + a_eq.shape[0]
        total = n + m_ub  # structural + slack columns
        total_ext = total + m  # + one artificial per row

        a = np.zeros((m, total_ext))
        a[:m_ub, :n] = a_ub
        a[m_ub:, :n] = a_eq
        a[:m_ub, n : n + m_ub] = np.eye(m_ub)
        a[:, total:] = np.eye(m)

        self.n = n
        self.m = m
        self.m_ub = m_ub
        self.total = total
        self.total_ext = total_ext
        self.b = np.concatenate(
            [np.asarray(b_ub, dtype=float).ravel(), np.asarray(b_eq, dtype=float).ravel()]
        )
        self.cost = np.zeros(total_ext)
        self.cost[:n] = np.asarray(c, dtype=float)
        self.asp = csc_matrix(a)
        # Materialized transpose: `asp.T` builds a fresh matrix on
        # every call, and pricing does two transpose products per
        # pivot — caching it takes that off the hot path.
        self.asp_t = self.asp.T.tocsc()
        try:
            # The `@` operator spends more time in scipy's dispatch
            # and validation wrappers than in the multiply itself at
            # these sizes (one pricing product per pivot); calling
            # the C kernel directly skips that.  Private API, so any
            # import/shape surprise falls back to the operator.
            from scipy.sparse import _sparsetools

            self._csc_matvec = _sparsetools.csc_matvec
        except (ImportError, AttributeError):
            self._csc_matvec = None
        self._resid_tol = RESIDUAL_EPS * (
            1.0 + (float(np.abs(self.b).max()) if m else 0.0)
        )
        #: Early refactorizations triggered by the residual monitor
        #: (cumulative; ``solve`` flushes the per-solve delta).
        self._monitor_refactors = 0
        #: Dual-unbounded ray of the last warm solve (set by ``_dual``).
        self._dual_ray: Optional[np.ndarray] = None
        #: The caller's stop predicate for the current solve (set per
        #: :meth:`solve` call); the pivot loops poll it so a hard LP
        #: cannot overshoot a caller's time limit by the full iteration
        #: cap.
        self._stop: Optional[Callable[[], bool]] = None

    # -- sparse products --------------------------------------------------

    def _ax(self, x: np.ndarray) -> np.ndarray:
        """``A x`` over the extended columns."""
        if self._csc_matvec is not None:
            out = np.zeros(self.m)
            mat = self.asp
            self._csc_matvec(
                self.m, self.total_ext,
                mat.indptr, mat.indices, mat.data, x, out,
            )
            return out
        return self.asp @ x

    def _aty(self, y: np.ndarray) -> np.ndarray:
        """``y A`` (row duals priced over every extended column)."""
        if self._csc_matvec is not None:
            out = np.zeros(self.total_ext)
            mat = self.asp_t
            self._csc_matvec(
                self.total_ext, self.m,
                mat.indptr, mat.indices, mat.data, y, out,
            )
            return out
        return self.asp_t @ y

    def _column(self, q: int) -> np.ndarray:
        col = np.zeros(self.m)
        start, end = self.asp.indptr[q], self.asp.indptr[q + 1]
        col[self.asp.indices[start:end]] = self.asp.data[start:end]
        return col

    # -- bounds ----------------------------------------------------------

    def _extended_bounds(
        self, bounds: Sequence[Tuple[float, float]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        lb = np.zeros(self.total_ext)
        ub = np.zeros(self.total_ext)
        for j, (lo, hi) in enumerate(bounds):
            lb[j] = lo
            ub[j] = hi
        ub[self.n : self.total] = math.inf  # slacks: [0, inf)
        # artificials stay pinned at [0, 0] unless phase 1 opens them
        return lb, ub

    # -- entry point -----------------------------------------------------

    def solve(
        self,
        bounds: Sequence[Tuple[float, float]],
        basis: Optional[Basis] = None,
        max_iterations: int = 200_000,
        want_duals: bool = False,
        stop: Optional[Callable[[], bool]] = None,
    ) -> LpResult:
        """Minimize the compiled objective under per-call ``bounds``.

        With ``basis`` (a parent node's optimal basis) the solve warm
        starts through the dual simplex; without one — or when the warm
        path fails — it cold starts through phase 1.  The returned
        :class:`LpResult` carries the optimal
        :class:`Basis` for reuse, the dual pivot count, and whether the
        warm path was actually used (``warm_started`` /
        ``cold_fallback``).  With ``want_duals`` it also carries the
        row duals at OPTIMAL and a Farkas ray at INFEASIBLE, for
        :mod:`repro.certify`.

        ``stop`` is polled every 64 pivots; once it returns true the
        solve gives up with ``NO_SOLUTION``, so a stopped search (the
        time limit of the anytime race or of budgeted synthesis, or a
        closed incumbent pool) is bounded by its stop signal rather than
        by however long ``max_iterations`` pivots take on a hard
        relaxation.
        """
        self._stop = stop
        lb, ub = self._extended_bounds(bounds)
        if np.any(lb[: self.n] > ub[: self.n]):
            return LpResult(SolveStatus.INFEASIBLE)

        pivot_start = time.perf_counter()
        monitor_before = self._monitor_refactors
        if basis is not None:
            try:
                res = self._warm_solve(lb, ub, basis, max_iterations, want_duals)
            except (_SingularBasis, _Exhausted):
                res = None
            if res is not None:
                res.warm_started = True
            else:
                # Warm start failed (singular or stalled basis): pay the
                # cold start but record that the reuse attempt was wasted.
                res = self._cold_solve(lb, ub, max_iterations, want_duals)
                res.cold_fallback = True
        else:
            res = self._cold_solve(lb, ub, max_iterations, want_duals)
        # One flush per solve keeps `simplex.*` telemetry covering every
        # LP the search runs.
        if TELEMETRY.enabled:
            TELEMETRY.count("simplex.solves")
            TELEMETRY.count("simplex.iterations", res.iterations)
            TELEMETRY.add_time(
                "simplex.pivot", time.perf_counter() - pivot_start
            )
            hits = self._monitor_refactors - monitor_before
            if hits:
                TELEMETRY.count("simplex.residual_refactors", hits)
        return res

    # -- tableau access (root cuts) --------------------------------------

    def basis_row_multipliers(
        self, basis: Basis, row_indices: Sequence[int]
    ) -> Optional[np.ndarray]:
        """Rows ``e_r^T B^-1`` of the basis inverse, for cut derivation.

        Returns a ``(len(row_indices), m)`` array of row multipliers in
        the caller's row space, or ``None`` when the basis cannot be
        factorized.
        """
        fac = _SparseLuFactor(self.asp)
        try:
            fac.refactor(np.asarray(basis.basic))
        except _SingularBasis:
            return None
        return np.array([fac.row(int(r)) for r in row_indices])

    # -- cold path -------------------------------------------------------

    def _cold_solve(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        max_iterations: int,
        want_duals: bool = False,
    ) -> LpResult:
        m, n, total = self.m, self.n, self.total
        status = np.full(self.total_ext, AT_LOWER, dtype=np.int8)
        for j in range(n):
            if math.isfinite(lb[j]):
                status[j] = AT_LOWER
            elif math.isfinite(ub[j]):
                status[j] = AT_UPPER
            else:
                status[j] = FREE
        # slacks and artificials start at their lower bound (zero)

        residual = self.b - self._ax(self._rest_values(status, lb, ub))
        basic = np.empty(m, dtype=np.int64)
        art_rows: List[int] = []
        for i in range(m):
            if i < self.m_ub and residual[i] >= 0.0:
                basic[i] = n + i  # the +1 slack seeds the basis
            else:
                basic[i] = total + i
                art_rows.append(i)
        status[basic] = BASIC
        fac = _SparseLuFactor(self.asp)
        fac.refactor(basic)

        iterations = 0
        if art_rows:
            # Phase 1: open each seeding artificial toward its residual
            # and price it back to zero.  Row i's artificial column is
            # +e_i, so bounds [min(0, r), max(0, r)] with cost sign(r)
            # make the phase-1 objective sum(|a_i|), zero iff feasible.
            phase1 = np.zeros(self.total_ext)
            for i in art_rows:
                col = total + i
                r = residual[i]
                lb[col] = min(0.0, r)
                ub[col] = max(0.0, r)
                phase1[col] = math.copysign(1.0, r) if r else 0.0
            try:
                st, obj, iterations = self._primal(
                    basic, status, fac, lb, ub, phase1,
                    max_iterations, iterations,
                )
            except _Exhausted as exc:
                return LpResult(
                    SolveStatus.NO_SOLUTION, iterations=exc.args[0]
                )
            except _SingularBasis:
                return LpResult(SolveStatus.NO_SOLUTION, iterations=iterations)
            if st is not SolveStatus.OPTIMAL or obj > PHASE1_EPS:
                farkas = None
                if want_duals and st is SolveStatus.OPTIMAL:
                    # Phase-1 optimal duals certify infeasibility: at a
                    # positive phase-1 optimum y = c1_B B^-1 satisfies
                    # y @ A_col <= 0 for every real column and y @ b > 0.
                    farkas = fac.btran(phase1[basic])
                return LpResult(
                    SolveStatus.INFEASIBLE,
                    iterations=iterations,
                    farkas=farkas,
                )
            lb[total:] = 0.0
            ub[total:] = 0.0
            self._evict_artificials(basic, status, fac)

        try:
            return self._optimize_and_extract(
                basic, status, fac, lb, ub, max_iterations, iterations, 0,
                want_duals,
            )
        except _Exhausted as exc:
            return LpResult(SolveStatus.NO_SOLUTION, iterations=exc.args[0])
        except _SingularBasis:
            return LpResult(SolveStatus.NO_SOLUTION, iterations=iterations)

    # -- warm path -------------------------------------------------------

    def _warm_solve(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: Basis,
        max_iterations: int,
        want_duals: bool = False,
    ) -> Optional[LpResult]:
        basic = basis.basic.copy()
        status = basis.status.copy()
        # Bound tightenings cannot turn a finite bound infinite, but the
        # public API guards anyway: a nonbasic resting on a bound that no
        # longer exists becomes free-at-zero.
        nb_lower = (status == AT_LOWER) & ~np.isfinite(lb)
        nb_upper = (status == AT_UPPER) & ~np.isfinite(ub)
        status[nb_lower | nb_upper] = FREE
        fac = _SparseLuFactor(self.asp)
        fac.refactor(basic)

        # The parent's optimal basis stays dual feasible after a bound
        # move (reduced costs depend only on the basis), so the dual
        # simplex repairs primal feasibility directly.  A tight pivot
        # budget (a small multiple of the row count) bounds the cost of
        # an unlucky warm start: past it the solve falls back cold.
        dual_cap = min(max_iterations, 4 * self.m + 100)
        self._dual_ray = None
        dual_pivots = self._dual(
            basic, status, fac, lb, ub, self.cost, dual_cap
        )
        if dual_pivots < 0:  # dual unbounded: the child LP is infeasible
            farkas = None
            if want_duals and self._dual_ray is not None:
                farkas = self._dual_ray
            return LpResult(
                SolveStatus.INFEASIBLE,
                iterations=-dual_pivots - 1,
                dual_pivots=-dual_pivots - 1,
                farkas=farkas,
            )
        res = self._optimize_and_extract(
            basic, status, fac, lb, ub, max_iterations, dual_pivots,
            dual_pivots, want_duals,
        )
        return res

    # -- shared tail -----------------------------------------------------

    def _optimize_and_extract(
        self,
        basic: np.ndarray,
        status: np.ndarray,
        fac,
        lb: np.ndarray,
        ub: np.ndarray,
        max_iterations: int,
        iterations: int,
        dual_pivots: int,
        want_duals: bool = False,
    ) -> LpResult:
        st, _, iterations = self._primal(
            basic, status, fac, lb, ub, self.cost, max_iterations, iterations
        )
        if st is not SolveStatus.OPTIMAL:
            return LpResult(st, iterations=iterations, dual_pivots=dual_pivots)
        x = self._full_solution(basic, status, fac, lb, ub)
        x_struct = x[: self.n].copy()
        duals = None
        if want_duals:
            duals = fac.btran(self.cost[basic])
        return LpResult(
            SolveStatus.OPTIMAL,
            x_struct,
            float(self.cost[: self.n] @ x_struct),
            iterations,
            dual_pivots=dual_pivots,
            basis=Basis(basic.copy(), status.copy()),
            duals=duals,
        )

    # -- linear algebra helpers ------------------------------------------

    def _rest_values(
        self, status: np.ndarray, lb: np.ndarray, ub: np.ndarray
    ) -> np.ndarray:
        """Values of all columns with basics zeroed (nonbasic rest points)."""
        x = np.zeros(self.total_ext)
        at_l = status == AT_LOWER
        at_u = status == AT_UPPER
        x[at_l] = lb[at_l]
        x[at_u] = ub[at_u]
        return x

    def _full_solution(
        self,
        basic: np.ndarray,
        status: np.ndarray,
        fac,
        lb: np.ndarray,
        ub: np.ndarray,
    ) -> np.ndarray:
        x = self._rest_values(status, lb, ub)
        x[basic] = fac.ftran(self.b - self._ax(x))
        return x

    # -- primal simplex --------------------------------------------------

    def _primal(
        self,
        basic: np.ndarray,
        status: np.ndarray,
        fac,
        lb: np.ndarray,
        ub: np.ndarray,
        cost: np.ndarray,
        max_iterations: int,
        iterations: int,
    ) -> Tuple[SolveStatus, float, int]:
        """Bounded-variable primal simplex.

        Pricing uses Dantzig's rule (most-improving reduced cost) and
        switches to Bland's smallest-index rule after ``_BLAND_AFTER``
        consecutive degenerate steps, switching back on the next
        nondegenerate one — fast in the common case, still provably
        terminating.

        Mutates ``basic``/``status``/``fac`` in place; returns
        (status, objective, total iterations).  Raises :class:`_Exhausted`
        at the pivot cap.

        The loop carries three incrementally maintained vectors instead
        of recomputing them from scratch every iteration:

        * ``x`` / ``x_b`` — the primal point and its basic slice.  A
          pivot moves the basics by the known step along ``-w`` and
          snaps the leaving variable onto its bound exactly; every
          refactorization (periodic or monitor-triggered) recovers both
          exactly via FTRAN, which bounds the accumulation the residual
          monitor audits.
        * ``sign`` — the pricing sign per column (-1 resting at lower,
          +1 at upper, 0 basic/fixed), so the Dantzig score is the
          single product ``sign * d``: for an eligible column that IS
          its improvement ``|d|``, and a column is improving exactly
          when the product exceeds the optimality epsilon.  Free
          columns (no finite bound to rest on) need ``|d|`` itself;
          they only occur in hand-built LPs, so that falls back to the
          full mask evaluation.
        * ``lb_b`` / ``ub_b`` — bounds of the basic slice, swapped in
          place at pivots instead of gathered per ratio test; and the
          ``d``/``score`` pricing cache itself, which bound-flip
          iterations keep (only ``sign[q]`` changed) so a flip costs no
          BTRAN at all.
        """
        degenerate_run = 0
        since_refactor = 0
        x = self._full_solution(basic, status, fac, lb, ub)
        x_b = x[basic].copy()
        # Bounds of the basic slice, maintained at pivots (refactoring
        # does not change the basis, so these survive it).
        lb_b = lb[basic].copy()
        ub_b = ub[basic].copy()
        movable = ub > lb
        sign = np.zeros(self.total_ext)
        sign[movable & (status == AT_LOWER)] = -1.0
        sign[movable & (status == AT_UPPER)] = 1.0
        has_free = bool(np.any(status == FREE))
        # Pricing cache: ``d``/``score`` stay valid across bound flips
        # (the basis is untouched, only ``sign[q]`` changes), so a flip
        # iteration skips the BTRAN + pricing product entirely.
        score = None
        while True:
            if iterations >= max_iterations:
                raise _Exhausted(iterations)
            if (
                self._stop is not None
                and (iterations & 63) == 0
                and self._stop()
            ):
                raise _Exhausted(iterations)
            if since_refactor >= _REFACTOR_EVERY:
                fac.refactor(basic)
                since_refactor = 0
                x = self._full_solution(basic, status, fac, lb, ub)
                x_b = x[basic].copy()
                score = None
            if since_refactor == _MONITOR_AT and self.m:
                # Residual monitor: halfway through the refactor cycle,
                # check how far the product-form updates (and the
                # incremental x) have drifted and refactorize early
                # instead of pivoting on stale data.
                x[basic] = x_b
                resid = float(np.max(np.abs(self._ax(x) - self.b)))
                if resid > self._resid_tol:
                    fac.refactor(basic)
                    since_refactor = 0
                    self._monitor_refactors += 1
                    x = self._full_solution(basic, status, fac, lb, ub)
                    x_b = x[basic].copy()
                    score = None
            if score is None:
                y = fac.btran(cost[basic])
                d = cost - self._aty(y)
                score = sign * d
                if has_free:
                    free = status == FREE
                    has_free = bool(free.any())
                    if has_free:
                        score = np.where(free, np.abs(d), score)
            if degenerate_run < _BLAND_AFTER:
                # Dantzig: the most improving reduced cost (ties break
                # to the smallest index via argmax's first-hit rule).
                q = int(np.argmax(score))
            else:
                q = int(np.argmax(score > _EPS))  # Bland: smallest index
            if not score[q] > _EPS:
                # Recompute x once at the exit so the reported objective
                # (phase 1 compares it against PHASE1_EPS) is free of
                # the incremental accumulation.
                x = self._full_solution(basic, status, fac, lb, ub)
                objective = float(cost @ x)
                return SolveStatus.OPTIMAL, objective, iterations
            direction = 1.0 if d[q] < 0.0 else -1.0
            w = fac.ftran(self._column(q))
            # Basic variables move by -direction * w per unit step.
            dx = -direction * w
            if self.m:
                room = np.where(dx < 0.0, x_b - lb_b, ub_b - x_b)
                den = np.abs(dx)
                ratios = np.where(den > _EPS, room / np.maximum(den, _EPS), math.inf)
                np.maximum(ratios, 0.0, out=ratios)  # infeasibility noise
                t_rows = float(ratios.min())
            else:
                t_rows = math.inf
            t_flip = ub[q] - lb[q] if status[q] != FREE else math.inf
            if not math.isfinite(t_rows) and not math.isfinite(t_flip):
                return SolveStatus.UNBOUNDED, math.nan, iterations
            if t_flip <= t_rows:
                status[q] = AT_UPPER if status[q] == AT_LOWER else AT_LOWER
                x[q] = ub[q] if status[q] == AT_UPPER else lb[q]
                sign[q] = -sign[q]
                score[q] = -score[q]  # d[q] unchanged; cache stays valid
                if self.m:
                    x_b += t_flip * dx
                iterations += 1
                since_refactor += 1
                degenerate_run = 0  # a flip moves by ub-lb > 0
                continue
            # Exact minimum ratio; Bland tie-break (smallest basis
            # index) only inside the numerical band around it.
            band = np.flatnonzero(ratios <= t_rows + _EPS)
            r = int(band[np.argmin(basic[band])])
            leaving = int(basic[r])
            x_b += t_rows * dx
            x[q] += direction * t_rows
            to_lower = dx[r] < 0.0
            status[leaving] = AT_LOWER if to_lower else AT_UPPER
            sign[leaving] = (-1.0 if to_lower else 1.0) if movable[leaving] else 0.0
            # Snap the leaving variable onto its bound exactly: the
            # incremental step left it within a ratio-test epsilon.
            x[leaving] = lb[leaving] if to_lower else ub[leaving]
            x_b[r] = x[q]
            lb_b[r] = lb[q]
            ub_b[r] = ub[q]
            sign[q] = 0.0
            score = None  # basis changed: pricing cache is stale
            fac.update(w, r)
            basic[r] = q
            status[q] = BASIC
            iterations += 1
            since_refactor += 1
            if t_rows > _EPS:
                degenerate_run = 0
            else:
                degenerate_run += 1

    # -- dual simplex ----------------------------------------------------

    def _dual(
        self,
        basic: np.ndarray,
        status: np.ndarray,
        fac,
        lb: np.ndarray,
        ub: np.ndarray,
        cost: np.ndarray,
        max_iterations: int,
    ) -> int:
        """Dual simplex: restore primal feasibility bound-by-bound.

        Returns the pivot count on success; ``-(pivots + 1)`` when the
        dual is unbounded (the LP is infeasible).  Raises
        :class:`_Exhausted` at the cap — warm callers fall back cold.

        Reduced costs are maintained incrementally — a dual pivot on row
        ``r`` with entering ``q`` maps ``d <- d - (d_q / rho_q) rho``
        using the pivot row ``rho`` the ratio test already computed —
        and recovered exactly at every refactorization, saving a BTRAN
        and a pricing product per pivot.
        """
        pivots = 0
        since_refactor = 0
        d = cost - self._aty(fac.btran(cost[basic]))
        while True:
            if pivots >= max_iterations:
                raise _Exhausted(pivots)
            if (
                self._stop is not None
                and (pivots & 63) == 0
                and self._stop()
            ):
                raise _Exhausted(pivots)
            if since_refactor >= _REFACTOR_EVERY:
                fac.refactor(basic)
                since_refactor = 0
                d = cost - self._aty(fac.btran(cost[basic]))
            x = self._full_solution(basic, status, fac, lb, ub)
            x_b = x[basic]
            below = x_b < lb[basic] - _FEAS_EPS
            above = x_b > ub[basic] + _FEAS_EPS
            violated = np.flatnonzero(below | above)
            if violated.size == 0:
                return pivots
            # Leaving choice: the most violated row (deterministic
            # smallest-basic-index among near-ties).  Unlike the primal
            # phase this is not Bland's rule — convergence speed is the
            # whole point of the warm start, and the iteration cap plus
            # the cold-start fallback backstop the (never observed)
            # cycling case.
            violation = np.maximum(lb[basic] - x_b, x_b - ub[basic])
            worst = float(violation[violated].max())
            band = violated[violation[violated] >= worst - _FEAS_EPS]
            r = int(min(band, key=lambda i: basic[i]))
            rho = self._aty(fac.row(r))
            movable = (ub > lb) & (status != BASIC)
            if below[r]:
                eligible = movable & (
                    ((status == AT_LOWER) & (rho < -_EPS))
                    | ((status == AT_UPPER) & (rho > _EPS))
                    | ((status == FREE) & (np.abs(rho) > _EPS))
                )
            else:
                eligible = movable & (
                    ((status == AT_LOWER) & (rho > _EPS))
                    | ((status == AT_UPPER) & (rho < -_EPS))
                    | ((status == FREE) & (np.abs(rho) > _EPS))
                )
            idx = np.flatnonzero(eligible)
            if idx.size == 0:
                # Dual unbounded => primal infeasible.  The unbounded
                # dual direction is the (signed) inverse row of the
                # violated basic: moving y along it increases y @ b
                # forever while keeping every reduced cost eligible —
                # exactly a Farkas ray for the certifier.
                row_r = fac.row(r)
                self._dual_ray = (-row_r if below[r] else row_r).copy()
                return -(pivots + 1)
            # Dual ratio test: keep every reduced cost sign-consistent.
            sign = np.where(status[idx] == AT_LOWER, 1.0, -1.0)
            sign[status[idx] == FREE] = 0.0
            theta = np.maximum(d[idx] * sign, 0.0) / np.abs(rho[idx])
            if not np.all(np.isfinite(theta)):
                raise _SingularBasis()  # numerical breakdown: go cold
            # Bound-flipping ratio test: walk the reduced-cost
            # breakpoints in ascending order; every boxed candidate
            # passed over flips to its opposite bound (absorbing part of
            # the row violation without a basis change), and the pivot
            # lands on the first breakpoint whose candidate can cover
            # the remaining violation — or on the last one, moving the
            # residual infeasibility onto the entering variable.  These
            # relaxations are heavily dual degenerate (ties at theta=0),
            # so inside each breakpoint band the largest-gain candidate
            # goes first: one pivot covers what index order would spend
            # a dozen on.
            gain_all = np.abs(rho[idx]) * (ub[idx] - lb[idx])
            order = idx[np.lexsort((idx, -gain_all, theta))]
            remaining = float(violation[r])
            q = -1
            flips: List[int] = []
            for pos, j in enumerate(order):
                gain = abs(rho[j]) * (ub[j] - lb[j])
                if gain >= remaining - DUAL_FLIP_EPS or pos == order.size - 1:
                    q = int(j)
                    break
                flips.append(int(j))
                remaining -= gain
            if abs(rho[q]) < _PIVOT_EPS:
                raise _SingularBasis()  # vanishing pivot: go cold
            for j in flips:
                status[j] = AT_UPPER if status[j] == AT_LOWER else AT_LOWER
            w = fac.ftran(self._column(q))
            leaving = int(basic[r])
            status[leaving] = AT_LOWER if below[r] else AT_UPPER
            # Incremental pricing: the unique rank-1 update that zeroes
            # the entering reduced cost along the pivot row.
            theta_d = float(d[q] / rho[q])
            d -= theta_d * rho
            d[q] = 0.0
            d[leaving] = -theta_d
            fac.update(w, r)
            basic[r] = q
            status[q] = BASIC
            pivots += 1
            since_refactor += 1

    # -- phase-1 cleanup -------------------------------------------------

    def _evict_artificials(
        self, basic: np.ndarray, status: np.ndarray, fac
    ) -> None:
        """Degenerate-pivot lingering zero-valued artificials out of the
        basis where a real column can replace them; redundant rows keep
        their artificial (pinned at [0, 0], which is harmless)."""
        total = self.total
        for r in range(self.m):
            if basic[r] < total:
                continue
            row = self._aty(fac.row(r))[:total]
            nonbasic = status[:total] != BASIC
            candidates = np.flatnonzero(nonbasic & (np.abs(row) > _PIVOT_EPS))
            if candidates.size == 0:
                continue
            q = int(candidates[0])
            w = fac.ftran(self._column(q))
            status[basic[r]] = AT_LOWER
            fac.update(w, r)
            basic[r] = q
            status[q] = BASIC
