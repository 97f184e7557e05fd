"""Exact-arithmetic MILP presolve over the ``to_arrays`` form.

Runs between :meth:`repro.ilp.model.Model.to_arrays` and the compiled
simplex (see :func:`repro.ilp.branch_bound.solve_branch_bound`).  Three
reductions, iterated to a fixed point:

* **row removal** — singleton ``<=`` rows fold into a variable bound;
  rows whose maximum activity over the bound box already satisfies the
  right-hand side are redundant and dropped (this also catches empty
  rows); singleton equality rows fix their variable.
* **bound tightening** — each ``<=`` row implies, for every variable it
  touches, a bound from the minimum activity of the *other* terms;
  integer-variable bounds are rounded inward (``floor``/``ceil``).
* **big-M coefficient strengthening** — the paper's non-overlap
  disjunctions (``Model.add_big_m_disjunction``) emit ``<=`` rows with a
  large negative coefficient on an indicator binary.  When the row's
  maximum activity over the remaining terms exceeds the right-hand side
  by less than ``|M|``, the coefficient shrinks to exactly that excess:
  both binary phases keep the same feasible set, but the LP relaxation
  between them tightens.

Every decision is made in exact rational arithmetic
(:class:`fractions.Fraction` — ``Fraction(float)`` is exact), so a
reduction is applied only when it provably preserves the mixed-integer
feasible set.  Where a new value must be stored back as a float it is
rounded in the *safe* direction: integer bounds are exact, continuous
bounds round outward (``math.nextafter``), strengthened coefficients
round toward the original (weaker) value.  The presolved arrays are
therefore a valid relaxation of the original MILP and everything
downstream — branching, warm starts, LP certificates — runs on them
unchanged.

Variables are never eliminated or renumbered (a fixed variable just
gets ``lb == ub``), so the postsolve map on solutions is the identity;
:meth:`PresolveInfo.expand_row_duals` scatters dual vectors back over
the dropped rows for callers that price the original rows.

A caller's ``stop`` predicate is polled before every row.  Presolve may
end mid-pass: each reduction applied so far is implied by the original
rows, so the arrays it has reached are as valid as a fixed point.

Bound tightening can prove infeasibility (a bound pair crosses, e.g. an
integer variable squeezed into an empty interval).  Presolve then stops
and *keeps the crossed bounds*: the root LP reports INFEASIBLE from the
empty box, which :func:`repro.certify.certify_lp` certifies via its
trivial-bounds check — no special casing anywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

_ZERO = Fraction(0)
#: Reduction passes stop after this many sweeps even off fixed point.
_MAX_PASSES = 4


def _frac(x: float) -> Fraction:
    return Fraction(x)  # exact for every finite float


def _ub_float(v: Fraction) -> float:
    """Round a rational upper bound to a float that is >= it."""
    f = float(v)
    if Fraction(f) < v:
        f = math.nextafter(f, math.inf)
    return f


def _lb_float(v: Fraction) -> float:
    """Round a rational lower bound to a float that is <= it."""
    f = float(v)
    if Fraction(f) > v:
        f = math.nextafter(f, -math.inf)
    return f


@dataclass
class PresolveInfo:
    """What presolve did, plus the postsolve maps.

    ``kept_ub`` / ``kept_eq`` hold the original row indices that
    survived, in order — the row-space postsolve map.  The variable
    space is untouched, so solutions postsolve as the identity.
    """

    m_ub_orig: int = 0
    m_eq_orig: int = 0
    kept_ub: List[int] = field(default_factory=list)
    kept_eq: List[int] = field(default_factory=list)
    infeasible_var: Optional[int] = None
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def infeasible(self) -> bool:
        return self.infeasible_var is not None

    def expand_row_duals(
        self, y_ub: np.ndarray, y_eq: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter duals of the presolved rows back to original rows.

        Dropped rows were redundant (or folded into bounds), so zero is
        a valid multiplier for them in any dual/Farkas aggregate.
        """
        full_ub = np.zeros(self.m_ub_orig)
        full_ub[self.kept_ub] = y_ub
        full_eq = np.zeros(self.m_eq_orig)
        full_eq[self.kept_eq] = y_eq
        return full_ub, full_eq


def presolve_arrays(
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    integrality: np.ndarray,
    stop: Optional[Callable[[], bool]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[Tuple[float, float]], PresolveInfo]:
    """Reduce the arrays; returns new arrays + bounds + :class:`PresolveInfo`.

    ``stop()`` turning true ends the reductions before the next row
    (``stats["stopped"]``); the arrays reached so far are returned.
    """
    n = len(bounds)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if np.size(a_eq) else np.zeros((0, n))
    b_ub = np.asarray(b_ub, dtype=float).ravel().copy()
    b_eq = np.asarray(b_eq, dtype=float).ravel().copy()
    a_ub = a_ub.copy()

    info = PresolveInfo(m_ub_orig=a_ub.shape[0], m_eq_orig=a_eq.shape[0])
    stats = {
        "rows_dropped": 0,
        "bounds_tightened": 0,
        "coeffs_strengthened": 0,
        "vars_fixed": 0,
        "passes": 0,
        "stopped": 0,
    }
    info.stats = stats

    # Exact working state.  Bounds as Fractions (or ±inf sentinels kept
    # as floats); integer bounds are rounded inward up front.
    lb: List[object] = []
    ub: List[object] = []
    for j, (lo, hi) in enumerate(bounds):
        lo_v = _frac(lo) if math.isfinite(lo) else -math.inf
        hi_v = _frac(hi) if math.isfinite(hi) else math.inf
        if integrality[j]:
            if lo_v != -math.inf:
                lo_v = Fraction(math.ceil(lo_v))
            if hi_v != math.inf:
                hi_v = Fraction(math.floor(hi_v))
        lb.append(lo_v)
        ub.append(hi_v)

    alive_ub = np.ones(a_ub.shape[0], dtype=bool)
    alive_eq = np.ones(a_eq.shape[0], dtype=bool)
    ub_rows: List[Dict[int, Fraction]] = []
    for i in range(a_ub.shape[0]):
        cols = np.flatnonzero(a_ub[i])
        ub_rows.append({int(j): _frac(a_ub[i, j]) for j in cols})
    ub_rhs = [_frac(v) for v in b_ub]
    eq_rows: List[Dict[int, Fraction]] = []
    for i in range(a_eq.shape[0]):
        cols = np.flatnonzero(a_eq[i])
        eq_rows.append({int(j): _frac(a_eq[i, j]) for j in cols})
    eq_rhs = [_frac(v) for v in b_eq]

    def term_range(j: int, a: Fraction):
        lo_t = a * lb[j] if lb[j] != -math.inf else (-math.inf if a > 0 else math.inf)
        hi_t = a * ub[j] if ub[j] != math.inf else (math.inf if a > 0 else -math.inf)
        if a < 0:
            lo_t, hi_t = hi_t, lo_t
        return lo_t, hi_t

    def set_lb(j: int, v: Fraction) -> bool:
        if integrality[j]:
            v = Fraction(math.ceil(v))
        if lb[j] == -math.inf or v > lb[j]:
            lb[j] = v
            stats["bounds_tightened"] += 1
            if ub[j] != math.inf and lb[j] > ub[j]:
                info.infeasible_var = j
            return True
        return False

    def stopped() -> bool:
        if stop is not None and not stats["stopped"] and stop():
            stats["stopped"] = 1
        return bool(stats["stopped"])

    def set_ub(j: int, v: Fraction) -> bool:
        if integrality[j]:
            v = Fraction(math.floor(v))
        if ub[j] == math.inf or v < ub[j]:
            ub[j] = v
            stats["bounds_tightened"] += 1
            if lb[j] != -math.inf and lb[j] > ub[j]:
                info.infeasible_var = j
            return True
        return False

    changed = True
    while (
        changed
        and not info.infeasible
        and stats["passes"] < _MAX_PASSES
        and not stopped()
    ):
        changed = False
        stats["passes"] += 1

        # Singleton equality rows fix their variable exactly (only when
        # the fixed value is float-representable; otherwise the row
        # stays and the simplex handles it).
        for i, row in enumerate(eq_rows):
            if stopped():
                break
            if not alive_eq[i] or len(row) != 1:
                continue
            (j, a), = row.items()
            v = eq_rhs[i] / a
            if integrality[j] and v.denominator != 1:
                # Integer variable forced fractional: set_lb ceils and
                # set_ub floors, so the bounds cross — the root LP then
                # reports INFEASIBLE from the empty box.
                set_lb(j, v)
                set_ub(j, v)
                break
            if float(v) != v:
                continue  # not float-representable: leave the row in
            hit = set_lb(j, v) | set_ub(j, v)
            alive_eq[i] = False
            stats["rows_dropped"] += 1
            stats["vars_fixed"] += 1
            changed = changed or hit
        if info.infeasible:
            break

        for i, row in enumerate(ub_rows):
            if stopped():
                break
            if not alive_ub[i]:
                continue
            b = ub_rhs[i]
            # Singleton <= row: pure bound, fold and drop.
            if len(row) == 1:
                (j, a), = row.items()
                if a > 0:
                    changed |= set_ub(j, b / a)
                else:
                    changed |= set_lb(j, b / a)
                alive_ub[i] = False
                stats["rows_dropped"] += 1
                if info.infeasible:
                    break
                continue
            ranges = {j: term_range(j, a) for j, a in row.items()}
            max_act = _ZERO
            inf_hi = 0
            for j, (_, hi_t) in ranges.items():
                if hi_t == math.inf:
                    inf_hi += 1
                else:
                    max_act += hi_t
            # Redundant: even the worst case satisfies the row.
            if inf_hi == 0 and max_act <= b:
                alive_ub[i] = False
                stats["rows_dropped"] += 1
                changed = True
                continue
            min_act = _ZERO
            inf_lo = 0
            for j, (lo_t, _) in ranges.items():
                if lo_t == -math.inf:
                    inf_lo += 1
                else:
                    min_act += lo_t
            # Bound tightening: a_j x_j <= b - min_act(others).
            for j, a in row.items():
                lo_t, _ = ranges[j]
                if inf_lo - (1 if lo_t == -math.inf else 0) > 0:
                    continue  # another term is unbounded below
                others = min_act - (lo_t if lo_t != -math.inf else _ZERO)
                room = b - others
                if a > 0:
                    changed |= set_ub(j, room / a)
                else:
                    changed |= set_lb(j, room / a)
                if info.infeasible:
                    break
                # Bounds moved: refresh this row's cached ranges.
                ranges[j] = term_range(j, a)
            if info.infeasible:
                break
            # Big-M strengthening on indicator binaries (a_j < 0,
            # binary j): excess = max_act(others) - b < -a_j means the
            # coefficient is larger than the disjunction needs.
            if inf_hi == 0:
                for j, a in list(row.items()):
                    if a >= 0 or not integrality[j]:
                        continue
                    if lb[j] != _ZERO or ub[j] != Fraction(1):
                        continue
                    hi_t = ranges[j][1]  # 0 for a < 0, binary j
                    excess = (max_act - hi_t) - b
                    if excess <= _ZERO:
                        continue  # row is redundant at x_j = 0; next pass drops it
                    if -a > excess:
                        new_a = -excess
                        # Round toward -inf: a more negative coefficient
                        # only weakens the row, so the stored float is
                        # never tighter than the proven value.
                        row[j] = Fraction(_lb_float(new_a))
                        max_act = max_act - hi_t + term_range(j, row[j])[1]
                        stats["coeffs_strengthened"] += 1
                        changed = True

    # Materialize the reduced arrays.
    info.kept_ub = [int(i) for i in np.flatnonzero(alive_ub)]
    info.kept_eq = [int(i) for i in np.flatnonzero(alive_eq)]
    new_a_ub = np.zeros((len(info.kept_ub), n))
    new_b_ub = np.zeros(len(info.kept_ub))
    for out, i in enumerate(info.kept_ub):
        for j, a in ub_rows[i].items():
            new_a_ub[out, j] = float(a)
        new_b_ub[out] = float(ub_rhs[i])
    new_a_eq = a_eq[alive_eq].copy() if a_eq.shape[0] else a_eq
    new_b_eq = b_eq[alive_eq].copy() if a_eq.shape[0] else b_eq

    new_bounds: List[Tuple[float, float]] = []
    for j in range(n):
        lo_v = lb[j]
        hi_v = ub[j]
        if integrality[j]:
            lo_f = float(lo_v) if lo_v != -math.inf else -math.inf
            hi_f = float(hi_v) if hi_v != math.inf else math.inf
        else:
            lo_f = _lb_float(lo_v) if lo_v != -math.inf else -math.inf
            hi_f = _ub_float(hi_v) if hi_v != math.inf else math.inf
        new_bounds.append((lo_f, hi_f))

    return new_a_ub, new_b_ub, new_a_eq, new_b_eq, new_bounds, info
