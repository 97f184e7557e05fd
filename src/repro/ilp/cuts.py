"""Root cutting planes: Gomory fractional cuts and knapsack covers.

:func:`repro.ilp.branch_bound.solve_branch_bound` runs a few separation
rounds at the root node before branching: solve the LP relaxation,
derive valid inequalities violated by the fractional optimum, append
them as extra ``<=`` rows, re-solve.  Each round tightens the LP bound,
which shrinks the branch & bound tree — the dynamic-device-mapping
instances are big-M disjunction systems whose relaxations are notably
loose (DESIGN.md §11).

Both families are derived in **exact rational arithmetic** so validity
is a theorem, not a float coincidence:

* **Gomory fractional cuts** replay the Chvátal–Gomory argument.  For a
  basic integer variable with fractional value, take the float row
  multipliers ``λ = e_r B⁻¹`` from the factorization, then treat them
  as *exact rationals*: ``λ [A|I] x = λ b`` is a valid equality for
  every feasible point regardless of what λ is.  Shift every variable
  in the aggregate onto its lower bound (or complement onto its upper
  bound, matching the nonbasic rest point), check the integrality
  side-conditions, floor the coefficients, and substitute back.  The
  float row finally stored is *weakened* by the exact rounding error
  times each variable's bound reach, so it never cuts an
  integer-feasible point (see :func:`_round_row`).
* **Knapsack cover cuts** look at a single all-binary ``<=`` row:
  complement the negative-coefficient variables, find a greedy cover
  ``C`` (``Σ_C a'_j > b'``, verified exactly), and emit
  ``Σ_C z_j <= |C| - 1`` mapped back to original variables.  The
  coefficients are ±1 and the right-hand side an integer, both exactly
  representable.

Every :class:`Cut` carries its derivation payload (the multipliers and
shift pattern, or the source row and cover set) so that
:func:`repro.certify.certify_cut` can re-verify validity independently;
under ``certify=strict`` the branch & bound only keeps certified cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ilp.compiled import AT_UPPER, CompiledModel
from repro.ilp.sparse import as_csr, row_items
from repro.ilp.tolerances import CUT_VIOLATION_EPS, INTEGRALITY_EPS

_ZERO = Fraction(0)
_ONE = Fraction(1)
#: Row multipliers below this relative magnitude are zeroed before the
#: exact replay (any λ gives a valid aggregate; small entries only blow
#: up the rational arithmetic).
_LAM_DROP = 1e-11
#: Multipliers are snapped to rationals with denominators up to this —
#: large enough to recover the true basis-inverse entries of the
#: mapping models, small enough to keep the replay arithmetic cheap.
_LAM_DENOMINATOR = 1_000_000
#: Reject cuts with a coefficient dynamic range beyond this (numerical
#: hygiene: such rows make the LP basis ill-conditioned).
_MAX_DYNAMIC_RANGE = 1e8


@dataclass
class Cut:
    """A certified-derivable valid inequality ``row @ x <= rhs``.

    ``kind`` is ``"gomory"`` or ``"cover"``; the remaining fields are
    the derivation payload consumed by :func:`repro.certify.certify_cut`
    (and by nobody else).
    """

    row: np.ndarray
    rhs: float
    kind: str
    #: Gomory: the exact rational row multipliers over all rows (a list
    #: of :class:`~fractions.Fraction` — snapped, not raw floats).
    lam: Optional[List[Fraction]] = None
    #: Gomory: per-variable shift, -1 = shift by lb, +1 = complement by
    #: ub, 0 = variable absent from the aggregate.
    shifts: Optional[np.ndarray] = None
    #: Cover: index of the source ``a_ub`` row.
    source_row: Optional[int] = None
    #: Cover: variable indices in the cover C.
    cover: Optional[Tuple[int, ...]] = None
    #: Cover: subset of C that was complemented (negative coefficient).
    complemented: Optional[Tuple[int, ...]] = None


def _is_int(x: float) -> bool:
    return math.isfinite(x) and float(x).is_integer()


def _round_row(
    g: Dict[int, Fraction],
    g0: Fraction,
    bounds: Sequence[Tuple[float, float]],
    n: int,
) -> Optional[Tuple[np.ndarray, float]]:
    """Convert an exact cut to floats without losing validity.

    Each coefficient ``g_j`` becomes the nearest float; the right-hand
    side absorbs the worst case of the rounding error,
    ``Σ_j |float(g_j) - g_j| · max(|lb_j|, |ub_j|)``, and is itself
    rounded *up*.  The float row is then implied by the exact row over
    the bound box, so it cannot cut any point the exact row admits.
    """
    row = np.zeros(n)
    slack = _ZERO
    for j, gj in g.items():
        if gj == _ZERO:
            continue
        fj = float(gj)
        if not math.isfinite(fj):
            return None
        row[j] = fj
        err = abs(Fraction(fj) - gj)
        if err != _ZERO:
            lo, hi = bounds[j]
            reach = max(abs(lo), abs(hi))
            if not math.isfinite(reach):
                return None  # cannot bound the rounding error
            slack += err * Fraction(reach)
    rhs_exact = g0 + slack
    rhs = float(rhs_exact)
    if not math.isfinite(rhs):
        return None
    if Fraction(rhs) < rhs_exact:
        rhs = math.nextafter(rhs, math.inf)
    nz = np.abs(row[row != 0.0])
    if nz.size == 0:
        return None
    if nz.max() / nz.min() > _MAX_DYNAMIC_RANGE or nz.max() > 1e12:
        return None
    return row, rhs


def _gomory_from_multipliers(
    lam: np.ndarray,
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    integrality: np.ndarray,
    status: np.ndarray,
    x_star: np.ndarray,
) -> Optional[Cut]:
    """One exact Chvátal–Gomory replay; ``None`` when a side-condition
    fails (a shift needs a missing bound, a continuous coefficient comes
    out negative, …) or the cut is not usefully violated."""
    n = len(bounds)
    m_ub = a_ub.shape[0]

    # Zero negligible multipliers, then snap the rest to nearby
    # small-denominator rationals.  Both moves keep the aggregate valid
    # (it is valid for *any* λ); snapping additionally recovers the
    # exact rational B⁻¹ row from its float image, so the aggregated
    # coefficients on basic columns come out exactly 0/1 — with raw
    # float multipliers their ~1e-16 noise floors to -1 in exact
    # arithmetic and the cut loses its violation.
    lam = lam.copy()
    scale = float(np.abs(lam).max()) if lam.size else 0.0
    if scale == 0.0:
        return None
    lam[np.abs(lam) < _LAM_DROP * max(1.0, scale)] = 0.0
    lam_f = [
        Fraction(float(v)).limit_denominator(_LAM_DENOMINATOR) for v in lam
    ]

    # Exact integrality flag per <= row: its slack is integer-valued on
    # integer points only when every datum in the row is integral.
    row_integral = np.zeros(m_ub, dtype=bool)
    ub_rows: Dict[int, Dict[int, float]] = {}
    for i in range(m_ub):
        if lam_f[i] == _ZERO:
            continue
        row = ub_rows[i] = row_items(a_ub, i)
        row_integral[i] = (
            _is_int(b_ub[i])
            and all(_is_int(a) for a in row.values())
            and all(integrality[j] for j in row)
        )
        # A continuous slack can only be dropped from the floored sum
        # when its coefficient is nonnegative.
        if not row_integral[i] and lam_f[i] < _ZERO:
            return None

    # Aggregate the structural columns and the right-hand side exactly.
    r: Dict[int, Fraction] = {}
    r0 = _ZERO
    for i in range(m_ub):
        li = lam_f[i]
        if li == _ZERO:
            continue
        r0 += li * Fraction(float(b_ub[i]))
        for j, a in ub_rows[i].items():
            r[j] = r.get(j, _ZERO) + li * Fraction(a)
    for k in range(a_eq.shape[0]):
        li = lam_f[m_ub + k]
        if li == _ZERO:
            continue
        r0 += li * Fraction(float(b_eq[k]))
        for j, a in row_items(a_eq, k).items():
            r[j] = r.get(j, _ZERO) + li * Fraction(a)

    # Shift every aggregated variable to rest at zero: complement the
    # at-upper nonbasics, shift everything else by its lower bound.
    shifts = np.zeros(n, dtype=np.int8)
    q: Dict[int, Fraction] = {}
    q0 = r0
    for j, rj in r.items():
        if rj == _ZERO:
            continue
        lo, hi = bounds[j]
        if status[j] == AT_UPPER and math.isfinite(hi):
            shifts[j] = 1
            q[j] = -rj
            q0 -= rj * Fraction(float(hi))
        elif math.isfinite(lo):
            shifts[j] = -1
            q[j] = rj
            q0 -= rj * Fraction(float(lo))
        elif math.isfinite(hi):
            shifts[j] = 1
            q[j] = -rj
            q0 -= rj * Fraction(float(hi))
        else:
            return None  # free variable in the aggregate: no shift
        if shifts[j] == 1 and integrality[j] and Fraction(float(hi)).denominator != 1:
            return None  # complement of an integer var needs an integer ub
        if shifts[j] == -1 and integrality[j] and Fraction(float(lo)).denominator != 1:
            return None
        if not integrality[j] and q[j] < _ZERO:
            return None  # continuous term cannot be dropped

    # Floor: integer shifted variables and integral slacks survive,
    # everything continuous (coefficient >= 0, value >= 0) is dropped.
    g: Dict[int, Fraction] = {}
    g0 = _floor_frac(q0)
    frac_rhs = q0 - g0
    if frac_rhs == _ZERO:
        return None  # aggregate already integral: nothing to cut
    for j, qj in q.items():
        if not integrality[j]:
            continue
        fj = _floor_frac(qj)
        if shifts[j] == -1:
            lo = Fraction(float(bounds[j][0]))
            g[j] = g.get(j, _ZERO) + fj
            g0 += fj * lo
        else:
            hi = Fraction(float(bounds[j][1]))
            g[j] = g.get(j, _ZERO) - fj
            g0 -= fj * hi
    for i in range(m_ub):
        li = lam_f[i]
        if li == _ZERO or not row_integral[i]:
            continue
        fi = _floor_frac(li)
        if fi == _ZERO:
            continue
        # fi * s_i with s_i = b_i - A_i x
        g0 -= fi * Fraction(float(b_ub[i]))
        for j, a in ub_rows[i].items():
            g[j] = g.get(j, _ZERO) - fi * Fraction(a)

    # Violation at the fractional optimum, measured exactly.
    lhs = _ZERO
    for j, gj in g.items():
        lhs += gj * Fraction(float(x_star[j]))
    if float(lhs - g0) <= CUT_VIOLATION_EPS:
        return None

    rounded = _round_row(g, g0, bounds, n)
    if rounded is None:
        return None
    row, rhs = rounded
    if float(row @ x_star) - rhs <= CUT_VIOLATION_EPS / 2:
        return None  # violation did not survive the safe rounding
    return Cut(row=row, rhs=rhs, kind="gomory", lam=lam_f, shifts=shifts)


def _floor_frac(v: Fraction) -> Fraction:
    return Fraction(math.floor(v))


def gomory_cuts(
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    integrality: np.ndarray,
    relax,
    tableau_model: CompiledModel,
    max_cuts: int = 12,
) -> List[Cut]:
    """Gomory fractional cuts from the optimal basis of ``relax``.

    ``tableau_model`` must be the :class:`CompiledModel` compiled over
    exactly ``(a_ub, b_ub, a_eq, b_eq)`` — its ``B⁻¹`` rows are the
    multipliers in the caller's row space.
    """
    basis = relax.basis
    x = relax.x
    if basis is None or x is None:
        return []
    n = len(bounds)
    a_ub, a_eq = as_csr(a_ub, n), as_csr(a_eq, n)
    m = a_ub.shape[0] + a_eq.shape[0]

    candidates: List[Tuple[float, int]] = []
    for rix in range(m):
        col = int(basis.basic[rix])
        if col >= n or not integrality[col]:
            continue
        frac = abs(x[col] - round(x[col]))
        if frac > 10 * INTEGRALITY_EPS:
            candidates.append((abs(frac - 0.5), rix))
    if not candidates:
        return []
    candidates.sort()
    rows = [rix for _, rix in candidates[:max_cuts]]
    lam_rows = tableau_model.basis_row_multipliers(basis, rows)
    if lam_rows is None:
        return []

    cuts: List[Cut] = []
    for lam in lam_rows:
        cut = _gomory_from_multipliers(
            lam, a_ub, b_ub, a_eq, b_eq, bounds, integrality,
            basis.status, x,
        )
        if cut is not None:
            cuts.append(cut)
    return cuts


def cover_cuts(
    a_ub,
    b_ub: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    integrality: np.ndarray,
    x_star: np.ndarray,
    max_cuts: int = 12,
) -> List[Cut]:
    """Greedy knapsack cover cuts from all-binary ``<=`` rows."""
    cuts: List[Cut] = []
    a_ub = as_csr(a_ub, len(bounds))
    for i in range(a_ub.shape[0]):
        if len(cuts) >= max_cuts:
            break
        row = row_items(a_ub, i)
        support = list(row)
        if len(support) < 2:
            continue
        if not all(
            integrality[j] and bounds[j][0] >= 0.0 and bounds[j][1] <= 1.0
            for j in support
        ):
            continue
        # Complement negatives: z_j = 1 - x_j turns the row into a pure
        # knapsack  Σ a'_j z_j <= b'  with a'_j > 0.
        a_p: Dict[int, Fraction] = {}
        b_p = Fraction(float(b_ub[i]))
        z_star: Dict[int, float] = {}
        complemented: List[int] = []
        for j in support:
            aij = Fraction(row[j])
            if aij > _ZERO:
                a_p[j] = aij
                z_star[j] = min(1.0, max(0.0, float(x_star[j])))
            else:
                a_p[j] = -aij
                z_star[j] = min(1.0, max(0.0, 1.0 - float(x_star[j])))
                complemented.append(j)
                b_p -= aij
        if b_p < _ZERO or sum(a_p.values()) <= b_p:
            continue  # no binary point violates / no cover exists
        # Greedy cover: most-active variables first.
        order = sorted(a_p, key=lambda j: (-z_star[j], j))
        cover: List[int] = []
        acc = _ZERO
        for j in order:
            cover.append(j)
            acc += a_p[j]
            if acc > b_p:
                break
        if acc <= b_p:
            continue
        # Violated iff Σ_C (1 - z*_j) < 1.
        gap = sum(1.0 - z_star[j] for j in cover)
        if gap >= 1.0 - CUT_VIOLATION_EPS:
            continue
        comp = [j for j in cover if j in set(complemented)]
        row = np.zeros(len(bounds))
        for j in cover:
            row[j] = -1.0 if j in set(comp) else 1.0
        rhs = float(len(cover) - 1 - len(comp))
        cuts.append(
            Cut(
                row=row,
                rhs=rhs,
                kind="cover",
                source_row=i,
                cover=tuple(cover),
                complemented=tuple(comp),
            )
        )
    return cuts


def generate_cuts(
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    integrality: np.ndarray,
    relax,
    tableau_model: CompiledModel,
    max_cuts: int = 16,
) -> List[Cut]:
    """One separation round: covers first (sparser, better scaled),
    Gomory for the rest of the budget."""
    cuts = cover_cuts(
        a_ub, b_ub, bounds, integrality, relax.x, max_cuts=max_cuts // 2
    )
    cuts.extend(
        gomory_cuts(
            a_ub, b_ub, a_eq, b_eq, bounds, integrality, relax,
            tableau_model, max_cuts=max_cuts - len(cuts),
        )
    )
    return cuts
