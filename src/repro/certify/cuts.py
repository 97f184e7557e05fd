"""Independent certification of cutting planes (DESIGN.md §11).

A cut appended by :mod:`repro.ilp.cuts` claims to be a *valid
inequality*: every mixed-integer point of the original arrays satisfies
it.  This module re-proves that claim in exact rational arithmetic from
the cut's derivation payload and the original data only — it never
imports the generator's internals, so a bug in the derivation cannot
certify itself.

* A **Gomory** cut ships its row multipliers ``λ`` and per-variable
  shift pattern.  The verifier re-runs the Chvátal–Gomory argument
  exactly: re-aggregate ``λ [A|I] x = λ b``, re-check every
  side-condition (sign of continuous multipliers, integrality of
  complement bounds, nonnegativity of dropped continuous terms),
  re-floor, substitute back, and finally check that the *stored float
  row* is dominated by the exact cut over the bound box —
  ``rhs_float >= g0 + Σ_j |row_float_j − g_j| · reach_j`` in exact
  arithmetic.
* A **cover** cut ships its source row and cover set.  The verifier
  recomputes the complemented knapsack and checks the cover property
  ``Σ_C a'_j > b'`` exactly, then that the stored row is exactly the
  mapped inequality ``Σ_C z_j <= |C| − 1``.

Under ``certify=strict`` the branch & bound drops any cut whose
certificate fails or is skipped, so the search never tightens the
relaxation on unproven grounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.certify.lp import Certificate
from repro.ilp.sparse import as_csr, row_items
from repro.ilp.tolerances import CERT_EPS

_ZERO = Fraction(0)


def _frac(v: float) -> Fraction:
    return Fraction(float(v))


def certify_cut(
    cut,
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    integrality: np.ndarray,
) -> Certificate:
    """Verify that ``cut.row @ x <= cut.rhs`` holds for every
    mixed-integer point of the given arrays (dense or sparse rows)."""
    a_ub, a_eq = as_csr(a_ub, len(bounds)), as_csr(a_eq, len(bounds))
    if cut.kind == "gomory":
        return _certify_gomory(cut, a_ub, b_ub, a_eq, b_eq, bounds, integrality)
    if cut.kind == "cover":
        return _certify_cover(cut, a_ub, b_ub, bounds, integrality)
    cert = Certificate(kind="cut", status="skipped")
    cert.details["reason"] = f"unknown cut kind {cut.kind!r}"
    return cert


def _certify_gomory(
    cut,
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    integrality: np.ndarray,
) -> Certificate:
    cert = Certificate(kind="cut-gomory")
    if cut.lam is None or cut.shifts is None:
        cert.status = "skipped"
        cert.details["reason"] = "no derivation payload attached"
        return cert
    n = len(bounds)
    m_ub = a_ub.shape[0]
    # Payload multipliers are exact rationals; Fraction(Fraction) is the
    # identity, so this accepts floats too without silent re-rounding.
    lam = [Fraction(v) for v in cut.lam]
    if len(lam) != m_ub + a_eq.shape[0]:
        cert.fail(
            "cut-shape", "lam", "multiplier vector does not match row count",
            measured=float(len(lam)), expected=float(m_ub + a_eq.shape[0]),
        )
        return cert

    # Side-condition: a <= row whose slack is not provably integral may
    # only enter the aggregate with a nonnegative multiplier (its
    # continuous slack term is dropped from the floored sum).
    cert.ran("gomory-slack-conditions")
    slack_integral = {}
    ub_rows: Dict[int, Dict[int, float]] = {}
    for i in range(m_ub):
        if lam[i] == _ZERO:
            continue
        row = ub_rows[i] = row_items(a_ub, i)
        integral = (
            float(b_ub[i]).is_integer()
            and all(a.is_integer() for a in row.values())
            and all(bool(integrality[j]) for j in row)
        )
        slack_integral[i] = integral
        if not integral and lam[i] < _ZERO:
            cert.fail(
                "cut-slack-sign", f"ub-row {i}",
                "continuous slack aggregated with a negative multiplier",
                measured=float(lam[i]), expected=0.0,
            )
            return cert

    # Re-aggregate λ [A] x = λ b exactly.
    r: Dict[int, Fraction] = {}
    r0 = _ZERO
    for i in range(m_ub):
        if lam[i] == _ZERO:
            continue
        r0 += lam[i] * _frac(b_ub[i])
        for j, a in ub_rows[i].items():
            r[j] = r.get(j, _ZERO) + lam[i] * _frac(a)
    for k in range(a_eq.shape[0]):
        li = lam[m_ub + k]
        if li == _ZERO:
            continue
        r0 += li * _frac(b_eq[k])
        for j, a in row_items(a_eq, k).items():
            r[j] = r.get(j, _ZERO) + li * _frac(a)

    # Shift according to the recorded pattern, checking each shift is
    # legitimate (finite bound; integer bound for integer variables).
    cert.ran("gomory-shift-conditions")
    q: Dict[int, Fraction] = {}
    q0 = r0
    for j, rj in r.items():
        if rj == _ZERO:
            continue
        s = int(cut.shifts[j])
        lo, hi = bounds[j]
        if s == 1:
            if not math.isfinite(hi):
                cert.fail(
                    "cut-shift", f"x[{j}]",
                    "complement shift without a finite upper bound",
                )
                return cert
            q[j] = -rj
            q0 -= rj * _frac(hi)
            if integrality[j] and _frac(hi).denominator != 1:
                cert.fail(
                    "cut-shift", f"x[{j}]",
                    "integer variable complemented on a fractional bound",
                    measured=float(hi),
                )
                return cert
        elif s == -1:
            if not math.isfinite(lo):
                cert.fail(
                    "cut-shift", f"x[{j}]",
                    "lower shift without a finite lower bound",
                )
                return cert
            q[j] = rj
            q0 -= rj * _frac(lo)
            if integrality[j] and _frac(lo).denominator != 1:
                cert.fail(
                    "cut-shift", f"x[{j}]",
                    "integer variable shifted on a fractional bound",
                    measured=float(lo),
                )
                return cert
        else:
            cert.fail(
                "cut-shift", f"x[{j}]",
                "aggregated variable carries no shift direction",
            )
            return cert
        if not integrality[j] and q[j] < _ZERO:
            cert.fail(
                "cut-drop", f"x[{j}]",
                "continuous term with negative shifted coefficient "
                "cannot be dropped from the floored sum",
                measured=float(q[j]), expected=0.0,
            )
            return cert

    # Floor and substitute back — the exact valid cut g·x <= g0.
    cert.ran("gomory-floor-replay")
    g: Dict[int, Fraction] = {}
    g0 = Fraction(math.floor(q0))
    for j, qj in q.items():
        if not integrality[j]:
            continue
        fj = Fraction(math.floor(qj))
        if int(cut.shifts[j]) == -1:
            g[j] = g.get(j, _ZERO) + fj
            g0 += fj * _frac(bounds[j][0])
        else:
            g[j] = g.get(j, _ZERO) - fj
            g0 -= fj * _frac(bounds[j][1])
    for i in range(m_ub):
        if lam[i] == _ZERO or not slack_integral.get(i, False):
            continue
        fi = Fraction(math.floor(lam[i]))
        if fi == _ZERO:
            continue
        g0 -= fi * _frac(b_ub[i])
        for j, a in ub_rows[i].items():
            g[j] = g.get(j, _ZERO) - fi * _frac(a)

    # Domination: the stored float row must be implied by the exact cut
    # over the bound box.
    cert.ran("gomory-float-domination")
    slack = _ZERO
    touched = set(g) | set(np.flatnonzero(cut.row))
    for j in touched:
        diff = abs(_frac(cut.row[j]) - g.get(int(j), _ZERO))
        if diff == _ZERO:
            continue
        lo, hi = bounds[j]
        reach = max(abs(lo), abs(hi))
        if not math.isfinite(reach):
            cert.fail(
                "cut-domination", f"x[{j}]",
                "rounding error on an unbounded variable",
            )
            return cert
        slack += diff * _frac(reach)
    margin = _frac(cut.rhs) - (g0 + slack)
    cert.details["domination_margin"] = float(margin)
    if margin < -CERT_EPS:
        cert.fail(
            "cut-domination", "rhs",
            "stored right-hand side is tighter than the proven cut",
            measured=float(cut.rhs), expected=float(g0 + slack),
        )
    return cert


def _certify_cover(
    cut,
    a_ub,
    b_ub: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
    integrality: np.ndarray,
) -> Certificate:
    cert = Certificate(kind="cut-cover")
    if cut.source_row is None or cut.cover is None:
        cert.status = "skipped"
        cert.details["reason"] = "no derivation payload attached"
        return cert
    i = int(cut.source_row)
    if not (0 <= i < a_ub.shape[0]):
        cert.fail("cut-shape", "source_row", "source row out of range")
        return cert
    comp = set(cut.complemented or ())

    cert.ran("cover-binary-support")
    row = row_items(a_ub, i)
    for j in cut.cover:
        if j not in row:
            cert.fail(
                "cut-cover", f"x[{j}]", "cover variable outside row support"
            )
            return cert
        lo, hi = bounds[j]
        if not integrality[j] or lo < 0.0 or hi > 1.0:
            cert.fail(
                "cut-cover", f"x[{j}]", "cover variable is not binary"
            )
            return cert

    # The cover property, exactly: complemented knapsack must overflow.
    cert.ran("cover-overflow")
    b_p = _frac(b_ub[i])
    for a in row.values():
        if a < 0.0:
            b_p -= _frac(a)
    acc = _ZERO
    for j in cut.cover:
        aij = _frac(row[j])
        if (j in comp) != (aij < _ZERO):
            cert.fail(
                "cut-cover", f"x[{j}]",
                "complement flag does not match the coefficient sign",
            )
            return cert
        acc += abs(aij)
    if acc <= b_p:
        cert.fail(
            "cut-cover", f"ub-row {i}",
            "claimed cover does not overflow the knapsack",
            measured=float(acc), expected=float(b_p),
        )
        return cert

    # The stored row must be exactly the mapped cover inequality.
    cert.ran("cover-row-replay")
    expect = np.zeros(len(bounds))
    for j in cut.cover:
        expect[j] = -1.0 if j in comp else 1.0
    rhs_expect = float(len(cut.cover) - 1 - len(comp))
    if not np.array_equal(expect, cut.row) or cut.rhs != rhs_expect:
        cert.fail(
            "cut-cover", "row",
            "stored row is not the cover inequality of the payload",
            measured=float(cut.rhs), expected=rhs_expect,
        )
    return cert
