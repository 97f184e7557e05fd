"""Exact row arithmetic on scaled Python ints.

Every finite float is dyadic: ``float.as_integer_ratio()`` returns a
power-of-two denominator.  So the terms of one row, its right-hand side
and the ``1`` of a cancellation-aware slack can all be put over one
common ``2**E`` and added as Python ints, exactly and without ever
normalizing a gcd.  When ``E == 0`` — every row of the mapping models,
whose coefficients, bounds and 0/1 values are integers — this is plain
int addition.

The certificate replay (:mod:`repro.certify.lp`) and the presolve
(:mod:`repro.ilp.presolve`) both run on this kernel.  A non-finite
float has no ratio: :meth:`float.as_integer_ratio` raises
``ValueError`` (NaN) or ``OverflowError`` (±inf), and callers turn that
into a failed check or gate it up front.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

Ratio = Tuple[int, int]


def common(x: Ratio, y: Ratio) -> Tuple[int, int, int]:
    """``(xn, yn, d)``: two ratios over their common power-of-two ``d``."""
    (xn, xd), (yn, yd) = x, y
    if xd == yd:
        return xn, yn, xd
    if xd > yd:
        return xn, yn * (xd // yd), xd
    return xn * (yd // xd), yn, yd


def beyond(gap: int, scale: int, eps: Fraction) -> bool:
    """``gap > eps * scale`` for two ints over one common denominator."""
    return gap * eps.denominator > eps.numerator * scale


def scale_row(values: Iterable[float]) -> Tuple[List[int], int]:
    """Ints ``N`` and one power of two ``d`` with ``values[k] == N[k] / d``."""
    pairs = [v.as_integer_ratio() for v in values]
    den = max((d for _, d in pairs), default=1)
    if den == 1:
        return [n for n, _ in pairs], 1
    return [n * (den // d) for n, d in pairs], den


def row_sums(coefs: Iterable[float], values: Iterable[Ratio]) -> Tuple[int, int, int]:
    """``(lhs, mass, d)``: ``sum(c * v)`` and ``sum(|c * v|)`` as ints
    over their common power-of-two denominator ``d``.

    ``values`` are ``as_integer_ratio()`` pairs, so a caller converts
    each variable once and replays it in every row it appears in.  Zero
    values contribute nothing; their coefficients are still converted,
    so a non-finite coefficient raises wherever it sits.
    """
    lhs = mass = 0
    den = 1
    for c, (vn, vd) in zip(coefs, values):
        n, d = c.as_integer_ratio()
        if not vn:
            continue
        p = n * vn
        d *= vd
        if d != den:
            if d > den:
                f = d // den
                lhs *= f
                mass *= f
                den = d
            else:
                p *= den // d
        lhs += p
        mass += p if p >= 0 else -p
    return lhs, mass, den


def row_violated(
    coefs: Iterable[float],
    values: Iterable[Ratio],
    rhs: float,
    sense: str,
    eps: Fraction,
) -> Optional[float]:
    """Replay one row ``sum(c * v) sense rhs`` (``sense`` is ``"<="``,
    ``">="`` or ``"=="``); ``None`` when it holds, else the replayed
    left-hand side as a float, for reporting.

    The row is violated when its residual exceeds
    ``eps * (1 + sum(|c * v|) + |rhs|)``, decided exactly on the
    common-scale ints as ``resid * q > p * (mass + |rhs|)`` for
    ``eps == p / q``.
    """
    lhs, mass, den = row_sums(coefs, values)
    lhs, bn, d = common((lhs, den), rhs.as_integer_ratio())
    mass *= d // den
    if sense == "<=":
        resid = lhs - bn
    elif sense == ">=":
        resid = bn - lhs
    else:
        resid = abs(lhs - bn)
    if not beyond(resid, d + mass + abs(bn), eps):
        return None
    return to_float(lhs, d)


def to_float(n: int, d: int) -> float:
    """``n / d`` correctly rounded; ±inf beyond the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf
