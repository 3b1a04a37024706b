"""Brent's scalar root finder (Brent 1973).

R. P. Brent, *Algorithms for Minimization without Derivatives*,
Prentice-Hall 1973, chapter 4 (zero). `brentq` follows, step for step, the
form of SciPy's `brentq` (C), so it returns the same floats on the same
problems; the tests check this against SciPy where it is installed. Unlike
SciPy's, every failure is a `SolverError`.
"""
from __future__ import annotations

import math

from .errors import SolverError

# SciPy's smallest relative tolerance for brentq, 4 * machine epsilon
RTOL_MIN = 4 * 2.220446049250313e-16


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise SolverError(f"the function value at x={x} is NaN; solver cannot continue")
    return fx


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = RTOL_MIN,
           maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Inverse quadratic interpolation and secant steps, falling back to
    bisection whenever a step would not shrink the bracket fast enough; the
    result x satisfies |x - x0| <= xtol + rtol |x0| for a root x0.
    """
    if xtol <= 0:
        raise SolverError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise SolverError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SolverError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise SolverError(f"failed to converge after {maxiter} iterations, value is {xcur}")
