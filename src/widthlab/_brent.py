"""Brent's scalar root finder and bounded minimizer (Brent 1973).

R. P. Brent, *Algorithms for Minimization without Derivatives*,
Prentice-Hall 1973: chapter 4 (zero) and chapter 5 (localmin). The two
functions follow, step for step, the forms in SciPy's `brentq` (C) and
`minimize_scalar(method="bounded")`, so they return the same floats on the
same problems; the tests check this against SciPy where it is installed.
Unlike those, every failure is a `SolverError`.
"""
from __future__ import annotations

import math

from .errors import SolverError

# SciPy's smallest relative tolerance for brentq, 4 * machine epsilon
RTOL_MIN = 4 * 2.220446049250313e-16
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


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


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def fminbound(f, lo: float, hi: float, xatol: float = 1e-5,
              maxiter: int = 500) -> tuple[float, float]:
    """(x, f(x)) at a local minimum of f on [lo, hi].

    Golden-section search with parabolic interpolation steps, to absolute
    tolerance xatol in x; `maxiter` bounds the number of evaluations of f.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SolverError("optimization bounds must be finite scalars")
    if lo > hi:
        raise SolverError("the lower bound exceeds the upper bound")
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = _value(f, xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (_sign(xm - xf) + (xm - xf == 0))
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e

        x = xf + (_sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = _value(f, x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            raise SolverError(f"bounded minimization used all {maxiter} evaluations")
    return xf, fx
