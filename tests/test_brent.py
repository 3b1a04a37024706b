"""Brent's root finder and bounded minimizer (`widthlab._brent`).

The ports must return exactly SciPy's floats, `brentq` those of
`scipy.optimize.brentq` and `fminbound` those of
`minimize_scalar(method="bounded")`, on random problems of the kinds widthlab
solves: bracketed roots, the crossing of log2(sum p_i^t) / k - b t on [0, 64]
(`s_b_solve`), and maxima of |f| over short intervals (`_refine_max`). Where
SciPy fails or reports no convergence, the port raises `SolverError`. Those
comparisons need SciPy and skip without it; the error cases do not.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from widthlab import SolverError
from widthlab._brent import RTOL_MIN, brentq, fminbound


def _port(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except SolverError:
        return SolverError


def _scipy_root(f, a, b, **kwargs):
    optimize = pytest.importorskip("scipy.optimize")
    try:
        return optimize.brentq(f, a, b, **kwargs)
    except (ValueError, RuntimeError):
        return SolverError


def _scipy_min(f, lo, hi):
    optimize = pytest.importorskip("scipy.optimize")
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded")
    return (float(res.x), float(res.fun)) if res.success else SolverError


tolerances = st.sampled_from([
    {}, {"xtol": 1e-15, "rtol": 8.9e-16, "maxiter": 200}, {"xtol": 1e-6, "rtol": 1e-9},
    {"maxiter": 4},
])


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=4), st.floats(0.1, 10),
       st.floats(-6, 6), st.floats(-6, 6), tolerances)
@settings(max_examples=300, deadline=None)
def test_brentq_matches_scipy_on_bracketed_polynomials(roots, scale, a, b, kwargs):
    def f(x):
        return scale * math.prod(x - r for r in roots)

    assume(math.copysign(1.0, f(a)) != math.copysign(1.0, f(b)))
    assert _port(brentq, f, a, b, **kwargs) == _scipy_root(f, a, b, **kwargs)


@given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8), st.integers(1, 4),
       st.floats(0.05, 8.0), st.sampled_from([0.0, 1e-12]), tolerances)
@settings(max_examples=300, deadline=None)
def test_brentq_matches_scipy_on_spectrum_crossings(weights, k, b, lo, kwargs):
    probs = [w / math.fsum(weights) for w in weights]

    def g(t):
        return math.log2(math.fsum(p**t for p in probs)) / k - b * t

    assert _port(brentq, g, lo, 64.0, **kwargs) == _scipy_root(g, lo, 64.0, **kwargs)


@given(st.lists(st.tuples(st.floats(0.5, 200.0), st.floats(0.0, 6.3)), min_size=1, max_size=4),
       st.floats(0.0, 1.0), st.floats(0.0, 0.2))
@settings(max_examples=300, deadline=None)
def test_fminbound_matches_scipy_on_multi_peak_abs(waves, lo, width):
    def neg_abs(x):
        return -abs(math.fsum(math.sin(w * x + phase) for w, phase in waves))

    hi = lo + width
    assert _port(fminbound, neg_abs, lo, hi) == _scipy_min(neg_abs, lo, hi)


def test_brentq_typed_errors():
    with pytest.raises(SolverError, match="different signs"):
        brentq(lambda x: x * x + 1, -1.0, 1.0)
    with pytest.raises(SolverError, match="NaN"):
        brentq(lambda x: math.nan if 0 < x < 0.9 else x - 0.5, -1.0, 1.0)
    with pytest.raises(SolverError, match="converge after 2 iterations"):
        brentq(lambda x: x**3 - 0.3, 0.0, 1.0, maxiter=2)
    with pytest.raises(SolverError, match="rtol too small"):
        brentq(lambda x: x, -1.0, 1.0, rtol=RTOL_MIN / 2)
    with pytest.raises(SolverError, match="xtol too small"):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)


def test_fminbound_typed_errors():
    with pytest.raises(SolverError, match="NaN"):
        fminbound(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(SolverError, match="all 3 evaluations"):
        fminbound(lambda x: (x - 0.3) ** 2, 0.0, 1.0, maxiter=3)
    with pytest.raises(SolverError, match="lower bound exceeds"):
        fminbound(abs, 1.0, 0.0)
    with pytest.raises(SolverError, match="finite"):
        fminbound(abs, 0.0, math.inf)
