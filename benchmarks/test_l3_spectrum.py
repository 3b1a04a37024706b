"""L3 benchmark: the critical exponent s_b of the benchmark measures.

Times `s_b_solve` over the b = rho = q (sigma - m/p) > 0 of perfbench's
`order-sweep-ifs` grid (sigma = 2, p and q in 1.5 .. 4 by 0.5) on:

- the closed-form spectrum of the tetrahedron (m = 3), whose crossing
  Brent's root finder (`widthlab._brent.brentq`) refines;
- the empirical level-6 spectrum of the 7-map IFS `ifs7` (m = 2, no closed
  form, the curve `order-sweep-ifs` uses), whose crossing is read off the
  t-grid by linear interpolation.

Closed-form roots must equal `scipy.optimize.brentq`'s bit for bit, on the
same bracket and tolerances; empirical ones must match SciPy's root of the
interpolated curve to 1e-12. Run from the root of the repository
(pytest-benchmark and SciPy required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from widthlab import IfsMap, IfsMeasure, closed_form_spectrum, empirical_spectrum, s_b_solve

optimize = pytest.importorskip("scipy.optimize")

GRID = [1.5 + k / 2 for k in range(6)]
IFS7_MAPS = [
    (1, (1, 1), "0.31"), (1, (0, 0), "0.23"), (2, (3, 0), "0.17"), (2, (0, 3), "0.11"),
    (3, (5, 2), "0.07"), (3, (4, 3), "0.06"), (3, (2, 5), "0.05"),
]


def tetrahedron() -> IfsMeasure:
    return IfsMeasure(
        [IfsMap(1, (0, 0, 0)), IfsMap(1, (1, 1, 0)), IfsMap(1, (1, 0, 1)), IfsMap(1, (0, 1, 1))],
        [Fraction("0.599"), Fraction("0.3"), Fraction("0.001"), Fraction("0.1")],
    )


def ifs7() -> IfsMeasure:
    return IfsMeasure([IfsMap(k, o) for k, o, _ in IFS7_MAPS],
                      [Fraction(p) for *_, p in IFS7_MAPS])


def rhos(m: int) -> list[float]:
    return [b for b in (q * (2 - m / p) for p in GRID for q in GRID) if b > 0]


def scipy_closed_form(curve, b: float) -> float:
    """SciPy on the bracket that `s_b_solve` finds: [0, 1.5 * 2^j]."""
    def g(t):
        return curve.beta(t) - b * t

    hi = 1.5
    while g(hi) > 0:
        hi *= 2.0
    return optimize.brentq(g, 0.0, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def scipy_empirical(curve, b: float) -> float:
    ts = curve.t_grid
    return optimize.brentq(lambda t: curve.beta(t) - b * t, ts[0], ts[-1], xtol=1e-15,
                           rtol=8.9e-16, maxiter=200)


CASES = {
    "closed-form": (lambda: closed_form_spectrum(tetrahedron()), rhos(3), scipy_closed_form, 0.0),
    "empirical": (lambda: empirical_spectrum(ifs7(), 6), rhos(2), scipy_empirical, 1e-12),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_l3_s_b_solve(benchmark, name):
    build, bs, reference, tol = CASES[name]
    curve = build()
    got = benchmark(lambda: [s_b_solve(curve, b) for b in bs])
    assert got == pytest.approx([reference(curve, b) for b in bs], rel=0, abs=tol)
