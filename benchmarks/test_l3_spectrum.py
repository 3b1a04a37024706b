"""L3 benchmark: the critical exponent s_b of the benchmark measures.

Times `s_b_solve` over the b = rho = q (sigma - m/p) > 0 of perfbench's
`order-sweep-ifs` grid (sigma = 2, p and q in 1.5 .. 4 by 0.5) on:

- the closed-form spectrum of the tetrahedron (m = 3), whose crossing
  Brent's root finder (`widthlab._brent.brentq`) refines;
- the empirical level-6 spectrum of the 7-map IFS `ifs7` (m = 2, no closed
  form, the curve `order-sweep-ifs` uses), whose crossing is read off the
  t-grid by linear interpolation. The curve computes a grid value when it
  is first read and keeps it; one untimed pass computes the points that
  the solves read, so the rounds time `s_b_solve` alone, as before.

Closed-form roots must equal `scipy.optimize.brentq`'s bit for bit, on the
same bracket and tolerances; empirical ones must match SciPy's root of the
interpolated curve to 1e-12.

A second case times the values themselves: a fresh level-6 curve of
`ifs7` each round (its level view built untimed), read up to the 36
crossings of the sweep, 63 of its 151 grid points. The curve computes
them with the batched kernel, CHUNK points at a read; the reference is the
per-t Python formula of `tests/oracles.py` (`oracle_beta`), one point at a
read, and both must give the same roots. On a 2-core VM shared with other
tenants, three runs of this file gave medians over 200 rounds of
1.21-1.31 ms for the kernel and 2.35-2.45 ms for the per-t formula.

Run from the root of the repository (pytest-benchmark and SciPy required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from widthlab import (EmpiricalSpectrum, IfsMap, IfsMeasure, closed_form_spectrum,
                      empirical_spectrum, s_b_solve)

from tests.oracles import oracle_beta

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
    """SciPy on the curve's own grid, every value read, linearly interpolated."""
    ts, vs = curve.t_grid, [curve.value(i) for i in range(len(curve.t_grid))]
    return optimize.brentq(lambda t: float(np.interp(t, ts, vs)) - b * t, ts[0], ts[-1],
                           xtol=1e-15, rtol=8.9e-16, maxiter=200)


CASES = {
    "closed-form": (lambda: closed_form_spectrum(tetrahedron()), rhos(3), scipy_closed_form, 0.0),
    "empirical": (lambda: empirical_spectrum(ifs7(), 6), rhos(2), scipy_empirical, 1e-12),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_l3_s_b_solve(benchmark, name):
    build, bs, reference, tol = CASES[name]
    curve = build()
    untimed = [s_b_solve(curve, b) for b in bs]
    got = benchmark(lambda: [s_b_solve(curve, b) for b in bs])
    assert got == untimed
    assert got == pytest.approx([reference(curve, b) for b in bs], rel=0, abs=tol)


class PerPointCurve(EmpiricalSpectrum):
    """The curve as it was before the batched kernel: one value per read."""

    def value(self, i):
        if self._values[i] is None:
            self._values[i] = oracle_beta(self._view, self.level, self.t_grid[i])
        return self._values[i]


@pytest.mark.parametrize("curve", ["per-point", "kernel"])
def test_l3_curve_reads(benchmark, curve):
    model, bs = ifs7(), rhos(2)
    built = empirical_spectrum(model, 6)  # the level view, once
    cls = PerPointCurve if curve == "per-point" else EmpiricalSpectrum

    def fresh():
        return (cls(built.level, built.t_grid, built._view),), {}

    got = benchmark.pedantic(lambda c: [s_b_solve(c, b) for b in bs], setup=fresh, rounds=200,
                             warmup_rounds=1)
    reference = PerPointCurve(built.level, built.t_grid, built._view)
    assert len(bs) == 36 and got == [s_b_solve(reference, b) for b in bs]
