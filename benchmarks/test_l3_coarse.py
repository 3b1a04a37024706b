"""L3 benchmark: the coarse profiles of perfbench's `order-sweep-ifs` sweep.

Times the 36 `coarse_profile` calls of the sweep: the 7-map mixed-ratio IFS
`ifs7` (perfbench's `ifs7.json`, m = 2) at levels 4..6, one profile per
rho = q (sigma - m/p) of the grid sigma = 2, p and q in 1.5 .. 4 by 0.5, each
on its default alpha grid. Both sides share one view per level, built
before the timed rounds as the command line builds them once per sweep:

- array: `coarse_profile`, one `searchsorted` over the whole alpha grid per
  level on the `count_view` arrays, and the window max/min of the stacked
  estimates;
- bisection: `oracle_coarse_profile` in `tests/oracles.py`, the per-alpha
  bisection and per-count log2 that the array search replaced.

Both must give the same profiles, field for field. Medians of 30 rounds on
a 2-core VM shared with other tenants (python 3.11, numpy 2.4), three runs:
array 7.5, 9.2 and 9.5 ms, bisection 26.8, 29.3 and 29.5 ms. Run from the
root of the repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from widthlab import IfsMap, IfsMeasure, coarse_profile
from widthlab.coarse import count_view

from tests.oracles import oracle_coarse_profile, oracle_count_view

GRID = [1.5 + k / 2 for k in range(6)]
LEVELS = (4, 5, 6)
IFS7_MAPS = [
    (1, (1, 1), "0.31"), (1, (0, 0), "0.23"), (2, (3, 0), "0.17"), (2, (0, 3), "0.11"),
    (3, (5, 2), "0.07"), (3, (4, 3), "0.06"), (3, (2, 5), "0.05"),
]
RHOS = [q * (2 - 2 / p) for p in GRID for q in GRID]


def ifs7() -> IfsMeasure:
    return IfsMeasure([IfsMap(k, o) for k, o, _ in IFS7_MAPS],
                      [Fraction(p) for *_, p in IFS7_MAPS])


def sweep(profile, model, views):
    return [profile(model, LEVELS, rho, views=views) for rho in RHOS]


SIDES = {
    "array": (coarse_profile, count_view),
    "bisection": (oracle_coarse_profile, oracle_count_view),
}


@pytest.mark.parametrize("side", list(SIDES))
def test_l3_coarse_sweep(benchmark, side):
    profile, view = SIDES[side]
    model = ifs7()
    views = {n: view(model, n) for n in LEVELS}
    got = benchmark.pedantic(sweep, args=(profile, model, views), rounds=30)
    assert len(got) == 36
    assert got == sweep(oracle_coarse_profile, model, None)
