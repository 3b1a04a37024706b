"""L3 benchmark: the coarse profiles of perfbench's `order-sweep-ifs` sweep.

Times the 36 coarse profiles of the sweep: the 7-map mixed-ratio IFS `ifs7`
(perfbench's `ifs7.json`, m = 2) at levels 4..6, one profile per
rho = q (sigma - m/p) of the grid sigma = 2, p and q in 1.5 .. 4 by 0.5,
each on its default alpha grid. Every side reads one view per level,
built before the timed rounds as the command line builds them once per
sweep (the kernel's `count_view` is swapped for a lookup of the built
views):

- one-pass: `coarse_profiles` on the list of all 36 rho, as `order` calls
  it: one `searchsorted` per level over every (rho, alpha) threshold, and
  one segmented max of f / alpha per window;
- per-rho: `coarse_profile` once per rho, one `searchsorted` per level and
  rho (108 in all);
- bisection: `oracle_coarse_profile` in `tests/oracles.py`, the per-alpha
  bisection and per-count log2 that the array search replaced.

All must give the same profiles, field for field. Medians of 30 rounds on a
2-core VM shared with other tenants (python 3.11, numpy 2.4), three runs:
one-pass 2.23, 3.71 and 4.14 ms, per-rho 4.78, 6.40 and 8.51 ms, bisection
15.1, 17.1 and 27.9 ms. Run from the root of the repository
(pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from widthlab import IfsMap, IfsMeasure, coarse, coarse_profile
from widthlab.coarse import coarse_profiles, count_view

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


def one_pass(model, views):
    return list(coarse_profiles(model, LEVELS, RHOS))


def per_rho(model, views):
    return [coarse_profile(model, LEVELS, rho) for rho in RHOS]


def bisection(model, views):
    return [oracle_coarse_profile(model, LEVELS, rho, views=views) for rho in RHOS]


SIDES = {
    "one-pass": (one_pass, count_view),
    "per-rho": (per_rho, count_view),
    "bisection": (bisection, oracle_count_view),
}


@pytest.mark.parametrize("side", list(SIDES))
def test_l3_coarse_sweep(benchmark, side, monkeypatch):
    sweep, view = SIDES[side]
    model = ifs7()
    views = {n: view(model, n) for n in LEVELS}
    monkeypatch.setattr(coarse, "count_view", lambda model, n: views[n])
    got = benchmark.pedantic(sweep, args=(model, views), rounds=30)
    monkeypatch.undo()
    assert len(got) == 36
    assert got == bisection(model, None)
