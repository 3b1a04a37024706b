"""L3 benchmark: J_rho partition rows, on IFS and non-IFS cube trees.

Times the cells walk (`build_partition`) against the row recursion
(`partition_row`), both over the edges of the model's cube tree, on:

- tetrahedron: the benchmark tetrahedron at rho = 1 on the thresholds
  2^-4 .. 2^-20, the rows of perfbench's `partition-ifs` workload, checked
  against the level-filter oracle `naive_partition` in `tests/oracles.py`;
- lebesgue: Lebesgue measure on the unit square at rho = 1 on the thresholds
  2^-16 .. 2^-24, checked against the closed form: J = 2^-3n at level n, so
  the cells are the 4^n cubes of the first level n with 3n > log2(1/t);
- cloud: a seeded 600-point cloud (6-digit decimals) at rho = 2 on the
  thresholds 2^-4 .. 2^-12, checked against `naive_partition`.

Each round gets a fresh model, as a command-line run does, so no state
graph (the states each model interns for both walks) carries over from one
round to the next; within a round, the later thresholds reuse the states
the earlier ones expanded. The cells walk still builds the 4^9 cells of
lebesgue at 2^-24 one by one, about 4.3 s a round on a 2-core VM. Run from
the root of the repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from widthlab import AtomicMeasure, IfsMap, IfsMeasure, build_partition, lebesgue, partition_row

from tests.oracles import naive_partition, oracle_j_log2

SEED = 0
CLOUD_POINTS = 600


def tetrahedron() -> IfsMeasure:
    return IfsMeasure(
        [IfsMap(1, (0, 0, 0)), IfsMap(1, (1, 1, 0)), IfsMap(1, (1, 0, 1)), IfsMap(1, (0, 1, 1))],
        [Fraction("0.599"), Fraction("0.3"), Fraction("0.001"), Fraction("0.1")],
    )


def cloud() -> AtomicMeasure:
    coords = np.random.default_rng(SEED).integers(1, 10**6, size=(CLOUD_POINTS, 2)).tolist()
    return AtomicMeasure([[Fraction(c, 10**6) for c in row] for row in coords],
                         [Fraction(1, CLOUD_POINTS)] * CLOUD_POINTS)


# name: (model factory, rho, thresholds)
CASES = {
    "tetrahedron": (tetrahedron, 1.0, [2.0**-k for k in range(4, 21)]),
    "lebesgue": (lambda: lebesgue(2), 1.0, [2.0**-k for k in range(16, 25)]),
    "cloud": (cloud, 2.0, [2.0**-k for k in range(4, 13)]),
}


def rows(build, model, rho, thresholds):
    return [
        (p.t, p.card, p.min_level, p.max_level, p.max_j)
        for p in (build(model, rho, t) for t in thresholds)
    ]


def oracle_rows(name):
    make, rho, thresholds = CASES[name]
    out = []
    for t in thresholds:
        if name == "lebesgue":
            n = int(-np.log2(t)) // 3 + 1
            out.append((t, 4**n, n, n, 2.0 ** (-3 * n)))
            continue
        model = make()
        cells = naive_partition(model, rho, t)
        levels = [c.level for c in cells]
        top = max(oracle_j_log2(model, c, rho) for c in cells)
        out.append((t, len(cells), min(levels), max(levels), 2.0**top))
    return out


@pytest.fixture(scope="module")
def oracle():
    return {name: oracle_rows(name) for name in CASES}


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("build", [build_partition, partition_row], ids=["cells", "rows"])
def test_l3_partition_rows(benchmark, build, name, oracle):
    make, rho, thresholds = CASES[name]
    got = benchmark.pedantic(rows, setup=lambda: ((build, make(), rho, thresholds), {}),
                             rounds=5)
    assert got == oracle[name]
