"""L2 benchmark: level enumeration by node table against the descent.

Times `level_nodes`, which builds each family's positive cubes in bulk,
against the cube-by-cube descent through the mass oracle that it replaced,
kept as `descent_positive` in `tests/oracles.py`, on:

- a seeded 600-point cloud (6-digit decimals, like perfbench's `cloud.csv`)
  at levels 4..8, the levels of the `spectrum-cloud` workload;
- Lebesgue measure on the unit square at level 8 (65536 cubes);
- the product of a two-map IFS, a three-atom measure and Lebesgue measure on
  [0, 1] at level 6.

Each round gets fresh models, so no IFS level is cached. Both sides must
give the same cubes with the same exact masses. The descent queries every
atom for every child cube: its one round on the cloud takes about 25 s on a
2-core VM, so the suite runs one round per side. Run from the root of the
repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from widthlab import AtomicMeasure, DyadicCube, IfsMap, IfsMeasure, ProductMeasure, lebesgue

from tests.oracles import descent_positive

SEED = 0
CLOUD_POINTS = 600


def cases():
    rng = np.random.default_rng(SEED)
    coords = rng.integers(1, 10**6, size=(CLOUD_POINTS, 2)).tolist()
    cloud = AtomicMeasure(
        [[Fraction(c, 10**6) for c in row] for row in coords],
        [Fraction(1, CLOUD_POINTS)] * CLOUD_POINTS,
    )
    product = ProductMeasure([
        IfsMeasure([IfsMap(2, (0,)), IfsMap(2, (3,))], [Fraction(1, 3), Fraction(2, 3)]),
        AtomicMeasure([(Fraction(1, 2),), (Fraction(500001, 10**6),), (Fraction(1, 8),)],
                      [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
        lebesgue(1),
    ])
    return [(cloud, n) for n in range(4, 9)] + [(lebesgue(2), 8), (product, 6)]


def table_positive(model, n):
    return model.level_nodes(n)


def as_cubes(n, table):
    index, mass_id, masses = table
    return [(DyadicCube(n, tuple(row)), masses[j]) for row, j in zip(index.tolist(), mass_id.tolist())]


@pytest.fixture(scope="module")
def descent():
    return [descent_positive(model, n) for model, n in cases()]


@pytest.mark.parametrize("enumerate_", [descent_positive, table_positive],
                         ids=["descent", "table"])
def test_l2_levels(benchmark, enumerate_, descent):
    got = benchmark.pedantic(
        lambda todo: [enumerate_(model, n) for model, n in todo],
        setup=lambda: ((cases(),), {}),
        rounds=1,
    )
    if enumerate_ is table_positive:
        got = [as_cubes(n, table) for (_, n), table in zip(cases(), got)]
    assert got == descent
