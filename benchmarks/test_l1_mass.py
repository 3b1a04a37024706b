"""L1 benchmark: the mass oracle, the walk of the cube tree against each
family's definition.

Times `MeasureModel.mass`, which walks one edge of the model's tree per level
down from the root, against the definitions that the walk replaced, kept as
`oracle_mass` in `tests/oracles.py`: the pullback recursion
nu = sum_i p_i nu o S_i^-1 of an IFS, the atoms a cube contains, a uniform
model's volume share and the product of the factors' masses. Each side
queries the mass of every child of every positive cube, level by level, on:

- ifs: the benchmark tetrahedron (perfbench's `tetrahedron.json`) to level
  7, and the 7-map mixed-ratio IFS (perfbench's `ifs7.json`) embedded by a
  level-2 shift, to level 8;
- atomic: a seeded 200-point cloud (6-digit decimals) to level 8;
- uniform: Lebesgue measure on the level-3 cube (5, 2) of the unit square,
  to level 8;
- product: a two-map IFS, a three-atom measure and Lebesgue measure on
  [0, 1], to level 5.

Each round gets fresh models, so no template or pullback memo carries over.
Both sides must give the same exact masses. Run from the root of the
repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from widthlab import (AtomicMeasure, DyadicCube, IfsMap, IfsMeasure, ProductMeasure,
                      UniformMeasure, children, lebesgue, root)

from tests.oracles import oracle_mass

SEED = 0
CLOUD_POINTS = 200

IFS7_MAPS = [
    (1, (1, 1), "0.31"),
    (1, (0, 0), "0.23"),
    (2, (3, 0), "0.17"),
    (2, (0, 3), "0.11"),
    (3, (5, 2), "0.07"),
    (3, (4, 3), "0.06"),
    (3, (2, 5), "0.05"),
]


def ifs_cases():
    tetrahedron = IfsMeasure(
        [IfsMap(1, (0, 0, 0)), IfsMap(1, (1, 1, 0)), IfsMap(1, (1, 0, 1)), IfsMap(1, (0, 1, 1))],
        [Fraction("0.599"), Fraction("0.3"), Fraction("0.001"), Fraction("0.1")],
    )
    ifs7 = IfsMeasure([IfsMap(k, o) for k, o, _ in IFS7_MAPS],
                      [Fraction(p) for *_, p in IFS7_MAPS], IfsMap(2, (1, 2)))
    return [(tetrahedron, 7), (ifs7, 8)]


def atomic_cases():
    coords = np.random.default_rng(SEED).integers(1, 10**6, size=(CLOUD_POINTS, 2)).tolist()
    cloud = AtomicMeasure([[Fraction(c, 10**6) for c in row] for row in coords],
                          [Fraction(1, CLOUD_POINTS)] * CLOUD_POINTS)
    return [(cloud, 8)]


def uniform_cases():
    return [(UniformMeasure(DyadicCube(3, (5, 2))), 8)]


def product_cases():
    product = ProductMeasure([
        IfsMeasure([IfsMap(2, (0,)), IfsMap(2, (3,))], [Fraction(1, 3), Fraction(2, 3)]),
        AtomicMeasure([(Fraction(1, 2),), (Fraction(500001, 10**6),), (Fraction(1, 8),)],
                      [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
        lebesgue(1),
    ])
    return [(product, 5)]


CASES = {"ifs": ifs_cases, "atomic": atomic_cases, "uniform": uniform_cases,
         "product": product_cases}


def child_masses(mass, model, depth):
    """The mass of every child of every positive cube of levels 0 .. depth - 1."""
    out, frontier = [], [root(model.m)]
    for _ in range(depth):
        below = []
        for cube in frontier:
            for child in children(cube):
                mu = mass(model, child)
                out.append(mu)
                if mu > 0:
                    below.append(child)
        frontier = below
    return out


def walk_mass(model, cube):
    return model.mass(cube)


@pytest.fixture(scope="module")
def oracle():
    return {family: [child_masses(oracle_mass, model, depth) for model, depth in cases()]
            for family, cases in CASES.items()}


@pytest.mark.parametrize("family", list(CASES))
@pytest.mark.parametrize("mass", [oracle_mass, walk_mass], ids=["definition", "walk"])
def test_l1_mass(benchmark, mass, family, oracle):
    got = benchmark.pedantic(
        lambda todo: [child_masses(mass, model, depth) for model, depth in todo],
        setup=lambda: ((CASES[family](),), {}),
        rounds=3,
    )
    assert got == oracle[family]
