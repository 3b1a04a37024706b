"""L1 benchmark: the IFS mass oracle, template walk against pullback recursion.

Times `IfsMeasure.mass`, which walks one template edge per level down from
the root, against the pullback recursion nu = sum_i p_i nu o S_i^-1 that it
replaced, kept as `oracle_mass` in `tests/oracles.py`. Each side queries the
mass of every child of every positive cube, level by level, on:

- the benchmark tetrahedron (perfbench's `tetrahedron.json`) to level 7;
- the 7-map mixed-ratio IFS (perfbench's `ifs7.json`) embedded by a level-2
  shift, to level 8.

Each round gets fresh models, so no template or pullback memo carries over.
Both sides must give the same exact masses. Run from the root of the
repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from widthlab import IfsMap, IfsMeasure, children, root

from tests.oracles import oracle_mass

IFS7_MAPS = [
    (1, (1, 1), "0.31"),
    (1, (0, 0), "0.23"),
    (2, (3, 0), "0.17"),
    (2, (0, 3), "0.11"),
    (3, (5, 2), "0.07"),
    (3, (4, 3), "0.06"),
    (3, (2, 5), "0.05"),
]


def cases():
    tetrahedron = IfsMeasure(
        [IfsMap(1, (0, 0, 0)), IfsMap(1, (1, 1, 0)), IfsMap(1, (1, 0, 1)), IfsMap(1, (0, 1, 1))],
        [Fraction("0.599"), Fraction("0.3"), Fraction("0.001"), Fraction("0.1")],
    )
    ifs7 = IfsMeasure([IfsMap(k, o) for k, o, _ in IFS7_MAPS],
                      [Fraction(p) for *_, p in IFS7_MAPS], IfsMap(2, (1, 2)))
    return [(tetrahedron, 7), (ifs7, 8)]


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


def template_mass(model, cube):
    return model.mass(cube)


@pytest.fixture(scope="module")
def oracle():
    return [child_masses(oracle_mass, model, depth) for model, depth in cases()]


@pytest.mark.parametrize("mass", [oracle_mass, template_mass], ids=["pullback", "template"])
def test_l1_mass(benchmark, mass, oracle):
    got = benchmark.pedantic(
        lambda todo: [child_masses(mass, model, depth) for model, depth in todo],
        setup=lambda: ((cases(),), {}),
        rounds=3,
    )
    assert got == oracle
