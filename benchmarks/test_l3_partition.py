"""L3 benchmark: J_rho partition rows, on IFS and non-IFS cube trees.

Times the level-synchronous J_rho pass over the states of the model's
store three ways, for a list of thresholds:

- cells: `build_partition` per threshold, a counting pass, then a pass
  that carries every cube's index;
- rows-loop: `partition_row` per threshold, one counting pass each;
- rows: one `partition_rows` call, one counting pass for the whole list.

The cases:

- tetrahedron: the benchmark tetrahedron at rho = 1 on the thresholds
  2^-4 .. 2^-20, the rows of perfbench's `partition-ifs` workload, checked
  against the level-filter oracle `naive_partition` in `tests/oracles.py`;
- lebesgue: Lebesgue measure on the unit square at rho = 1 on the thresholds
  2^-16 .. 2^-24, checked against the closed form: J = 2^-3n at level n, so
  the cells are the 4^n cubes of the first level n with 3n > log2(1/t);
- cloud: a seeded 600-point cloud (6-digit decimals) at rho = 2 on the
  thresholds 2^-4 .. 2^-12, checked against `naive_partition`.

Every build must give the oracle's rows, so the three agree. Each round
gets a fresh model, as a command-line run does, so its store (the states
the pass expands, kept on the model) starts empty; within a round, the
later thresholds of a loop reuse the states the earlier ones expanded. The
cells build still makes the 4^9 cells of lebesgue at 2^-24 one by one, so
it runs 5 rounds, and the rows builds 20. Before and after the rows of a
list came from one pass, on a 2-core x86-64 VM shared with other tenants
(Python 3.11), pytest-benchmark medians, four runs a side, alternating;
before, the rows were a loop of the one-threshold walk:

    case         cells                rows-loop                  rows (one pass)
    tetrahedron  60, 58, 77, 67 ->    1.20, 2.33, 1.30, 1.31 ->  0.85, 0.74, 0.80, 0.88 ms
                 57, 58, 66, 67 ms    2.00, 2.11, 2.52, 2.31 ms
    lebesgue     0.90, 0.97, 1.04,    0.12, 0.24, 0.13, 0.13 ->  0.11, 0.10, 0.10, 0.11 ms
                 1.03 -> 0.89, 0.89,  0.28, 0.29, 0.34, 0.32 ms
                 1.02, 0.97 s
    cloud        2.4, 4.6, 2.6, 3.0   1.40, 2.84, 1.45, 1.48 ->  1.63, 1.41, 1.52, 1.51 ms
                 -> 2.7, 3.0, 3.6,    1.64, 1.57, 1.72, 1.79 ms
                 3.1 ms

The one pass saves the per-threshold walks, not the expansion: each
(level, state) is expanded once per model either way. So it gains where
the walks cost more than the expansion (tetrahedron, lebesgue) and not on
the cloud, whose atomic rule splits the atoms of every expanded state. A
loop of `partition_row` calls runs the list machinery once per threshold
(a bisection and a difference-array update per child, against one
comparison before), so it is the slowest way to get rows. The cells
build keeps each state's indices in index order, so a level's cells come
in a few sorted runs and the final sort merges them.

Run from the root of the repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from widthlab import AtomicMeasure, IfsMap, IfsMeasure, build_partition, lebesgue, partition_row
from widthlab.partition import partition_rows

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


def _fields(p):
    return (p.t, p.card, p.min_level, p.max_level, p.max_j)


def cells(model, rho, thresholds):
    return [_fields(build_partition(model, rho, t)) for t in thresholds]


def rows_loop(model, rho, thresholds):
    return [_fields(partition_row(model, rho, t)) for t in thresholds]


def rows(model, rho, thresholds):
    return [_fields(p) for p in partition_rows(model, rho, thresholds)]


# name: (build, rounds); the cells builds of lebesgue take seconds a round
BUILDS = {"cells": (cells, 5), "rows-loop": (rows_loop, 20), "rows": (rows, 20)}


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
@pytest.mark.parametrize("build", list(BUILDS))
def test_l3_partition_rows(benchmark, build, name, oracle):
    make, rho, thresholds = CASES[name]
    call, rounds = BUILDS[build]
    got = benchmark.pedantic(call, setup=lambda: ((make(), rho, thresholds), {}), rounds=rounds)
    assert got == oracle[name]
