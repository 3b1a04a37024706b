"""L3 benchmark: J_rho partition rows, on IFS and non-IFS cube trees.

Times the two builds of the one level-by-level J_rho walk over the states
of the model's store: with its cells (`build_partition`, a counting pass,
then a pass that carries every cube's index) and its rows alone
(`partition_row`, a count per state), on:

- tetrahedron: the benchmark tetrahedron at rho = 1 on the thresholds
  2^-4 .. 2^-20, the rows of perfbench's `partition-ifs` workload, checked
  against the level-filter oracle `naive_partition` in `tests/oracles.py`;
- lebesgue: Lebesgue measure on the unit square at rho = 1 on the thresholds
  2^-16 .. 2^-24, checked against the closed form: J = 2^-3n at level n, so
  the cells are the 4^n cubes of the first level n with 3n > log2(1/t);
- cloud: a seeded 600-point cloud (6-digit decimals) at rho = 2 on the
  thresholds 2^-4 .. 2^-12, checked against `naive_partition`.

Each round gets a fresh model, as a command-line run does, so its store
(the states the walk expands, kept on the model) starts empty; within a
round, the later thresholds reuse the states the earlier ones expanded. The cells build still makes the 4^9 cells of
lebesgue at 2^-24 one by one. Before and after the memoized depth-first
recursion gave way to the level-by-level walk, on a 2-core x86-64 VM
shared with other tenants (Python 3.11), pytest-benchmark medians of 5
rounds, four runs a side, alternating:

    case         cells build                        rows build
    tetrahedron  114, 117, 180, 191 -> 72, 138,     7.6, 4.7, 5.0, 8.4 ->
                 131, 111 ms                        1.3, 1.7, 1.5, 2.0 ms
    lebesgue     2.42, 2.18, 3.29, 3.57 -> 1.43,    0.68, 0.40, 0.41, 0.71 ->
                 2.06, 1.90, 1.77 s                 0.14, 0.17, 0.13, 0.20 ms
    cloud        5.7, 3.7, 4.8, 7.8 -> 3.8, 4.3,    5.2, 3.3, 5.1, 5.4 ->
                 4.0, 5.5 ms                        2.1, 2.4, 2.6, 3.2 ms

The rows build moves a count per state where the recursion memoized a row
tuple per (level, state) and merged the rows of every expanded state. The
cells build keeps each state's indices in index order, so a level's cells
come in a few sorted runs and the final sort merges them: on lebesgue that
sort took about 0.2 s after the recursion, whose depth-first order left the
cells partly sorted, and 0.5 s after the walk without the per-state order,
against under 0.1 s with it. The spread between runs on that machine is as
large as the differences on cloud.

Run from the root of the repository (pytest-benchmark required):

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
