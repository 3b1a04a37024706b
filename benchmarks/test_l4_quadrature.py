"""L4 benchmark: cell location and projection on the benchmark tetrahedron.

Uses the partitions of perfbench's `empirical-ifs` workload (thresholds
2^0 .. 2^-10 at rho = 2.5, `sin`, degree 1) and times, against the kernels
they replaced, kept as baselines in `tests/oracles.py`:

- `PiecewisePolynomial.locate` against one dict lookup on a tuple key per
  node per cell level, on each partition's quadrature nodes (depth max
  level + 3);
- the batched `piecewise_project` against the per-cell body that rebuilt the
  Gram matrix and called f once per cell.

Both pairs must give equal results. Run from the root of the repository
(pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from widthlab import IfsMap, IfsMeasure, SinProduct, build_partition, piecewise_project

from tests.oracles import oracle_locate, oracle_moment_project

RHO = 2.5
THRESHOLDS = [2.0**-k for k in range(11)]
DEGREE = 1
DEPTH_OFFSET = 3
F = SinProduct(3)


def tetrahedron() -> IfsMeasure:
    return IfsMeasure(
        [IfsMap(1, (0, 0, 0)), IfsMap(1, (1, 1, 0)), IfsMap(1, (1, 0, 1)), IfsMap(1, (0, 1, 1))],
        [Fraction("0.599"), Fraction("0.3"), Fraction("0.001"), Fraction("0.1")],
    )


@pytest.fixture(scope="module")
def partitions():
    model = tetrahedron()
    return model, [build_partition(model, RHO, t) for t in THRESHOLDS]


def array_locate(approx, depth, index):
    return approx.locate(depth, index)


@pytest.mark.parametrize("locate", [oracle_locate, array_locate], ids=["dict", "arrays"])
def test_l4_locate(benchmark, locate, partitions):
    model, parts = partitions
    cases = []
    for part in parts:
        depth = part.max_level + DEPTH_OFFSET
        cases.append((piecewise_project(F, part, DEGREE), depth, model.level_nodes(depth).index))
    got = benchmark.pedantic(
        lambda: [locate(approx, depth, index) for approx, depth, index in cases], rounds=5
    )
    want = [oracle_locate(approx, depth, index) for approx, depth, index in cases]
    assert [rows.tolist() for rows in got] == [rows.tolist() for rows in want]


def per_cell_project(f, cells, degree):
    return np.vstack([oracle_moment_project(f, cube, degree) for cube in cells])


def batched_project(f, cells, degree):
    return piecewise_project(f, cells, degree).coeffs


@pytest.mark.parametrize("project", [per_cell_project, batched_project], ids=["per-cell", "batched"])
def test_l4_project(benchmark, project, partitions):
    _, parts = partitions
    got = benchmark.pedantic(
        lambda: [project(F, part.cells, DEGREE) for part in parts], rounds=5
    )
    want = [per_cell_project(F, part.cells, DEGREE) for part in parts]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
