"""L4 benchmark: cell location and projection on the benchmark tetrahedron.

Uses the partitions of perfbench's `empirical-ifs` workload (thresholds
2^0 .. 2^-10 at rho = 2.5, `sin`, degree 1) and times, against the kernels
they replaced, kept as baselines in `tests/oracles.py`:

- `PiecewisePolynomial.locate` against one dict lookup on a tuple key per
  node per cell level, on each partition's quadrature nodes (depth max
  level + 3);
- the batched `piecewise_project` against the per-cell body that rebuilt the
  Gram matrix and called f once per cell;
- the whole `decay_experiment`, whose rows share cells, errors and
  quadrature nodes across thresholds, against `oracle_decay_rows`, which
  projects and measures every partition anew (both on a model whose
  node tables are already built).

All three pairs must give equal results. Decay medians of 5 rounds on a
2-core VM (Python 3.11), three runs: shared 28.4, 29.4, 28.1 ms against
per-threshold 36.1, 37.0, 35.7 ms. Both routes use the same kernels, so the
gap is the repeated work alone: 143 cell solves against 44 distinct cells,
11 error evaluations against 8 distinct partitions, and the nodes and
f-values of 11 depths against 4. Run from the root of the repository
(pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from widthlab import (EmbeddingParams, IfsMap, IfsMeasure, SinProduct, build_partition,
                      decay_experiment, piecewise_project)

from tests.oracles import oracle_decay_rows, oracle_locate, oracle_moment_project

RHO = 2.5
THRESHOLDS = [2.0**-k for k in range(11)]
DEGREE = 1
DEPTH_OFFSET = 3
F = SinProduct(3)
PARAMS = EmbeddingParams(m=3, sigma=DEGREE + 1, p=4.0, q=2.0)  # rho = 2.5


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


def per_threshold_rows(model):
    return oracle_decay_rows(F, model, PARAMS, THRESHOLDS, DEPTH_OFFSET)


def shared_rows(model):
    return list(decay_experiment(F, model, PARAMS, THRESHOLDS, DEPTH_OFFSET).rows)


@pytest.mark.parametrize("rows", [per_threshold_rows, shared_rows], ids=["per-threshold", "shared"])
def test_l4_decay(benchmark, rows, partitions):
    model, _ = partitions
    assert PARAMS.rho == RHO
    got = benchmark.pedantic(lambda: rows(model), rounds=5)
    assert repr(got) == repr(per_threshold_rows(model))
