"""L4 benchmark: cell location, projection and the packing probe.

Times each kernel against the one it replaced, kept as a baseline in
`tests/oracles.py`. The first three use the partitions of perfbench's
`empirical-ifs` workload (thresholds 2^0 .. 2^-10 at rho = 2.5, `sin`,
degree 1) on the benchmark tetrahedron:

- the node -> cell rows through the node tables' ancestry
  (`PiecewisePolynomial._node_rows`, the ancestor rows of each cell level
  shared by the partitions of one depth, as in a decay run) against the
  packed-key binary search it replaced (`oracle_packed_locate`), on each
  partition's quadrature nodes (depth max level + 3); both must give the
  rows of one dict lookup on a tuple key per node per cell level;
- the batched `piecewise_project` against the per-cell body that rebuilt the
  Gram matrix and called f once per cell;
- the whole `decay_experiment`, whose rows share cells, errors and
  quadrature nodes across thresholds, against `oracle_decay_rows`, which
  projects and measures every partition anew (both on a model whose
  node tables are already built);
- `packing_probe` on Lebesgue measure on [0, 1) at level 9, alpha = 2
  (170 members, 2^15 nodes), whose bumps take their values only at the
  nodes they own, against `oracle_packing_probe`, which evaluates every
  member's bump at every node into a dense matrix.

All four pairs must give equal results, except the probe's ||Q_n g||
entries: its sums over the family run in another order, so they agree to
1e-12 relative. Medians of 5 rounds on a 2-core VM (Python 3.11, numpy
2.4), three runs each: location 1.42, 1.39, 1.29 ms by ancestry against
3.67, 3.74, 3.33 ms by packed keys; decay shared 8.5, 9.8, 9.2 ms against
per-threshold 15.0, 15.8, 15.7 ms (12.9, 14.6, 12.7 against 20.5, 31.8,
32.1 ms with the packed-key search, one projection call per partition and
the (N, K) column gathers of the monomials, on the same VM the same hour).
Both decay routes use the same kernels, so the gap is the repeated work
alone: 143 cell solves against 44 distinct cells, 11 error evaluations
against 8 distinct partitions, and the nodes and f-values of 11 depths
against 4. Probe medians of 3 rounds on the same VM, two runs: owner map
90.9 and 88.1 ms against dense 6.86 and 6.65 s; the dense route computes
170 x 2^15 bump values where the owner map computes 170 x 3 x 64. Run from the root
of the repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from widthlab import (EmbeddingParams, IfsMap, IfsMeasure, SinProduct, build_partition,
                      decay_experiment, lebesgue, packing_probe, piecewise_project)

from tests.oracles import (oracle_decay_rows, oracle_locate, oracle_moment_project,
                           oracle_packed_locate, oracle_packing_probe)

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


def packed_locate(cases):
    return [oracle_packed_locate(approx, depth, index) for _, approx, depth, index in cases]


def ancestry_locate(cases):
    # the ancestor rows of each cell level shared by the partitions of one
    # depth, as in a decay run
    known = {}
    return [approx._node_rows(model, depth, index, known.setdefault(depth, {}))
            for model, approx, depth, index in cases]


@pytest.mark.parametrize("locate", [packed_locate, ancestry_locate], ids=["packed", "ancestry"])
def test_l4_locate(benchmark, locate, partitions):
    model, parts = partitions
    cases = []
    for part in parts:
        depth = part.max_level + DEPTH_OFFSET
        cases.append((model, piecewise_project(F, part, DEGREE), depth,
                      model.level_nodes(depth).index))
    got = benchmark.pedantic(lambda: locate(cases), rounds=5)
    want = [oracle_locate(approx, depth, index) for _, approx, depth, index in cases]
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


PROBE_CASE = (lebesgue(1), 9, 2.0, EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0))


@pytest.fixture(scope="module")
def dense_probe():
    return oracle_packing_probe(*PROBE_CASE)


@pytest.mark.parametrize("probe", [oracle_packing_probe, packing_probe], ids=["dense", "owners"])
def test_l4_probe(benchmark, probe, dense_probe):
    got, want = benchmark.pedantic(lambda: probe(*PROBE_CASE), rounds=3), dense_probe
    assert got._replace(operator_checks=None) == want._replace(operator_checks=None)
    for (lhs, rhs), (want_lhs, want_rhs) in zip(got.operator_checks, want.operator_checks):
        assert rhs == want_rhs and lhs == pytest.approx(want_lhs, rel=1e-12)
