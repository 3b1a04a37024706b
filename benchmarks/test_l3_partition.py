"""L3 benchmark: the J_rho partition rows of the benchmark tetrahedron.

Times the cube-by-cube descent (`build_partition`) against the state
recursion (`partition_row`) on the thresholds 2^-4 .. 2^-20 at rho = 1, the
rows of perfbench's `partition-ifs` workload. Each round gets a fresh model,
as a command-line run does, so no mass memo carries over. Run from the root
of the repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from widthlab import IfsMap, IfsMeasure, build_partition, partition_row

RHO = 1.0
THRESHOLDS = [2.0**-k for k in range(4, 21)]


def tetrahedron() -> IfsMeasure:
    return IfsMeasure(
        [IfsMap(1, (0, 0, 0)), IfsMap(1, (1, 1, 0)), IfsMap(1, (1, 0, 1)), IfsMap(1, (0, 1, 1))],
        [Fraction("0.599"), Fraction("0.3"), Fraction("0.001"), Fraction("0.1")],
    )


def rows(build, model):
    return [
        (p.t, p.card, p.min_level, p.max_level, p.max_j)
        for p in (build(model, RHO, t) for t in THRESHOLDS)
    ]


@pytest.fixture(scope="module")
def descent_rows():
    return rows(build_partition, tetrahedron())


@pytest.mark.parametrize("build", [build_partition, partition_row], ids=["descent", "states"])
def test_l3_partition_rows(benchmark, build, descent_rows):
    got = benchmark.pedantic(rows, setup=lambda: ((build, tetrahedron()), {}), rounds=5)
    assert got == descent_rows
