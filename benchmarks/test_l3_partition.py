"""L3 benchmark: the J_rho partition rows of the benchmark tetrahedron.

Times the cells walk (`build_partition`) against the row recursion
(`partition_row`), both over the template edges, on the thresholds
2^-4 .. 2^-20 at rho = 1, the rows of perfbench's `partition-ifs` workload.
Each round gets a fresh model, as a command-line run does, so no template
carries over. Both must give the rows of the level-filter oracle
`naive_partition` in `tests/oracles.py`. Run from the root of the
repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from widthlab import IfsMap, IfsMeasure, build_partition, partition_row

from tests.oracles import naive_partition, oracle_j_log2

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
def oracle_rows():
    model, out = tetrahedron(), []
    for t in THRESHOLDS:
        cells = naive_partition(model, RHO, t)
        levels = [c.level for c in cells]
        top = max(oracle_j_log2(model, c, RHO) for c in cells)
        out.append((t, len(cells), min(levels), max(levels), 2.0**top))
    return out


@pytest.mark.parametrize("build", [build_partition, partition_row], ids=["cells", "rows"])
def test_l3_partition_rows(benchmark, build, oracle_rows):
    got = benchmark.pedantic(rows, setup=lambda: ((build, tetrahedron()), {}), rounds=5)
    assert got == oracle_rows
