"""L0 benchmark: dyadic cube arithmetic, against plain-int arithmetic.

Times the cube operations that every layer above builds on, on 4096 seeded
cubes of the unit square at each of the levels 10, 40 and 70:

- children: `children(cube)`, the 4 children of each cube in index order;
- ancestor: `cube.ancestor(level // 2)` and `cube.parent()` of each cube;
- packed_keys: `packed_keys` of the (4096, 2) index array, one exact integer
  per row.

The levels cover the three regimes of `packed_keys`: at level 10 indices and
keys are int64; at level 40 indices are int64 and keys (80 bits) Python ints;
at level 70 both are Python ints (`INT64_LEVELS`). Every result is checked
against the same quantity computed with plain Python ints: children at
2 l + b, ancestors at l >> shift, keys l_0 2^level + l_1. Run from the root of
the repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from widthlab import DyadicCube, children
from widthlab.measures import INT64_LEVELS, packed_keys

SEED = 0
CUBES = 4096
LEVELS = [10, 40, 70]


def indices(level):
    rng = random.Random(f"{SEED}-{level}")
    return [(rng.getrandbits(level), rng.getrandbits(level)) for _ in range(CUBES)]


def all_children(cubes):
    return [children(cube) for cube in cubes]


def ancestors(cubes):
    return [(cube.ancestor(cube.level // 2), cube.parent()) for cube in cubes]


def keys(index, level):
    return packed_keys(index, level).tolist()


@pytest.mark.parametrize("level", LEVELS)
def test_l0_children(benchmark, level):
    cubes = [DyadicCube(level, idx) for idx in indices(level)]
    got = benchmark.pedantic(all_children, args=(cubes,), rounds=20)
    assert [[(c.level, c.index) for c in kids] for kids in got] == [
        [(level + 1, (2 * a + b0, 2 * b + b1)) for b0, b1 in itertools.product((0, 1), repeat=2)]
        for a, b in indices(level)
    ]


@pytest.mark.parametrize("level", LEVELS)
def test_l0_ancestor(benchmark, level):
    cubes = [DyadicCube(level, idx) for idx in indices(level)]
    got = benchmark.pedantic(ancestors, args=(cubes,), rounds=20)
    half = level - level // 2
    assert [((up.level, up.index), (p.level, p.index)) for up, p in got] == [
        ((level // 2, (a >> half, b >> half)), (level - 1, (a >> 1, b >> 1)))
        for a, b in indices(level)
    ]


@pytest.mark.parametrize("level", LEVELS)
def test_l0_packed_keys(benchmark, level):
    rows = indices(level)
    index = np.array(rows, dtype=np.int64 if level < INT64_LEVELS else object)
    got = benchmark.pedantic(keys, args=(index, level), rounds=20)
    assert got == [a << level | b for a, b in rows]
