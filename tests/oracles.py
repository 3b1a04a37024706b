"""Kernels that the program replaced, kept as exact oracles for the tests
and as baselines for the benchmarks in `benchmarks/`: the cube-by-cube
descent that the node tables replaced, and the per-node and per-cell L4
kernels that the array locator and the batched projection replaced."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from widthlab import ResourceLimitError, ValidationError, root
from widthlab.functions import monomials, multi_indices
from widthlab.measures import DEFAULT_MAX_CUBES
from widthlab.quadrature import unit_rule


def descent_positive(model, n, max_cubes=DEFAULT_MAX_CUBES):
    # all level-n cubes of positive mass with their masses, in index order,
    # by pruned descent through the mass oracle, capped on the cubes of each
    # level as they are found
    if n < 0:
        raise ValidationError("level must be >= 0")
    frontier = [(root(model.m), Fraction(1))]
    for _ in range(n):
        nxt = []
        for cube, _ in frontier:
            nxt.extend(model.positive_children(cube))
            if len(nxt) > max_cubes:
                raise ResourceLimitError(f"more than {max_cubes} positive cubes at level {n}")
        frontier = nxt
    frontier.sort(key=lambda cm: cm[0].index)
    return frontier


def oracle_locate(approx, depth, index):
    # one dict lookup on a tuple key per node per cell level
    by_key = {(c.level, c.index): i for i, c in enumerate(approx.cells)}
    rows = np.full(len(index), -1)
    for level in sorted({c.level for c in approx.cells}):
        keys = (index >> (depth - level)).tolist()
        found = np.array([by_key.get((level, tuple(k)), -1) for k in keys], dtype=int)
        rows = np.where(rows < 0, found, rows)
    return rows


def oracle_moment_project(f, cube, degree, npts=None):
    # the per-cell body that the batched projection replaced: Gram matrix,
    # mapped points and f call for one cube at a time
    m = cube.m
    npts = npts or max(2 * (degree + 1), 8)
    exps = np.array(multi_indices(m, degree), dtype=int)
    kdim = exps.shape[0]
    gram = np.empty((kdim, kdim))
    for a in range(kdim):
        for b in range(kdim):
            gram[a, b] = math.prod(
                1.0 / (int(exps[a, i]) + int(exps[b, i]) + 1) for i in range(m)
            )
    pts, wts = unit_rule(m, npts)
    side = float(cube.side)
    lower = np.array([float(x) for x in cube.lower()])
    fvals = np.asarray(f(lower + side * pts), dtype=float)
    rhs = monomials(exps, pts).T @ (wts * fvals)
    return np.linalg.solve(gram, rhs)
