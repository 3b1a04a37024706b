"""The per-node and per-cell L4 kernels that the array locator and the
batched projection replaced, kept as exact oracles for the tests and as
baselines for `benchmarks/test_l4_quadrature.py`."""
from __future__ import annotations

import math

import numpy as np

from widthlab.functions import monomials, multi_indices
from widthlab.quadrature import unit_rule


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
