"""Tensor Gauss-Legendre rules on dyadic cells of the unit cube."""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .cubes import DyadicCube


@functools.lru_cache(maxsize=64)
def unit_rule_1d(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1]."""
    x, w = leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


@functools.lru_cache(maxsize=32)
def unit_rule(m: int, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule on the unit cube: points (npts^m, m) and weights."""
    x, w = unit_rule_1d(npts)
    pts = np.array(list(itertools.product(x, repeat=m)))
    wts = np.array([np.prod(c) for c in itertools.product(w, repeat=m)])
    return pts, wts


def integrate_on_cell(f, cube: DyadicCube, npts: int) -> float:
    """Integral of f over a dyadic cube by the tensor rule."""
    pts, wts = unit_rule(cube.m, npts)
    side = float(cube.side)
    lower = np.array([float(x) for x in cube.lower()])
    mapped = lower + side * pts
    vals = np.asarray(f(mapped), dtype=float)
    return side**cube.m * float(np.dot(wts, vals))


def composite_unit_norm(f, m: int, subdivisions: int, npts: int, p: float) -> float:
    """L^p norm of f over the unit cube, composite over a 2^subdivisions grid.

    For p = inf it is the maximum of |f| over the composite-rule nodes. The
    cells are visited one at a time, so no array holds every node at once.
    """
    pts, wts = unit_rule(m, npts)
    side = 0.5**subdivisions
    acc = 0.0
    for idx in itertools.product(range(1 << subdivisions), repeat=m):
        lower = np.array(idx, dtype=float) * side
        vals = np.abs(np.asarray(f(lower + side * pts), dtype=float))
        if math.isinf(p):
            acc = max(acc, float(vals.max()))
        else:
            acc += float(np.dot(wts, vals**p))
    return acc if math.isinf(p) else float((acc * side**m) ** (1.0 / p))
