"""Tensor Gauss-Legendre rules on dyadic cells of the unit cube."""
from __future__ import annotations

import functools
import heapq
import itertools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._brent import fminbound

# cells whose best node composite_unit_norm refines for p = inf
REFINED_CELLS = 4


@functools.lru_cache(maxsize=64)
def unit_rule_1d(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1]."""
    x, w = leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


@functools.lru_cache(maxsize=32)
def unit_rule(m: int, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule on the unit cube: points (npts^m, m) and weights, each
    weight the product of its factors left to right, as np.prod takes it."""
    x, w = unit_rule_1d(npts)
    pts = np.array(list(itertools.product(x, repeat=m)))
    wts = np.array([math.prod(c) for c in itertools.product(w.tolist(), repeat=m)], dtype=float)
    return pts, wts


def composite_unit_norm(f, m: int, subdivisions: int, npts: int, p: float) -> float:
    """L^p norm of f over the unit cube, composite over a 2^subdivisions grid.

    For p = inf the largest |f| over the composite-rule nodes only bounds the
    sup norm from below, so the best node of each of the REFINED_CELLS best
    cells is refined, and the largest refined value is the result: a bounded
    scalar search along each coordinate in turn, within one node spacing
    (side / npts) of the node and inside the unit cube, keeps every
    improvement. Several cells, because symmetric or near-equal peaks may put
    the best node on the lower one; one node spacing, because a wider
    interval spans several local maxima of a high-order derivative and the
    search may settle on a lower one. The cells are visited one at a time,
    so no array holds every node at once.
    """
    pts, wts = unit_rule(m, npts)
    side = 0.5**subdivisions
    acc = 0.0
    best: list[tuple[float, int, np.ndarray]] = []  # min-heap of the best cells
    for cell, idx in enumerate(itertools.product(range(1 << subdivisions), repeat=m)):
        nodes = np.array(idx, dtype=float) * side + side * pts
        vals = np.abs(np.asarray(f(nodes), dtype=float))
        if math.isinf(p):
            i = int(vals.argmax())
            if vals[i] > 0:
                heapq.heappush(best, (float(vals[i]), cell, nodes[i]))
                if len(best) > REFINED_CELLS:
                    heapq.heappop(best)
        else:
            acc += float(np.dot(wts, vals**p))
    if not math.isinf(p):
        return float((acc * side**m) ** (1.0 / p))
    return max((_refine_max(f, x, side / npts, v) for v, _, x in best), default=0.0)


def _refine_max(f, x: np.ndarray, radius: float, value: float) -> float:
    """Coordinate-wise bounded search for a larger |f| within radius of x,
    by Brent's bounded minimizer (Brent 1973, ch. 5) on -|f|."""
    x = x.copy()
    for axis in range(x.size):

        def neg_abs(t):
            y = x.copy()
            y[axis] = t
            return -abs(float(np.asarray(f(y[None, :]), dtype=float)[0]))

        t, neg = fminbound(neg_abs, max(0.0, float(x[axis]) - radius),
                           min(1.0, float(x[axis]) + radius))
        if -neg > value:
            value, x[axis] = -neg, t
    return value
