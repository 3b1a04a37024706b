"""Tensor Gauss-Legendre rules on dyadic cells of the unit cube.

The one-dimensional rule takes the floating-point operations of numpy's
`numpy.polynomial.legendre.leggauss` one by one, so its nodes and weights
are that function's bits, without importing `numpy.polynomial` at start-up.
The 1-D norms of the packing probe's bump are in `widthlab.probe`.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def _legval(x: np.ndarray, c: list[float]) -> np.ndarray:
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, step for step as numpy's
    `legval` takes it."""
    if len(c) == 1:
        c0, c1 = c[0], 0
    elif len(c) == 2:
        c0, c1 = c
    else:
        nd, c0, c1 = len(c), c[-2], c[-1]
        for i in range(3, len(c) + 1):
            nd -= 1
            c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=64)
def unit_rule_1d(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1].

    The roots of P_npts are the eigenvalues of its symmetric scaled companion
    matrix, improved by one Newton step; each weight is 1 / (P_{npts-1} P'),
    both factors scaled to a largest magnitude of 1, then the rule is
    symmetrized and the weights scaled to sum to 2. P' is the Legendre
    series sum of (2k + 1) P_k over k = npts - 1, npts - 3, ...
    """
    scl = 1.0 / np.sqrt(2 * np.arange(npts) + 1)
    off = np.arange(1, npts) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = [0.0] * npts + [1.0]
    df = _legval(x, [2.0 * k + 1 if (npts - 1 - k) % 2 == 0 else 0.0 for k in range(npts)])
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return (x + 1.0) / 2.0, w / 2.0


@functools.lru_cache(maxsize=32)
def unit_rule(m: int, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule on the unit cube: points (npts^m, m) and weights, each
    weight the product of its factors left to right, as np.prod takes it."""
    x, w = unit_rule_1d(npts)
    pts = np.array(list(itertools.product(x, repeat=m)))
    wts = np.array([math.prod(c) for c in itertools.product(w.tolist(), repeat=m)], dtype=float)
    return pts, wts
