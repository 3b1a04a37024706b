"""Kernels that the program replaced, kept as exact oracles for the tests
and as baselines for the benchmarks in `benchmarks/`: the IFS pullback
recursion that the template walk replaced, the cube-by-cube descent that the
node tables replaced, and the per-node and per-cell L4 kernels that the
array locator and the batched projection replaced."""
from __future__ import annotations

import math
import weakref
from fractions import Fraction

import numpy as np

from widthlab import DyadicCube, IfsMeasure, ProductMeasure, ResourceLimitError, ValidationError, root
from widthlab.cubes import children
from widthlab.functions import monomials, multi_indices
from widthlab.measures import DEFAULT_MAX_CUBES
from widthlab.quadrature import unit_rule

# per IFS model: (level, index) -> mass of the unshifted measure
_PULLBACK_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def oracle_mass(model, cube):
    # an IFS mass from its definition nu = sum_i p_i nu o S_i^-1, conjugated
    # by embed_shift, independent of the template; a product multiplies its
    # factors' oracle masses, and the other families answer themselves
    if isinstance(model, ProductMeasure):
        return math.prod(oracle_mass(f, DyadicCube(cube.level, idx))
                         for f, idx in model._split(cube.index))
    if not isinstance(model, IfsMeasure):
        return model.mass(cube)
    memo = _PULLBACK_MEMOS.setdefault(model, {})
    shift = model.embed_shift
    if shift is None:
        return _unshifted_mass(model, cube, memo)
    image = shift.image()
    if cube.level <= image.level:
        return Fraction(image.ancestor(cube.level) == cube)
    if cube.ancestor(image.level) == image:
        return _unshifted_mass(model, _pullback(cube, image), memo)
    return Fraction(0)


def _pullback(cube, image):
    shift = cube.level - image.level
    return DyadicCube(shift, tuple(l - (o << shift) for l, o in zip(cube.index, image.index)))


def _unshifted_mass(model, cube, memo):
    # one recursion level per image the cube lies in, memoized, so a
    # level-by-level descent recurses one level per query
    if cube.level == 0:
        return Fraction(1)
    key = (cube.level, cube.index)
    if key not in memo:
        total = Fraction(0)
        for p, mp in zip(model.probs, model.maps):
            image = mp.image()
            if cube.level <= image.level:
                if image.ancestor(cube.level) == cube:
                    total += p
            elif cube.ancestor(image.level) == image:
                total += p * _unshifted_mass(model, _pullback(cube, image), memo)
        memo[key] = total
    return memo[key]


def oracle_children(model, cube):
    # the positive children of a cube, in index order, with their oracle masses
    return [(child, mu) for child in children(cube) if (mu := oracle_mass(model, child)) > 0]


def descent_positive(model, n, max_cubes=DEFAULT_MAX_CUBES):
    # all level-n cubes of positive mass with their masses, in index order,
    # by pruned descent through the pullback oracle, capped on the cubes of
    # each level as they are found
    if n < 0:
        raise ValidationError("level must be >= 0")
    frontier = [(root(model.m), Fraction(1))]
    for _ in range(n):
        nxt = []
        for cube, _ in frontier:
            nxt.extend(oracle_children(model, cube))
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
