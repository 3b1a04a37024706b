"""Kernels that the program replaced, kept as exact oracles for the tests
and as baselines for the benchmarks in `benchmarks/`: each family's mass
from its definition, which the walk of the cube tree replaced (the IFS
pullback recursion among them), the cube-by-cube descent that the
node tables replaced, the J_rho partition taken level by level straight from
its rule, the per-node and per-cell L4 kernels that the array locator
and the batched projection replaced, and the coarse profile counted one
alpha at a time by bisection, which the per-level array search replaced."""
from __future__ import annotations

import bisect
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np

from widthlab import (AtomicMeasure, DyadicCube, ProductMeasure, ResourceLimitError,
                      UniformMeasure, ValidationError, root)
from widthlab.coarse import CoarseProfile, default_alpha_grid
from widthlab.cubes import children
from widthlab.functions import monomials, multi_indices
from widthlab.measures import DEFAULT_MAX_CUBES
from widthlab.quadrature import unit_rule
from widthlab.spectrum import frac_log2, level_log_masses

# per IFS model: (level, index) -> mass of the unshifted measure
_PULLBACK_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def oracle_mass(model, cube):
    # a mass from its family's definition, independent of the cube tree: a
    # product multiplies its factors' masses, an atomic model sums the atoms
    # in the cube, a uniform one takes the cube's share of its support, and
    # an IFS is nu = sum_i p_i nu o S_i^-1, conjugated by embed_shift
    if isinstance(model, ProductMeasure):
        return math.prod(oracle_mass(f, DyadicCube(cube.level, idx))
                         for f, idx in _split(model, cube.index))
    if isinstance(model, AtomicMeasure):
        # x = a / b lies in the half-open (l 2^-n, (l + 1) 2^-n] iff l b < a 2^n <= (l + 1) b
        n = cube.level
        return sum((w for p, w in zip(model.points, model.weights)
                    if all(l * x.denominator < x.numerator << n <= (l + 1) * x.denominator
                           for l, x in zip(cube.index, p))), Fraction(0))
    if isinstance(model, UniformMeasure):
        s = model.support
        if cube.level >= s.level:
            if cube.ancestor(s.level) == s:
                return Fraction(1, 1 << ((cube.level - s.level) * model.m))
            return Fraction(0)
        return Fraction(s.ancestor(cube.level) == cube)
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


def _split(model, index):
    # a product's factors, each with its coordinates of the index
    pos = 0
    for f in model.factors:
        yield f, index[pos : pos + f.m]
        pos += f.m


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


def naive_partition(model, rho, t, max_level=16):
    """Independent oracle: level-filter construction straight from the rule,
    with masses from the pullback oracle; its cells in (level, index) order."""
    out = []
    frontier = [(DyadicCube(0, (0,) * model.m), Fraction(1))]
    if math.log2(t) > 0:
        return [DyadicCube(0, (0,) * model.m)]
    for _ in range(max_level + 1):
        nxt = []
        for cube, mass in frontier:
            for child in oracle_children(model, cube):
                cc, mu = child
                if oracle_j_log2(model, cc, rho) < math.log2(t):
                    if oracle_j_log2(model, cube, rho) >= math.log2(t):
                        out.append(cc)
                else:
                    nxt.append(child)
        frontier = nxt
        if not frontier:
            break
    assert not frontier, "oracle ran past max_level"
    return sorted(out, key=lambda c: (c.level, c.index))


def oracle_j_log2(model, cube, rho):
    return frac_log2(oracle_mass(model, cube)) - cube.level * rho


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


def oracle_count_view(model, n, max_cubes=DEFAULT_MAX_CUBES):
    # the level view sorted for counting, as lists: the log2 masses in
    # increasing order, and for position i the number of cubes at positions
    # i and above (one more entry, 0, for none)
    view = sorted(level_log_masses(model, n, max_cubes))
    at_or_above = list(itertools.accumulate(count for _, count in reversed(view)))
    return [log_mass for log_mass, _ in view], at_or_above[::-1] + [0]


def _count_good(view, n, rho, alpha):
    # cubes with J_rho(Q) >= 2^(-alpha*n), i.e. log2(mass) >= (rho - alpha) * n
    log_masses, at_or_above = view
    return at_or_above[bisect.bisect_left(log_masses, (rho - alpha) * n)]


def oracle_coarse_profile(model, levels, rho, alpha_grid=None, max_cubes=DEFAULT_MAX_CUBES,
                          views=None):
    # one bisection per (level, alpha) and one log2 per count; `views` maps
    # each level to its `oracle_count_view`
    levels = tuple(int(n) for n in levels)
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(model.m, rho)
    alpha_grid = tuple(float(a) for a in alpha_grid)
    if views is None:
        views = {n: oracle_count_view(model, n, max_cubes) for n in levels}
    counts = [
        tuple(_count_good(views[n], n, rho, alpha) for alpha in alpha_grid)
        for n in levels
    ]

    f_upper, f_lower = [], []
    for j in range(len(alpha_grid)):
        ests = [math.log2(max(counts[i][j], 1)) / n for i, n in enumerate(levels)]
        f_upper.append(max(ests))
        f_lower.append(min(ests))
    optimized_upper = max(f / a for f, a in zip(f_upper, alpha_grid))
    optimized_lower = max(f / a for f, a in zip(f_lower, alpha_grid))
    return CoarseProfile(
        rho=float(rho),
        levels=levels,
        alpha_grid=alpha_grid,
        counts=tuple(counts),
        f_upper=tuple(f_upper),
        f_lower=tuple(f_lower),
        optimized_upper=optimized_upper,
        optimized_lower=optimized_lower,
    )
