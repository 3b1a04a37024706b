"""Kernels that the program replaced, kept as exact oracles for the tests
and as baselines for the benchmarks in `benchmarks/`: each family's mass
from its definition, which the walk of the cube tree replaced (the IFS
pullback recursion among them), the cube-by-cube descent that the
node tables replaced, the J_rho partition taken level by level straight from
its rule, the per-node and per-cell L4 kernels that the array locator
and the batched projection replaced, the coarse profile counted one
alpha at a time by bisection, which the per-level array search replaced,
the critical exponent s_b read off an empirical curve whose every grid
value was computed first, which the curve evaluated where it is read
replaced,
the IFS level push in exact `Fraction` masses, which the push of integer
numerators over D^n replaced, the row-wise `packed_keys` and `np.prod`
`monomials` that the column-by-column kernels replaced, the monomials'
column gathers from an (N, top + 1, m) table (`oracle_gather_monomials`),
which the product of each column in place replaced, the binary search of
each node's packed ancestor key among a projection's cell keys
(`oracle_packed_locate`, once `PiecewisePolynomial.locate`, which
`evaluate` still runs), which the node tables' ancestry replaced, the
Gauss weights taken one `np.prod` per tensor point, the decay rows
measured partition by partition, each anew, which the rows shared across
thresholds replaced, a uniform model's own template, closed-form multiset
and index-grid node table, which its push as the IFS of the 2^m half-scale maps replaced,
the IFS image overlap check over every pair of images, which the
lookup of each image's ancestors replaced, and the packing probe in exact
box geometry: its 3-fold boxes as `Box`es (once `widthlab.cubes.Box` and
`scaled_box`), checked pair by pair, its bumps evaluated at every node into
a dense (family x nodes) matrix and reduced row by row, and its greedy
separation, which tested each candidate against every kept cube; integer
blocks of same-level cubes, one owner per node and a set of blocked
indices replaced them.

Four helpers left the package because only tests called them: the node
table read as (cube, mass) pairs (`table_cubes`, once
`MeasureModel.enumerate_positive`), the form `descent_positive` gives; the
tensor Gauss rule on one cell (`integrate_on_cell`, once in
`widthlab.quadrature`), the reference integral of the projection tests; the
half-open membership of a point in a cube (`contains`, once
`DyadicCube.contains`), by which the tests place atoms; and a projection's
values at points (`evaluate`, once `PiecewisePolynomial.evaluate`). So did
a cube's exact corners (`lower_corner` and `upper_corner`, once
`DyadicCube.lower` and `upper`), which map the tests' cells to the unit
cube, and the closed-form partials of polynomials and sine products
(`ExactPolynomial`, `ExactSinProduct`, once `Polynomial.partial` and
`SinProduct.partial`), the references of the Sobolev seminorm tests.
The threshold check of a separation input (`check_threshold`, once the
`validate_threshold` option of `well_separated`) left it too, and the
default alpha grid built without a count (`oracle_default_alpha_grid`) is
the reference of the counted one.
The fitted slopes keep numpy's LAPACK least squares
(`oracle_polyfit_slope`), which the exact integer fit replaced, and the
exact `Fraction` slope rounded once (`oracle_exact_slope`), its reference.
The J_rho partition is also kept as the memoized depth-first recursion
over the model's states (`oracle_walk`), which the level-by-level walk
replaced, and the width exponents as computed with no cache of each
exponent's exact reciprocal and conjugate (`uncached`).
An atomic model's node table grouped by index tuples (`oracle_atomic_nodes`)
and its multiset counted from the table's mass ids (`oracle_table_masses`,
once the default `MeasureModel.level_masses`) are the references of the
grouping by one packed integer key per cube that replaced them.
A product's multiset as the product of its factors' `Fraction` multisets
(`oracle_product_masses`) is the reference of its integer level view, and
the finite-level spectrum computed one t at a time in Python
(`oracle_beta`, once `spectrum._beta`) that of the batched kernel.

The CSV reader that parsed a cloud field by field and checked it atom by
atom (`oracle_ingest_points`, once `measures.ingest_points` with
`AtomicMeasure._set_atoms`) is the reference of the reader a column at a
time: the same integer state, or the same error, on every input but a
field past the int digit limit (then it says "non-numeric") and a row the
CSV reader cannot read (then `csv.Error` escapes it). The constructor
that fed that core atom by atom (`oracle_atomic_measure`) is the reference
of the one that hands it columns.

`MoranMeasure` is a model that no family of the package gives: a
homogeneous Moran measure whose finite-level spectra do not converge, with
its exact finite-level curve (`moran_beta`).

`capped` runs a call under caps set on a model (`MeasureModel.max_cubes`,
`max_cells`) through pytest's monkeypatch, so a session-scoped fixture
gets its caps back afterwards."""
from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
import weakref
from fractions import Fraction
from operator import add
from typing import NamedTuple

import numpy as np
import pytest

from widthlab import (AtomicMeasure, Bump, DyadicCube, MeasureModel, ParseError, Polynomial,
                      ProductMeasure, ResourceLimitError, SinProduct, SolverError, UniformMeasure,
                      ValidationError, build_partition, lq_error, piecewise_project, root)
from widthlab.coarse import CoarseProfile, default_alpha_grid
from widthlab.cubes import children
from widthlab.empirical import _lq_norm, _nodes
from widthlab.functions import TWO_PI, monomials, multi_indices
from widthlab import orders
from widthlab.measures import (BOM, DEFAULT_MAX_CUBES, PACKED_KEY_BITS, LevelNodes, _check_level,
                               _check_masses, _common, _decode, _int_array, _parse_field,
                               index_array, packed_keys)
from widthlab.partition import _LEVEL_GUARD, PartitionRow
from widthlab.probe import ProbeResult, alpha_good_cubes, sobolev_seminorm, well_separated
from widthlab.quadrature import unit_rule, unit_rule_1d
from widthlab.spectrum import level_log_masses

# per IFS model: (level, index) -> mass of the unshifted measure
_PULLBACK_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def frac_log2(x):
    # log2 of a positive rational, from its reduced pair; exact for powers of two
    if x <= 0:
        raise ValidationError("log2 of a non-positive rational")
    return math.log2(x.numerator) - math.log2(x.denominator)


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


def oracle_walk(model, rho: float, t: float, cells: list | None) -> PartitionRow:
    """The row of the partition for threshold t, by the depth-first walk of
    the model's states that the level-by-level walk replaced: a row is
    memoized per (level, state) when no cells are wanted, the children of
    an expanded cube are taken cells first, then the deeper ones last to
    first, and the cells met so far are counted in that order against
    `max_cells`. A state's children come from the model's rule, not its
    store, with log2 masses by `frac_log2`. If `cells` is a list, the
    (level, index, log2 J) of each cell are appended to it in the order
    they are met."""
    if not t > 0:
        raise ValidationError("partition threshold t must be positive")
    if not rho > 0:
        raise ValidationError("rho must be positive")
    log2_t = math.log2(t)
    if 0.0 < log2_t:  # J(root) = 1 < t: the root is the one cell
        if cells is not None:
            cells.append((0, (0,) * model.m, 0.0))
        return PartitionRow(t=t, rho=rho, card=1, max_j=1.0, min_level=0, max_level=0,
                            degenerate=True)
    max_cells = model.max_cells

    def children(level, state):
        kids, branches = model._rule(level, *state)
        den = model._denominator(level + 1)
        return [(kid, frac_log2(Fraction(kid[1], den)), branch)
                for kid, branch in zip(kids, branches)]

    memo = {} if cells is None else None  # (level, state) -> row
    emitted = 0  # cells met so far

    def expand(level: int, state: int, index: tuple[int, ...]) -> tuple[int, int, int, float]:
        # (card, min level, max level, max log2 J) of the cells below an
        # expanded cube, its children taken in depth-first order: the cells
        # among them first, then the deeper children last to first; the
        # index of a cube is carried down only when the cells are wanted
        nonlocal emitted
        row = None if memo is None else memo.get((level, state))
        if row is None:
            if level > _LEVEL_GUARD:
                raise ResourceLimitError(f"partition descent exceeded level {_LEVEL_GUARD}")
            js, deeper = [], []
            below = (level + 1) * rho
            doubled = None if cells is None else tuple(l << 1 for l in index)
            for kid, log2_mu, branch in children(level, state):
                j = log2_mu - below
                child = None if doubled is None else tuple(map(add, doubled, branch))
                if j < log2_t:
                    js.append(j)
                    if cells is not None:
                        cells.append((level + 1, child, j))
                else:
                    deeper.append((kid, child))
        # a memoized state adds its whole card, below which no guard tripped
        emitted += len(js) if row is None else row[0]
        if emitted > max_cells:
            raise ResourceLimitError(f"partition for t={t} exceeded {max_cells} cells")
        if row is not None:
            return row
        rows = [(len(js), level + 1, level + 1, max(js))] if js else []
        for kid, child in reversed(deeper):
            rows.append(expand(level + 1, kid, child))
        row = rows[0]
        if len(rows) > 1:
            cards, lows, highs, tops = zip(*rows)
            row = (sum(cards), min(lows), max(highs), max(tops))
        if memo is not None:
            memo[level, state] = row
        return row

    card, min_level, max_level, top = expand(0, model._root, (0,) * model.m)
    return PartitionRow(t=t, rho=rho, card=card, max_j=2.0**top, min_level=min_level,
                        max_level=max_level, degenerate=False)


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


def capped(model, call, *args, **caps):
    """call(*args) with each cap of `caps` (max_cubes, max_cells) set on the
    model, every one restored on return."""
    with pytest.MonkeyPatch.context() as patch:
        for key, cap in caps.items():
            patch.setattr(model, key, cap)
        return call(*args)


def uncached(call, *args):
    """call(*args) with the exact reciprocal and conjugate of each exponent
    computed anew, the once-per-exponent caches of `widthlab.orders`
    bypassed."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_inv_exact", "dual_exponent"):
            patch.setattr(orders, name, getattr(orders, name).__wrapped__)
        return call(*args)


def check_threshold(cubes, model):
    # O(card D_n) check of sup_{outside} mass <= inf_{inside} mass, the
    # masses read from the level's node table (a cube absent from it has
    # mass 0): no cube outside `cubes` outweighs one inside
    index, mass_id, masses = model.level_nodes(cubes[0].level)
    table = {tuple(row): masses[j] for row, j in zip(index.tolist(), mass_id.tolist())}
    inside = {c.index for c in cubes}
    inf_in = min(table.get(i, Fraction(0)) for i in inside)
    if any(mu > inf_in and row not in inside for row, mu in table.items()):
        raise ValidationError("threshold property violated: outside cube outweighs input")


def table_cubes(model, n):
    # the level-n node table as (cube, mass) pairs in index order
    index, mass_id, masses = model.level_nodes(n)
    return [(DyadicCube(n, tuple(row)), masses[j])
            for row, j in zip(index.tolist(), mass_id.tolist())]


def integrate_on_cell(f, cube, npts):
    # the integral of f over a dyadic cube by the tensor Gauss-Legendre rule
    pts, wts = unit_rule(cube.m, npts)
    side = float(cube.side)
    lower = np.array([float(x) for x in lower_corner(cube)])
    vals = np.asarray(f(lower + side * pts), dtype=float)
    return side**cube.m * float(np.dot(wts, vals))


def oracle_locate(approx, depth, index):
    # one dict lookup on a tuple key per node per cell level
    by_key = {(c.level, c.index): i for i, c in enumerate(approx.cells)}
    rows = np.full(len(index), -1)
    for level in sorted({c.level for c in approx.cells}):
        keys = (index >> (depth - level)).tolist()
        found = np.array([by_key.get((level, tuple(k)), -1) for k in keys], dtype=int)
        rows = np.where(rows < 0, found, rows)
    return rows


def oracle_packed_locate(approx, depth, index):
    # per cell level, each level-`depth` index shifted to that level and
    # packed into one exact integer (-1 outside [0, 2^level)), then one
    # binary search in the level's sorted cell keys, coarsest level first
    rows = np.full(len(index), -1)
    for level in approx.levels:
        cell_rows = np.flatnonzero(approx._level == level)
        keys = packed_keys(approx._index[cell_rows], level)
        order = np.argsort(keys, kind="stable")
        keys, cell_rows = keys[order], cell_rows[order]
        wanted = packed_keys(index >> (depth - level), level)
        pos = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
        hit = (keys[pos] == wanted) & (rows < 0)
        rows[hit] = cell_rows[pos[hit]]
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
    lower = np.array([float(x) for x in lower_corner(cube)])
    fvals = np.asarray(f(lower + side * pts), dtype=float)
    rhs = monomials(exps, pts).T @ (wts * fvals)
    return np.linalg.solve(gram, rhs)


def oracle_default_alpha_grid(m, rho):
    # the grid as it was built before its size was counted first
    hi = m + Fraction(rho).limit_denominator(10**6) + 2
    return [k / 20 for k in range(2, math.floor(20 * hi) + 1)]


def oracle_exact_slope(xs, ys):
    # the least-squares slope of the float data in exact Fractions, from the
    # centred sums, rounded once by float(Fraction)
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - x_bar) ** 2 for x in xs)
    return float(sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sxx)


def oracle_polyfit_slope(xs, ys):
    # the slope of numpy's LAPACK least squares, the fit `fit_loglog` replaced
    return float(np.polyfit(xs, ys, 1)[0])


def oracle_count_view(model, n):
    # the level view sorted for counting, as lists: the log2 masses in
    # increasing order, and for position i the number of cubes at positions
    # i and above (one more entry, 0, for none)
    view = sorted(level_log_masses(model, n))
    at_or_above = list(itertools.accumulate(count for _, count in reversed(view)))
    return [log_mass for log_mass, _ in view], at_or_above[::-1] + [0]


def _count_good(view, n, rho, alpha):
    # cubes with J_rho(Q) >= 2^(-alpha*n), i.e. log2(mass) >= (rho - alpha) * n
    log_masses, at_or_above = view
    return at_or_above[bisect.bisect_left(log_masses, (rho - alpha) * n)]


def oracle_coarse_profile(model, levels, rho, alpha_grid=None, views=None):
    # one bisection per (level, alpha) and one log2 per count; `views` maps
    # each level to its `oracle_count_view`
    levels = tuple(int(n) for n in levels)
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(model.m, rho)
    alpha_grid = tuple(float(a) for a in alpha_grid)
    if views is None:
        views = {n: oracle_count_view(model, n) for n in levels}
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


def oracle_s_b_empirical(t_grid, values, b):
    # s_b on an eagerly computed curve: the gaps beta - b t at every grid
    # point, then the first one at or below zero interpolated linearly
    gs = [v - b * t for t, v in zip(t_grid, values)]
    if gs[0] <= 0:
        return 0.0 if t_grid[0] == 0 else t_grid[0]
    for i in range(1, len(t_grid)):
        if gs[i] <= 0:
            t0, t1, g0, g1 = t_grid[i - 1], t_grid[i], gs[i - 1], gs[i]
            return t0 if g1 == g0 else t0 + g0 * (t1 - t0) / (g0 - g1)
    raise SolverError(f"s_b crossing for b={b} lies outside the empirical t-grid")


def oracle_levels(model, n, max_masses=math.inf):
    """Levels 0 .. n of an IFS model pushed through its template in exact
    `Fraction` masses, each (states, counts, multiset, edges) in push
    order: states (node, mass id) and their cube counts in id order,
    {mass: count} in mass-id order, and per state of the level above its
    children's state ids. Pushing level n stops as soon as it has more than
    `max_masses` distinct masses."""
    levels = [([(0, 0)], [1], {Fraction(1): 1}, [])]
    while len(levels) <= n:
        states, counts_above, multiset_above, _ = levels[-1]
        masses = tuple(multiset_above)
        mass_id, state_id = {}, {}
        counts, edges = [], []
        for (node, j), count in zip(states, counts_above):
            mu, row = masses[j], []
            for child, a in model.template[node][0]:
                mu_child = mu * Fraction(a, model._den)
                s = state_id.setdefault((child, mass_id.setdefault(mu_child, len(mass_id))),
                                        len(counts))
                if s == len(counts):
                    counts.append(0)
                counts[s] += count
                row.append(s)
            edges.append(row)
            if len(levels) == n:
                _check_masses(n, len(mass_id), max_masses)
        multiset = [0] * len(mass_id)
        for (_, j), count in zip(state_id, counts):
            multiset[j] += count
        levels.append((list(state_id), counts, dict(zip(mass_id, multiset)), edges))
    return levels


def oracle_level_masses(model, n, max_cubes=DEFAULT_MAX_CUBES):
    # `IfsMeasure.level_masses` on a fresh model, by the Fraction push
    _check_level(n)
    out = oracle_levels(model, n, max_cubes)[n][2]
    _check_masses(n, len(out), max_cubes)
    return dict(out)


def oracle_product_masses(model, n, max_cubes=DEFAULT_MAX_CUBES):
    # the product of its IFS and atomic factors' Fraction multisets, each
    # factor under the cap, and the distinct masses checked after each
    out = {Fraction(1): 1}
    for f in model.factors:
        sub = (oracle_table_masses(oracle_atomic_nodes(f, n, max_cubes))
               if isinstance(f, AtomicMeasure) else oracle_level_masses(f, n, max_cubes))
        nxt = {}
        for a, ca in out.items():
            for b, cb in sub.items():
                nxt[a * b] = nxt.get(a * b, 0) + ca * cb
        out = nxt
        _check_masses(n, len(out), max_cubes)
    return out


def oracle_log2sum(terms):
    top = max(terms)
    if math.isinf(top):
        raise SolverError("log-sum over empty or degenerate terms")
    return top + math.log2(math.fsum(2.0 ** (x - top) for x in terms))


def oracle_beta(view, n, t):
    # beta_n at one t from a level view (arrays of log2 masses and log2
    # counts), in Python floats, the terms rebuilt for each t
    if t == 1:
        return 0.0
    return oracle_log2sum([t * lm + lc for lm, lc in zip(view[0].tolist(), view[1].tolist())]) / n


class MoranMeasure(MeasureModel):
    """A homogeneous Moran measure on [0, 1): level j splits every cube in
    two halves of weights (8, 2)/10 when (j + 1).bit_length() is even and
    (5, 5)/10 when it is odd, so the blocks of biased and unbiased levels
    double in length. It needs only the integer rule over den(L) = 10^L: its
    level view is the default one, through the state store."""

    m = 1

    def __init__(self) -> None:
        self._root = 0, 1

    def _denominator(self, level):
        return 10 ** level

    def _rule(self, level, node, num):
        weights = (8, 2) if moran_biased(level) else (5, 5)
        return [(0, num * a) for a in weights], [(0,), (1,)]


def moran_biased(j):
    return (j + 1).bit_length() % 2 == 0


def moran_beta(n, t):
    # the level-n moment sum is a product of one factor per level j < n:
    # 0.8^t + 0.2^t at a biased level, 2 0.5^t at an unbiased one
    f = sum(map(moran_biased, range(n))) / n
    return f * math.log2(0.8**t + 0.2**t) + (1 - f) * (1 - t)


def oracle_atomic_nodes(model, n, max_cubes=DEFAULT_MAX_CUBES):
    # `AtomicMeasure.level_nodes` with each cube's atoms grouped by their
    # index tuple, the tuples sorted
    _check_level(n)
    groups: dict[tuple[int, ...], int] = {}  # index -> mass in units
    for key, u in zip(map(tuple, model._indices(n).tolist()), model._units.tolist()):
        groups[key] = groups.get(key, 0) + u
    _check_level(n, len(groups), max_cubes)
    keys = sorted(groups)
    ids: dict[int, int] = {}
    mass_id = np.array([ids.setdefault(groups[k], len(ids)) for k in keys], dtype=np.intp)
    return LevelNodes(index_array(keys, n, model.m), mass_id,
                      tuple(Fraction(u, model._den) for u in ids))


def _oracle_set_atoms(model, atoms, csv_rows: bool) -> None:
    """Check the atoms, each (coordinates, weight) as exact (numerator,
    denominator) pairs with positive denominators, one at a time in
    order, and hold them as integers over the least common denominators.
    With `csv_rows`, atom k is CSV data row k: errors name it, and the
    weights are normalized to total mass 1; otherwise they must sum to 1.
    """
    pairs, weights, m = [], [], None
    for row, (coords, weight) in enumerate(atoms, start=1):
        if m is None:
            m = len(coords)
        elif len(coords) != m:
            raise ValidationError(
                f"CSV row {row} has {len(coords)} coordinates, row 1 has {m}"
                if csv_rows else "inconsistent point dimensions")
        if weight[0] <= 0:
            raise ValidationError(f"non-positive weight in CSV row {row}"
                                  if csv_rows else "atomic weights must be positive")
        for a, b in coords:
            # a / b with b > 0 lies in (0, 1) iff 0 < a < b
            if not 0 < a < b:
                point = tuple(str(Fraction(*x)) for x in coords)
                raise ValidationError(
                    f"coordinate {Fraction(a, b)} in CSV row {row} not inside the open unit cube"
                    if csv_rows else f"atomic point {point} not in the open unit cube")
        pairs += coords
        weights.append(weight)
    units, den = _common(weights)
    total = sum(units)
    if csv_rows:
        # w_i / sum(w) = u_i / sum(u)
        units, den = _common([(u, total) for u in units])
    elif total != den:
        raise ValidationError(
            f"atomic weights sum to {Fraction(total, den)}, not a probability measure"
        )
    coords, pden = _common(pairs)
    model.m = m
    model._den, model._units = den, _int_array(units, den)
    model._root = tuple(range(len(units))), den
    model._pden = pden
    model._coords = _int_array(coords, pden).reshape(len(units), m)


def oracle_atomic_measure(points, weights) -> AtomicMeasure:
    # `AtomicMeasure(points, weights)`, each atom read as the core checks it
    points, weights = list(points), list(weights)
    if not points:
        raise ValidationError("atomic measure needs at least one point")
    if len(points) != len(weights):
        raise ValidationError("points and weights length mismatch")
    ratio = Fraction.as_integer_ratio
    model = AtomicMeasure.__new__(AtomicMeasure)
    _oracle_set_atoms(model, (([ratio(Fraction(x)) for x in p], ratio(Fraction(w)))
                              for p, w in zip(points, weights)), csv_rows=False)
    return model


def oracle_ingest_points(rows, weight_column=None, name: str = "CSV input") -> AtomicMeasure:
    # the reader field by field: each row parsed and checked before the next
    # is read, so the first row with an error names it
    if isinstance(rows, bytes):
        rows = _decode(rows, name)
    elif isinstance(rows, str):
        rows = rows.removeprefix(BOM)
    else:  # an iterable of lines: a text file keeps the mark on its first
        lines = iter(rows)
        rows = itertools.chain([next(lines, "").removeprefix(BOM)], lines)
    if isinstance(rows, str):
        rows = io.StringIO(rows)
    # rows are read one at a time, and the first data row is parsed once
    records = (row for row in csv.reader(rows) if any(map(str.strip, row)))
    row = next(records, None)
    if row is None:
        raise ParseError("no data rows in CSV input")
    first = [_parse_field(tok) for tok in row]
    header = None
    if None in first:
        header = [tok.strip() for tok in row]
        row = next(records, None)
        if row is None:
            raise ParseError("CSV input has a header but no data rows")
        first = [_parse_field(tok) for tok in row]

    widx = None
    if weight_column is not None:
        if header is not None and weight_column in header:
            widx = header.index(weight_column)
        elif str(weight_column).strip().isdecimal():
            widx = int(weight_column)
        else:
            raise ParseError(f"weight column {weight_column!r} not found in header")

    def atoms():
        # parsed as the core checks them, so each error names the first
        # row that has one
        for lineno, tokens in enumerate(itertools.chain([row], records), start=1):
            if widx is not None and widx >= len(tokens):
                raise ParseError(
                    f"weight column {widx} is beyond the {len(tokens)} fields of CSV row {lineno}"
                )
            fields = first if lineno == 1 else [_parse_field(tok) for tok in tokens]
            if None in fields:
                tok = tokens[fields.index(None)]
                raise ParseError(f"non-numeric field {tok!r} in CSV row {lineno}")
            weight = (1, 1) if widx is None else fields.pop(widx)
            yield fields, weight

    model = AtomicMeasure.__new__(AtomicMeasure)
    _oracle_set_atoms(model, atoms(), csv_rows=True)
    return model


def oracle_table_masses(table):
    # the multiset {mass: count} counted from a node table's mass ids
    _, mass_id, masses = table
    return dict(zip(masses, np.bincount(mass_id, minlength=len(masses)).tolist()))


def oracle_packed_keys(index, level):
    # the row-wise form: an all() over each row's short axis, then the rows
    # copied through np.where
    inside = ((index >= 0) & (index < (1 << level))).all(axis=1)
    wide = level * index.shape[1] > PACKED_KEY_BITS
    coords = np.where(inside[:, None], index, 0).astype(object if wide else np.int64)
    keys = coords[:, 0]
    for column in coords.T[1:]:
        keys = (keys << level) | column
    keys[~inside] = -1
    return keys


def oracle_monomials(exponents, pts):
    # np.prod over the short last axis of the (N, K, m) powers
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.prod(pts[:, None, :] ** np.asarray(exponents)[None, :, :], axis=2)


def oracle_gather_monomials(exponents, pts):
    # the columns of each axis gathered from an (N, top + 1, m) table of
    # pts^e and multiplied into ones, left to right
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    exponents = np.asarray(exponents)
    top = exponents.max(initial=0)
    if top > 1:
        table = pts[:, None, :] ** np.arange(top + 1)[None, :, None]
    else:
        table = np.stack([np.ones_like(pts), pts], axis=1)[:, :top + 1]
    out = np.ones((len(pts), len(exponents)))
    for i in range(pts.shape[1]):
        out *= table[:, exponents[:, i], i]
    return out


def oracle_unit_weights(m, npts):
    # one np.prod over each tensor point's 1-d weights
    _, w = unit_rule_1d(npts)
    return np.array([np.prod(c) for c in itertools.product(w, repeat=m)])


def oracle_decay_rows(f, model, params, t_sequence, depth_offset=3):
    # (t, card, error) threshold by threshold: every partition projected and
    # measured on its own, its nodes and f-values built anew
    rows = []
    for t in t_sequence:
        part = build_partition(model, params.rho, float(t))
        if part.degenerate:
            continue
        approx = piecewise_project(f, part, params.sigma - 1)
        err = lq_error(f, approx, model, params.q, part.max_level + depth_offset)
        rows.append((float(t), part.card, err))
    return rows


def oracle_uniform_template(support):
    # the chain down to the support, its edges of ratio 1 = 2^m / D, then its
    # node, whose 2^m children are itself, of ratio 2^-m = 1 / D (D = 2^m)
    m, k = support.m, support.level
    bits = tuple(itertools.product((0, 1), repeat=m))
    return (*((((j + 1, 1 << m),), (tuple(l >> (k - 1 - j) & 1 for l in support.index),))
              for j in range(k)), (tuple((k, 1) for _ in bits), bits))


def oracle_uniform_level_masses(model, n, max_cubes=DEFAULT_MAX_CUBES):
    # the closed form: 2^(m k) cubes of mass 2^-(m k), k levels below the support
    _check_level(n)
    k = max(n - model.support.level, 0) * model.m
    return {Fraction(1, 1 << k): 1 << k}


def oracle_uniform_nodes(model, n, max_cubes=DEFAULT_MAX_CUBES):
    # the index grid of the support's level-n cubes, translated to the support
    s, m = model.support, model.m
    shift = max(n - s.level, 0)
    _check_level(n, 1 << (shift * m), max_cubes)
    grid = np.indices((1 << shift,) * m).reshape(m, -1).T
    delta = index_array([[o << shift for o in s.ancestor(min(n, s.level)).index]], n, m)
    mu = Fraction(1, 1 << (shift * m))
    return LevelNodes(grid.astype(delta.dtype) + delta, np.zeros(len(grid), dtype=np.intp), (mu,))


def oracle_ifs_overlap(images):
    # every pair in (i, j) order: the shallower cube must not be the deeper
    # one's ancestor at its level
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            lo, hi = sorted((images[i], images[j]), key=lambda cube: cube.level)
            if hi.ancestor(lo.level) == lo:
                return f"IFS image cubes {images[i]} and {images[j]} overlap"
    return None


def lower_corner(cube):
    """The exact lower corner of a dyadic cube."""
    s = cube.side
    return tuple(l * s for l in cube.index)


def upper_corner(cube):
    """The exact upper corner of a dyadic cube."""
    s = cube.side
    return tuple((l + 1) * s for l in cube.index)


class ExactPolynomial(Polynomial):
    """A polynomial with its partials in closed form."""

    def partial(self, multi_index):
        new: dict[tuple[int, ...], float] = {}
        for k, c in self.coeffs.items():
            factor = 1.0
            shifted = []
            ok = True
            for e, d in zip(k, multi_index):
                if e < d:
                    ok = False
                    break
                factor *= math.prod(range(e - d + 1, e + 1))
                shifted.append(e - d)
            if ok:
                key = tuple(shifted)
                new[key] = new.get(key, 0.0) + c * factor
        if not new:
            return lambda pts: np.zeros(np.atleast_2d(pts).shape[0])
        return Polynomial(self.m, new, name=f"D{multi_index}{self.name}")


_SIN_CYCLE = (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))


class ExactSinProduct(SinProduct):
    """A sine product with its partials in closed form."""

    def partial(self, multi_index):
        freqs = self.freqs

        def dk(pts, multi_index=tuple(multi_index)):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            out = np.ones(pts.shape[0])
            for i, (f, d) in enumerate(zip(freqs, multi_index)):
                out *= (TWO_PI * f) ** d * _SIN_CYCLE[d % 4](TWO_PI * f * pts[:, i])
            return out

        return dk


def contains(cube, point):
    """Strict lower bound, inclusive upper bound (half-open convention)."""
    s = cube.side
    return all(l * s < Fraction(x) <= (l + 1) * s for l, x in zip(cube.index, point))


def evaluate(approx, pts):
    """Pointwise values of a `PiecewisePolynomial`; zero outside the union of
    its cells (half-open). A point of (0, 1]^m is located through its exact
    level-max_level index ceil(x * 2^L) - 1; any other point, non-finite
    ones included, lies outside every cell."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    inside = ((pts > 0) & (pts <= 1)).all(axis=1)
    top = np.ceil(np.where(inside[:, None], pts, 0.0) * 2.0**approx.max_level)
    index = np.frompyfunc(int, 1, 1)(top) - 1
    return approx._values(pts, oracle_packed_locate(approx, approx.max_level, index))


class Box(NamedTuple):
    """Closed axis-parallel box in exact arithmetic; may leave the unit cube."""

    center: tuple[Fraction, ...]
    half_width: Fraction

    def lower(self) -> tuple[Fraction, ...]:
        return tuple(c - self.half_width for c in self.center)

    def interior_intersects(self, other: "Box") -> bool:
        return all(
            abs(c1 - c2) < self.half_width + other.half_width
            for c1, c2 in zip(self.center, other.center)
        )

    def inside_unit_cube(self) -> bool:
        return all(
            0 <= c - self.half_width and c + self.half_width <= 1
            for c in self.center
        )


def scaled_box(cube, r):
    """Concentric box with side r times the cube's side length."""
    return Box(cube.center(), Fraction(r) * cube.side / 2)


class MappedBump:
    """Bump composed with the inverse affine map of an axis-parallel box."""

    def __init__(self, base, lower, side):
        self.base = base
        self.lower = np.asarray([float(x) for x in lower], dtype=float)
        self.side = float(side)

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.base((pts - self.lower) / self.side)


def oracle_greedy_separation(order):
    # keep each cube, in the given order, whose interior misses the 5-fold
    # box of every cube kept before it; the kept cubes in index order
    kept = []
    for cube in order:
        if all(not all(abs(x - y) <= 2 for x, y in zip(cube.index, k.index)) for k in kept):
            kept.append(cube)
    return sorted(kept, key=lambda c: c.index)


def oracle_bump_matrix(family, centers):
    """The members whose 3-fold box lies in the unit cube, their boxes
    checked pair by pair for overlap, and the dense (members x nodes) matrix
    of their rescaled bumps at the node centres."""
    family = [c for c in family if scaled_box(c, 3).inside_unit_cube()]
    boxes = [scaled_box(c, 3) for c in family]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if boxes[i].interior_intersects(boxes[j]):
                raise SolverError("overlapping bump supports: separation bug")
    bump = Bump(family[0].m)
    return family, np.vstack([MappedBump(bump, box.lower(), 3.0 * float(cube.side))(centers)
                              for cube, box in zip(family, boxes)])


def oracle_packing_probe(model, n, alpha, params, depth_offset=6, seed=0, n_random=3):
    """`packing_probe` on the dense bump matrix: every sum over the family
    is a dot product over every node."""
    good = alpha_good_cubes(model, n, params.rho, alpha)
    family = well_separated(good, model, require_dominant=True)
    _, centers, masses = _nodes(model, n + depth_offset)
    family, bump_vals = oracle_bump_matrix(family, centers)
    p, q = params.p, params.q
    norm_u = sobolev_seminorm(Bump(model.m), params.sigma, p, resolution=5)

    def sobolev_norm_of(a):
        scale = (3.0 * float(family[0].side)) ** (-params.rho_hat)
        if math.isinf(p):
            return float(np.max(np.abs(a))) * scale * norm_u
        return float(np.sum(np.abs(a) ** p) ** (1.0 / p)) * scale * norm_u

    ones = np.ones(len(family))
    lq_g = _lq_norm(masses, ones @ bump_vals, q)
    sob_g = sobolev_norm_of(ones)
    dens = np.array([np.dot(masses, bv * bv) for bv in bump_vals])

    def apply_averaging(values):
        return (np.array([np.dot(masses, values * bv) for bv in bump_vals]) / dens) @ bump_vals

    rng = np.random.default_rng(seed)
    checks = []
    for a in [ones] + [rng.standard_normal(len(family)) for _ in range(n_random)]:
        vals = a @ bump_vals
        checks.append((_lq_norm(masses, apply_averaging(vals), q),
                       3.0**model.m * _lq_norm(masses, vals, q)))
    return ProbeResult(n=n, alpha=alpha, family=tuple(family), ratio=lq_g / sob_g,
                       normalized_ratio=lq_g / sob_g * 2.0 ** (alpha * n / q),
                       sobolev_norm=sob_g, lq_norm=lq_g, operator_checks=tuple(checks),
                       operator_bound_ok=not any(lhs > rhs * (1.0 + 1e-9) for lhs, rhs in checks))
