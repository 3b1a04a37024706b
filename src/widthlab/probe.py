"""The packing probe: the lower-bound side of the approximation orders.

The paper bounds each width from below by a packing: at level n, the
alpha-good cubes (nu(Q) vol(Q)^(rho/m) >= 2^(-alpha n), counted by
N_{rho,n}(alpha)) hold a 3-fold separated subfamily of at least
N_{rho,n}(alpha) / 5^m cubes. Rescaled bumps on the 3-fold boxes of that
family have disjoint supports, so on their span the embedding acts as a
finite l^p-to-l^q block, and an averaging operator Q_n onto the span,
bounded by 3^m in L^q_nu, carries L^q_nu back to it. `packing_probe`
builds that family and those bumps for one measure, and measures the ratio
||g||_{L^q_nu} / ||g||_{sigma,p} of their sum and the bound on Q_n.

The boxes are integer geometry: a member's 3-fold box is the block of 3^m
level-n cubes around it, keyed by `packed_keys`, and a quadrature node lies
in the box whose block holds its level-n ancestor, if any. So the span is
one owner and one bump value per node, and each sum over the family is one
`np.bincount`.

Only the `probe` subcommand runs this code, so `widthlab.cli` imports this
module inside that subcommand's handler, and the package resolves its public
names on first use: start-up does not compile it. The alpha-good cubes and
the masses of their neighbours are read from the level's node table, not
from the mass oracle. The Sobolev seminorm of the unit bump is a composite
Gauss-Legendre rule over its exact partials (`Bump.partial`, up to order 4)
or, beyond them, extrapolated finite differences; for p = inf its sup norm
is refined by Brent's bounded minimizer (`_brent.fminbound`). Like every
module of the package, this one holds only defs that a subcommand calls
(the runtime reach test of `tests/test_api.py`).
"""
from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from ._brent import fminbound
from .cubes import DyadicCube, neighbors
from .empirical import PROJECT_BLOCK_POINTS, _default_npts, _lq_norm, _nodes
from .errors import SolverError, ValidationError
from .functions import Bump, multi_indices
from .measures import MeasureModel, index_array, packed_keys
from .orders import EmbeddingParams
from .quadrature import unit_rule

# -- alpha-good cubes and separated families ---------------------------------


def alpha_good_cubes(model: MeasureModel, n: int, rho: float, alpha: float) -> list[DyadicCube]:
    """The alpha-good cubes themselves (identities, not just the count), in
    index order; each distinct mass of the level is tested once."""
    if not alpha > 0:
        raise ValidationError("alpha must be positive")
    threshold = (rho - alpha) * n
    index, mass_id, masses = model.level_nodes(n)
    good = np.array([math.log2(mu.numerator) - math.log2(mu.denominator) >= threshold
                     for mu in masses], dtype=bool)
    return [DyadicCube(n, tuple(row)) for row in index[good[mass_id]].tolist()]


def _table_masses(model: MeasureModel, n: int, rows) -> list[Fraction]:
    """Exact masses of the level-n cubes of the given index rows, looked up
    by packed key in the level's node table; a cube absent from it has mass 0."""
    index, mass_id, masses = model.level_nodes(n)
    keys = packed_keys(index, n)  # increasing: the table is in index order
    query = packed_keys(index_array(rows, n, model.m), n)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    found = keys[pos] == query
    return [masses[j] if hit else Fraction(0)
            for j, hit in zip(mass_id[pos].tolist(), found.tolist())]


def dominant_cubes(cubes, model: MeasureModel) -> list[DyadicCube]:
    """Members whose mass is >= the mass of every same-level neighbor, the
    masses of each level read from its node table, not the mass oracle."""
    cubes = list(cubes)
    dominant = set()
    for n in {cube.level for cube in cubes}:
        members = [cube for cube in cubes if cube.level == n]
        groups = [neighbors(cube) for cube in members]
        masses = iter(_table_masses(model, n, [nb.index for g in groups for nb in g]))
        for cube, group in zip(members, groups):
            group_masses = [next(masses) for _ in group]
            if max(group_masses) <= group_masses[group.index(cube)]:
                dominant.add(cube)
    return [cube for cube in cubes if cube in dominant]


def well_separated(cubes, model: MeasureModel, require_dominant: bool = False
                   ) -> list[DyadicCube]:
    """Greedy extraction of a 3-fold-separated subfamily.

    Repeatedly keeps the cube of maximal mass (ties broken by lexicographic
    index) and discards every remaining cube whose interior meets the kept
    cube's 5-fold concentric box. The output has pairwise disjoint 3-fold box
    interiors and cardinality >= floor(card(input) / 5^m).

    Neighbor dominance of every output cube additionally requires the
    caller's threshold property AND a mass profile without strictly
    increasing adjacent runs; `require_dominant=True` restricts candidates to
    neighbor-dominant cubes so that the property holds unconditionally (at
    the price of the cardinality bound on adversarial inputs). Every mass is
    read from the level's node table, under the model's cap `max_cubes`.
    """
    cubes = list(cubes)
    if not cubes:
        raise ValidationError("well_separated needs a nonempty input")
    level = cubes[0].level
    if any(c.level != level for c in cubes):
        raise ValidationError("well_separated input cubes must share one level")

    mass_of = dict(zip(cubes, _table_masses(model, level, [c.index for c in cubes])))
    candidates = dominant_cubes(cubes, model) if require_dominant else cubes
    order = sorted(candidates, key=lambda c: (-mass_of[c], c.index))
    kept: list[DyadicCube] = []
    blocked: set[tuple[int, ...]] = set()  # the cubes whose interiors meet a 5-fold box
    for cube in order:
        if cube.index not in blocked:
            kept.append(cube)
            blocked.update(itertools.product(*(range(l - 2, l + 3) for l in cube.index)))
    kept.sort(key=lambda c: c.index)
    return kept


# -- bumps and their Sobolev seminorm ----------------------------------------


def finite_difference_partial(f, multi_index):
    """Extrapolated central difference D^k for callables without exact partials.

    The nested central difference D_h has an error expansion in even powers
    of h, so one Richardson step (4 D_{h/2} - D_h) / 3 leaves O(h^4). The
    step h = 2^-round(52 / (|k| + 4)) does not depend on any quadrature grid:
    it balances that O(h^4) truncation against the rounding error
    eps / h^|k| (eps = 2^-52) for functions that vary on the unit scale.
    """
    axes = []
    for i, d in enumerate(multi_index):
        axes.extend([i] * d)
    axes = tuple(axes)
    step = 2.0 ** -round(52 / (len(axes) + 4))

    def diff(points, remaining, h):
        if not remaining:
            return np.asarray(f(points), dtype=float)
        shift = np.zeros(points.shape[1])
        shift[remaining[0]] = h
        return (
            diff(points + shift, remaining[1:], h)
            - diff(points - shift, remaining[1:], h)
        ) / (2.0 * h)

    def dk(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (4.0 * diff(pts, axes, step / 2) - diff(pts, axes, step)) / 3.0

    return dk


# cells whose best node composite_unit_norm refines for p = inf
REFINED_CELLS = 4


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


def _gradient_magnitude(u, sigma: int, m: int):
    """sqrt(sum over |k| = sigma of (D^k u)^2) as a vectorized callable.

    Exact partials are used where u has a `partial` method that gives them
    (`Bump` up to order 4); otherwise the extrapolated finite differences of
    ``finite_difference_partial``, whose step does not depend on the
    quadrature resolution.
    """
    partial = getattr(u, "partial", None)
    partials = []
    for k in multi_indices(m, sigma):
        if sum(k) != sigma:
            continue
        dk = partial(k) if partial else None
        if dk is None:
            dk = finite_difference_partial(u, k)
        partials.append(dk)

    def grad(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        acc = np.zeros(pts.shape[0])
        for dk in partials:
            vals = np.asarray(dk(pts), dtype=float)
            acc += vals * vals
        return np.sqrt(acc)

    return grad


def sobolev_seminorm(
    u,
    sigma: int,
    p: float,
    resolution: int = 5,
    npts: Optional[int] = None,
    m: Optional[int] = None,
) -> float:
    """||u||_{L^{sigma,p}}: the L^p norm of the order-sigma gradient field.

    The norm is a composite Gauss rule on a 2^resolution grid per axis (for
    p = inf, the refined maximum of ``composite_unit_norm``). Partials come
    from u when it has them, else from extrapolated central differences with
    a fixed step, so ``resolution`` sets only the quadrature grid.
    """
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    m = m or getattr(u, "m", None)
    if m is None:
        raise ValidationError("dimension m required for plain callables")
    npts = npts or _default_npts(sigma)
    grad = _gradient_magnitude(u, sigma, m)
    return composite_unit_norm(grad, m, resolution, npts, p)


# -- the probe ---------------------------------------------------------------


class ProbeResult(NamedTuple):
    n: int
    alpha: float
    family: tuple[DyadicCube, ...]
    ratio: float
    normalized_ratio: float
    sobolev_norm: float
    lq_norm: float
    operator_checks: tuple[tuple[float, float], ...]  # (||Q_n g||, 3^m ||g||)
    operator_bound_ok: bool


def packing_probe(
    model: MeasureModel,
    n: int,
    alpha: float,
    params: EmbeddingParams,
    depth_offset: int = 6,
    seed: int = 0,
    n_random: int = 3,
) -> ProbeResult:
    """Bump-sum lower-bound probe on a well-separated alpha-good family.

    Builds g = sum of rescaled bumps over the family (uniform coefficients, a
    witness for the packing floor), measures ||g||_{L^q_nu} / ||g||_{sigma,p},
    and verifies the averaging-operator bound ||Q_n g|| <= 3^m ||g|| on g and
    on seeded random elements of the span.
    """
    if math.isinf(params.q):
        raise ValidationError("packing probe needs finite q (rho = q * rho_hat)")
    good = alpha_good_cubes(model, n, params.rho, alpha)
    if not good:
        raise ValidationError(f"no alpha-good cubes at level {n}, alpha={alpha}")
    family, blocks = _supports(well_separated(good, model, require_dominant=True))
    if not family:
        raise ValidationError(
            "well-separated family is empty after restricting supports to the cube"
        )
    # the node table's max_cubes check is cheap; the seminorm is not (m = 3)
    index, centers, masses = _nodes(model, n + depth_offset)
    norm_u = sobolev_seminorm(Bump(model.m), params.sigma, params.p, resolution=5)
    own, who, bump = _bump_nodes(family, blocks, index, centers, depth_offset)
    size, weights, q = len(family), masses[own], params.q

    def span(a: np.ndarray) -> np.ndarray:  # node values of sum_k a_k bump_k
        vals = np.zeros(len(masses))
        vals[own] = a[who] * bump
        return vals

    # g = the sum with unit coefficients; ||(1, ..., 1)||_p = size^(1/p)
    ones = np.ones(size)
    lq_g = _lq_norm(masses, span(ones), q)
    sob_g = size ** (1.0 / params.p) * (3.0 * float(family[0].side)) ** -params.rho_hat * norm_u
    ratio = lq_g / sob_g

    # averaging operator: Q(f) = sum coefficients * bumps with nu-weighted means
    dens = np.bincount(who, weights * (bump * bump), size)
    if np.any(dens <= 0):
        raise SolverError("bump has zero nu-mass on its cube: probe is degenerate")
    rng = np.random.default_rng(seed)
    checks = []
    for a in [ones] + [rng.standard_normal(size) for _ in range(n_random)]:
        vals = span(a)
        coeff = np.bincount(who, weights * (vals[own] * bump), size) / dens
        checks.append((_lq_norm(masses, span(coeff), q), 3.0**model.m * _lq_norm(masses, vals, q)))
    return ProbeResult(
        n=n, alpha=alpha, family=tuple(family), ratio=ratio,
        normalized_ratio=ratio * 2.0 ** (alpha * n / q), sobolev_norm=sob_g, lq_norm=lq_g,
        operator_checks=tuple(checks),
        operator_bound_ok=not any(lhs > rhs * (1.0 + 1e-9) for lhs, rhs in checks),
    )


def _supports(family: list[DyadicCube]) -> tuple[list[DyadicCube], np.ndarray]:
    """The members whose 3-fold box lies in the unit cube, that is whose
    block of 3^m level-n cubes packs to no -1 key (1 <= l_i <= 2^n - 2), and
    the (F, 3^m) keys of the kept blocks, which no two may share."""
    n, m = family[0].level, family[0].m
    rows = index_array([c.index for c in family], n, m)
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=m)))
    blocks = packed_keys((rows[:, None, :] + shifts).reshape(-1, m), n).reshape(len(rows), -1)
    inside = (blocks >= 0).all(axis=1)
    blocks = blocks[inside]
    if np.unique(blocks).size < blocks.size:
        raise SolverError("overlapping bump supports: separation bug")
    return [c for c, ok in zip(family, inside.tolist()) if ok], blocks


def _bump_nodes(family, blocks, index, centers, depth_offset: int):
    """The nodes whose level-n ancestor (index >> depth_offset) lies in a
    block, the position in `family` of each one's owner, and the owner's
    bump there: the unit `Bump` on the box of lower corner (l - 1) 2^-n and
    side 3 2^-n, both exact floats."""
    order = np.argsort(blocks, axis=None)
    keys = blocks.ravel()[order]
    query = packed_keys(index >> depth_offset, family[0].level)
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    own = np.flatnonzero(keys[pos] == query)
    who = order[pos[own]] // blocks.shape[1]
    unit = float(family[0].side)
    lower = np.array([[l - 1 for l in c.index] for c in family], dtype=float) * unit
    pts = (centers[own] - lower[who]) / (3.0 * unit)
    bump, vals = Bump(family[0].m), np.empty(len(own))
    for i in range(0, len(own), PROJECT_BLOCK_POINTS):  # the profile holds 64 values a point
        vals[i : i + PROJECT_BLOCK_POINTS] = bump(pts[i : i + PROJECT_BLOCK_POINTS])
    return own, who, vals
