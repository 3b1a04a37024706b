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
from the mass oracle. The Sobolev seminorm of the unit bump u is
(sum over |k| = sigma of ||D^k u||_p^p)^(1/p) (Adams & Fournier, *Sobolev
Spaces*, 2003, 3.1), the max of the ||D^k u||_inf at p = inf. The bump is a
tensor product of one profile, so each term is a product of 1-D norms of the
profile's derivatives: integrals by one fixed Gauss rule cut at their sign
changes, which `_brent.brentq` finds, and sups read at the sign changes of
the next derivative. Like every module of the package, this one holds only
defs that a subcommand calls (the runtime reach test of `tests/test_api.py`).
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from ._brent import brentq
from .cubes import DyadicCube, neighbors
from .empirical import PROJECT_BLOCK_POINTS, _lq_norm, _nodes
from .errors import SolverError, ValidationError
from .functions import _EPSILON, Bump, _g_factor, _profile, _psi, multi_indices
from .measures import MeasureModel, index_array, log2_mass, packed_keys
from .orders import EmbeddingParams
from .quadrature import unit_rule_1d

# -- alpha-good cubes and separated families ---------------------------------


def alpha_good_cubes(model: MeasureModel, n: int, rho: float, alpha: float) -> list[DyadicCube]:
    """The alpha-good cubes themselves (identities, not just the count), in
    index order; each distinct mass of the level is tested once."""
    if not alpha > 0:
        raise ValidationError("alpha must be positive")
    threshold = (rho - alpha) * n
    index, mass_id, nums, den = model.level_nodes(n)
    good = np.array([log2_mass(num, den) >= threshold for num in nums], dtype=bool)
    return [DyadicCube(n, tuple(row)) for row in index[good[mass_id]].tolist()]


def _table_masses(model: MeasureModel, n: int, rows) -> list[int]:
    """Mass numerators over den(n) of the level-n cubes of the given index rows,
    looked up by packed key in the level's node table (0 for a cube absent)."""
    index, mass_id, nums, _ = model.level_nodes(n)
    keys = packed_keys(index, n)  # increasing: the table is in index order
    query = packed_keys(index_array(rows, n, model.m), n)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    found = keys[pos] == query
    return [nums[j] if hit else 0 for j, hit in zip(mass_id[pos].tolist(), found.tolist())]


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


# -- the Sobolev seminorm of the unit bump -----------------------------------

# the fixed composite Gauss rule of the 1-D norms: _CELLS equal cells, each
# cut at the sign changes of the integrand, _CELL_POINTS points per cell; the
# sign changes are bracketed on a grid of _ROOT_GRID points
_CELLS = 256
_CELL_POINTS = 16
_ROOT_GRID = 4096
# the float evaluation of P_k keeps the seminorm within 1e-9 up to sigma = 20
# (9e-8 at 25, 3e-5 at 30), and the seminorm overflows a float past about 44
MAX_SIGMA = 20


@functools.lru_cache(maxsize=None)
def _sign_changes(order: int) -> tuple[float, ...]:
    """The zeros of g^(order) in (-1, 1) where it changes sign: those of
    P_order (`functions._g_factor`), bracketed on an even grid, so that no
    grid point is the zero u = 0 of an odd order, and refined by `brentq`."""
    grid = np.linspace(-1.0, 1.0, _ROOT_GRID)
    vals = _g_factor(grid, order)
    return tuple(brentq(lambda u: float(_g_factor(u, order)), grid[i], grid[i + 1])
                 for i in np.flatnonzero(vals[:-1] * vals[1:] < 0).tolist())


def _profile_norm(order: int, p: float) -> float:
    """||phi^(order)||_p on [0, 1] for the bump's profile phi. Past order 0,
    phi^(k) is two disjoint copies of psi^(k-1), the mollifier's derivative:
    its integral is cut at the sign changes of psi^(k-1), where
    |psi^(k-1)|^p is not smooth, and its sup is read at those of psi^(k).
    The sup of phi itself is 1. The integrand is scaled to a largest value
    of 1, so that no p-th power overflows."""
    if math.isinf(p):
        if not order:
            return 1.0
        peaks = _EPSILON * np.array(_sign_changes(order))
        return float(np.abs(_psi(peaks, order - 1)).max())
    lo, hi, cuts = (-_EPSILON, _EPSILON, _EPSILON * np.array(_sign_changes(order - 1))
                    ) if order else (0.0, 1.0, ())
    edges = np.union1d(np.linspace(lo, hi, _CELLS + 1), cuts)
    width = np.diff(edges)[:, None]
    x, w = unit_rule_1d(_CELL_POINTS)
    x, w = (edges[:-1, None] + width * x).ravel(), (width * w).ravel()
    f = np.abs(_psi(x, order - 1)) if order else _profile(x)
    top = float(f.max())
    return top * ((2.0 if order else 1.0) * float(np.dot(w, (f / top) ** p))) ** (1.0 / p)


def _bump_seminorm(m: int, sigma: int, p: float) -> float:
    """||Bump(m)||_{sigma,p} = (sum over |k| = sigma of ||D^k Bump||_p^p)^(1/p),
    the max of the ||D^k Bump||_inf at p = inf. The bump is a tensor product
    of one profile, so each ||D^k Bump||_p is a product of the 1-D norms of
    its profile's derivatives."""
    norms = [_profile_norm(k, p) for k in range(sigma + 1)]
    terms = [math.prod(norms[i] for i in k) for k in multi_indices(m, sigma) if sum(k) == sigma]
    top = max(terms)
    return top if math.isinf(p) else top * math.fsum((t / top) ** p for t in terms) ** (1.0 / p)


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
    if params.sigma > MAX_SIGMA:
        raise ValidationError(f"packing probe needs sigma <= {MAX_SIGMA}: past it the bump's"
                              " seminorm loses digits in floats")
    good = alpha_good_cubes(model, n, params.rho, alpha)
    if not good:
        raise ValidationError(f"no alpha-good cubes at level {n}, alpha={alpha}")
    family, blocks = _supports(well_separated(good, model, require_dominant=True))
    if not family:
        raise ValidationError(
            "well-separated family is empty after restricting supports to the cube"
        )
    # the node table's max_cubes check comes before any other work
    index, centers, masses = _nodes(model, n + depth_offset)
    norm_u = _bump_seminorm(model.m, params.sigma, params.p)
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
