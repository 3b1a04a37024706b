"""Moment-matching projections, decay experiments, and packing probes.

Lebesgue integrals use tensor Gauss-Legendre of order max(2*sigma, 8) per
cell; integrals against the measure use cube-mass times center-value at a
configurable depth, the only generic rule consistent with singular measures
(masses are exact; no density exists).

A projection works on the rescaled unit cell, where the Gram matrix of the
monomials is the exact tensor-Hilbert matrix: it depends on (m, degree) only,
so it is built, and its condition number logged, once per process
(`_hilbert_gram`). `piecewise_project` maps the quadrature points of all its
cells at once and calls f once per block of PROJECT_BLOCK_POINTS points (so
max_cells cells never stack into one array), then checks the whole block for
non-finite values. Each cell keeps its own matrix-vector right-hand side and
its own `np.linalg.solve`: a matrix-matrix right-hand side or one solve with
many right-hand sides changes the BLAS/LAPACK summation order and moves the
coefficients in the last bit, and the decay rows are pinned exactly.

Quadrature nodes are the positive cubes at depth D, read from the model's
node table (`MeasureModel.level_nodes`, built in bulk; an IFS caches each
level, so repeated depths cost nothing): integer indices l, with centres
(2l + 1) 2^-(D+1) rounded to float once, and masses rounded to float once per
distinct exact mass. A node lies in the cell of level L and index
l >> (D - L). `PiecewisePolynomial.locate` matches these keys with array
operations only: per cell level, each key's coordinates are packed into one
exact integer (int64 while L * m <= 62, Python ints beyond), a key with a
coordinate outside [0, 2^L) packs to -1, and a binary search in the level's
sorted cell keys finds its cell. It is exact at every depth, where float
centres fail once D >= 53; `evaluate` and `lq_error` both go through it.

A decay experiment projects each distinct cell of its partitions once,
reuses the error of a partition equal to the last one, and holds the nodes
and f-values of the current quadrature depth only; its rows are those of
`piecewise_project` and `lq_error`, threshold by threshold, bit for bit.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from .coarse import alpha_good_cubes, well_separated
from .cubes import DyadicCube, scaled_box
from .errors import SolverError, ValidationError
from .functions import (
    Bump,
    MappedBump,
    TestFunction,
    finite_difference_partial,
    monomials,
    multi_indices,
)
from .measures import DEFAULT_MAX_CUBES, MeasureModel, index_array, packed_keys
from .orders import EmbeddingParams, upper_order
from .partition import DEFAULT_MAX_CELLS, PartitionResult, build_partition
from .quadrature import composite_unit_norm, unit_rule
from .spectrum import closed_form_spectrum, empirical_spectrum


def _default_npts(degree: int) -> int:
    return max(2 * (degree + 1), 8)


# quadrature points per call of f in a batched projection
PROJECT_BLOCK_POINTS = 1 << 15


@functools.lru_cache(maxsize=32)
def _hilbert_gram(m: int, degree: int) -> np.ndarray:
    """The exact Gram matrix of the degree <= `degree` monomials on the unit
    cell, prod_i 1 / (a_i + b_i + 1); its condition number is logged here."""
    exps = multi_indices(m, degree)
    gram = np.array(
        [[math.prod(1.0 / (a + b + 1) for a, b in zip(ea, eb)) for eb in exps] for ea in exps]
    )
    # no DEBUG logger can be on unless something else imported logging
    logging = sys.modules.get("logging")
    logger = logging and logging.getLogger(__name__)
    if logger and logger.isEnabledFor(logging.DEBUG):
        logger.debug("moment gram: m=%d degree=%d cond=%.3e", m, degree, np.linalg.cond(gram))
    gram.flags.writeable = False
    return gram


def _cell_frames(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Levels, integer indices (exact at every level), float lower corners
    and float sides of the cells; corners and sides are rounded once each,
    as float(Fraction) would round them."""
    levels = np.array([c.level for c in cells])
    index = index_array([c.index for c in cells], levels.max(), cells[0].m)
    return levels, index, np.ldexp(index.astype(float), -levels[:, None]), np.ldexp(1.0, -levels)


def _project_cells(f, cells, lower, side, degree: int, npts: Optional[int]) -> np.ndarray:
    """(card, K) moment-projection coefficients of f on each cell, in order,
    from the cells' float lower corners and sides (`_cell_frames`)."""
    if degree < 0:
        raise ValidationError("projection degree must be >= 0")
    m = lower.shape[1]
    gram = _hilbert_gram(m, degree)
    pts, wts = unit_rule(m, npts or _default_npts(degree))
    basis = monomials(np.array(multi_indices(m, degree), dtype=int), pts).T
    coeffs = np.empty((len(cells), gram.shape[0]))
    block = max(1, PROJECT_BLOCK_POINTS // len(pts))
    for start in range(0, len(cells), block):
        mapped = lower[start:start + block, None, :] + side[start:start + block, None, None] * pts
        fvals = np.asarray(f(mapped.reshape(-1, m)), dtype=float).reshape(len(mapped), -1)
        bad = ~np.isfinite(fvals).all(axis=1)
        if bad.any():
            raise SolverError(
                f"non-finite function values on cube {cells[start + int(bad.argmax())]}"
            )
        for row, weighted in enumerate(wts * fvals, start):
            coeffs[row] = np.linalg.solve(gram, basis @ weighted)
    return coeffs


def moment_project(
    f, cube: DyadicCube, degree: int, npts: Optional[int] = None
) -> np.ndarray:
    """Coefficients of the unique degree <= `degree` moment match on a cube.

    The system is assembled on the affinely rescaled unit cell, where the Gram
    matrix is the exact tensor-Hilbert matrix of the monomials (built once per
    (m, degree)), which keeps it well conditioned; the right-hand side is one
    Gauss-rule matrix-vector product. The solution is simultaneously the
    L2(cube)-orthogonal projection of f. This is the one-cell case of
    `piecewise_project`, with bit-identical coefficients.
    """
    _, _, lower, side = _cell_frames((cube,))
    return _project_cells(f, (cube,), lower, side, degree, npts)[0]


class PiecewisePolynomial:
    """Per-cell polynomials over the rescaled-cell monomial basis: `coeffs`
    is (card, kdim). `frames` is `_cell_frames(cells)`, if already built."""

    def __init__(self, cells: tuple[DyadicCube, ...], coeffs: np.ndarray, degree: int, m: int,
                 frames: Optional[tuple] = None) -> None:
        self.cells, self.coeffs, self.degree, self.m = cells, coeffs, degree, m
        self.exponents = np.array(multi_indices(self.m, self.degree), dtype=int)
        levels, index, self._lower, self._side = frames or _cell_frames(self.cells)
        self.levels = sorted(set(levels.tolist()))
        self.min_level, self.max_level = self.levels[0], self.levels[-1]
        # per cell level: (level, sorted packed cell keys, their rows)
        self._keys = []
        for level in self.levels:
            rows = np.flatnonzero(levels == level)
            keys = packed_keys(index[rows], level)
            order = np.argsort(keys, kind="stable")
            self._keys.append((level, keys[order], rows[order]))

    def locate(self, depth: int, index: np.ndarray) -> np.ndarray:
        """Row of the cell holding each level-`depth` cube of integer `index`
        (N, m), or -1: the level-L cell of index `index >> (depth - L)`,
        coarsest level first, in exact integer arithmetic."""
        rows = np.full(len(index), -1)
        for level, keys, cell_rows in self._keys:
            wanted = packed_keys(index >> (depth - level), level)
            pos = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
            hit = (keys[pos] == wanted) & (rows < 0)
            rows[hit] = cell_rows[pos[hit]]
        return rows

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Pointwise values; zero outside the union of cells (half-open).

        A point of (0, 1]^m is located through its exact level-max_level
        index ceil(x * 2^L) - 1; any other point, non-finite ones included,
        lies outside every cell."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = ((pts > 0) & (pts <= 1)).all(axis=1)
        top = np.ceil(np.where(inside[:, None], pts, 0.0) * 2.0**self.max_level)
        index = np.frompyfunc(int, 1, 1)(top) - 1
        return self._values(pts, self.locate(self.max_level, index))

    def _values(self, pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Values at points already located to `rows` (-1: outside every cell)."""
        out = np.zeros(pts.shape[0])
        hit = rows >= 0
        r = rows[hit]
        y = (pts[hit] - self._lower[r]) / self._side[r, None]
        out[hit] = np.einsum("nk,nk->n", monomials(self.exponents, y), self.coeffs[r])
        return out


def _nodes(model: MeasureModel, depth: int, max_cubes: int):
    """Indices (N, m), float centres (2 index + 1) 2^-(depth+1) and float
    masses of the positive level-`depth` cubes, from the model's node table;
    each distinct exact mass is rounded to float once."""
    index, mass_id, masses = model.level_nodes(depth, max_cubes)
    centers = ((2 * index + 1) * 2.0 ** -(depth + 1)).astype(float)
    return index, centers, np.array([float(mu) for mu in masses])[mass_id]


def _quadrature(f, model: MeasureModel, depth: int, max_cubes: int):
    """The depth-`depth` nodes of `_nodes`, at least one, with f at their centres."""
    index, centers, masses = _nodes(model, depth, max_cubes)
    if not len(masses):
        raise SolverError("measure has no positive cubes at quadrature depth")
    return depth, index, centers, masses, np.asarray(f(centers), dtype=float)


def _quadrature_error(approx: PiecewisePolynomial, nodes, q: float) -> float:
    """||f - approx|| in L^q_nu at the nodes of `_quadrature`."""
    depth, index, centers, masses, fvals = nodes
    return _lq_norm(masses, fvals - approx._values(centers, approx.locate(depth, index)), q)


def _lq_norm(masses: np.ndarray, values: np.ndarray, q: float) -> float:
    """L^q_nu norm of values at the nodes of `masses` (the max |value| for q = inf)."""
    diff = np.abs(values)
    if math.isinf(q):
        return float(diff.max())
    return float(np.dot(masses, diff**q) ** (1.0 / q))


def piecewise_project(
    f, partition, degree: int, npts: Optional[int] = None
) -> PiecewisePolynomial:
    """Apply the moment projection to every cell at once (linear in f)."""
    cells = tuple(partition.cells if isinstance(partition, PartitionResult) else partition)
    if not cells:
        raise ValidationError("piecewise projection needs at least one cell")
    frames = _cell_frames(cells)
    coeffs = _project_cells(f, cells, frames[2], frames[3], degree, npts)
    return PiecewisePolynomial(
        cells=cells, coeffs=coeffs, degree=degree, m=cells[0].m, frames=frames
    )


def lq_error(
    f,
    approx: PiecewisePolynomial,
    model: MeasureModel,
    q: float,
    depth: int,
    max_cubes: int = DEFAULT_MAX_CUBES,
) -> float:
    """||f - approx|| in L^q_nu by depth-cube masses at cube centers.

    The nodes are the positive level-`depth` cubes of the model's node table
    (`max_cubes` caps their number), each located in its cell exactly from
    its integer index."""
    if depth < approx.max_level + 2:
        raise ValidationError(
            f"quadrature depth {depth} below max cell level + 2 = {approx.max_level + 2}"
        )
    return _quadrature_error(approx, _quadrature(f, model, depth, max_cubes), q)


class DecayResult(NamedTuple):
    slope: Optional[float]
    predicted: float
    upper_bound_ok: Optional[bool]
    rows: tuple[tuple[float, int, float], ...]  # (t, card, error)
    degenerate: bool


def _decay_rows(
    f, model: MeasureModel, params: EmbeddingParams, t_sequence, depth_offset: int,
    max_cells: int, max_cubes: int,
) -> list[tuple[float, int, float]]:
    """(t, card, error) per non-degenerate threshold, shared as the module
    docstring says: a cell's solve does not depend on the other cells, and
    the depth grows with the cells, so an earlier one is rarely needed again."""
    degree = params.sigma - 1
    coeffs = {}  # cell -> its projection coefficients
    nodes = last = None  # `_quadrature` of the current depth; (cells, error)
    rows = []
    for t in t_sequence:
        part = build_partition(model, params.rho, float(t), max_cells)
        if part.degenerate:
            continue
        if last is None or last[0] != part.cells:
            new = [c for c in part.cells if c not in coeffs]
            if new:
                _, _, lower, side = _cell_frames(new)
                coeffs.update(zip(new, _project_cells(f, new, lower, side, degree, None)))
            approx = PiecewisePolynomial(
                part.cells, np.array([coeffs[c] for c in part.cells]), degree, model.m
            )
            depth = part.max_level + depth_offset
            if nodes is None or nodes[0] != depth:
                nodes = _quadrature(f, model, depth, max_cubes)
            last = part.cells, _quadrature_error(approx, nodes, params.q)
        rows.append((float(t), part.card, last[1]))
    return rows


def decay_experiment(
    f,
    model: MeasureModel,
    params: EmbeddingParams,
    t_sequence,
    depth_offset: int = 3,
    tol: float = 0.15,
    max_cells: int = DEFAULT_MAX_CELLS,
    max_cubes: int = DEFAULT_MAX_CUBES,
) -> DecayResult:
    """Fit the decay of the projection error against partition cardinality.

    For each threshold the adaptive partition is built, f is projected at
    degree sigma-1, and the L^q_nu error is measured at depth max level +
    `depth_offset` (`_decay_rows`, which shares cells, errors and nodes
    across thresholds); the fitted log-log slope is compared against the
    predicted upper Kolmogorov order. The fit needs three rows of non-zero
    error and two distinct cardinalities among them.
    """
    if math.isinf(params.q):
        raise ValidationError("decay experiments need finite q")
    if depth_offset < 2:
        raise ValidationError("depth offset must be >= 2")
    curve = closed_form_spectrum(model) or empirical_spectrum(model, 10)
    predicted = upper_order(params, curve).upper["K"]

    rows = _decay_rows(f, model, params, t_sequence, depth_offset, max_cells, max_cubes)
    scale = max([1.0] + [e for _, _, e in rows])
    valid = [(c, e) for _, c, e in rows if e > 1e-13 * scale]
    if not valid:
        return DecayResult(
            slope=None, predicted=predicted, upper_bound_ok=None,
            rows=tuple(rows), degenerate=True,
        )
    if len(valid) < 3:
        raise SolverError("decay fit needs >= 3 non-degenerate thresholds")
    if len({c for c, _ in valid}) < 2:
        raise SolverError("decay fit needs >= 2 distinct partition cardinalities")
    xs = [math.log(c) for c, _ in valid]
    ys = [math.log(e) for _, e in valid]
    slope = float(np.polyfit(xs, ys, 1)[0])
    return DecayResult(
        slope=slope,
        predicted=predicted,
        upper_bound_ok=slope <= predicted + tol,
        rows=tuple(rows),
        degenerate=False,
    )


def _gradient_magnitude(u, sigma: int, m: int):
    """sqrt(sum over |k| = sigma of (D^k u)^2) as a vectorized callable.

    Exact partials are used where u has them; otherwise the extrapolated
    finite differences of ``finite_difference_partial``, whose step does not
    depend on the quadrature resolution.
    """
    partials = []
    for k in multi_indices(m, sigma):
        if sum(k) != sigma:
            continue
        dk = u.partial(k) if isinstance(u, TestFunction) else None
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
    max_cubes: int = DEFAULT_MAX_CUBES,
) -> ProbeResult:
    """Bump-sum lower-bound probe on a well-separated alpha-good family.

    Builds g = sum of rescaled bumps over the family (uniform coefficients, a
    witness for the packing floor), measures ||g||_{L^q_nu} / ||g||_{sigma,p},
    and verifies the averaging-operator bound ||Q_n g|| <= 3^m ||g|| on g and
    on seeded random elements of the span.
    """
    if math.isinf(params.q):
        raise ValidationError("packing probe needs finite q (rho = q * rho_hat)")
    good = alpha_good_cubes(model, n, params.rho, alpha, max_cubes)
    if not good:
        raise ValidationError(f"no alpha-good cubes at level {n}, alpha={alpha}")
    family = well_separated(good, model, require_dominant=True, max_cubes=max_cubes)
    family = [c for c in family if scaled_box(c, 3).inside_unit_cube()]
    if not family:
        raise ValidationError(
            "well-separated family is empty after restricting supports to the cube"
        )
    boxes = [scaled_box(c, 3) for c in family]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if boxes[i].interior_intersects(boxes[j]):
                raise SolverError("overlapping bump supports: separation bug")

    m = model.m
    bump = Bump(m)
    sigma, p, q = params.sigma, params.p, params.q
    bumps = [
        MappedBump(bump, box.lower(), 3.0 * float(cube.side))
        for cube, box in zip(family, boxes)
    ]
    # the node table's max_cubes check is cheap; the seminorm is not (m = 3)
    _, centers, masses = _nodes(model, n + depth_offset, max_cubes)
    norm_u = sobolev_seminorm(bump, sigma, p, resolution=5)
    bump_vals = np.vstack([b(centers) for b in bumps])  # (family, ncubes)

    def sobolev_norm_of(a: np.ndarray) -> float:
        scale = (3.0 * float(family[0].side)) ** (-params.rho_hat)
        if math.isinf(p):
            return float(np.max(np.abs(a))) * scale * norm_u
        return float(np.sum(np.abs(a) ** p) ** (1.0 / p)) * scale * norm_u

    ones = np.ones(len(family))
    g_vals = ones @ bump_vals
    lq_g = _lq_norm(masses, g_vals, q)
    sob_g = sobolev_norm_of(ones)
    ratio = lq_g / sob_g
    normalized = ratio * 2.0 ** (alpha * n / q)

    # averaging operator: Q(f) = sum coefficients * bumps with nu-weighted means
    dens = np.array([np.dot(masses, bv * bv) for bv in bump_vals])
    if np.any(dens <= 0):
        raise SolverError("bump has zero nu-mass on its cube: probe is degenerate")

    def apply_averaging(values: np.ndarray) -> np.ndarray:
        coeff = np.array(
            [np.dot(masses, values * bv) for bv in bump_vals]
        ) / dens
        return coeff @ bump_vals

    rng = np.random.default_rng(seed)
    checks = []
    all_ok = True
    bound = 3.0**m
    for a in [ones] + [rng.standard_normal(len(family)) for _ in range(n_random)]:
        vals = a @ bump_vals
        lhs = _lq_norm(masses, apply_averaging(vals), q)
        rhs = bound * _lq_norm(masses, vals, q)
        checks.append((lhs, rhs))
        if lhs > rhs * (1.0 + 1e-9):
            all_ok = False

    return ProbeResult(
        n=n,
        alpha=alpha,
        family=tuple(family),
        ratio=ratio,
        normalized_ratio=normalized,
        sobolev_norm=sob_g,
        lq_norm=lq_g,
        operator_checks=tuple(checks),
        operator_bound_ok=all_ok,
    )
