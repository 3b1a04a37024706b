"""Moment-matching projections, decay experiments, and packing probes.

Lebesgue integrals use tensor Gauss-Legendre of order max(2*sigma, 8) per
cell; integrals against the measure use cube-mass times center-value at a
configurable depth, the only generic rule consistent with singular measures
(masses are exact; no density exists).

Its nodes are the positive cubes at depth D, read from the model's node
table (`MeasureModel.level_nodes`; an IFS builds each level once, in bulk, so
repeated depths cost nothing): integer indices l, with centres
(2l + 1) 2^-(D+1) rounded to float once, and masses rounded to float once per
distinct exact mass. A node lies in the cell of level L and index
l >> (D - L), so `PiecewisePolynomial.locate` is exact at every depth, where
float centres fail once D >= 53; one batched evaluation serves both the nodes
and the caller points of `evaluate`.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

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
from .measures import DEFAULT_MAX_CUBES, MeasureModel
from .orders import EmbeddingParams, upper_order
from .partition import DEFAULT_MAX_CELLS, PartitionResult, build_partition
from .quadrature import composite_unit_norm, unit_rule
from .spectrum import closed_form_spectrum, empirical_spectrum

logger = logging.getLogger(__name__)


def polynomial_space_dim(m: int, sigma: int) -> int:
    """Dimension of degree <= sigma-1 polynomials in m variables."""
    return math.comb(m + sigma - 1, m)


def _default_npts(degree: int) -> int:
    return max(2 * (degree + 1), 8)


def moment_project(
    f, cube: DyadicCube, degree: int, npts: Optional[int] = None
) -> np.ndarray:
    """Coefficients of the unique degree <= `degree` moment match on a cube.

    The Gram system is assembled on the affinely rescaled unit cell (exact
    tensor-Hilbert entries), which keeps it well conditioned; the solution is
    simultaneously the L2(cube)-orthogonal projection of f.
    """
    if degree < 0:
        raise ValidationError("projection degree must be >= 0")
    m = cube.m
    npts = npts or _default_npts(degree)
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
    if not np.all(np.isfinite(fvals)):
        raise SolverError(f"non-finite function values on cube {cube}")
    rhs = monomials(exps, pts).T @ (wts * fvals)

    cond = np.linalg.cond(gram)
    logger.debug("moment gram: m=%d degree=%d cond=%.3e", m, degree, cond)
    return np.linalg.solve(gram, rhs)


@dataclass
class PiecewisePolynomial:
    """Per-cell polynomials over the rescaled-cell monomial basis."""

    cells: tuple[DyadicCube, ...]
    coeffs: np.ndarray  # (card, kdim)
    degree: int
    m: int

    def __post_init__(self):
        self.exponents = np.array(multi_indices(self.m, self.degree), dtype=int)
        self._by_key = {(c.level, c.index): i for i, c in enumerate(self.cells)}
        self.levels = sorted({c.level for c in self.cells})
        self.min_level, self.max_level = self.levels[0], self.levels[-1]
        self._lower = np.array([[float(x) for x in c.lower()] for c in self.cells])
        self._side = np.array([float(c.side) for c in self.cells])

    def locate(self, depth: int, index: np.ndarray) -> np.ndarray:
        """Row of the cell holding each level-`depth` cube of integer `index`
        (N, m), or -1: the level-L cell of index `index >> (depth - L)`,
        coarsest level first, in exact integer arithmetic."""
        rows = np.full(len(index), -1)
        for level in self.levels:
            keys = (index >> (depth - level)).tolist()
            found = np.array([self._by_key.get((level, tuple(k)), -1) for k in keys], dtype=int)
            rows = np.where(rows < 0, found, rows)
        return rows

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Pointwise values; zero outside the union of cells (half-open).

        A point is located through its exact level-max_level index
        ceil(x * 2^L) - 1."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        index = np.frompyfunc(int, 1, 1)(np.ceil(pts * 2.0**self.max_level)) - 1
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


def _lq_norm(masses: np.ndarray, values: np.ndarray, q: float) -> float:
    """L^q_nu norm of values at the nodes of `masses` (the max |value| for q = inf)."""
    diff = np.abs(values)
    if math.isinf(q):
        return float(diff.max())
    return float(np.dot(masses, diff**q) ** (1.0 / q))


def piecewise_project(
    f, partition, degree: int, npts: Optional[int] = None
) -> PiecewisePolynomial:
    """Apply the moment projection cell by cell (linear in f)."""
    cells = tuple(partition.cells if isinstance(partition, PartitionResult) else partition)
    if not cells:
        raise ValidationError("piecewise projection needs at least one cell")
    m = cells[0].m
    coeffs = np.vstack([moment_project(f, cell, degree, npts) for cell in cells])
    return PiecewisePolynomial(cells=cells, coeffs=coeffs, degree=degree, m=m)


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
    index, centers, masses = _nodes(model, depth, max_cubes)
    if not len(masses):
        raise SolverError("measure has no positive cubes at quadrature depth")
    fvals = np.asarray(f(centers), dtype=float)
    return _lq_norm(masses, fvals - approx._values(centers, approx.locate(depth, index)), q)


@dataclass(frozen=True)
class DecayResult:
    slope: Optional[float]
    predicted: float
    upper_bound_ok: Optional[bool]
    rows: tuple[tuple[float, int, float], ...]  # (t, card, error)
    degenerate: bool


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
    degree sigma-1, and the L^q_nu error is measured; the fitted log-log
    slope is compared against the predicted upper Kolmogorov order.
    """
    if math.isinf(params.q):
        raise ValidationError("decay experiments need finite q")
    if depth_offset < 2:
        raise ValidationError("depth offset must be >= 2")
    curve = closed_form_spectrum(model) or empirical_spectrum(model, 10)
    predicted = upper_order(params, curve).upper["K"]

    rows = []
    xs, ys = [], []
    scale = 1.0
    for t in t_sequence:
        part = build_partition(model, params.rho, float(t), max_cells)
        if part.degenerate:
            continue
        approx = piecewise_project(f, part, params.sigma - 1)
        err = lq_error(
            f, approx, model, params.q, part.max_level + depth_offset, max_cubes
        )
        rows.append((float(t), part.card, err))
        scale = max(scale, err)
    valid = [(c, e) for _, c, e in rows if e > 1e-13 * scale]
    if not valid:
        return DecayResult(
            slope=None, predicted=predicted, upper_bound_ok=None,
            rows=tuple(rows), degenerate=True,
        )
    if len(valid) < 3:
        raise SolverError("decay fit needs >= 3 non-degenerate thresholds")
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


def scaling_check(
    u,
    cube: DyadicCube,
    sigma: int,
    p: float,
    resolution: int = 4,
) -> float:
    """Ratio of ||u o phi_Q^{-1}||_{L^{sigma,p}(Q)} to its predicted value.

    The two sides are quadratured with different composite resolutions so
    the identity is checked rather than reproduced by construction.
    """
    m = cube.m
    side = float(cube.side)
    npts = _default_npts(sigma)
    grad = _gradient_magnitude(u, sigma, m)
    # |grad_sigma (u o phi^{-1})|(x) = side^-sigma |grad_sigma u|(y) on x = phi(y),
    # and dx = side^m dy (m/p = 0 for p = inf)
    lhs = side ** (m / p - sigma) * composite_unit_norm(grad, m, resolution, npts, p)
    rhs_norm = sobolev_seminorm(u, sigma, p, resolution + 1, npts + 3, m=m)
    rho_hat = sigma - (0.0 if math.isinf(p) else m / p)
    rhs = float(cube.volume) ** (-rho_hat / m) * rhs_norm
    return lhs / rhs


@dataclass(frozen=True)
class ProbeResult:
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
    family = well_separated(good, model, require_dominant=True)
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
    norm_u = sobolev_seminorm(bump, sigma, p, resolution=5)

    _, centers, masses = _nodes(model, n + depth_offset, max_cubes)
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
