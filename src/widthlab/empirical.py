"""Moment-matching projections and decay experiments.

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
distinct exact mass. A node lies in its ancestor cell, a row of the table of
the cell's level: `MeasureModel._ancestors` gives each node's row there and
that table's packed keys (an IFS composes its tables' parent rows, one
gather per level, beside the keys it keeps; another model searches the
ancestors' packed keys once), and an owner array over those rows, set by
one key search per cell, gives each node its cell in one gather. It is
integer arithmetic, exact at every depth, where float centres fail once
D >= 53; `lq_error` goes through it too.

A decay experiment builds its partitions first and projects their distinct
cells in one batch, in first-seen order. It reuses the error of a partition
equal to the last one, and holds the nodes, f-values, residuals f - approx
and ancestor rows of the current quadrature depth only. A partition at the
depth of the last one locates and evaluates the nodes of its new cells only;
every other node lies in a cell of both. Its rows and its first error are
those of `piecewise_project` and `lq_error` threshold by threshold, bit for
bit: the batch stops at the first non-finite cell, whose error waits for the
rows of the partitions before the first that holds it.

The decay slope is fitted by `partition.fit_loglog`, the exactly rounded
least-squares slope that the entropy slope uses too.

The packing probe, the lower-bound side, is `widthlab.probe`.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from .cubes import DyadicCube
from .errors import SolverError, ValidationError, WidthlabError
from .functions import monomials, multi_indices
from .measures import MeasureModel, index_array, packed_keys
from .orders import EmbeddingParams, upper_order
from .partition import PartitionResult, _partition_cells, _rows, fit_loglog
from .quadrature import unit_rule
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


def _project_cells(f, lower, side, degree: int, npts: Optional[int]):
    """(card, K) moment-projection coefficients of f on each cell, in order,
    from the cells' float lower corners and sides (`_cell_frames`), solved up
    to the first cell where f is not finite, and that cell's row, or None."""
    if degree < 0:
        raise ValidationError("projection degree must be >= 0")
    m = lower.shape[1]
    gram = _hilbert_gram(m, degree)
    pts, wts = unit_rule(m, npts or _default_npts(degree))
    basis = monomials(np.array(multi_indices(m, degree), dtype=int), pts).T
    coeffs = np.empty((len(lower), gram.shape[0]))
    block = max(1, PROJECT_BLOCK_POINTS // len(pts))
    for start in range(0, len(lower), block):
        mapped = lower[start:start + block, None, :] + side[start:start + block, None, None] * pts
        fvals = np.asarray(f(mapped.reshape(-1, m)), dtype=float).reshape(len(mapped), -1)
        finite = np.isfinite(fvals).all(axis=1)
        stop = len(fvals) if finite.all() else int(finite.argmin())
        for row, weighted in enumerate(wts * fvals[:stop], start):
            coeffs[row] = np.linalg.solve(gram, basis @ weighted)
        if stop < len(fvals):
            return coeffs, start + stop
    return coeffs, None


def moment_project(
    f, cube: DyadicCube, degree: int, npts: Optional[int] = None
) -> np.ndarray:
    """Coefficients of the unique degree <= `degree` moment match on a cube.

    The system is assembled on the affinely rescaled unit cell, where the Gram
    matrix is the exact tensor-Hilbert matrix of the monomials (built once per
    (m, degree)), which keeps it well conditioned; the right-hand side is one
    Gauss-rule matrix-vector product. The solution is simultaneously the
    L2(cube)-orthogonal projection of f. This is the one-cell case of
    `piecewise_project`.
    """
    return piecewise_project(f, (cube,), degree, npts).coeffs[0]


class PiecewisePolynomial:
    """Per-cell polynomials over the rescaled-cell monomial basis: `coeffs`
    is (card, kdim). `frames` is `_cell_frames(cells)`, if already built."""

    def __init__(self, cells: tuple[DyadicCube, ...], coeffs: np.ndarray, degree: int, m: int,
                 frames: Optional[tuple] = None) -> None:
        self.cells, self.coeffs, self.degree, self.m = cells, coeffs, degree, m
        self.exponents = np.array(multi_indices(self.m, self.degree), dtype=int)
        self._level, self._index, self._lower, self._side = frames or _cell_frames(self.cells)
        self.levels = sorted(set(self._level.tolist()))
        self.min_level, self.max_level = self.levels[0], self.levels[-1]

    def _node_rows(self, model: MeasureModel, depth: int, index: np.ndarray,
                   known: dict) -> np.ndarray:
        """Row of the cell holding each row `index` of the model's level-
        `depth` table, or -1, a coarser cell first, as the module docstring
        says; `known` keeps the ancestor rows of each cell level."""
        rows = np.full(len(index), -1)
        for level in reversed(self.levels):
            if level not in known:
                known[level] = model._ancestors(depth, index, level, known)
            ancestors, keys = known[level]
            at = np.flatnonzero(self._level == level)
            wanted = packed_keys(self._index[at], level)
            pos = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
            hit = keys[pos] == wanted
            owner = np.full(len(keys), -1)
            owner[pos[hit]] = at[hit]
            found = owner[ancestors]
            rows = np.where(found >= 0, found, rows)
        return rows

    def _values(self, pts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Values at points already located to `rows` (-1: outside every cell)."""
        hit = rows >= 0
        every = hit.all()  # then no mask is needed
        r = rows if every else rows[hit]
        y = (pts if every else pts[hit]) - self._lower.take(r, axis=0)
        y /= self._side.take(r)[:, None]
        y = monomials(self.exponents, y)  # the offsets freed before the gather: less peak memory
        values = np.einsum("nk,nk->n", y, self.coeffs.take(r, axis=0))
        if every:
            return values
        out = np.zeros(pts.shape[0])
        out[hit] = values
        return out


def _nodes(model: MeasureModel, depth: int):
    """Indices (N, m), float centres (2 index + 1) 2^-(depth+1) and float
    masses of the positive level-`depth` cubes, from the model's node table;
    each distinct exact mass is rounded to float once."""
    index, mass_id, masses = model.level_nodes(depth)
    centers = ((2 * index + 1) * 2.0 ** -(depth + 1)).astype(float)
    return index, centers, np.array([float(mu) for mu in masses])[mass_id]


def _quadrature(f, model: MeasureModel, depth: int):
    """The depth-`depth` nodes of `_nodes`, at least one, with f at their centres."""
    index, centers, masses = _nodes(model, depth)
    if not len(masses):
        raise SolverError("measure has no positive cubes at quadrature depth")
    return depth, index, centers, masses, np.asarray(f(centers), dtype=float)


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
    coeffs, bad = _project_cells(f, frames[2], frames[3], degree, npts)
    if bad is not None:
        raise SolverError(f"non-finite function values on cube {cells[bad]}")
    return PiecewisePolynomial(
        cells=cells, coeffs=coeffs, degree=degree, m=cells[0].m, frames=frames
    )


def lq_error(f, approx: PiecewisePolynomial, model: MeasureModel, q: float, depth: int) -> float:
    """||f - approx|| in L^q_nu by depth-cube masses at cube centers.

    The nodes are the positive level-`depth` cubes of the model's node table
    (the model's `max_cubes` caps their number), each located in its cell
    exactly through its ancestors in the tables (`_node_rows`)."""
    if depth < approx.max_level + 2:
        raise ValidationError(
            f"quadrature depth {depth} below max cell level + 2 = {approx.max_level + 2}"
        )
    _, index, centers, masses, fvals = _quadrature(f, model, depth)
    rows = approx._node_rows(model, depth, index, {})
    return _lq_norm(masses, fvals - approx._values(centers, rows), q)


class DecayResult(NamedTuple):
    slope: Optional[float]
    predicted: float
    upper_bound_ok: Optional[bool]
    rows: tuple[tuple[float, int, float], ...]  # (t, card, error)
    degenerate: bool


def _decay_rows(
    f, model: MeasureModel, params: EmbeddingParams, t_sequence, depth_offset: int,
) -> list[tuple[float, int, float]]:
    """(t, card, error) per non-degenerate threshold, shared as the module
    docstring says: a cell's solve does not depend on the other cells, and
    the depth grows with the cells, so an earlier one is rarely needed again.
    An error is the one the loop threshold by threshold raises first."""
    degree, parts, failed = params.sigma - 1, [], None
    try:  # every row and cap from one pass
        for row in _rows(model, params.rho, [float(t) for t in t_sequence]):
            parts.append((row.t, _partition_cells(model, row)))
    except WidthlabError as exc:  # raised after the rows before it
        failed = exc
    cells = tuple(dict.fromkeys(c for _, part in parts if not part.degenerate for c in part.cells))
    if cells:
        ids, frames = {c: i for i, c in enumerate(cells)}, _cell_frames(cells)
        coeffs, bad = _project_cells(f, frames[2], frames[3], degree, None)
        if bad is not None:  # raised at the first partition with the cell
            failed = SolverError(f"non-finite function values on cube {cells[bad]}")
            del parts[next(i for i, (_, part) in enumerate(parts) if cells[bad] in part.cells):]
    # `_quadrature` of the current depth, each cell level's ancestor rows
    # there, f - approx at its nodes, (cells, error)
    nodes = known = residual = last = None
    rows = []
    for t, part in parts:
        if part.degenerate:
            continue
        if last is None or last[0] != part.cells:
            depth = part.max_level + depth_offset
            if nodes is None or nodes[0] != depth:
                nodes = known = residual = None  # the last depth's, freed first
                nodes, known = _quadrature(f, model, depth), {}
                residual, changed = nodes[4].copy(), part.cells
            else:
                # the cells of a partition tile the positive cubes, so a node
                # outside the new cells is in a cell of both partitions (and
                # a partition unequal to the last has a new cell)
                kept = set(last[0])
                changed = [c for c in part.cells if c not in kept]
            at = np.array([ids[c] for c in changed])
            approx = PiecewisePolynomial(changed, coeffs[at], degree, model.m,
                                         tuple(frame[at] for frame in frames))
            located = approx._node_rows(model, depth, nodes[1], known)
            hit = located >= 0
            residual[hit] = (nodes[4] - approx._values(nodes[2], located))[hit]
            last = part.cells, _lq_norm(nodes[3], residual, params.q)
        rows.append((t, part.card, last[1]))
    if failed is not None:
        raise failed
    return rows


def decay_experiment(
    f,
    model: MeasureModel,
    params: EmbeddingParams,
    t_sequence,
    depth_offset: int = 3,
    tol: float = 0.15,
) -> DecayResult:
    """Fit the decay of the projection error against partition cardinality.

    For each threshold the adaptive partition is built, f is projected at
    degree sigma-1, and the L^q_nu error is measured at depth max level +
    `depth_offset` (`_decay_rows`, which shares cells, errors and nodes
    across thresholds); the fitted log-log slope is compared against the
    predicted upper Kolmogorov order. The fit needs three rows of non-zero
    error and two distinct cardinalities among them. The model's caps bound
    the partitions, the quadrature levels and the level-10 curve alike.
    """
    if math.isinf(params.q):
        raise ValidationError("decay experiments need finite q")
    if depth_offset < 2:
        raise ValidationError("depth offset must be >= 2")
    curve = closed_form_spectrum(model) or empirical_spectrum(model, 10)
    predicted = upper_order(params, curve).upper["K"]

    rows = _decay_rows(f, model, params, t_sequence, depth_offset)
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
    slope = fit_loglog([math.log(c) for c, _ in valid], [math.log(e) for _, e in valid])
    return DecayResult(
        slope=slope,
        predicted=predicted,
        upper_bound_ok=slope <= predicted + tol,
        rows=tuple(rows),
        degenerate=False,
    )
