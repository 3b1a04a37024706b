"""Stopping-time partitions driven by J_rho and their cardinality scaling.

A cell enters the partition for threshold t when its J value first drops
below t while the parent still meets t. Since J(child) <= J(parent) along
refinement, the rule is well formed, and J(Q) <= 2^(-level*rho) forces
termination no deeper than ceil(log2(1/t)/rho).

One walk serves both functions. It descends the states of the model's
store (`MeasureModel._store`): a level-L state (node h, numerator N) stands
for every level-L cube of node h and mass N / den(L), and the store expands
each state once, by the model's integer rule, whatever rho, t or walk
first needs it. The frontier of level L maps each state id to its cubes at
L that are not cells, as their number for `partition_row` and as their
indices for `build_partition`. Each child of a frontier state is a cell of
level L + 1 if its J is below t, else it joins the next frontier with all
the state's cubes. The store takes the log2 of each distinct (level, mass)
once, from the reduced pair, so each J is the same float on a cold or a
warm model.

Why J depends only on the state: every cube below the cube is a copy of a
cube below h, its level L plus its depth below h and its mass fixed by N
and the path. So all the cubes of a state split alike into cells and
deeper cubes, and the counting walk moves a count per state: at t = 2^-20
on the bench tetrahedron it expands 136 (level, state) pairs for 9685
cells. For an IFS this is the renewal count of Lalley (1988) over the
state classes of Cawley and Mauldin (1992). `build_partition` first runs
the counting walk, which trips the model's `max_cells` and the level guard
exactly as `partition_row` does, and only then the walk with indices; a
frontier cube is the ancestor of a cell, so that walk holds at most
`max_cells` indices at any level.
"""
from __future__ import annotations

import math
from operator import add
from typing import NamedTuple

import numpy as np

from .cubes import DyadicCube, _new
from .errors import ResourceLimitError, SolverError, ValidationError
from .measures import MeasureModel

_LEVEL_GUARD = 64
_ROOT = 0  # the root state's id at level 0


class PartitionRow(NamedTuple):
    """Summary row of a threshold partition: its cell count, the levels of
    its cells and its largest J value."""

    t: float
    rho: float
    card: int
    max_j: float
    min_level: int
    max_level: int
    degenerate: bool


class PartitionResult(NamedTuple):
    """Cells of the threshold partition, canonically sorted, with the fields
    of their `PartitionRow`."""

    t: float
    rho: float
    card: int
    max_j: float
    min_level: int
    max_level: int
    degenerate: bool
    cells: tuple[DyadicCube, ...]


def _walk(model: MeasureModel, rho: float, t: float, cells: list | None) -> PartitionRow:
    """The row of the partition for threshold t, by the level-by-level walk
    of the module docstring; if `cells` is a list, the (level, index, log2 J)
    of each cell are appended to it."""
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
    children, max_cells = model._store.children, model.max_cells
    # state id -> its frontier cubes: their number, or a list of their indices
    frontier = {_ROOT: 1 if cells is None else [(0,) * model.m]}
    card, min_level, max_level, top = 0, 0, 0, -math.inf
    level = 0
    while frontier:
        if level > _LEVEL_GUARD:
            raise ResourceLimitError(f"partition descent exceeded level {_LEVEL_GUARD}")
        below, met, deeper = (level + 1) * rho, card, {}
        for state, cubes in frontier.items():
            if cells is None:
                count = cubes
            else:
                # in index order, the cells of each edge below come as one
                # sorted run, which the final sort merges
                cubes.sort()
                count, doubled = len(cubes), [tuple(l << 1 for l in index) for index in cubes]
            for kid, log2_mu, branch in children(level, state):
                j = log2_mu - below
                # the children of the state's cubes along this edge
                kids = cubes if cells is None else [tuple(map(add, d, branch)) for d in doubled]
                if j < log2_t:
                    card += count
                    if j > top:
                        top = j
                    if cells is not None:
                        cells.extend((level + 1, child, j) for child in kids)
                elif kid in deeper:
                    deeper[kid] += kids
                else:
                    deeper[kid] = kids
            if card > max_cells:
                raise ResourceLimitError(f"partition for t={t} exceeded {max_cells} cells")
        level += 1
        if card > met:
            min_level, max_level = min_level or level, level
        frontier = deeper
    return PartitionRow(t=t, rho=rho, card=card, max_j=2.0**top, min_level=min_level,
                        max_level=max_level, degenerate=False)


def build_partition(model: MeasureModel, rho: float, t: float) -> PartitionResult:
    """Walk down from the root, emitting the first cubes with J_rho < t.

    Children of zero-mass cubes are never visited, so the cells partition the
    support of the measure up to null sets. If the root itself already falls
    below t, the single root cell is returned and flagged degenerate. More
    than the model's `max_cells` cells is a ResourceLimitError.
    """
    _walk(model, rho, t, None)  # every cap trips here, before an index is built
    cells: list[tuple[int, tuple[int, ...], float]] = []
    row = _walk(model, rho, t, cells)
    cells.sort()
    # each cell is a child of a valid cube, so its index needs no check
    return PartitionResult(*row, tuple(_new(DyadicCube, c[:2]) for c in cells))


def partition_row(model: MeasureModel, rho: float, t: float) -> PartitionRow:
    """The row of `build_partition(model, rho, t)` without its cells, and
    with its errors; no cube is built."""
    return _walk(model, rho, t, None)


class EntropySlopeResult(NamedTuple):
    slope: float
    rows: tuple[tuple[float, int, int, int, float], ...]  # (t, card, minlev, maxlev, max_j)


def entropy_slope(model: MeasureModel, rho: float, t_sequence) -> EntropySlopeResult:
    """Least-squares slope of log card(P_t) against -log t.

    Takes the row of every threshold (`partition_row`, no cells) and fits
    them with `fit_entropy_slope`.
    """
    return fit_entropy_slope(
        [partition_row(model, rho, float(t)) for t in t_sequence]
    )


def fit_entropy_slope(partitions) -> EntropySlopeResult:
    """Least-squares slope of log card(P_t) against -log t over partition rows.

    Degenerate partitions are excluded; at least three usable thresholds
    spanning at least three decades are required.
    """
    rows = tuple((p.t, p.card, p.min_level, p.max_level, p.max_j) for p in partitions)
    usable = [p for p in partitions if not p.degenerate]
    if len(usable) < 3:
        raise SolverError("entropy slope needs >= 3 non-degenerate thresholds")
    span = max(p.t for p in usable) / min(p.t for p in usable)
    if span < 1e3:
        raise SolverError(
            f"usable thresholds span a factor {span:.3g} < 1e3 (three decades required)"
        )
    xs = [-math.log(p.t) for p in usable]
    ys = [math.log(p.card) for p in usable]
    slope = float(np.polyfit(xs, ys, 1)[0])
    return EntropySlopeResult(slope=slope, rows=rows)
