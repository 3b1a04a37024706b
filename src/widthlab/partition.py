"""Stopping-time partitions driven by J_rho and their cardinality scaling.

A cell enters the partition for threshold t when its J value first drops
below t while the parent still meets t. Since J(child) <= J(parent) along
refinement, the rule is well formed, and J(Q) <= 2^(-level*rho) forces
termination no deeper than ceil(log2(1/t)/rho).

Two constructions give the same partition. `build_partition` descends cube
by cube through the mass oracle and returns the cells; it serves every model
and every caller that needs the cells. `partition_row` returns the summary
row alone (card, min_level, max_level, max_j); for an IFS it builds no cube
and queries no mass, by a recursion over exact self-similar states.

A state. Every positive cube of an IFS measure is a copy of a node h of the
finite template `IfsMeasure.template` (the unit cube, the cubes that hold
images deeper than their level, and with embed_shift the ancestors of the
shift image): its positive children are copies of h's children, each of
mass M times its edge's ratio, M the cube's mass. The state of the cube is
(level L, mass M, node h).

Why J depends only on the state. Every cube below the cube is a copy of a
cube below h, so its level is L plus its depth below h and its mass M times
the product of the edge ratios on its path down from h. J = mass *
2^(-level * rho) of every cube below, hence whether each one is a cell, and
the card, level range and largest J of the cells below, are functions of
the state. The recursion computes them once per state (one memo per
threshold: 136 states at t = 2^-20 on the bench tetrahedron) and adds cards
and takes extremes up the tree; this is the renewal count of Lalley (1988)
over the multinomial state classes of Cawley and Mauldin (1992).

Why the rows stay bit-identical. Each decision is the descent's own test
frac_log2(M) - L * rho < log2 t, on the same reduced Fraction M, so
every J value is the same float and the card, level range and max_j are
those of the descent. Cards are integers, so max_cells costs no memory. The
caps trip as in the descent, with its messages: the recursion visits states
in the descent's depth-first order and counts the cells the descent would
have emitted before its level guard trips, so whichever of max_cells and the
level guard the descent meets first is the one raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cubes import DyadicCube
from .errors import ResourceLimitError, SolverError, ValidationError
from .measures import IfsMeasure, MeasureModel
from .spectrum import frac_log2

DEFAULT_MAX_CELLS = 1 << 20
_LEVEL_GUARD = 64


@dataclass(frozen=True)
class PartitionRow:
    """Summary row of a threshold partition: its cell count, the levels of
    its cells and its largest J value."""

    t: float
    rho: float
    card: int
    max_j: float
    min_level: int
    max_level: int
    degenerate: bool


@dataclass(frozen=True)
class PartitionResult(PartitionRow):
    """Cells of the threshold partition, canonically sorted, with their row."""

    cells: tuple[DyadicCube, ...]


def _log2_threshold(rho: float, t: float) -> float:
    if t <= 0:
        raise ValidationError("partition threshold t must be positive")
    if rho <= 0:
        raise ValidationError("rho must be positive")
    return math.log2(t)


def _cap_error(t: float, max_cells: int) -> ResourceLimitError:
    return ResourceLimitError(f"partition for t={t} exceeded {max_cells} cells")


def _guard_error() -> ResourceLimitError:
    return ResourceLimitError(f"partition descent exceeded level {_LEVEL_GUARD}")


def build_partition(
    model: MeasureModel,
    rho: float,
    t: float,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> PartitionResult:
    """Descend from the root, emitting the first cubes with J_rho < t.

    Children of zero-mass cubes are never visited, so the cells partition the
    support of the measure up to null sets. If the root itself already falls
    below t, the single root cell is returned and flagged degenerate.
    """
    log2_t = _log2_threshold(rho, t)
    root_cube = DyadicCube(0, (0,) * model.m)
    if 0.0 < log2_t:  # J(root) = 1 < t
        return PartitionResult(
            t=t, rho=rho, card=1, cells=(root_cube,), max_j=1.0,
            min_level=0, max_level=0, degenerate=True,
        )

    cells: list[tuple[DyadicCube, float]] = []
    stack = [root_cube]
    while stack:
        cube = stack.pop()
        if cube.level > _LEVEL_GUARD:
            raise _guard_error()
        for child, mass in model.positive_children(cube):
            j = frac_log2(mass) - child.level * rho
            if j < log2_t:
                cells.append((child, j))
                if len(cells) > max_cells:
                    raise _cap_error(t, max_cells)
            else:
                stack.append(child)

    cells.sort(key=lambda cj: (cj[0].level, cj[0].index))
    levels = [c.level for c, _ in cells]
    return PartitionResult(
        t=t,
        rho=rho,
        card=len(cells),
        cells=tuple(c for c, _ in cells),
        max_j=2.0 ** max(j for _, j in cells),
        min_level=min(levels),
        max_level=max(levels),
        degenerate=False,
    )


class _GuardTrip(Exception):
    """The descent would expand a cube past the level guard after emitting
    `before` cells."""

    def __init__(self, before: int) -> None:
        self.before = before


def partition_row(
    model: MeasureModel,
    rho: float,
    t: float,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> PartitionRow:
    """The row of `build_partition(model, rho, t, max_cells)` without its cells.

    For an IFS it comes from the state recursion of the module docstring;
    other models, and the degenerate t > 1, take the descent. Errors and
    their messages are the descent's.
    """
    log2_t = _log2_threshold(rho, t)
    if 0.0 < log2_t or not isinstance(model, IfsMeasure):
        return build_partition(model, rho, t, max_cells)
    nodes = model.template()
    memo: dict[tuple[int, Fraction, int], tuple[int, int, int, float]] = {}

    def expand(level: int, mass: Fraction, node: int) -> tuple[int, int, int, float]:
        # (card, min level, max level, max log2 J) of the cells below an
        # expanded cube, its children taken in the descent's order: the cells
        # among them first, then the deeper children last to first
        key = (level, mass, node)
        row = memo.get(key)
        if row is not None:
            return row
        if level > _LEVEL_GUARD:
            raise _GuardTrip(0)
        js, deeper = [], []
        for child, ratio, _ in nodes[node].children:
            mu = mass * ratio
            j = frac_log2(mu) - (level + 1) * rho
            if j < log2_t:
                js.append(j)
            else:
                deeper.append((mu, child))
        rows = [(len(js), level + 1, level + 1, max(js))] if js else []
        for mu, child in reversed(deeper):
            try:
                rows.append(expand(level + 1, mu, child))
            except _GuardTrip as trip:
                raise _GuardTrip(sum(r[0] for r in rows) + trip.before) from None
        cards, lows, highs, tops = zip(*rows)
        memo[key] = row = (sum(cards), min(lows), max(highs), max(tops))
        return row

    try:
        card, min_level, max_level, top = expand(0, Fraction(1), 0)
    except _GuardTrip as trip:
        raise (_cap_error(t, max_cells) if trip.before > max_cells else _guard_error()) from None
    if card > max_cells:
        raise _cap_error(t, max_cells)
    return PartitionRow(
        t=t, rho=rho, card=card, max_j=2.0**top,
        min_level=min_level, max_level=max_level, degenerate=False,
    )


@dataclass(frozen=True)
class EntropySlopeResult:
    slope: float
    rows: tuple[tuple[float, int, int, int, float], ...]  # (t, card, minlev, maxlev, max_j)


def entropy_slope(
    model: MeasureModel,
    rho: float,
    t_sequence,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> EntropySlopeResult:
    """Least-squares slope of log card(P_t) against -log t.

    Takes the row of every threshold (`partition_row`, no cells) and fits
    them with `fit_entropy_slope`.
    """
    return fit_entropy_slope(
        [partition_row(model, rho, float(t), max_cells) for t in t_sequence]
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
