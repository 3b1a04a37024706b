"""Stopping-time partitions driven by J_rho and their cardinality scaling.

A cell enters the partition for threshold t when its J value first drops
below t while the parent still meets t. Since J(child) <= J(parent) along
refinement, the rule is well formed, and J(Q) <= 2^(-level*rho) forces
termination no deeper than ceil(log2(1/t)/rho).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubes import DyadicCube
from .errors import ResourceLimitError, SolverError, ValidationError
from .measures import MeasureModel
from .spectrum import frac_log2

DEFAULT_MAX_CELLS = 1 << 20
_LEVEL_GUARD = 64


@dataclass(frozen=True)
class PartitionResult:
    """Cells of the threshold partition, canonically sorted."""

    t: float
    rho: float
    cells: tuple[DyadicCube, ...]
    max_j: float
    min_level: int
    max_level: int
    degenerate: bool

    @property
    def card(self) -> int:
        return len(self.cells)


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
    if t <= 0:
        raise ValidationError("partition threshold t must be positive")
    if rho <= 0:
        raise ValidationError("rho must be positive")
    log2_t = math.log2(t)
    root_cube = DyadicCube(0, (0,) * model.m)
    if 0.0 < log2_t:  # J(root) = 1 < t
        return PartitionResult(
            t=t, rho=rho, cells=(root_cube,), max_j=1.0,
            min_level=0, max_level=0, degenerate=True,
        )

    cells: list[tuple[DyadicCube, float]] = []
    stack = [root_cube]
    while stack:
        cube = stack.pop()
        if cube.level > _LEVEL_GUARD:
            raise ResourceLimitError("partition descent exceeded level 64")
        for child, mass in model.positive_children(cube):
            j = frac_log2(mass) - child.level * rho
            if j < log2_t:
                cells.append((child, j))
                if len(cells) > max_cells:
                    raise ResourceLimitError(
                        f"partition for t={t} exceeded {max_cells} cells"
                    )
            else:
                stack.append(child)

    cells.sort(key=lambda cj: (cj[0].level, cj[0].index))
    levels = [c.level for c, _ in cells]
    return PartitionResult(
        t=t,
        rho=rho,
        cells=tuple(c for c, _ in cells),
        max_j=2.0 ** max(j for _, j in cells),
        min_level=min(levels),
        max_level=max(levels),
        degenerate=False,
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

    Builds the partition of every threshold and fits them with
    `fit_entropy_slope`.
    """
    return fit_entropy_slope(
        [build_partition(model, rho, float(t), max_cells) for t in t_sequence]
    )


def fit_entropy_slope(partitions) -> EntropySlopeResult:
    """Least-squares slope of log card(P_t) against -log t over built partitions.

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
