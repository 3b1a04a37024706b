"""Stopping-time partitions driven by J_rho and their cardinality scaling.

A cell enters the partition for threshold t when its J value first drops
below t while the parent still meets t. Since J(child) <= J(parent) along
refinement, the rule is well formed, and J(Q) <= 2^(-level*rho) forces
termination no deeper than ceil(log2(1/t)/rho).

One walk serves both functions. It descends the model's cube tree
(`MeasureModel.root_node`, `MeasureModel.edges`), which every family answers
natively: for an IFS or a uniform model its finite template, whose nodes
every positive cube copies, for an atomic model a level and the atoms of the
cube, and for a product the tuple of its factors' nodes. A cube's state is
(mass M, node h); a child's is (M times its edge's ratio, its edge's node).
The walk goes level by level: the frontier of level L maps each state to its
cubes at L that are not cells, as their number for `partition_row` and as
their indices for `build_partition`. Each child of a frontier state is a
cell of level L + 1 if its J is below t, else it joins the next frontier
with all the state's cubes.

State ids, shared across thresholds. Neither (M, h) nor its children depend
on rho or t, so each model interns them once (`_StateGraph`, kept on the
model): a state gets an int id and the log2 of its mass when the walk first
meets it, and is expanded once into its children as (child id, its log2
mass, branch). Masses are reduced integer pairs, so an integer product and
gcd is paid once per edge of the state graph and a logarithm once per
state, not per cube, threshold or rho, and each J is the same float on a
cold or a warm graph.

Why J depends only on the state. Every cube below the cube is a copy of a
cube below h, so its level is L plus its depth below h and its mass M times
the product of the edge ratios on its path down from h. At one level, then,
all the cubes of a state split alike into cells and deeper cubes, and the
counting walk moves a count per state instead of its cubes: at t = 2^-20
on the bench tetrahedron it expands 136 (level, state) pairs for 9685
cells. For an IFS this is the renewal count of Lalley (1988) over the
multinomial state classes of Cawley and Mauldin (1992). `build_partition`
needs the index of each cell, so it first runs the counting walk, which
trips the model's `max_cells` and the level guard exactly as
`partition_row` does, and only then the walk with indices. A frontier cube
is the ancestor of a cell, so that walk holds at most `max_cells` indices
at any level.
"""
from __future__ import annotations

import math
import threading
from operator import add
from typing import NamedTuple

import numpy as np

from .cubes import DyadicCube, _new
from .errors import ResourceLimitError, SolverError, ValidationError
from .measures import MeasureModel

_LEVEL_GUARD = 64
_ROOT = 0  # the root state's id: a state graph interns it first


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


class _StateGraph:
    """The states (mass, node) of a model's cube tree, interned as ints.

    A state is keyed by its mass as a reduced (numerator, denominator) pair
    and its node. It gets its id, and log2(num) - log2(den), the frac_log2
    of its mass, when a walk first meets it, and is expanded once, into its
    children in `edges` order as (child id, its log2 mass, branch). Neither
    depends on rho or t, so every walk on the model shares them. Expansions
    take a lock, so walks in several threads may share a model.
    """

    def __init__(self, model: MeasureModel) -> None:
        self._edges = model.edges
        self._lock = threading.Lock()
        self._ids: dict[tuple[int, int, object], int] = {}
        self._states: list[tuple[int, int, object]] = []
        self._log2: list[float] = []  # log2 of each state's mass
        self._children: list[tuple[tuple[int, float, tuple[int, ...]], ...] | None] = []
        self._intern(1, 1, model.root_node())

    def _intern(self, num: int, den: int, node) -> int:
        key = (num, den, node)
        state = self._ids.get(key)
        if state is None:
            state = self._ids[key] = len(self._states)
            self._states.append(key)
            self._log2.append(math.log2(num) - math.log2(den))
            self._children.append(None)
        return state

    def children(self, state: int) -> tuple[tuple[int, float, tuple[int, ...]], ...]:
        kids = self._children[state]
        if kids is None:
            with self._lock:
                kids = self._children[state]
                if kids is None:
                    num, den, node = self._states[state]
                    kids = []
                    for child, ratio, branch in self._edges(node):
                        a, b = num * ratio.numerator, den * ratio.denominator
                        g = math.gcd(a, b)
                        kid = self._intern(a // g, b // g, child)
                        kids.append((kid, self._log2[kid], branch))
                    self._children[state] = kids = tuple(kids)
        return kids


def _state_graph(model: MeasureModel) -> _StateGraph:
    """The model's state graph, built on first use and kept on the model,
    which never changes after construction."""
    graph = getattr(model, "_state_graph", None)
    if graph is None:
        graph = model._state_graph = _StateGraph(model)
    return graph


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
    children, max_cells = _state_graph(model).children, model.max_cells
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
            for kid, log2_mu, branch in children(state):
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
