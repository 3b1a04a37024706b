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
(level L, mass M, node h); a child's is (L + 1, M times its edge's ratio,
its edge's node).

State ids, shared across thresholds. Neither (M, h) nor its children depend
on rho or t, so each model interns them once (`_StateGraph`, kept on the
model): a state gets an int id and the frac_log2 of its mass when the walk
first meets it, and is expanded once into its children as (child id, its
log2 mass, branch). An exact `Fraction` product and hash is paid once per
edge of the state graph and a logarithm once per state, not per cube,
threshold or rho, and each J is the same float on a cold or a warm graph.

Why J depends only on the state. Every cube below the cube is a copy of a
cube below h, so its level is L plus its depth below h and its mass M times
the product of the edge ratios on its path down from h. Whether each cube
below is a cell, and the card, level range and largest J of the cells
below, are functions of (L, state). `partition_row` memoizes them on (L,
state id), so it computes each once (136 states at t = 2^-20 on the bench
tetrahedron) and adds cards and takes extremes up the tree; for an IFS this
is the renewal count of Lalley (1988) over the multinomial state classes of
Cawley and Mauldin (1992). `build_partition` needs the index of each cell,
so it visits every cube. The walk counts the cells met so far in the same
depth-first order either way, a memoized state adding its whole card, so
the model's `max_cells` and the level guard trip alike with or without the
cells.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction
from operator import add
from typing import NamedTuple

import numpy as np

from .cubes import DyadicCube, _new
from .errors import ResourceLimitError, SolverError, ValidationError
from .measures import MeasureModel
from .spectrum import frac_log2

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

    A state gets its id, and frac_log2 of its exact mass, when a walk first
    meets it, and is expanded once, into its children in `edges` order as
    (child id, its log2 mass, branch). Neither depends on rho or t, so every
    walk on the model shares them. Expansions take a lock, so walks in
    several threads may share a model.
    """

    def __init__(self, model: MeasureModel) -> None:
        self._edges = model.edges
        self._lock = threading.Lock()
        self._ids: dict[tuple[int, int, object], int] = {}
        self._states: list[tuple[Fraction, object]] = []
        self._log2: list[float] = []  # frac_log2 of each state's mass
        self._children: list[tuple[tuple[int, float, tuple[int, ...]], ...] | None] = []
        self._intern(Fraction(1), model.root_node())

    def _intern(self, mass: Fraction, node) -> int:
        # a reduced Fraction is its (numerator, denominator) pair, which
        # hashes without the modular inverse of Fraction.__hash__
        key = (mass.numerator, mass.denominator, node)
        state = self._ids.get(key)
        if state is None:
            state = self._ids[key] = len(self._states)
            self._states.append((mass, node))
            self._log2.append(frac_log2(mass))
            self._children.append(None)
        return state

    def children(self, state: int) -> tuple[tuple[int, float, tuple[int, ...]], ...]:
        kids = self._children[state]
        if kids is None:
            with self._lock:
                kids = self._children[state]
                if kids is None:
                    mass, node = self._states[state]
                    kids = []
                    for child, ratio, branch in self._edges(node):
                        kid = self._intern(mass * ratio, child)
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
    """The row of the partition for threshold t, by the recursion of the
    module docstring; if `cells` is a list, the (level, index, log2 J) of
    each cell are appended to it in the order they are met."""
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
    memo = {} if cells is None else None  # (level, state id) -> row
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
            for kid, log2_mu, branch in children(state):
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

    card, min_level, max_level, top = expand(0, _ROOT, (0,) * model.m)
    return PartitionRow(t=t, rho=rho, card=card, max_j=2.0**top, min_level=min_level,
                        max_level=max_level, degenerate=False)


def build_partition(model: MeasureModel, rho: float, t: float) -> PartitionResult:
    """Walk down from the root, emitting the first cubes with J_rho < t.

    Children of zero-mass cubes are never visited, so the cells partition the
    support of the measure up to null sets. If the root itself already falls
    below t, the single root cell is returned and flagged degenerate. More
    than the model's `max_cells` cells is a ResourceLimitError.
    """
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
