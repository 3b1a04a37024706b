"""Stopping-time partitions driven by J_rho and their cardinality scaling.

A cell enters the partition for threshold t when its J value first drops
below t while the parent still meets t. Since J(child) <= J(parent) along
refinement, the rule is well formed, and J(Q) <= 2^(-level*rho) forces
termination no deeper than ceil(log2(1/t)/rho).

Both functions walk the model's cube tree (`MeasureModel.root_node`,
`MeasureModel.edges`), which every family answers natively: for an IFS or a
uniform model its finite template, whose nodes every positive cube copies,
for an atomic model a level and the atoms of the cube, and for a product
the tuple of its factors' nodes. A cube's state is (level L, mass M,
node h); a child's is (L + 1, M times its edge's ratio, its edge's node).
`build_partition` walks the states depth first and returns the cells;
`partition_row` returns the row alone (card, min_level, max_level, max_j)
by a recursion memoized on the states, and builds no cube.

State ids, shared across thresholds. Neither (M, h) nor its children depend
on rho or t, so each model interns them once (`_StateGraph`, kept on the
model): a state gets an int id and the frac_log2 of its mass when a walk
first meets it, and is expanded once into its children as (child id, its
log2 mass, branch). The walks then run on ints and cached floats: the cells
walk's stack holds (level, index, id) and the recursion memoizes on
(level, id). An exact `Fraction` product and hash is paid once per edge of
the state graph and a logarithm once per state, not per cube, threshold or
rho.

Why J depends only on the state. Every cube below the cube is a copy of a
cube below h, so its level is L plus its depth below h and its mass M times
the product of the edge ratios on its path down from h. J = mass *
2^(-level * rho) of every cube below, hence whether each one is a cell, and
the card, level range and largest J of the cells below, are functions of
the state. The recursion computes them once per state (136 states at
t = 2^-20 on the bench tetrahedron) and adds cards and takes extremes up the
tree; for an IFS this is the renewal count of Lalley (1988) over the
multinomial state classes of Cawley and Mauldin (1992).

Why the rows agree bit for bit. Each decision of either walk is the test
frac_log2(M) - L * rho < log2 t on the same reduced Fraction M, the cube's
exact mass, so every J value is the same float, whether the graph was cold
or left warm by other thresholds. Cards are integers, so max_cells costs no
memory. The caps trip as in the cells walk, with its messages: the
recursion visits the states in the walk's depth-first order, counting the
cells emitted so far (a memoized state adds its whole card, below which the
walk met no guard), so it raises what the walk raises first.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cubes import DyadicCube
from .errors import ResourceLimitError, SolverError, ValidationError
from .measures import MeasureModel
from .spectrum import frac_log2

DEFAULT_MAX_CELLS = 1 << 20
_LEVEL_GUARD = 64
_ROOT = 0  # the root state's id: a state graph interns it first


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
    """Walk down from the root, emitting the first cubes with J_rho < t.

    Children of zero-mass cubes are never visited, so the cells partition the
    support of the measure up to null sets. If the root itself already falls
    below t, the single root cell is returned and flagged degenerate.
    """
    log2_t = _log2_threshold(rho, t)
    if 0.0 < log2_t:  # J(root) = 1 < t
        return PartitionResult(
            t=t, rho=rho, card=1, cells=(DyadicCube(0, (0,) * model.m),), max_j=1.0,
            min_level=0, max_level=0, degenerate=True,
        )

    children = _state_graph(model).children
    cells: list[tuple[int, tuple[int, ...], float]] = []  # (level, index, log2 J)
    stack = [(0, (0,) * model.m, _ROOT)]
    while stack:
        level, index, state = stack.pop()
        if level > _LEVEL_GUARD:
            raise _guard_error()
        below = (level + 1) * rho
        for kid, log2_mu, branch in children(state):
            j = log2_mu - below
            child = tuple(2 * l + b for l, b in zip(index, branch))
            if j < log2_t:
                cells.append((level + 1, child, j))
                if len(cells) > max_cells:
                    raise _cap_error(t, max_cells)
            else:
                stack.append((level + 1, child, kid))

    cells.sort()
    levels = [level for level, _, _ in cells]
    return PartitionResult(
        t=t,
        rho=rho,
        card=len(cells),
        cells=tuple(DyadicCube(level, index) for level, index, _ in cells),
        max_j=2.0 ** max(j for _, _, j in cells),
        min_level=levels[0],
        max_level=levels[-1],
        degenerate=False,
    )


def partition_row(
    model: MeasureModel,
    rho: float,
    t: float,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> PartitionRow:
    """The row of `build_partition(model, rho, t, max_cells)` without its cells.

    It comes from the state recursion of the module docstring; the
    degenerate t > 1 takes the cells walk. Errors and their messages are the
    cells walk's.
    """
    log2_t = _log2_threshold(rho, t)
    if 0.0 < log2_t:
        return build_partition(model, rho, t, max_cells)
    children = _state_graph(model).children
    memo: dict[tuple[int, int], tuple[int, int, int, float]] = {}
    emitted = 0  # cells the cells walk has emitted so far

    def expand(level: int, state: int) -> tuple[int, int, int, float]:
        # (card, min level, max level, max log2 J) of the cells below an
        # expanded cube, its children taken in the cells walk's order: the
        # cells among them first, then the deeper children last to first
        nonlocal emitted
        key = (level, state)
        row = memo.get(key)
        if row is None:
            if level > _LEVEL_GUARD:
                raise _guard_error()
            js, deeper = [], []
            below = (level + 1) * rho
            for kid, log2_mu, _ in children(state):
                j = log2_mu - below
                if j < log2_t:
                    js.append(j)
                else:
                    deeper.append(kid)
        # a memoized state adds its whole card, an expanded one its own cells
        emitted += len(js) if row is None else row[0]
        if emitted > max_cells:
            raise _cap_error(t, max_cells)
        if row is not None:
            return row
        rows = [(len(js), level + 1, level + 1, max(js))] if js else []
        for kid in reversed(deeper):
            rows.append(expand(level + 1, kid))
        cards, lows, highs, tops = zip(*rows)
        memo[key] = row = (sum(cards), min(lows), max(highs), max(tops))
        return row

    card, min_level, max_level, top = expand(0, _ROOT)
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
