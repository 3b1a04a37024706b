"""Stopping-time partitions driven by J_rho and their cardinality scaling.

A cell enters the partition for threshold t when its J value first drops
below t while the parent still meets t. Since J(child) <= J(parent) along
refinement, the rule is well formed, and J(Q) <= 2^(-level*rho) forces
termination no deeper than ceil(log2(1/t)/rho).

One level-synchronous pass serves a whole list of thresholds
(`partition_rows`); `partition_row` and `build_partition` are its
one-threshold case. The pass descends the states of the model's store
(`MeasureModel._store`): a level-L state (node h, numerator N) stands for
every level-L cube of node h and mass N / den(L). Every cube below such a
cube is a copy of a cube below h, its level L plus its depth below h and
its mass fixed by N and the path, so all the cubes of a state split alike
into cells and deeper cubes, and the pass moves a count per state. For an
IFS this is the renewal count of Lalley (1988) over the state classes of
Cawley and Mauldin (1992).

The distinct log2 t are sorted in ascending order, and a frontier entry
is a pair (state, k): its cubes are not cells yet for the k-th and every
smaller log2 t. A child of J value j is a cell for the thresholds whose
log2 t lies in (j, the parent's range], and stays in the frontier for
those at or below j. So each threshold gets the partition its own walk
would find, whatever else the list holds. Each level adds each child's
cell count over its range of thresholds (a difference array), and its J
to the max of that range. The store expands the level's unexpanded
frontier states in one batch under its lock, and takes the log2 of each
new state's mass once, from the reduced pair, so each J is the same float
on a cold or a warm model and in any list.

The caps trip for each threshold as its own walk trips them. `max_cells`
trips when the count passes the cap at the end of a level (within a level
the count only grows). The level guard trips when the frontier is not
empty past level 64. A threshold that has tripped adds no work: entries
that only it and other tripped thresholds need are dropped. So the pass
visits each (level, state) once, and neither its work nor its frontier
exceeds the sum of the per-threshold walks'. For the 17 thresholds
2^-4 .. 2^-20 on the bench tetrahedron, it visits 136 (level, state)
pairs, as many as the walk for 2^-20 alone; 17 separate walks visit 822.

`build_partition` takes its row and its caps from `partition_row` first,
the command line and the decay rows from one `partition_rows` pass. Then a
cells pass per row carries the indices of the frontier cubes
(`_partition_cells`). A frontier cube is the ancestor of a cell, so that
pass holds at most `max_cells` indices at any level.

The entropy slope and the decay slope of `widthlab.empirical` come from one
least-squares kernel, `fit_loglog`: the exact slope of the float data in
Python ints, rounded once. So the module needs no numpy, and a slope is the
same float on every machine; a LAPACK fit would also cost its first call in
the process about 0.5 ms, a fifth of a short `partition` call.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from operator import add, mul
from typing import Iterator, NamedTuple

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


def _walk(model: MeasureModel, rho: float, log2_ts: list[float], cells: list | None) -> list:
    """The pass of the module docstring over the ascending log2 t `log2_ts`
    (each <= 0). For each, (card, min level, max level, max log2 J), or the
    message of the cap its walk trips, "{t}" for its threshold. If `cells`
    is a list (one threshold), the (level, index, log2 J) of each cell are
    appended to it."""
    store, max_cells, size, nothing = model._store, model.max_cells, len(log2_ts), -math.inf
    card, first, last, top = [0] * size, [0] * size, [0] * size, [nothing] * size
    tripped: list[str | None] = [None] * size
    best = {}  # low * size + high -> the max log2 J of the cells for the thresholds low .. high
    live = 0  # the least threshold that has not tripped
    # state id * size + k -> its frontier cubes for the k-th and every
    # smaller threshold: their number, or a list of their indices
    frontier = {_ROOT * size + size - 1: 1 if cells is None else [(0,) * model.m]}
    level = 0
    while frontier:
        if level > _LEVEL_GUARD:
            for k in range(max(key % size for key in frontier) + 1):
                tripped[k] = tripped[k] or f"partition descent exceeded level {_LEVEL_GUARD}"
            break
        kids, branches, log2 = store.expand(level, {key // size for key in frontier})
        # the level's cells for threshold k number sum(added[:k + 1])
        below, added, deeper = (level + 1) * rho, [0] * (size + 1), {}
        for key, cubes in frontier.items():
            state, high = divmod(key, size)
            end = high + 1
            if cells is None:
                count = cubes
            else:
                # in index order, the cells of each edge below come as one
                # sorted run, which the final sort merges
                cubes.sort()
                count, doubled = len(cubes), [tuple(l << 1 for l in index) for index in cubes]
            for kid, branch in zip(kids[state], branches[state]):
                j = log2[kid] - below
                low = bisect_right(log2_ts, j, 0, end)
                # the children of the state's cubes along this edge
                kin = cubes if cells is None else [tuple(map(add, d, branch)) for d in doubled]
                if low < end:  # cells for the thresholds low .. high
                    added[low] += count
                    added[end] -= count
                    hit = low * size + high
                    if j > best.get(hit, nothing):
                        best[hit] = j
                    if cells is not None:
                        cells.extend((level + 1, child, j) for child in kin)
                if low:  # deeper for the thresholds 0 .. low - 1
                    below_key = kid * size + low - 1
                    if below_key in deeper:
                        deeper[below_key] += kin
                    else:
                        deeper[below_key] = kin
        level += 1
        count = 0
        for k in range(size):
            count += added[k]
            if count:
                card[k] += count
                first[k], last[k] = first[k] or level, level
            if card[k] > max_cells and tripped[k] is None:
                tripped[k] = f"partition for t={{t}} exceeded {max_cells} cells"
        while live < size and tripped[live] is not None:
            live += 1
        frontier = {key: cubes for key, cubes in deeper.items() if key % size >= live} if live \
            else deeper
    for key, j in best.items():
        low, high = divmod(key, size)
        for k in range(low, high + 1):
            if j > top[k]:
                top[k] = j
    return [message or row for message, row in zip(tripped, zip(card, first, last, top))]


def partition_rows(model: MeasureModel, rho: float, thresholds) -> list[PartitionRow]:
    """`[partition_row(model, rho, t) for t in thresholds]`, from one pass
    over the model's store, or the first error that loop raises: a bad t or
    rho, or a cap that the walk of a threshold trips, in input order."""
    return list(_rows(model, rho, thresholds))


def _rows(model: MeasureModel, rho: float, thresholds) -> Iterator[PartitionRow]:
    """The rows of `partition_rows`, and its error after the rows before it."""
    ok, error = [], None
    for t in thresholds:
        if not t > 0:
            error = "partition threshold t must be positive"
            break
        if not rho > 0:
            error = "rho must be positive"
            break
        ok.append(t)
    log2_ts = sorted({log2_t for log2_t in map(math.log2, ok) if not log2_t > 0.0})
    walked = dict(zip(log2_ts, _walk(model, rho, log2_ts, None))) if log2_ts else {}
    for t in ok:
        log2_t = math.log2(t)
        # J(root) = 1 < t for log2 t > 0: the root is the one cell
        out = walked.get(log2_t, (1, 0, 0, 0.0))
        if isinstance(out, str):
            raise ResourceLimitError(out.format(t=t))
        card, min_level, max_level, top = out
        yield PartitionRow(t, rho, card, 2.0**top, min_level, max_level, log2_t > 0.0)
    if error:
        raise ValidationError(error)


def partition_row(model: MeasureModel, rho: float, t: float) -> PartitionRow:
    """The row of `build_partition(model, rho, t)` without its cells, and
    with its errors; no cube is built."""
    return partition_rows(model, rho, [t])[0]


def build_partition(model: MeasureModel, rho: float, t: float) -> PartitionResult:
    """Walk down from the root, emitting the first cubes with J_rho < t.

    Children of zero-mass cubes are never visited, so the cells partition the
    support of the measure up to null sets. If the root itself already falls
    below t, the single root cell is returned and flagged degenerate. More
    than the model's `max_cells` cells is a ResourceLimitError.
    """
    return _partition_cells(model, partition_row(model, rho, t))  # caps trip before the cells


def _partition_cells(model: MeasureModel, row: PartitionRow) -> PartitionResult:
    """The partition of a row that `partition_rows` gave: its cells pass."""
    cells: list[tuple[int, tuple[int, ...], float]] = []
    if row.degenerate:
        cells.append((0, (0,) * model.m, 0.0))
    else:
        _walk(model, row.rho, [math.log2(row.t)], cells)
    cells.sort()
    # each cell is a child of a valid cube, so its index needs no check
    return PartitionResult(*row, tuple(_new(DyadicCube, c[:2]) for c in cells))


class EntropySlopeResult(NamedTuple):
    slope: float
    rows: tuple[tuple[float, int, int, int, float], ...]  # (t, card, minlev, maxlev, max_j)


def entropy_slope(model: MeasureModel, rho: float, t_sequence) -> EntropySlopeResult:
    """Least-squares slope of log card(P_t) against -log t.

    Takes the rows of all the thresholds from one pass (`partition_rows`,
    no cells) and fits them with `fit_entropy_slope`.
    """
    return fit_entropy_slope(partition_rows(model, rho, [float(t) for t in t_sequence]))


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
    slope = fit_loglog([-math.log(p.t) for p in usable], [math.log(p.card) for p in usable])
    return EntropySlopeResult(slope=slope, rows=rows)


def fit_loglog(xs, ys) -> float:
    """The least-squares slope S_xy / S_xx of the points (xs[i], ys[i]),
    exact for the float data and rounded once.

    Every value is an integer over one power-of-two scale, which cancels in
    the slope, so n S_xy = n sum XY - sum X sum Y and n S_xx are Python
    ints, and their quotient is one int/int true division, which CPython
    rounds correctly. The slope is the same float on every machine, whatever
    its BLAS. A NaN or infinite value, fewer than two points or constant xs
    is a SolverError.
    """
    n = len(xs)
    if len(ys) != n:
        raise ValidationError("fit needs as many xs as ys")
    if n < 2:
        raise SolverError("fit needs >= 2 points")
    values = [*xs, *ys]
    if not all(map(math.isfinite, values)):
        raise SolverError("fit needs finite values")
    ratios = [float(v).as_integer_ratio() for v in values]  # each denominator a power of 2
    scale = max(den.bit_length() for _, den in ratios)
    ints = [num << scale - den.bit_length() for num, den in ratios]
    x_ints, y_ints = ints[:n], ints[n:]
    sx = sum(x_ints)
    sxx = n * sum(x * x for x in x_ints) - sx * sx
    if not sxx:
        raise SolverError("fit needs >= 2 distinct xs")
    sxy = n * sum(map(mul, x_ints, y_ints)) - sx * sum(y_ints)
    try:
        return sxy / sxx
    except OverflowError:
        raise SolverError("fitted slope overflows a float") from None
