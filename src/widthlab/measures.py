"""Borel probability measures on the unit cube with exact dyadic-cube masses.

Four model families are supported, all with exactly computable cube masses:
atomic measures, normalized Lebesgue on a dyadic cube, dyadically aligned
self-similar (IFS) measures, and products of lower-dimensional models.
Masses are exact: integers over one den(n) per level, `Fraction`s from
`mass` and `level_masses`; decimals in spec files parse exactly, so no
floating-point fallback is needed. A CSV point cloud (`ingest_points`)
accepts the fields `Fraction(str)` does, with their values. It is read a
column at a time: a column of plain decimals, the common case, becomes
integers over one 10^K after one check of its joined digits, and the cloud
goes to an atomic model's integer core without a `Fraction` per field. The
model's `points` and `weights` are `Fraction` views built when first read.

Each family builds a level's positive cubes in bulk, without the mass
oracle, as a node table (`LevelNodes`): their indices in lexicographic order
and, for each, an id into the level's distinct masses, numerators N over
den(n); its level view {N: cube count} over den(n) (`level_counts`;
`level_masses` is its `Fraction` view for the API) is built without a table.
An atomic model holds its coordinates and weights as integer arrays over
two common denominators (int64 where they fit, Python ints beyond). It
takes the exact indices ceil(x 2^n) - 1 = (c 2^n - 1) // pden of all atoms
in one array operation, packs each atom's into one integer key and sums
the integer weights per key: its level view counts the sums, its table
sorts and unpacks the keys, the distinct sums its numerators. An IFS
table is built from the packed keys of the one above, which it keeps.
A product pairs every row of each factor's table with every row of the
others', its mass ids remapped through the products.

Every model gives the tree of its positive cubes as one integer rule
(`MeasureModel._rule`): a level-L cube of node h and mass N / den(L) has
its positive children in index order, each with its node, its numerator
over den(L + 1) and its branch bits; `mass` applies it one branch per
level. An IFS is encoded by its finite template (`IfsMeasure.template`, the
state classes of Cawley & Mauldin 1992): the images are disjoint, so every
positive cube is a copy of a template node, and its state (node, exact
mass) fixes its subtree. Every edge ratio is a / D over one denominator D,
so its rule multiplies N by a, den(L) = D^L, and at one level two masses
are equal exactly when their N are. A uniform measure is the IFS of the
2^m maps x -> (x + b) / 2, b in {0,1}^m, of weight 2^-m each, embedded
into its support (Hutchinson 1981): a chain down to the support, then one
node whose 2^m children are itself. An atomic node is the atoms in its
cube, split among the children as its node table splits them, its N their
weights over the common denominator. A product's node is its factors'
states, its N and den(L) the products of theirs.

Each model keeps one store of these states (`StateStore`), expanded by the
rule when first needed: the J_rho walks (`widthlab.partition`) expand the
states they reach, and an IFS pushes whole levels through it, counting the
cubes of each state in integers, for its level views, kept per level, and
its node tables, which keep the view's numerators. Measured with
`tracemalloc` on the bench 7-map IFS pushed to level 20 (84 424 states),
the store holds 334 bytes per state, 28.2 MB in all.

The run's resource caps are attributes of the model: `max_cubes` bounds
the cubes of a node table and the distinct masses of a level view, and
`max_cells` the cells of a J_rho partition (`widthlab.partition` reads it).
The command line sets both once per run, so no function outside this
module takes a cap. They are guards, not inputs to any cached value: an
over-cap push keeps nothing of the level it trips on, and a table is built
only after its count passes, so a level cached under a larger cap trips
exactly as a fresh one.
A product's `max_cubes` is its factors': setting it sets theirs.
`_check_level` checks a level's cube count against `max_cubes` before its
table is built (an IFS counts cubes per template node, storing no state).
It trips where the cube-by-cube descent through the mass oracle, the
tests' reference, does: counts never decrease with the level, and level 0
is never capped. Indices are int64 up to level 62 and Python
ints from level 63 on (INT64_LEVELS), so they, and the centres
(2 l + 1) 2^-(n+1) computed from them, stay exact at every level.

Models are immutable after construction but for their caps and their
store, a cache that only grows: walks in several threads may share a model.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import operator
import sys
import threading
import weakref
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cubes import DyadicCube, parse_cube, root
from .errors import ParseError, ResourceLimitError, ValidationError

DEFAULT_MAX_CUBES = 1 << 21
DEFAULT_MAX_CELLS = 1 << 20
# int64 holds a level-n index l, and 2 l + 1, only below this level
INT64_LEVELS = 63
# packed level keys are int64 while level * m stays within this many bits
PACKED_KEY_BITS = INT64_LEVELS - 1
# the most nodes of an IFS template besides its root, as bounded by the sum of
# ratio_log2 - 1 over the maps plus the shift's level, checked before anything
# is built: a node takes about 1 KB and 10 us, so a template at the bound
# loads in 0.15 s
MAX_TEMPLATE_NODES = 1 << 14


class LevelNodes(NamedTuple):
    """The positive level-n cubes in lexicographic index order: their integer
    indices (N, m), int64 below level INT64_LEVELS and Python ints from it on,
    and for each cube an id into `nums`, the distinct masses N over `den`."""

    index: np.ndarray
    mass_id: np.ndarray
    nums: tuple[int, ...]
    den: int


def log2_mass(num: int, den: int) -> float:
    """log2(num / den) from the reduced pair: finite at every level."""
    g = math.gcd(num, den)
    return math.log2(num // g) - math.log2(den // g)


def index_array(rows, n: int, m: int) -> np.ndarray:
    """(N, m) array of level-n indices, exact at every level."""
    dtype = np.int64 if n < INT64_LEVELS else object
    return np.array(rows, dtype=dtype).reshape(len(rows), m)


def _int_array(values, bound: int) -> np.ndarray:
    """Integers of at most `bound`, as int64 when the bound fits in it and
    as Python ints when it does not."""
    return np.array(values, dtype=np.int64 if bound.bit_length() < 64 else object)


def _common(pairs) -> tuple[list[int], int]:
    """Ratios a / b (b > 0) as numerators over their least common
    denominator, the lcm of their reduced denominators."""
    den = math.lcm(*(b for _, b in pairs))
    nums = [a * (den // b) for a, b in pairs]
    g = math.gcd(den, *nums)
    return ([c // g for c in nums] if g > 1 else nums), den // g


def _first_outside(values, high=None) -> int:
    """The index of the first of `values` outside (0, high), or outside
    (0, inf) without `high`; len(values) if none is. `min` and `max` clear a
    column with none in C."""
    if min(values, default=1) > 0 and (high is None or max(values, default=0) < high):
        return len(values)
    return next(i for i, v in enumerate(values) if v <= 0 or high is not None and v >= high)


def packed_keys(index: np.ndarray, level: int) -> np.ndarray:
    """One exact integer per row of level-`level` indices (N, m): the
    coordinates side by side, `level` bits each, as int64 while
    level * m <= PACKED_KEY_BITS and as Python ints beyond, so keys order
    rows lexicographically. A row with a coordinate outside [0, 2^level)
    packs to -1, the key of no cube."""
    # column by column: a coordinate lies in [0, 2^level) iff c >> level == 0
    columns = index.T
    outside = columns[0] >> level
    for column in columns[1:]:
        outside |= column >> level
    inside = outside == 0
    dtype = object if level * index.shape[1] > PACKED_KEY_BITS else np.int64
    keys = np.where(inside, columns[0], 0).astype(dtype)
    for column in columns[1:]:
        keys <<= level
        keys |= np.where(inside, column, 0).astype(dtype)
    keys[~inside] = -1
    return keys


def _unpack(keys: np.ndarray, n: int, m: int) -> np.ndarray:
    """The (N, m) level-n indices of `packed_keys` keys, a column at a time."""
    index = np.empty((len(keys), m), dtype=object if n >= INT64_LEVELS else np.int64)
    for j, column in enumerate(index.T):
        column[...] = keys >> n * (m - 1 - j) & (1 << n) - 1
    return index


def _check_level(n: int, count: int = 1, max_cubes: int = DEFAULT_MAX_CUBES) -> None:
    """Reject a negative level, and a level n >= 1 of more than `max_cubes`
    positive cubes (`count` of them), as the cube-by-cube descent does."""
    if n < 0:
        raise ValidationError("level must be >= 0")
    if n > 0 and count > max_cubes:
        raise ResourceLimitError(f"more than {max_cubes} positive cubes at level {n}")


def _check_masses(n: int, count: int, max_cubes: int) -> None:
    """Reject a level-n view of more than `max_cubes` distinct masses."""
    if count > max_cubes:
        raise ResourceLimitError(f"more than {max_cubes} distinct masses at level {n}")


class StateStore:
    """A model's positive cubes as integer states, level by level.

    A level-L state is (node, N): a node of the model's cube tree and the
    numerator of its cubes' mass N / den(L). Its id is its place in
    `states[L]`, in the order first met. The model's rule expands each
    state once, when first needed, into its children's ids at level L + 1
    (`kids[L][s]`) and their branch bits (`branches[L][s]`), under a lock,
    so walks and pushes in several threads may share a model; the node
    tables of an IFS are built under the same lock. Both users expand a
    whole level's batch at once: `push` every state of a level, counting
    the cubes of each state (`counts[L]`) in push order, the order a push
    from a cold store meets them, so the level views and tables read from it
    do not depend on what expanded the states first; `expand` the states a
    J_rho pass reaches, taking the log2 of the mass of each state below them
    (`log2[L + 1]`) once, from the reduced pair.
    """

    def __init__(self, model: "MeasureModel") -> None:
        # a weak reference, so the model and its store die with the last
        # reference to the model, not at the next cyclic collection
        self._model, self._lock = weakref.proxy(model), threading.Lock()
        self.states, self.kids, self.branches = [[model._root]], [[None]], [[None]]
        self._ids = [{self.states[0][0]: 0}]
        self.log2: list[list[float]] = [[0.0]]  # per level: the log2 masses a pass took
        self.counts: list[dict[int, int]] = [{0: 1}]
        self._counts: dict[int, dict[int, int]] = {}  # per pushed level, `level_counts`

    def _expand(self, level: int, todo, capped: bool = False) -> None:
        """Expand the states `todo` of `level` that are not yet, the lock
        held. If `capped`, level + 1 may have at most `max_cubes` distinct
        masses: past it, the batch is undone and the cap trips."""
        if len(self.states) == level + 1:
            for levels in (self.states, self.kids, self.branches, self.log2):
                levels.append([])
            self._ids.append({})
        rule, states, kids, branches = (self._model._rule, self.states[level], self.kids[level],
                                        self.branches[level])
        ids, below, below_kids, below_branches = (self._ids[level + 1], self.states[level + 1],
                                                  self.kids[level + 1], self.branches[level + 1])
        cap, first, rows = self._model.max_cubes, len(below), []
        masses, seen, size = set(), 0, first  # the distinct masses of below[:seen]; len(below)
        for s in todo:
            if kids[s] is not None:
                continue
            node, num = states[s]
            children, bits = rule(level, node, num)
            row = []
            for key in children:
                k = ids.setdefault(key, size)
                if k == size:
                    below.append(key)
                    size += 1
                row.append(k)
            rows.append((s, row, bits))
            if capped and size > cap:  # else its masses, no more than its states, pass
                masses.update(num for _, num in below[seen:])
                seen = size
                if len(masses) > cap:  # no expansion refers to the batch yet
                    for key in below[first:]:
                        del ids[key]
                    del below[first:]
                    _check_masses(level + 1, len(masses), cap)
        unexpanded = [None] * (size - first)
        below_kids += unexpanded
        below_branches += unexpanded
        for s, row, bits in rows:
            branches[s], kids[s] = bits, row

    def push(self, n: int) -> None:
        """Expand every state of levels below n and count the cubes of each
        state of levels up to n, in push order. Pushing level n trips as soon
        as it has more than `max_cubes` distinct masses; a coarser level may
        have more (the counts are not monotone in the level)."""
        with self._lock:
            while len(self.counts) <= n:
                level = len(self.counts) - 1
                above, kids, counts = self.counts[level], self.kids[level], {}
                self._expand(level, above, level + 1 == n)
                for s, count in above.items():
                    for k in kids[s]:
                        counts[k] = counts.get(k, 0) + count
                self.counts.append(counts)

    def level_counts(self, n: int) -> dict[int, int]:
        """A pushed level's {N: cube count}, its masses N / den(n) in push
        order, built once and shared: not to be changed."""
        if n not in self._counts:
            states, sizes = self.states[n], {}
            for s, count in self.counts[n].items():
                num = states[s][1]
                sizes[num] = sizes.get(num, 0) + count
            self._counts[n] = sizes
        return self._counts[n]

    def expand(self, level: int, todo) -> tuple[list, list, list[float]]:
        """Expand the states `todo` of `level` that are not yet, in one
        batch under the lock, and take the log2 masses of the states of
        level + 1 that have none yet. Returns the level's `kids` and
        `branches` and the log2 masses of level + 1, by state id."""
        kids = self.kids[level]
        # a state's kids and a log2 are set once, under the lock: a level
        # with nothing to add takes no lock
        todo = [s for s in todo if kids[s] is None]
        if todo or len(self.log2[level + 1]) < len(self.states[level + 1]):
            with self._lock:
                self._expand(level, todo)
                states, log2 = self.states[level + 1], self.log2[level + 1]
                den = self._model._denominator(level + 1)
                log2 += (log2_mass(num, den) for _, num in states[len(log2):])
        return kids, self.branches[level], self.log2[level + 1]


class MeasureModel:
    """Common interface: exact masses of dyadic cubes (`mass`), and each
    level's positive cubes as a node table (`level_nodes`) and an integer
    level view (`level_counts`), built in bulk without the mass oracle. Each
    family gives its cube tree as one integer rule (`_rule`, from the unit
    cube's state `_root`, over `_denominator`), whose states `_store` keeps;
    a model with a rule alone has the store's level view. `max_cubes` caps
    the tables and views, `max_cells` the partitions."""

    m: int
    finite_support = False
    max_cubes = DEFAULT_MAX_CUBES
    max_cells = DEFAULT_MAX_CELLS

    def mass(self, cube: DyadicCube) -> Fraction:
        """The exact mass of one cube: the mass oracle (layer L1), the rule
        applied one branch per level down from the root; a cube of another
        dimension lies outside the model. No code of the package calls it,
        since the tables and the J_rho walks read the store: it is the
        per-cube query of the public API, and the L1 benchmark times it."""
        state, level = self._root if cube.m == self.m else None, 0
        while state is not None and level < cube.level:
            branch = tuple(l >> (cube.level - 1 - level) & 1 for l in cube.index)
            children, branches = self._rule(level, *state)
            state = next((kid for kid, bits in zip(children, branches) if bits == branch), None)
            level += 1
        return Fraction(0) if state is None else Fraction(state[1], self._denominator(cube.level))

    @functools.cached_property
    def _store(self) -> StateStore:
        return StateStore(self)

    def _rule(self, level: int, node, num: int) -> tuple[list[tuple[object, int]], Sequence]:
        """The positive children of a level-`level` state, in index order:
        their states (node, N over den(level + 1)) and their branch bits.
        The family gives den(level) too (`_denominator`)."""
        raise NotImplementedError

    def level_nodes(self, n: int) -> LevelNodes:
        """The node table of the level-n positive cubes, at most `max_cubes`."""
        raise NotImplementedError

    def level_counts(self, n: int) -> tuple[dict[int, int], int]:
        """The level view {N: count}, in no set order, over the level-n positive
        cubes, one N per distinct mass N / den(n), and den(n); shared, not to be
        changed. Here the store's push; past `max_cubes` masses it trips."""
        _check_level(n)
        self._store.push(n)
        counts = self._store.level_counts(n)
        # the view is the resource here (cached or not), not the cube count
        _check_masses(n, len(counts), self.max_cubes)
        return counts, self._denominator(n)

    def level_masses(self, n: int) -> dict[Fraction, int]:
        """Multiset {mass: count} over the level-n positive cubes: the level
        view as `Fraction`s, built anew; the package reads `level_counts`."""
        counts, den = self.level_counts(n)
        return {Fraction(num, den): count for num, count in counts.items()}

    def card_positive(self, n: int) -> int:
        return sum(self.level_counts(n)[0].values())

    def _ancestors(self, n: int, index: np.ndarray, level: int, known: dict) -> tuple:
        """Each row `index` of the level-n table's ancestor row among the
        positive level-`level` cubes, and their packed keys; `known` holds
        those taken for this table. Here one search of the ancestors' keys."""
        keys, rows = np.unique(packed_keys(index >> (n - level), level), return_inverse=True)
        return rows, keys


class AtomicMeasure(MeasureModel):
    """Finitely many atoms in the open unit cube.

    The model holds its atoms as integers over two common denominators:
    `_coords` (N, m), the coordinate numerators over `_pden`, the lcm of the
    reduced coordinate denominators, and `_units` (N,), the weight numerators
    over `_den`, the lcm of the reduced weight denominators. Each array is
    int64 when its denominator fits in int64 and holds Python ints
    otherwise, so every cube index and every mass is exact. Level views,
    tables and the rule take the cube indices of all their atoms in one array
    operation and make no `Fraction` arithmetic per atom; a level's view
    and table read one grouping of its atoms by cube (`_groups`). The public
    `points` and `weights` are tuples of `Fraction`s, built when first read.

    Both constructors, `AtomicMeasure(points, weights)` and
    `ingest_points`, hand their atoms as exact integer columns to one core,
    `_set_atoms`, which makes every check of their values.

    Finite support makes the asymptotic quantities degenerate (all box
    dimensions are 0); reports downstream flag this.
    """

    finite_support = True

    def __init__(self, points, weights) -> None:
        points, weights = list(points), list(weights)
        if not points:
            raise ValidationError("atomic measure needs at least one point")
        if len(points) != len(weights):
            raise ValidationError("points and weights length mismatch")
        ratio = Fraction.as_integer_ratio
        atoms, error = [], None
        try:
            for p, w in zip(points, weights):
                atom = [ratio(Fraction(x)) for x in p], ratio(Fraction(w))
                if atoms and len(atom[0]) != len(atoms[0][0]):
                    raise ValidationError("inconsistent point dimensions")
                atoms.append(atom)
        except (ArithmeticError, TypeError, ValueError) as exc:
            error = exc  # an atom that cannot be read fails after the atoms before it
        columns = [_common(column) for column in zip(*(coords for coords, _ in atoms))]
        self._set_atoms(columns, _common([w for _, w in atoms]), csv_rows=False, error=error)

    def _set_atoms(self, columns, weights, csv_rows: bool, error=None) -> None:
        """Check N atoms and hold them as integers over the least common
        denominators. `columns`, the m coordinate columns, and `weights` are
        each (numerators, denominator > 0) of the N atoms. The first atom
        with a weight <= 0 or a coordinate outside (0, 1) fails, its weight
        checked before its coordinates in column order; then `error`, the
        read error of atom N + 1 if there is one, is raised. With
        `csv_rows`, atom k is CSV data row k: errors name it, and the weights
        are normalized to total mass 1; otherwise they must sum to 1.
        """
        units, den = weights
        n = len(units)
        bad = [_first_outside(units), *(_first_outside(c, d) for c, d in columns)]
        row = min(bad)
        if row < n:
            if bad[0] == row:
                raise ValidationError(f"non-positive weight in CSV row {row + 1}"
                                      if csv_rows else "atomic weights must be positive")
            axis = bad.index(row) - 1
            c, d = columns[axis]
            try:  # only the message that is raised is formatted
                message = (f"coordinate {Fraction(c[row], d)} in CSV row {row + 1} not inside the"
                           " open unit cube" if csv_rows else
                           f"atomic point {tuple(str(Fraction(a[row], b)) for a, b in columns)}"
                           " not in the open unit cube")
            except ValueError:  # a number past the int digit limit is named, not printed
                where, what = ((f"CSV row {row + 1}", "coordinate") if csv_rows
                               else (f"atomic point {row + 1}", "point"))
                message = (f"coordinate on axis {axis} of {where} not inside the open unit cube;"
                           f" the {what} has more digits than the int limit of"
                           f" {sys.get_int_max_str_digits()}")
            raise ValidationError(message)
        if error is not None:
            raise error
        total = sum(units)
        if csv_rows:
            # w_i / sum(w) = u_i / sum(u), reduced
            g = math.gcd(total, *units)
            units, den = [u // g for u in units] if g > 1 else units, total // g
        elif total != den:
            try:
                shown = str(Fraction(total, den))
            except ValueError:  # past the int digit limit
                shown = ("a number of more digits than the int limit of"
                         f" {sys.get_int_max_str_digits()}")
            raise ValidationError(f"atomic weights sum to {shown}, not a probability measure")
        pden = math.lcm(*(d for _, d in columns))
        coords = [c if d == pden else [a * (pden // d) for a in c] for c, d in columns]
        g = math.gcd(pden, *itertools.chain.from_iterable(coords))
        if g > 1:
            coords, pden = [[a // g for a in c] for c in coords], pden // g
        self.m = len(columns)
        self._den, self._units = den, _int_array(units, den)
        self._root = tuple(range(n)), den
        self._pden = pden
        self._coords = np.ascontiguousarray(_int_array(coords, pden).reshape(self.m, n).T)

    @functools.cached_property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(c, self._pden) for c in row) for row in self._coords.tolist())

    @functools.cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, self._den) for u in self._units.tolist())

    def _indices(self, n: int, rows=...) -> np.ndarray:
        # x = c / pden in (0, 1) lies in the level-n cube of index
        # ceil(x 2^n) - 1 = (c 2^n - 1) // pden, in int64 while c 2^n fits
        coords = self._coords[rows]
        if self._pden.bit_length() + n > 63:
            coords = coords.astype(object)
        return ((coords << n) - 1) // self._pden

    def _denominator(self, level: int) -> int:
        return self._den

    def _rule(self, level, node, num):
        # a node is the ids of the atoms in its cube, N their units; an atom
        # goes to the child of bits ceil(x 2^(L+1)) - 1 & 1, as in level_nodes
        rows = np.array(node, dtype=np.intp)
        bits = map(tuple, (self._indices(level + 1, rows) & 1).tolist())
        groups: dict[tuple[int, ...], list] = {}
        for i, u, branch in zip(node, self._units[rows].tolist(), bits):
            group = groups.setdefault(branch, [[], 0])
            group[0].append(i)
            group[1] += u
        branches = sorted(groups)
        return [(tuple(groups[b][0]), groups[b][1]) for b in branches], branches

    def _groups(self, n) -> dict[int, int]:
        """{packed level-n index: mass in units} over the occupied cubes, the
        level and then its cube count checked. A key is the coordinates side
        by side, n bits each, as in `packed_keys`. Shifts and adds build it
        and a dict groups it: less peak memory than numpy's masks, sort and
        reduceat, whose code would be paged in for this one grouping."""
        _check_level(n)
        index = self._indices(n)
        keys = np.zeros(len(index), dtype=object if n * self.m > PACKED_KEY_BITS else index.dtype)
        for column in index.T:
            keys = (keys << n) + column
        groups: dict[int, int] = {}
        for key, u in zip(keys.tolist(), self._units.tolist()):
            groups[key] = groups.get(key, 0) + u
        _check_level(n, len(groups), self.max_cubes)
        return groups

    def level_counts(self, n):
        return collections.Counter(self._groups(n).values()), self._den

    def level_nodes(self, n):
        groups = self._groups(n)
        keys = sorted(groups)  # lexicographic index order
        ids: dict[int, int] = {}
        mass_id = np.array([ids.setdefault(groups[k], len(ids)) for k in keys], dtype=np.intp)
        keys = np.array(keys, dtype=object if n * self.m > PACKED_KEY_BITS else np.int64)
        return LevelNodes(_unpack(keys, n, self.m), mass_id, tuple(ids), self._den)


class _IfsMap(NamedTuple):
    ratio_log2: int
    offset: tuple[int, ...]


class IfsMap(_IfsMap):
    """Similarity with contraction 2^-ratio_log2 onto a dyadic image cube."""

    __slots__ = ()

    def __new__(cls, ratio_log2: int, offset: tuple[int, ...]) -> "IfsMap":
        if ratio_log2 < 1:
            raise ValidationError("ratio_log2 must be a positive integer")
        return super().__new__(cls, ratio_log2, offset)

    def image(self) -> DyadicCube:
        return DyadicCube(self.ratio_log2, self.offset)


class IfsMeasure(MeasureModel):
    """Self-similar measure for dyadically aligned maps with disjoint images.

    nu = sum_i p_i * nu o S_i^{-1}. An optional embed_shift conjugates the
    attractor into a dyadic subcube so that it avoids the boundary of the
    unit cube. Its integer rule reads `template`: a child's N is its
    parent's times a, the edge's mass ratio over the common denominator
    `_den` = D, so den(L) = D^L. The level views and node tables
    (`level_counts`, `_tables`) read the store's push, and keep no per-cube
    memo. Beside each table it keeps each row's parent row and packed key
    (`_parents`, `_keys`: 16 bytes per row, 48 with the index and mass id
    in m = 3): `_ancestors` composes the parent rows with no key search,
    and each level's keys start the next level's.
    """

    def __init__(self, maps, probs, embed_shift: IfsMap | None = None) -> None:
        maps = tuple(maps)
        probs = tuple(Fraction(p) for p in probs)
        if not maps:
            raise ValidationError("IFS needs at least one map")
        if len(maps) != len(probs):
            raise ValidationError("maps and probs length mismatch")
        shift = 0 if embed_shift is None else embed_shift.ratio_log2
        if sum(mp.ratio_log2 - 1 for mp in maps) + shift > MAX_TEMPLATE_NODES:
            raise ValidationError(f"IFS template of more than {MAX_TEMPLATE_NODES} nodes: the"
                                  " sum of ratio_log2 - 1 over the maps plus the embed_shift"
                                  " level passes it")
        m = len(maps[0].offset)
        images = []
        for mp in maps:
            if len(mp.offset) != m:
                raise ValidationError("inconsistent map dimensions")
            images.append(mp.image())
        # dyadic cubes overlap exactly when one is the other or its ancestor:
        # each image looks up itself and its ancestors, and the least other
        # index at a key gives its least overlapping pair
        at: dict[DyadicCube, list[int]] = {}
        for i, image in enumerate(images):
            at.setdefault(image, []).append(i)
        pairs = [sorted((j, next(i for i in at[cube] if i != j)))
                 for j, image in enumerate(images)
                 for cube in map(image.ancestor, range(image.level + 1))
                 if len(at.get(cube, ())) > (cube == image)]
        if pairs:
            i, j = min(pairs)
            raise ValidationError(f"IFS image cubes {images[i]} and {images[j]} overlap")
        if any(p <= 0 for p in probs):
            raise ValidationError("IFS probabilities must be positive")
        if (total := sum(probs)) != 1:
            try:  # only the message that is raised is formatted
                shown = str(total)
            except ValueError:  # past the int digit limit
                shown = ("a number of more digits than the int limit of"
                         f" {sys.get_int_max_str_digits()}")
            raise ValidationError(f"IFS probabilities sum to {shown}, not a probability vector")
        if embed_shift is not None and len(embed_shift.offset) != m:
            raise ValidationError("embed_shift dimension mismatch")
        self.m = m
        self.maps = maps
        self.probs = probs
        self.embed_shift = embed_shift
        self.template, self._den = self._build_template()
        self._root = 0, 1
        self._tables: list[LevelNodes] = []
        self._parents: list[np.ndarray] = []  # per table, the row of each row's parent above
        self._keys: list[np.ndarray] = []  # per table, its rows' packed keys
        self._rows: np.ndarray | None = None  # the state of each row of the deepest table

    def _denominator(self, level: int) -> int:
        return self._den ** level

    def _rule(self, level, node, num):
        edges, branches = self.template[node]
        return [(child, num * a) for child, a in edges], branches

    @property
    def common_ratio_log2(self) -> int | None:
        ks = {mp.ratio_log2 for mp in self.maps}
        return ks.pop() if len(ks) == 1 else None

    def _build_template(self) -> tuple[tuple, int]:
        """The finite template of the positive cube tree, node 0 the unit
        cube: each node's children as (node, a) and their branch bits, a the
        edge's mass ratio over the common denominator D, the lcm of the
        reduced ratios' denominators; and D.

        Its nodes are, with embed_shift of level k, the ancestors of the
        shift image at levels 0 .. k - 1 (one edge each, ratio 1), then the
        unshifted root and every cube of the unshifted measure at levels
        1 .. max k_i - 1 that holds images deeper than its level (its mass
        the sum of their p). Every positive cube is a node h mapped by a
        composition S_w of the maps; its children are the images of h's
        children, an image of map i becoming the unshifted root.
        """
        shift = self.embed_shift
        k = 0 if shift is None else shift.ratio_log2
        nodes = [[(j + 1, Fraction(1), tuple(o >> (k - 1 - j) & 1 for o in shift.offset))]
                 for j in range(k)]
        base = {(0, (0,) * self.m): Fraction(1)}
        for p, mp in zip(self.probs, self.maps):
            for n in range(1, mp.ratio_log2):
                key = (n, tuple(o >> (mp.ratio_log2 - n) for o in mp.offset))
                base[key] = base.get(key, 0) + p
        node_id = {key: k + i for i, key in enumerate(sorted(base))}
        # per base cube, its children as (node, mass, index)
        kids: dict[tuple[int, tuple[int, ...]], list] = {key: [] for key in base}
        for p, mp in zip(self.probs, self.maps):
            kids[mp.ratio_log2 - 1, tuple(o >> 1 for o in mp.offset)].append((k, p, mp.offset))
        for (n, index), mu in base.items():
            if n:
                kids[n - 1, tuple(o >> 1 for o in index)].append((node_id[n, index], mu, index))
        for key in node_id:
            nodes.append([(j, mu / base[key], tuple(o & 1 for o in index))
                          for j, mu, index in sorted(kids[key], key=lambda kid: kid[2])])
        nums, den = _common([ratio.as_integer_ratio() for node in nodes for _, ratio, _ in node])
        nums = iter(nums)
        return tuple((tuple((j, next(nums)) for j, _, _ in node), tuple(b for *_, b in node))
                     for node in nodes), den

    def _count(self, n) -> int:
        """The level-n cube count, pushed in integers per template node; a
        coarser level past `max_cubes` ends the push early (counts never
        decrease), so a cap trips before any level is pushed."""
        template, counts = self.template, {0: 1}
        for _ in range(n):
            if sum(counts.values()) > self.max_cubes:
                break
            pushed: dict[int, int] = {}
            for node, count in counts.items():
                for child, _ in template[node][0]:
                    pushed[child] = pushed.get(child, 0) + count
            counts = pushed
        return sum(counts.values())

    def level_nodes(self, n):
        _check_level(n, self._count(n), self.max_cubes)
        store = self._store
        store.push(n)
        with store._lock:  # each table reads the one below and `_rows`
            while len(self._tables) <= n:
                self._tables.append(self._build_nodes(len(self._tables)))
        return self._tables[n]

    def _ancestors(self, n, index, level, known):
        # the parent rows composed from the nearest finer level known, the
        # tables built to level n: none is gathered at level n - 1
        finer = min((k for k in known if k > level), default=n)
        rows = known[finer][0] if finer < n else slice(None)  # level n's own rows
        for k in range(finer, level, -1):
            rows = self._parents[k][rows]
        return rows, self._keys[level]

    def _build_nodes(self, n) -> LevelNodes:
        """The level-n table and keys, built after level n - 1's, the store
        pushed to level n: a child's key is its parent's, each coordinate
        doubled in n bits, plus its edge's branch bits, sorted once."""
        store, m = self._store, self.m
        dtype = object if n * m > PACKED_KEY_BITS else np.int64
        if n == 0:
            keys = np.zeros(1, dtype=np.int64)
            state = parent = np.zeros(1, dtype=np.intp)
        else:
            rows, kids = self._rows, store.kids[n - 1]
            kid = np.array([s for row in kids for s in row], dtype=np.intp)
            codes = [[functools.reduce(lambda key, bit: key << n | bit, bits) for bits in branches]
                     for _, branches in self.template]  # per template node and edge
            code = np.array([c for h, _ in store.states[n - 1] for c in codes[h]], dtype=dtype)
            first = np.cumsum([0] + [len(row) for row in kids])
            width = np.diff(first)[rows]
            parent = np.repeat(np.arange(len(rows)), width)
            edge = np.arange(len(parent)) + (first[rows] - np.cumsum(width) + width)[parent]
            above = self._keys[n - 1].astype(dtype, copy=False)
            moved = sum((above >> (n - 1) * j & (1 << n - 1) - 1) << n * j + 1 for j in range(m))
            keys = moved[parent] + code[edge]
            order = np.argsort(keys, kind="stable")
            keys, state, parent = keys[order], kid[edge[order]], parent[order]
        self._rows = state
        nums = store.level_counts(n)
        order = {num: i for i, num in enumerate(nums)}
        mass_id = np.array([order[num] for _, num in store.states[n]], dtype=np.intp)[state]
        index = _unpack(keys, n, m)
        index.flags.writeable = mass_id.flags.writeable = keys.flags.writeable = False  # shared
        self._parents.append(parent)
        self._keys.append(keys)
        # the masses in push order, the level view's numerators
        return LevelNodes(index, mass_id, tuple(nums), self._denominator(n))


class UniformMeasure(IfsMeasure):
    """Normalized Lebesgue measure restricted to a dyadic cube: the IFS of
    the 2^m half-scale maps x -> (x + b) / 2, b in {0,1}^m, each of weight
    2^-m, embedded into the support."""

    def __init__(self, support: DyadicCube) -> None:
        m = support.m
        super().__init__([IfsMap(1, bits) for bits in itertools.product((0, 1), repeat=m)],
                         [Fraction(1, 1 << m)] * (1 << m),
                         IfsMap(support.level, support.index) if support.level else None)
        self.support = support


class ProductMeasure(MeasureModel):
    """Product of independent lower-dimensional models. Its `max_cubes`
    caps its factors' levels too: setting it sets theirs."""

    _max_cubes = DEFAULT_MAX_CUBES

    def __init__(self, factors) -> None:
        factors = tuple(factors)
        if not factors:
            raise ValidationError("product measure needs at least one factor")
        self.factors = factors
        self.m = sum(f.m for f in factors)
        self.finite_support = all(f.finite_support for f in factors)
        roots = tuple(f._root for f in factors)
        self._root = roots, math.prod(num for _, num in roots)

    def _cap_factors(self, cap: int) -> None:
        """Set the product's `max_cubes` and, as theirs, its factors': a
        factor's count exceeds the cap only if the product's does."""
        self._max_cubes = cap
        for f in self.factors:
            f.max_cubes = cap

    max_cubes = property(operator.attrgetter("_max_cubes"), _cap_factors)

    def _denominator(self, level: int) -> int:
        return math.prod(f._denominator(level) for f in self.factors)

    def _rule(self, level, node, num):
        # a node is the factors' states, its numerator the product of
        # theirs: one child per tuple of the factors' children
        combos = list(itertools.product(*(zip(*f._rule(level, *state))
                                           for f, state in zip(self.factors, node))))
        return ([(kids, math.prod(n for _, n in kids))
                 for kids in (tuple(kid for kid, _ in combo) for combo in combos)],
                [sum((bits for _, bits in combo), ()) for combo in combos])

    def level_nodes(self, n):
        tables = [f.level_nodes(n) for f in self.factors]
        _check_level(n, math.prod(len(t.index) for t in tables), self.max_cubes)
        # product row r is row rows[i][r] of factor i; rows run in index order
        rows = np.indices([len(t.index) for t in tables]).reshape(len(tables), -1)
        ids: dict[int, int] = {}  # numerators and denominators multiply, as in level_counts
        remap = [ids.setdefault(math.prod(nums), len(ids))
                 for nums in itertools.product(*(t.nums for t in tables))]
        combo = np.ravel_multi_index([t.mass_id[r] for t, r in zip(tables, rows)],
                                     [len(t.nums) for t in tables])
        index = np.hstack([t.index[r] for t, r in zip(tables, rows)])
        return LevelNodes(index, np.array(remap, dtype=np.intp)[combo], tuple(ids),
                          math.prod(t.den for t in tables))

    def level_counts(self, n):
        # numerators and denominators multiply: at one level, equal masses
        # are equal numerators, after each factor as at the end
        out, den = {1: 1}, 1
        for f in self.factors:
            sub, sub_den = f.level_counts(n)
            nxt: dict[int, int] = {}
            for a, ca in out.items():
                for b, cb in sub.items():
                    key = a * b
                    nxt[key] = nxt.get(key, 0) + ca * cb
            out, den = nxt, den * sub_den
            _check_masses(n, len(out), self.max_cubes)
        return out, den


def lebesgue(m: int) -> UniformMeasure:
    """Lebesgue measure on the full unit cube."""
    return UniformMeasure(root(m))


def _typed(value, kind: type, field: str):
    if not isinstance(value, kind):
        raise ParseError(f"measure spec field {field}: expected a {kind.__name__}, got {value!r}")
    return value


def _field(doc, key: str, path: str, kind: type = object):
    """doc[key], which must be a `kind`; a missing or mistyped field is a
    ParseError naming it by its path in the spec."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"measure spec field {path}{key} is missing")
    return _typed(doc[key], kind, path + key)


def _number(value, field: str) -> Fraction:
    """A spec number (a Fraction or an int, as `load_measure` parses them) or
    numeric string, exactly. JSON reads NaN and the infinities as floats:
    they, like any other value, are a ParseError naming the field."""
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        with contextlib.suppress(ValueError, ZeroDivisionError):
            return Fraction(value)
    raise ParseError(f"measure spec field {field}: expected a number, got {value!r}")


def _integer(value, field: str) -> int:
    number = _number(value, field)
    if number.denominator != 1:
        try:  # only the message that is raised is formatted
            shown = str(number)
        except ValueError:  # past the int digit limit
            shown = f"a number of more digits than the int limit of {sys.get_int_max_str_digits()}"
        raise ParseError(f"measure spec field {field}: expected an integer, got {shown}")
    return int(number)


def _numbers(values, field: str) -> list[Fraction]:
    return [_number(x, f"{field}[{i}]") for i, x in enumerate(_typed(values, list, field))]


def _ifs_map(doc, path: str) -> IfsMap:
    offset = _field(doc, "offset", path, list)
    return IfsMap(_integer(_field(doc, "ratio_log2", path), f"{path}ratio_log2"),
                  tuple(_integer(o, f"{path}offset[{k}]") for k, o in enumerate(offset)))


def _model_from_dict(doc: dict, path: str = "") -> MeasureModel:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError("measure spec must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "atomic":
        points = _field(doc, "points", path, list)
        return AtomicMeasure(
            [_numbers(p, f"{path}points[{i}]") for i, p in enumerate(points)],
            _numbers(_field(doc, "weights", path), f"{path}weights"),
        )
    if kind == "uniform":
        return UniformMeasure(parse_cube(_field(doc, "support", path, str)))
    if kind == "ifs":
        maps = [_ifs_map(mp, f"{path}maps[{i}].")
                for i, mp in enumerate(_field(doc, "maps", path, list))]
        shift = None
        if doc.get("embed_shift") is not None:
            shift = _ifs_map(doc["embed_shift"], f"{path}embed_shift.")
        return IfsMeasure(maps, _numbers(_field(doc, "probs", path), f"{path}probs"), shift)
    if kind == "product":
        factors = _field(doc, "factors", path, list)
        return ProductMeasure([_model_from_dict(f, f"{path}factors[{i}].")
                               for i, f in enumerate(factors)])
    raise ParseError(f"unknown measure type {kind!r}")


BOM = "\ufeff"


def _decode(data: bytes, name: str) -> str:
    """UTF-8 text, after a byte-order mark if there is one. The mark is cut
    off here rather than by the "utf-8-sig" codec, whose module would be
    imported on the first call."""
    try:
        return data.removeprefix(b"\xef\xbb\xbf").decode("utf-8")
    except UnicodeDecodeError as exc:
        # the decoder reports offsets after the mark
        offset = exc.start + len(data) - len(exc.object)
        raise ParseError(
            f"{name} is not valid UTF-8: byte {data[offset]:#04x} at offset {offset}"
        ) from exc


def load_measure(source, name: str = "measure spec") -> MeasureModel:
    """Parse and validate a measure-spec document (JSON).

    Accepts bytes, str, or a readable file object. Bytes are UTF-8, with or
    without a byte-order mark; bytes that are not are a ParseError naming
    `name` and the offset. Text may start with a byte-order mark too. Decimal
    numbers parse as exact rationals.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = _decode(source, name)
    elif isinstance(source, str):
        source = source.removeprefix(BOM)
    try:
        doc = json.loads(source, parse_float=Fraction, parse_int=int)
    except ValueError as exc:  # a JSON error, or an integer past the int digit limit
        raise ParseError(f"invalid JSON in measure spec: {exc}") from exc
    model = _model_from_dict(doc)
    m_declared = doc.get("m")
    if m_declared is not None and _integer(m_declared, "m") != model.m:
        raise ParseError(
            f"declared dimension m={m_declared} does not match model dimension {model.m}"
        )
    return model


def _parse_field(token: str) -> tuple[int, int] | None:
    """A CSV field as an exact rational (numerator, denominator > 0), or
    None if it is not a number. It accepts the fields `Fraction` does, after
    `strip()`, with their values. A plain decimal (ASCII digits and at most
    one point) is read without a `Fraction`, as (digits, 10^decimals).
    `ingest_points` reads a column of plain decimals without it; this reads
    the other columns, the first row and a ragged row, field by field."""
    text = token.strip()
    whole, _, decimals = text.partition(".")
    digits = whole + decimals
    if digits.isdigit() and digits.isascii():
        try:
            return int(digits), 10 ** len(decimals)
        except ValueError:  # past the int digit limit: Fraction decides
            pass
    # Fraction needs a decimal digit; a header name rarely has one
    if not any(c.isdecimal() for c in text):
        return None
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    return value.numerator, value.denominator


def _column(tokens) -> tuple[list[int], int] | int:
    """A CSV column as integer numerators over one denominator, or the index
    of its first field that is not a number. The column is plain decimals
    when one check of all its digits passes: each field, stripped and split
    at its first point, has digits, and they join into one ASCII digit
    string. Each is then read by `int` over 10^K, K the most decimals of the
    column. `_parse_field` reads any other column field by field, and one
    whose digits pass the int digit limit."""
    whole, _, decimals = zip(*map(str.partition, map(str.strip, tokens), itertools.repeat(".")))
    digits = list(map(operator.add, whole, decimals))
    joined = "".join(digits)
    if joined.isdigit() and joined.isascii() and "" not in digits:
        with contextlib.suppress(ValueError):  # past the int digit limit
            nums = list(map(int, digits))
            places = list(map(len, decimals))
            k = max(places)
            if min(places) < k:
                nums = [a * 10 ** (k - p) for a, p in zip(nums, places)]
            return nums, 10**k
    fields = list(map(_parse_field, tokens))
    return fields.index(None) if None in fields else _common(fields)


def ingest_points(rows, weight_column=None, name: str = "CSV input") -> AtomicMeasure:
    """Build an atomic model from CSV rows of coordinates in (0,1).

    `rows` is bytes (UTF-8, with or without a byte-order mark; bytes that
    are not are a ParseError naming `name` and the offset), text, or an
    iterable of lines such as a text file; text and the first line may start
    with a byte-order mark too. A field is a number if `Fraction` accepts it
    after `strip()`; a first row with a field that is not is a header.

    `weight_column` may be a header name or a 0-based column index, given as
    an int or as a string of digits that names no header column (so headerless
    input can carry weights too); without it every point gets weight 1/N.
    Weights are normalized to total mass 1.

    The rows are read whole and then a column at a time (`_column`), up to
    the first row of another width than the first, and the integer core of
    `AtomicMeasure` checks the values a column at a time, without a
    `Fraction` per field. The error reported is that of the first bad row;
    within a row, a weight column beyond its last field, then a field that
    is not a number or has more digits than the int limit (both
    ParseErrors), then a count of fields unlike the first row's, a weight
    <= 0 and a coordinate outside (0, 1) (ValidationErrors). A row the CSV
    reader cannot read, such as one with a field past
    `csv.field_size_limit()`, is a ParseError naming `name` and the row,
    raised if the rows before it pass.
    """
    if isinstance(rows, bytes):
        rows = _decode(rows, name)
    elif isinstance(rows, str):
        rows = rows.removeprefix(BOM)
    else:  # an iterable of lines: a text file keeps the mark on its first
        lines = iter(rows)
        rows = itertools.chain([next(lines, "").removeprefix(BOM)], lines)
    if isinstance(rows, str):
        rows = io.StringIO(rows)
    records, failure = [], None
    try:
        records.extend(csv.reader(rows))  # keeps the rows read before a failure
    except (csv.Error, OSError, UnicodeError) as exc:  # the reader's or the source's
        failure = exc  # raised where it was met: after the rows before it pass
    # a row of blank fields is no row
    data = list(itertools.compress(records, map(str.strip, map("".join, records))))
    header = None
    if data and None in map(_parse_field, data[0]):
        header = [tok.strip() for tok in data.pop(0)]
    n = len(data)
    error = failure
    if isinstance(failure, csv.Error):
        error = ParseError(f"{name}: {failure} in CSV row {n + 1}")
    if not n:
        raise error or ParseError("no data rows in CSV input" if header is None
                                  else "CSV input has a header but no data rows")

    widx = None
    if weight_column is not None:
        if header is not None and weight_column in header:
            widx = header.index(weight_column)
        elif str(weight_column).strip().isdecimal():
            widx = int(weight_column)
        else:
            raise ParseError(f"weight column {weight_column!r} not found in header")

    width = len(data[0])
    if widx is not None and widx >= width:
        raise ParseError(f"weight column {widx} is beyond the {width} fields of CSV row 1")
    lengths = list(map(len, data))
    end = n if lengths.count(width) == n else next(
        k for k, size in enumerate(lengths) if size != width)
    columns = [_column(column) for column in zip(*data[:end])]
    bad = min(((c, j) for j, c in enumerate(columns) if isinstance(c, int)), default=None)
    if bad is None and end < n:
        # the first ragged row fails, if no row above it does
        tokens = data[end]
        fields = list(map(_parse_field, tokens))
        if widx is not None and widx >= len(tokens):
            error = ParseError(f"weight column {widx} is beyond the {len(tokens)} fields"
                               f" of CSV row {end + 1}")
        elif None in fields:
            bad = end, fields.index(None)
        else:
            extra = widx is not None
            error = ValidationError(f"CSV row {end + 1} has {len(tokens) - extra} coordinates,"
                                    f" row 1 has {width - extra}")
    if bad is not None:
        end, j = bad
        token = data[end][j]
        try:
            Fraction(token.strip())  # fails, as it did in `_parse_field`
        except (ValueError, ZeroDivisionError) as exc:
            over = str(exc).startswith("Exceeds the limit")  # int's digit limit
        error = ParseError(
            f"field in column {j} of CSV row {end + 1} has more digits than the int limit"
            f" of {sys.get_int_max_str_digits()}" if over
            else f"non-numeric field {token!r} in CSV row {end + 1}")
        columns = [_column(column) for column in zip(*data[:end])]
    if not end:
        raise error
    weights = ([1] * end, 1) if widx is None else columns.pop(widx)
    model = AtomicMeasure.__new__(AtomicMeasure)
    model._set_atoms(columns, weights, csv_rows=True, error=error)
    return model
