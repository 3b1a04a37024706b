"""Borel probability measures on the unit cube with exact dyadic-cube masses.

Four model families are supported, all with exactly computable cube masses:
atomic measures, normalized Lebesgue on a dyadic cube, dyadically aligned
self-similar (IFS) measures, and products of lower-dimensional models.
Masses are exact, and the interfaces give them as `fractions.Fraction`s;
probabilities written as decimals in spec files parse exactly, so no
floating-point fallback is needed. A CSV point cloud (`ingest_points`)
accepts the fields `Fraction(str)` does, with their values; a plain decimal
takes a fast path to the integer pair (digits, 10^decimals), and the cloud
goes to an atomic model's integer core without a `Fraction` per field. The
model's `points` and `weights` are `Fraction` views built when first read.

Each family builds a level's positive cubes in bulk, without the mass
oracle, as a node table (`LevelNodes`): their indices in lexicographic order
and, for each, an id into the level's distinct exact masses. The table is the
only enumeration; the default `level_masses` reads it.
An atomic model holds its coordinates and weights as integer arrays over
two common denominators (int64 where they fit, Python ints beyond): its
table takes the exact indices ceil(x 2^n) - 1 = (c 2^n - 1) // pden of all
atoms in one array operation, then sums the integer weights per cube and
builds one `Fraction` per distinct mass. A product pairs every row of each
factor's table with every row of the others', its mass ids remapped through
the products.

Every model answers the tree of its positive cubes natively (`root_node`,
`edges`): each edge gives a child's node, its mass ratio to the parent and
its branch bits. `mass` is one walk of that tree, one edge per level down
from the root, and the J_rho partitions walk it too. An IFS is encoded once,
by its finite template (`IfsMeasure.template`, the state classes of Cawley &
Mauldin 1992): the images are disjoint, so every positive cube is a copy of
a template node, and its state (node, exact mass) fixes its whole subtree.
Every edge ratio is a / D over one common denominator D, so a level-n mass
is N / D^n with N the product of its path's numerators, and at one level
two masses are equal exactly when their N are. So a level's states
(node, N) expand the cached states of the level above in integers, its
multiset and node table build one `Fraction` per distinct mass when first
read, and the cube count pushes integers per node. A uniform measure is an
IFS: normalized Lebesgue measure on a dyadic cube is the self-similar
measure of the 2^m maps x -> (x + b) / 2, b in {0,1}^m, of weight 2^-m
each, embedded into the cube (Hutchinson 1981). Its template is a chain
down to the support, then one node whose 2^m children are itself. An
atomic node is a level and the atoms in its cube, split among the children
by the rule of its node table, and a product pairs the factors' trees.

`_check_level` checks a level's cube count against `max_cubes` before its
table is built (an IFS pushes the count in integers, so an oversized level
pushes no state). It trips where the cube-by-cube descent through the mass
oracle, the tests' reference, does: counts never decrease with the level,
and level 0 is never capped. Indices are int64 up to level 62 and Python
ints from level 63 on (INT64_LEVELS), so they, and the centres
(2 l + 1) 2^-(n+1) computed from them, stay exact at every level.

Models are immutable after construction, a template built with its model.
Mass evaluation is pure; the IFS level caches are plain lists guarded by the
GIL.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cubes import DyadicCube, parse_cube, root
from .errors import ParseError, ResourceLimitError, ValidationError

DEFAULT_MAX_CUBES = 1 << 21
# int64 holds a level-n index l, and 2 l + 1, only below this level
INT64_LEVELS = 63
# packed level keys are int64 while level * m stays within this many bits
PACKED_KEY_BITS = INT64_LEVELS - 1

Mass = Fraction


class LevelNodes(NamedTuple):
    """The positive level-n cubes in lexicographic index order: their integer
    indices (N, m), int64 below level INT64_LEVELS and Python ints from it on,
    and for each cube an id into `masses`, the distinct exact masses."""

    index: np.ndarray
    mass_id: np.ndarray
    masses: tuple[Mass, ...]


class TemplateNode(NamedTuple):
    """A node of an IFS template: its positive children in index order as
    (node, ratio, branch) edges. The child cube is the parent's child
    `branch` (one bit per coordinate, its index 2 index + branch), its
    subtree is that node's, and its mass is the parent's times ratio."""

    children: tuple[tuple[int, Mass, tuple[int, ...]], ...]


class _Level:
    """The states of an IFS level n in id order, as (template node, id among
    the level's distinct masses), with their cube counts; the numerators N
    of the distinct masses N / den in id order, den = D^n; and, per state of
    the level above, its children's state ids in edge order. The multiset is
    built when first read, so a push through a level makes no `Fraction`."""

    def __init__(self, states: list[tuple[int, int]], counts: list[int], nums: list[int],
                 den: int, edges: list[list[int]]) -> None:
        self.states, self.counts, self.nums, self.den, self.edges = (
            states, counts, nums, den, edges)

    @functools.cached_property
    def multiset(self) -> dict[Mass, int]:
        """{mass: count}, its masses in id order."""
        sizes = [0] * len(self.nums)
        for (_, j), count in zip(self.states, self.counts):
            sizes[j] += count
        return dict(zip((Fraction(num, self.den) for num in self.nums), sizes))


def index_array(rows, n: int, m: int) -> np.ndarray:
    """(N, m) array of level-n indices, exact at every level."""
    dtype = np.int64 if n < INT64_LEVELS else object
    return np.array(rows, dtype=dtype).reshape(len(rows), m)


def _int_array(values, bound: int) -> np.ndarray:
    """Integers of at most `bound`, as int64 when the bound fits in it and
    as Python ints when it does not."""
    return np.array(values, dtype=np.int64 if bound.bit_length() < 64 else object)


def _fraction_strs(nums: np.ndarray, den: int) -> list[str]:
    """`str(Fraction(a, den))` for each a of `nums` (den > 0), without
    building the Fractions."""
    # math.gcd per value: np.gcd saves about 0.2 ms on a 600-point cloud,
    # but the numpy code it pages in adds 0.1-0.2 MB of peak RSS
    strs = []
    for a in nums.tolist():
        g = math.gcd(a, den)
        strs.append(f"{a // g}/{den // g}" if g != den else f"{a // g}")
    return strs


def _common(pairs) -> tuple[list[int], int]:
    """Ratios a / b (b > 0) as numerators over their least common
    denominator, the lcm of their reduced denominators."""
    den = math.lcm(*(b for _, b in pairs))
    nums = [a * (den // b) for a, b in pairs]
    g = math.gcd(den, *nums)
    return ([c // g for c in nums] if g > 1 else nums), den // g


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


def _check_level(n: int, count: int = 1, max_cubes: int = DEFAULT_MAX_CUBES) -> None:
    """Reject a negative level, and a level n >= 1 of more than `max_cubes`
    positive cubes (`count` of them), as the cube-by-cube descent does."""
    if n < 0:
        raise ValidationError("level must be >= 0")
    if n > 0 and count > max_cubes:
        raise ResourceLimitError(f"more than {max_cubes} positive cubes at level {n}")


def _check_masses(n: int, count: int, max_cubes: int) -> None:
    """Reject a level-n multiset of more than `max_cubes` distinct masses."""
    if count > max_cubes:
        raise ResourceLimitError(f"more than {max_cubes} distinct masses at level {n}")


class MeasureModel:
    """Common interface: the tree of positive cubes (`root_node`, `edges`),
    exact masses of dyadic cubes by one walk of it (`mass`), and each
    level's positive cubes as a node table (`level_nodes`), which every
    family builds in bulk without the mass oracle. An IFS model, uniform
    ones among them, answers the tree from its template."""

    m: int
    finite_support = False

    def mass(self, cube: DyadicCube) -> Mass:
        """The exact mass of one cube: the mass oracle (layer L1), one edge
        per level down from the root; a cube of another dimension lies
        outside the model. No code of the package calls it, since the tables
        and the J_rho walks descend the tree themselves: it is the per-cube
        query of the public API, and the L1 benchmark times it."""
        node, mu = self.root_node(), Fraction(cube.m == self.m)
        for shift in range(cube.level - 1, -1, -1):
            branch = tuple(l >> shift & 1 for l in cube.index)
            edge = next((e for e in self.edges(node) if e[2] == branch), None)
            if edge is None:
                return Fraction(0)
            node, mu = edge[0], mu * edge[1]
        return mu

    def root_node(self):
        """The node of the unit cube."""
        raise NotImplementedError

    def edges(self, node) -> tuple[tuple[object, Mass, tuple[int, ...]], ...]:
        """A node's positive children in index order as (node, mass ratio
        child/parent, branch bits)."""
        raise NotImplementedError

    def level_nodes(self, n: int, max_cubes: int = DEFAULT_MAX_CUBES) -> LevelNodes:
        """The node table of the level-n positive cubes."""
        raise NotImplementedError

    def level_masses(self, n: int, max_cubes: int = DEFAULT_MAX_CUBES) -> dict[Mass, int]:
        """Multiset {mass: count} over the level-n positive cubes.

        IFS and product models override this where the level would be too
        large to tabulate; the default counts the node table's mass ids.
        """
        _, mass_id, masses = self.level_nodes(n, max_cubes)
        return dict(zip(masses, np.bincount(mass_id, minlength=len(masses)).tolist()))

    def card_positive(self, n: int, max_cubes: int = DEFAULT_MAX_CUBES) -> int:
        return sum(self.level_masses(n, max_cubes).values())

    def to_spec(self) -> dict:
        raise NotImplementedError


class AtomicMeasure(MeasureModel):
    """Finitely many atoms in the open unit cube.

    The model holds its atoms as integers over two common denominators:
    `_coords` (N, m), the coordinate numerators over `_pden`, the lcm of the
    reduced coordinate denominators, and `_units` (N,), the weight numerators
    over `_den`, the lcm of the reduced weight denominators. Each array is
    int64 when its denominator fits in int64 and holds Python ints
    otherwise, so every cube index and every mass is exact. Tables and edges
    take the cube indices of all their atoms in one array operation and make
    no `Fraction` arithmetic per atom. The public `points` and `weights`
    are tuples of `Fraction`s, built from the integers when first read.

    Both constructors, `AtomicMeasure(points, weights)` and
    `ingest_points`, go through one integer core, `_set_atoms`, which makes
    every check.

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
        self._set_atoms((([ratio(Fraction(x)) for x in p], ratio(Fraction(w)))
                         for p, w in zip(points, weights)), csv_rows=False)

    def _set_atoms(self, atoms, csv_rows: bool) -> None:
        """Check the atoms, each (coordinates, weight) as exact (numerator,
        denominator) pairs with positive denominators, one at a time in
        order, and hold them as integers over the least common denominators.
        With `csv_rows`, atom k is CSV data row k: errors name it, and the
        weights are normalized to total mass 1; otherwise they must sum to 1.
        """
        pairs, weights, m = [], [], None
        for row, (coords, weight) in enumerate(atoms, start=1):
            if m is None:
                m = len(coords)
            elif len(coords) != m:
                raise ValidationError(
                    f"CSV row {row} has {len(coords)} coordinates, row 1 has {m}"
                    if csv_rows else "inconsistent point dimensions")
            if weight[0] <= 0:
                raise ValidationError(f"non-positive weight in CSV row {row}"
                                      if csv_rows else "atomic weights must be positive")
            for a, b in coords:
                # a / b with b > 0 lies in (0, 1) iff 0 < a < b
                if not 0 < a < b:
                    point = tuple(str(Fraction(*x)) for x in coords)
                    raise ValidationError(
                        f"coordinate {Fraction(a, b)} in CSV row {row} not inside the open unit cube"
                        if csv_rows else f"atomic point {point} not in the open unit cube")
            pairs += coords
            weights.append(weight)
        units, den = _common(weights)
        total = sum(units)
        if csv_rows:
            # w_i / sum(w) = u_i / sum(u)
            units, den = _common([(u, total) for u in units])
        elif total != den:
            raise ValidationError(
                f"atomic weights sum to {Fraction(total, den)}, not a probability measure"
            )
        coords, pden = _common(pairs)
        self.m = m
        self._den, self._units = den, _int_array(units, den)
        self._pden = pden
        self._coords = _int_array(coords, pden).reshape(len(units), m)

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

    def root_node(self) -> tuple[int, tuple[int, ...]]:
        return 0, tuple(range(len(self._units)))

    def edges(self, node):
        # a node is (level L, ids of its atoms); an atom goes to the child of
        # bits ceil(x 2^(L+1)) - 1 & 1, the rule of level_nodes
        level, ids = node
        rows = np.array(ids, dtype=np.intp)
        bits = (self._indices(level + 1, rows) & 1).tolist()
        groups: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
        for i, u, branch in zip(ids, self._units[rows].tolist(), map(tuple, bits)):
            members, units = groups.setdefault(branch, ([], []))
            members.append(i)
            units.append(u)
        kids = [(branch, tuple(members), sum(units))
                for branch, (members, units) in sorted(groups.items())]
        total = sum(u for *_, u in kids)
        return [((level + 1, members), Fraction(u, total), branch) for branch, members, u in kids]

    def level_nodes(self, n, max_cubes=DEFAULT_MAX_CUBES):
        _check_level(n)
        # the indices come in one array operation; grouping them in a dict
        # costs less peak memory than numpy's sort and reduceat, whose code
        # would be paged in for this one table
        groups: dict[tuple[int, ...], int] = {}  # index -> mass in units
        for key, u in zip(map(tuple, self._indices(n).tolist()), self._units.tolist()):
            groups[key] = groups.get(key, 0) + u
        _check_level(n, len(groups), max_cubes)
        keys = sorted(groups)
        ids: dict[int, int] = {}
        mass_id = np.array([ids.setdefault(groups[k], len(ids)) for k in keys], dtype=np.intp)
        return LevelNodes(index_array(keys, n, self.m), mass_id,
                          tuple(Fraction(u, self._den) for u in ids))

    def to_spec(self) -> dict:
        # the strings of the Fractions, without building them
        m, n = self.m, len(self._units)
        coords = _fraction_strs(self._coords.ravel(), self._pden)
        return {
            "type": "atomic",
            "m": m,
            "points": [coords[k * m:(k + 1) * m] for k in range(n)],
            "weights": _fraction_strs(self._units, self._den),
        }


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


def _chain(cube: DyadicCube) -> list[TemplateNode]:
    """Template nodes 0 .. cube.level - 1: the ancestors of `cube`, node j
    with one edge of ratio 1 to node j + 1, the last to node cube.level."""
    k = cube.level
    return [TemplateNode(((j + 1, Fraction(1), tuple(l >> (k - 1 - j) & 1 for l in cube.index)),))
            for j in range(k)]


def _dyadic_disjoint(a: DyadicCube, b: DyadicCube) -> bool:
    lo, hi = (a, b) if a.level <= b.level else (b, a)
    return hi.ancestor(lo.level) != lo


class IfsMeasure(MeasureModel):
    """Self-similar measure for dyadically aligned maps with disjoint images.

    nu = sum_i p_i * nu o S_i^{-1}. An optional embed_shift conjugates the
    attractor into a dyadic subcube so that it avoids the boundary of the
    unit cube. Masses, multisets, node tables, counts and the tree edges all
    read `template`: they push states through it, one level at a time, and
    keep no per-cube memo. The multisets and node tables key a level-n state
    by (template node, N), its mass being N / D^n: `_pushes` holds each
    edge's ratio as its numerator a over the common denominator `_den` = D,
    the lcm of the reduced ratio denominators (a = D on a ratio-1 chain
    edge). A push multiplies N by a; masses of one level share the
    denominator D^n, so their N are equal exactly when they are, and the
    states, their id order and the counts are those of the exact masses.
    """

    def __init__(self, maps, probs, embed_shift: IfsMap | None = None) -> None:
        maps = tuple(maps)
        probs = tuple(Fraction(p) for p in probs)
        if not maps:
            raise ValidationError("IFS needs at least one map")
        if len(maps) != len(probs):
            raise ValidationError("maps and probs length mismatch")
        m = len(maps[0].offset)
        images = []
        for mp in maps:
            if len(mp.offset) != m:
                raise ValidationError("inconsistent map dimensions")
            images.append(mp.image())
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if not _dyadic_disjoint(images[i], images[j]):
                    raise ValidationError(
                        f"IFS image cubes {images[i]} and {images[j]} overlap"
                    )
        if any(p <= 0 for p in probs):
            raise ValidationError("IFS probabilities must be positive")
        if sum(probs) != 1:
            raise ValidationError(
                f"IFS probabilities sum to {sum(probs)}, not a probability vector"
            )
        if embed_shift is not None and len(embed_shift.offset) != m:
            raise ValidationError("embed_shift dimension mismatch")
        self.m = m
        self.maps = maps
        self.probs = probs
        self.embed_shift = embed_shift
        self.template = self._build_template()
        nums, self._den = _common([ratio.as_integer_ratio() for node in self.template
                                   for _, ratio, _ in node.children])
        nums = iter(nums)
        self._pushes = tuple(tuple((child, next(nums)) for child, _, _ in node.children)
                             for node in self.template)
        self._levels = [_Level([(0, 0)], [1], [1], 1, [])]
        self._tables: list[LevelNodes] = []
        self._rows: np.ndarray | None = None  # the state of each row of the deepest table

    def root_node(self) -> int:
        return 0

    def edges(self, node: int) -> tuple[tuple[int, Mass, tuple[int, ...]], ...]:
        return self.template[node].children

    @property
    def common_ratio_log2(self) -> int | None:
        ks = {mp.ratio_log2 for mp in self.maps}
        return ks.pop() if len(ks) == 1 else None

    def _build_template(self) -> tuple[TemplateNode, ...]:
        """The finite template of the positive cube tree; node 0 is the unit cube.

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
        nodes = [] if shift is None else _chain(shift.image())
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
            nodes.append(TemplateNode(tuple(
                (j, mu / base[key], tuple(o & 1 for o in index))
                for j, mu, index in sorted(kids[key], key=lambda kid: kid[2])
            )))
        return tuple(nodes)

    def _level(self, n, max_masses=math.inf) -> _Level:
        """The level-n states, pushed level by level from the root and cached.
        Pushing level n itself stops as soon as it has more than `max_masses`
        distinct masses; a coarser level may have more (the counts are not
        monotone in the level)."""
        levels, pushes = self._levels, self._pushes
        while len(levels) <= n:
            above = levels[-1]
            mass_id: dict[int, int] = {}  # numerator N of N / D^n -> id
            state_id: dict[tuple[int, int], int] = {}
            counts, edges = [], []
            for (node, j), count in zip(above.states, above.counts):
                num, row = above.nums[j], []
                for child, a in pushes[node]:
                    s = state_id.setdefault((child, mass_id.setdefault(num * a, len(mass_id))),
                                            len(counts))
                    if s == len(counts):
                        counts.append(0)
                    counts[s] += count
                    row.append(s)
                edges.append(row)
                if len(levels) == n:
                    _check_masses(n, len(mass_id), max_masses)
            levels.append(_Level(list(state_id), counts, list(mass_id),
                                 self._den ** len(levels), edges))
        return levels[n]

    def level_masses(self, n, max_cubes=DEFAULT_MAX_CUBES):
        _check_level(n)
        out = self._level(n, max_cubes).multiset
        # the multiset is the resource here (cached or not), not the cube count
        _check_masses(n, len(out), max_cubes)
        return dict(out)

    def _count(self, n, max_cubes) -> int:
        """The level-n cube count, pushed in integers per template node; a
        coarser level past max_cubes ends the push early (counts never
        decrease), so a cap trips before any level is pushed."""
        nodes, counts = self.template, {0: 1}
        for _ in range(n):
            if sum(counts.values()) > max_cubes:
                break
            pushed: dict[int, int] = {}
            for node, count in counts.items():
                for child, _, _ in nodes[node].children:
                    pushed[child] = pushed.get(child, 0) + count
            counts = pushed
        return sum(counts.values())

    def level_nodes(self, n, max_cubes=DEFAULT_MAX_CUBES):
        _check_level(n, self._count(n, max_cubes), max_cubes)
        while len(self._tables) <= n:
            self._tables.append(self._build_nodes(len(self._tables)))
        return self._tables[n]

    def _build_nodes(self, n) -> LevelNodes:
        """The level-n table, built after level n - 1: every row of level
        n - 1 expands to its state's children, at indices 2 index + branch."""
        level = self._level(n)
        if n == 0:
            index, state = index_array([(0,) * self.m], 0, self.m), np.zeros(1, dtype=np.intp)
        else:
            above, rows = self._tables[n - 1], self._rows
            nodes = self.template
            kid = np.array([s for row in level.edges for s in row], dtype=np.intp)
            branch = index_array([bits for node, _ in self._levels[n - 1].states
                                  for _, _, bits in nodes[node].children], n, self.m)
            first = np.cumsum([0] + [len(row) for row in level.edges])
            width = np.diff(first)[rows]
            start = np.cumsum(width) - width
            edge = np.arange(width.sum()) - np.repeat(start - first[rows], width)
            index = np.repeat(above.index, width, axis=0).astype(branch.dtype, copy=False) * 2
            index += branch[edge]
            state = kid[edge]
            order = np.argsort(packed_keys(index, n), kind="stable")
            index, state = index[order], state[order]
        self._rows = state
        mass_id = np.array([j for _, j in level.states], dtype=np.intp)[state]
        index.flags.writeable = mass_id.flags.writeable = False  # cached, shared
        return LevelNodes(index, mass_id, tuple(level.multiset))

    def to_spec(self) -> dict:
        spec = {
            "type": "ifs",
            "m": self.m,
            "maps": [
                {"ratio_log2": mp.ratio_log2, "offset": list(mp.offset)}
                for mp in self.maps
            ],
            "probs": [str(p) for p in self.probs],
        }
        if self.embed_shift is not None:
            spec["embed_shift"] = {
                "ratio_log2": self.embed_shift.ratio_log2,
                "offset": list(self.embed_shift.offset),
            }
        return spec


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

    def to_spec(self) -> dict:
        return {"type": "uniform", "m": self.m, "support": str(self.support)}


class ProductMeasure(MeasureModel):
    """Product of independent lower-dimensional models."""

    def __init__(self, factors) -> None:
        factors = tuple(factors)
        if not factors:
            raise ValidationError("product measure needs at least one factor")
        self.factors = factors
        self.m = sum(f.m for f in factors)
        self.finite_support = all(f.finite_support for f in factors)

    def root_node(self) -> tuple:
        return tuple(f.root_node() for f in self.factors)

    def edges(self, node: tuple) -> list[tuple[tuple, Mass, tuple[int, ...]]]:
        # the factors' trees side by side: one edge per tuple of factor edges
        return [(tuple(e[0] for e in combo), math.prod(e[1] for e in combo),
                 sum((e[2] for e in combo), ()))
                for combo in itertools.product(*(f.edges(v) for f, v in zip(self.factors, node)))]

    def level_nodes(self, n, max_cubes=DEFAULT_MAX_CUBES):
        # a factor's count exceeds max_cubes only if the product's does
        tables = [f.level_nodes(n, max_cubes) for f in self.factors]
        _check_level(n, math.prod(len(t.index) for t in tables), max_cubes)
        # product row r is row rows[i][r] of factor i; rows run in index order
        rows = np.indices([len(t.index) for t in tables]).reshape(len(tables), -1)
        ids: dict[Mass, int] = {}
        remap = [ids.setdefault(math.prod(mus), len(ids))
                 for mus in itertools.product(*(t.masses for t in tables))]
        combo = np.ravel_multi_index([t.mass_id[r] for t, r in zip(tables, rows)],
                                     [len(t.masses) for t in tables])
        index = np.hstack([t.index[r] for t, r in zip(tables, rows)])
        return LevelNodes(index, np.array(remap, dtype=np.intp)[combo], tuple(ids))

    def level_masses(self, n, max_cubes=DEFAULT_MAX_CUBES):
        out = {Fraction(1): 1}
        for f in self.factors:
            sub = f.level_masses(n, max_cubes)
            nxt: dict[Mass, int] = {}
            for a, ca in out.items():
                for b, cb in sub.items():
                    key = a * b
                    nxt[key] = nxt.get(key, 0) + ca * cb
            out = nxt
            _check_masses(n, len(out), max_cubes)
        return out

    def to_spec(self) -> dict:
        return {"type": "product", "factors": [f.to_spec() for f in self.factors]}


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
        raise ParseError(f"measure spec field {field}: expected an integer, got {number}")
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
    """UTF-8 text, after a byte-order mark if there is one."""
    try:
        return data.decode("utf-8-sig")
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
    except json.JSONDecodeError as exc:
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
    one point) is read without a `Fraction`, as (digits, 10^decimals)."""
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


def ingest_points(rows, weight_column=None, name: str = "CSV input") -> AtomicMeasure:
    """Build an atomic model from CSV rows of coordinates in (0,1).

    `rows` is bytes (UTF-8, with or without a byte-order mark; bytes that
    are not are a ParseError naming `name` and the offset), text, or an
    iterable of lines such as a text file; text and the first line may start
    with a byte-order mark too. A field is a number if `Fraction` accepts it
    after `strip()`; a first row with a field that is not is a header. Plain
    decimals, the common case, are read straight to integers, and the model
    is built by the integer core of `AtomicMeasure` without a `Fraction`
    per field.

    `weight_column` may be a header name or a 0-based column index, given as
    an int or as a string of digits that names no header column (so headerless
    input can carry weights too); without it every point gets weight 1/N.
    Weights are normalized to total mass 1. An index beyond a row's last field
    is a ParseError.
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
    # rows are read one at a time, and the first data row is parsed once
    records = (row for row in csv.reader(rows) if any(map(str.strip, row)))
    row = next(records, None)
    if row is None:
        raise ParseError("no data rows in CSV input")
    first = [_parse_field(tok) for tok in row]
    header = None
    if None in first:
        header = [tok.strip() for tok in row]
        row = next(records, None)
        if row is None:
            raise ParseError("CSV input has a header but no data rows")
        first = [_parse_field(tok) for tok in row]

    widx = None
    if weight_column is not None:
        if header is not None and weight_column in header:
            widx = header.index(weight_column)
        elif str(weight_column).strip().isdecimal():
            widx = int(weight_column)
        else:
            raise ParseError(f"weight column {weight_column!r} not found in header")

    def atoms():
        # parsed as the core checks them, so each error names the first
        # row that has one
        for lineno, tokens in enumerate(itertools.chain([row], records), start=1):
            if widx is not None and widx >= len(tokens):
                raise ParseError(
                    f"weight column {widx} is beyond the {len(tokens)} fields of CSV row {lineno}"
                )
            fields = first if lineno == 1 else [_parse_field(tok) for tok in tokens]
            if None in fields:
                tok = tokens[fields.index(None)]
                raise ParseError(f"non-numeric field {tok!r} in CSV row {lineno}")
            weight = (1, 1) if widx is None else fields.pop(widx)
            yield fields, weight

    model = AtomicMeasure.__new__(AtomicMeasure)
    model._set_atoms(atoms(), csv_rows=True)
    return model
