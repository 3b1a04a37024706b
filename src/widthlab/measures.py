"""Borel probability measures on the unit cube with exact dyadic-cube masses.

Four model families are supported, all with exactly computable cube masses:
atomic measures, normalized Lebesgue on a dyadic cube, dyadically aligned
self-similar (IFS) measures, and products of lower-dimensional models.
Masses are kept as `fractions.Fraction` throughout; probabilities written as
decimals in spec files parse exactly, so no floating-point fallback is needed.

Each family builds a level's positive cubes in bulk, without the mass
oracle, as a node table (`LevelNodes`): their indices in lexicographic order
and, for each, an id into the level's distinct exact masses. The table is the
only enumeration; `enumerate_positive` and the default `level_masses` read it.
Atomic tables group the atoms by their exact indices ceil(x 2^n) - 1 and sum
their weights as integers over one common denominator, uniform
ones are an index grid, and a product pairs every row of each factor's table
with every row of the others', its mass ids remapped through the products.

Every model answers the tree of its positive cubes natively (`root_node`,
`edges`): each edge gives a child's node, its mass ratio to the parent and
its branch bits. `mass` is one walk of that tree, one edge per level down
from the root, and the J_rho partitions walk it too. An IFS is encoded once,
by its finite template (`IfsMeasure.template`, the state classes of Cawley &
Mauldin 1992): the images are disjoint, so every positive cube is a copy of
a template node, and its state (node, exact mass) fixes its whole subtree;
a level's multiset and node table expand the cached states of the level
above, and the cube count pushes integers per node. A uniform measure is
the simplest such template: a chain down to its support, then one node
whose 2^m children are itself. An atomic node is a level and the atoms in
its cube, split among the children by the rule of its node table, and a
product pairs the factors' trees.

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

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
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
    """A node of an IFS or uniform template: its positive children in index
    order as (node, ratio, branch) edges. The child cube is the parent's
    child `branch` (one bit per coordinate, its index 2 index + branch), its
    subtree is that node's, and its mass is the parent's times ratio."""

    children: tuple[tuple[int, Mass, tuple[int, ...]], ...]


class _Level(NamedTuple):
    """The states of an IFS level in id order, as (template node, id among
    the level's distinct masses), with their cube counts; the multiset
    {mass: count}, its masses in id order; and, per state of the level
    above, its children's state ids in edge order."""

    states: list[tuple[int, int]]
    counts: list[int]
    multiset: dict[Mass, int]
    edges: list[list[int]]


def _index_array(rows, n: int, m: int) -> np.ndarray:
    """(N, m) array of level-n indices, exact at every level."""
    dtype = np.int64 if n < INT64_LEVELS else object
    return np.array(rows, dtype=dtype).reshape(len(rows), m)


def _translate(index: np.ndarray, offset, shift: int, n: int) -> np.ndarray:
    """Level-n indices index + (offset << shift), exact at every level."""
    delta = _index_array([[o << shift for o in offset]], n, len(offset))
    return index.astype(delta.dtype) + delta


def packed_keys(index: np.ndarray, level: int) -> np.ndarray:
    """One exact integer per row of level-`level` indices (N, m): the
    coordinates side by side, `level` bits each, as int64 while
    level * m <= PACKED_KEY_BITS and as Python ints beyond, so keys order
    rows lexicographically. A row with a coordinate outside [0, 2^level)
    packs to -1, the key of no cube."""
    inside = ((index >= 0) & (index < (1 << level))).all(axis=1)
    wide = level * index.shape[1] > PACKED_KEY_BITS
    coords = np.where(inside[:, None], index, 0).astype(object if wide else np.int64)
    keys = coords[:, 0]
    for column in coords.T[1:]:
        keys = (keys << level) | column
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
    family builds in bulk without the mass oracle."""

    m: int
    finite_support = False

    def mass(self, cube: DyadicCube) -> Mass:
        # one edge per level down from the root; a cube of another dimension
        # lies outside the model
        node, mu = self.root_node(), Fraction(cube.m == self.m)
        for shift in range(cube.level - 1, -1, -1):
            branch = tuple(l >> shift & 1 for l in cube.index)
            edge = next((e for e in self.edges(node) if e[2] == branch), None)
            if edge is None:
                return Fraction(0)
            node, mu = edge[0], mu * edge[1]
        return mu

    def root_node(self):
        """The node of the unit cube; by default node 0 of `template`."""
        return 0

    def edges(self, node) -> tuple[tuple[object, Mass, tuple[int, ...]], ...]:
        """A node's positive children in index order as (node, mass ratio
        child/parent, branch bits); by default its `template` node's."""
        return self.template[node].children

    def level_nodes(self, n: int, max_cubes: int = DEFAULT_MAX_CUBES) -> LevelNodes:
        """The node table of the level-n positive cubes."""
        raise NotImplementedError

    def enumerate_positive(
        self, n: int, max_cubes: int = DEFAULT_MAX_CUBES
    ) -> list[tuple[DyadicCube, Mass]]:
        """All level-n cubes of positive mass, in index order, with their masses."""
        index, mass_id, masses = self.level_nodes(n, max_cubes)
        return [
            (DyadicCube(n, tuple(row)), masses[j])
            for row, j in zip(index.tolist(), mass_id.tolist())
        ]

    def level_masses(self, n: int, max_cubes: int = DEFAULT_MAX_CUBES) -> dict[Mass, int]:
        """Multiset {mass: count} over the level-n positive cubes.

        Subclasses override this with closed forms where the level would be
        too large to tabulate; the default counts the node table's mass ids.
        """
        _, mass_id, masses = self.level_nodes(n, max_cubes)
        return dict(zip(masses, np.bincount(mass_id, minlength=len(masses)).tolist()))

    def card_positive(self, n: int, max_cubes: int = DEFAULT_MAX_CUBES) -> int:
        return sum(self.level_masses(n, max_cubes).values())

    def to_spec(self) -> dict:
        raise NotImplementedError


class AtomicMeasure(MeasureModel):
    """Finitely many atoms in the open unit cube.

    Finite support makes the asymptotic quantities degenerate (all box
    dimensions are 0); reports downstream flag this.
    """

    finite_support = True

    def __init__(self, points, weights) -> None:
        pts = [tuple(x if isinstance(x, Fraction) else Fraction(x) for x in p) for p in points]
        wts = [w if isinstance(w, Fraction) else Fraction(w) for w in weights]
        if not pts:
            raise ValidationError("atomic measure needs at least one point")
        if len(pts) != len(wts):
            raise ValidationError("points and weights length mismatch")
        m = len(pts[0])
        for p in pts:
            if len(p) != m:
                raise ValidationError("inconsistent point dimensions")
            if not all(0 < x < 1 for x in p):
                raise ValidationError(
                    f"atomic point {tuple(map(str, p))} not in the open unit cube"
                )
        if any(w <= 0 for w in wts):
            raise ValidationError("atomic weights must be positive")
        if sum(wts) != 1:
            raise ValidationError(
                f"atomic weights sum to {sum(wts)}, not a probability measure"
            )
        self.m = m
        self.points = tuple(pts)
        self.weights = tuple(wts)
        # the weights as integer units over their common denominator, so
        # grouping atoms sums ints and builds one Fraction per distinct mass
        self._den = math.lcm(*(w.denominator for w in wts))
        self._units = tuple(w.numerator * (self._den // w.denominator) for w in wts)

    def root_node(self) -> tuple[int, tuple[int, ...]]:
        return 0, tuple(range(len(self.points)))

    def edges(self, node):
        # a node is (level L, ids of its atoms); an atom goes to the child of
        # bits ceil(x 2^(L+1)) - 1 & 1, the rule of level_nodes
        level, ids = node
        scale = 1 << (level + 1)
        groups: dict[tuple[int, ...], list[int]] = {}
        for i in ids:
            bits = tuple((-(-x.numerator * scale // x.denominator) - 1) & 1 for x in self.points[i])
            groups.setdefault(bits, []).append(i)
        units = self._units
        kids = [(bits, tuple(group), sum(units[i] for i in group))
                for bits, group in sorted(groups.items())]
        total = sum(u for _, _, u in kids)
        return [((level + 1, group), Fraction(u, total), bits) for bits, group, u in kids]

    def level_nodes(self, n, max_cubes=DEFAULT_MAX_CUBES):
        _check_level(n)
        # x in (0, 1) lies in the level-n cube of index ceil(x 2^n) - 1, exactly
        scale = 1 << n
        groups: dict[tuple[int, ...], int] = {}  # index -> mass in units
        for p, u in zip(self.points, self._units):
            key = tuple(-(-x.numerator * scale // x.denominator) - 1 for x in p)
            groups[key] = groups.get(key, 0) + u
        _check_level(n, len(groups), max_cubes)
        keys = sorted(groups)
        ids: dict[int, int] = {}
        mass_id = np.array([ids.setdefault(groups[k], len(ids)) for k in keys], dtype=np.intp)
        return LevelNodes(_index_array(keys, n, self.m), mass_id,
                          tuple(Fraction(u, self._den) for u in ids))

    def to_spec(self) -> dict:
        return {
            "type": "atomic",
            "m": self.m,
            "points": [[str(x) for x in p] for p in self.points],
            "weights": [str(w) for w in self.weights],
        }


class UniformMeasure(MeasureModel):
    """Normalized Lebesgue measure restricted to a dyadic cube."""

    def __init__(self, support: DyadicCube) -> None:
        self.support = support
        self.m = support.m
        # the chain down to the support, then its node, whose 2^m children are itself
        ratio = Fraction(1, 1 << self.m)
        self.template = (*_chain(support), TemplateNode(tuple(
            (support.level, ratio, bits) for bits in itertools.product((0, 1), repeat=self.m))))

    def level_masses(self, n, max_cubes=DEFAULT_MAX_CUBES):
        _check_level(n)
        k = max(n - self.support.level, 0) * self.m
        return {Fraction(1, 1 << k): 1 << k}

    def level_nodes(self, n, max_cubes=DEFAULT_MAX_CUBES):
        s = self.support
        shift = max(n - s.level, 0)
        _check_level(n, 1 << (shift * self.m), max_cubes)
        grid = np.indices((1 << shift,) * self.m).reshape(self.m, -1).T
        index = _translate(grid, s.ancestor(min(n, s.level)).index, shift, n)
        mu = Fraction(1, 1 << (shift * self.m))
        return LevelNodes(index, np.zeros(len(index), dtype=np.intp), (mu,))

    def to_spec(self) -> dict:
        return {"type": "uniform", "m": self.m, "support": str(self.support)}


@dataclass(frozen=True)
class IfsMap:
    """Similarity with contraction 2^-ratio_log2 onto a dyadic image cube."""

    ratio_log2: int
    offset: tuple[int, ...]

    def __post_init__(self):
        if self.ratio_log2 < 1:
            raise ValidationError("ratio_log2 must be a positive integer")

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
    read `template`: they push states (template node, cube mass) through it,
    one level at a time, and keep no per-cube memo.
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
        self._levels = [_Level([(0, 0)], [1], {Fraction(1): 1}, [])]
        self._tables: list[LevelNodes] = []
        self._rows: np.ndarray | None = None  # the state of each row of the deepest table

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
        levels, nodes = self._levels, self.template
        while len(levels) <= n:
            above = levels[-1]
            masses = tuple(above.multiset)
            mass_id: dict[Mass, int] = {}
            state_id: dict[tuple[int, int], int] = {}
            counts, edges = [], []
            for (node, j), count in zip(above.states, above.counts):
                mu, row = masses[j], []
                for child, ratio, _ in nodes[node].children:
                    s = state_id.setdefault((child, mass_id.setdefault(mu * ratio, len(mass_id))),
                                            len(counts))
                    if s == len(counts):
                        counts.append(0)
                    counts[s] += count
                    row.append(s)
                edges.append(row)
                if len(levels) == n:
                    _check_masses(n, len(mass_id), max_masses)
            multiset = [0] * len(mass_id)
            for (_, j), count in zip(state_id, counts):
                multiset[j] += count
            levels.append(_Level(list(state_id), counts, dict(zip(mass_id, multiset)), edges))
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
            index, state = _index_array([(0,) * self.m], 0, self.m), np.zeros(1, dtype=np.intp)
        else:
            above, rows = self._tables[n - 1], self._rows
            nodes = self.template
            kid = np.array([s for row in level.edges for s in row], dtype=np.intp)
            branch = _index_array([bits for node, _ in self._levels[n - 1].states
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # json parse hook normally yields Fractions; floats only appear when a
        # model is built programmatically, where exactness is the caller's call.
        return Fraction(value).limit_denominator(10**15)
    raise ParseError(f"expected a number, got {value!r}")


def _model_from_dict(doc: dict) -> MeasureModel:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError("measure spec must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "atomic":
        return AtomicMeasure(
            [[_as_fraction(x) for x in p] for p in doc["points"]],
            [_as_fraction(w) for w in doc["weights"]],
        )
    if kind == "uniform":
        support = doc["support"]
        cube = parse_cube(support) if isinstance(support, str) else support
        return UniformMeasure(cube)
    if kind == "ifs":
        maps = [
            IfsMap(int(mp["ratio_log2"]), tuple(int(o) for o in mp["offset"]))
            for mp in doc["maps"]
        ]
        shift = None
        if doc.get("embed_shift") is not None:
            es = doc["embed_shift"]
            shift = IfsMap(int(es["ratio_log2"]), tuple(int(o) for o in es["offset"]))
        return IfsMeasure(maps, [_as_fraction(p) for p in doc["probs"]], shift)
    if kind == "product":
        return ProductMeasure([_model_from_dict(f) for f in doc["factors"]])
    raise ParseError(f"unknown measure type {kind!r}")


def load_measure(source) -> MeasureModel:
    """Parse and validate a measure-spec document (JSON).

    Accepts bytes, str, or a readable file object. Decimal numbers parse as
    exact rationals.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source, parse_float=Fraction, parse_int=int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in measure spec: {exc}") from exc
    model = _model_from_dict(doc)
    m_declared = doc.get("m")
    if m_declared is not None and int(m_declared) != model.m:
        raise ParseError(
            f"declared dimension m={m_declared} does not match model dimension {model.m}"
        )
    return model


def _looks_numeric(token: str) -> bool:
    try:
        Fraction(token.strip())
        return True
    except (ValueError, ZeroDivisionError):
        return False


def ingest_points(rows, weight_column=None) -> AtomicMeasure:
    """Build an atomic model from CSV rows of coordinates in (0,1).

    `weight_column` may be a header name or a 0-based column index, given as
    an int or as a string of digits that names no header column (so headerless
    input can carry weights too); without it every point gets weight 1/N.
    Weights are normalized to total mass 1. An index beyond a row's last field
    is a ParseError.
    """
    if isinstance(rows, (str, bytes)):
        rows = io.StringIO(rows.decode() if isinstance(rows, bytes) else rows)
    reader = csv.reader(rows)
    records = [row for row in reader if any(tok.strip() for tok in row)]
    if not records:
        raise ParseError("no data rows in CSV input")

    header = None
    if not all(_looks_numeric(tok) for tok in records[0]):
        header = [tok.strip() for tok in records[0]]
        records = records[1:]
        if not records:
            raise ParseError("CSV input has a header but no data rows")

    widx = None
    if weight_column is not None:
        if header is not None and weight_column in header:
            widx = header.index(weight_column)
        elif str(weight_column).strip().isdecimal():
            widx = int(weight_column)
        else:
            raise ParseError(f"weight column {weight_column!r} not found in header")

    points, weights = [], []
    for lineno, row in enumerate(records, start=1):
        if widx is not None and widx >= len(row):
            raise ParseError(
                f"weight column {widx} is beyond the {len(row)} fields of CSV row {lineno}"
            )
        coords = []
        for j, tok in enumerate(row):
            try:
                value = Fraction(tok.strip())
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"non-numeric field {tok!r} in CSV row {lineno}") from None
            if j == widx:
                if value <= 0:
                    raise ValidationError(f"non-positive weight in CSV row {lineno}")
                weights.append(value)
            else:
                coords.append(value)
        for x in coords:
            if not 0 < x < 1:
                raise ValidationError(
                    f"coordinate {x} in CSV row {lineno} not inside the open unit cube"
                )
        points.append(coords)
    if widx is None:
        n = len(points)
        weights = [Fraction(1, n)] * n
    if len(weights) != len(points):
        raise ParseError("weight column missing in some CSV rows")
    total = sum(weights)
    weights = [w / total for w in weights]
    return AtomicMeasure(points, weights)
