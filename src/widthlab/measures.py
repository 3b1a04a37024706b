"""Borel probability measures on the unit cube with exact dyadic-cube masses.

Four model families are supported, all with exactly computable cube masses:
atomic measures, normalized Lebesgue on a dyadic cube, dyadically aligned
self-similar (IFS) measures, and products of lower-dimensional models.
Masses are kept as `fractions.Fraction` throughout; probabilities written as
decimals in spec files parse exactly, so no floating-point fallback is needed.

An IFS level-n multiset {mass: count} needs no tree walk, n = 0 included:
the images are disjoint, so a positive level-n cube either lies in an image of
level k <= n, with mass p times a mass of the level-(n - k) multiset, or holds
deeper images only, with mass the sum of their p (Cawley & Mauldin 1992).

The same rule builds the cubes themselves, in bulk: an IFS level's node table
(`LevelNodes`, built once per level and cached) holds the indices of its
positive cubes in lexicographic order and, for each, an id into the level's
distinct exact masses. An image of level k <= n contributes the level-(n - k)
table translated into the image, with its mass ids remapped through p * mu; no
cube is built and no mass is queried. Before a table is built, the level's
cube count (the sum of its multiset counts, counted in integers by the same
rule) is checked against `max_cubes`, cached level or not, with the message of
the cube-by-cube descent; the two caps agree because level counts never
decrease, and an oversized level builds no multiset. Indices are int64 up to
level 62 and Python ints from level 63 on (INT64_LEVELS), so they, and the
centres (2 l + 1) 2^-(n+1) computed from them, stay exact at every level.

Models are immutable after construction. Mass evaluation is pure; the IFS
memo tables are plain dicts guarded by the GIL, safe for concurrent readers.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cubes import DyadicCube, children, parse_cube, root
from .errors import ParseError, ResourceLimitError, ValidationError

DEFAULT_MAX_CUBES = 1 << 21
# int64 holds a level-n index l, and 2 l + 1, only below this level
INT64_LEVELS = 63

Mass = Fraction


class LevelNodes(NamedTuple):
    """The positive level-n cubes in lexicographic index order: their integer
    indices (N, m), int64 below level INT64_LEVELS and Python ints from it on,
    and for each cube an id into `masses`, the distinct exact masses."""

    index: np.ndarray
    mass_id: np.ndarray
    masses: tuple[Mass, ...]


def _index_array(rows, n: int, m: int) -> np.ndarray:
    """(N, m) array of level-n indices, exact at every level."""
    dtype = np.int64 if n < INT64_LEVELS else object
    return np.array(rows, dtype=dtype).reshape(len(rows), m)


def _translate(index: np.ndarray, offset, shift: int, n: int) -> np.ndarray:
    """Level-n indices index + (offset << shift), exact at every level."""
    delta = _index_array([[o << shift for o in offset]], n, len(offset))
    return index.astype(delta.dtype) + delta


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def cube_of_point(point, n: int) -> DyadicCube:
    """The level-n cube containing a point of the half-open unit cube."""
    scale = 1 << n
    index = tuple(_ceil_frac(Fraction(x) * scale) - 1 for x in point)
    return DyadicCube(n, index)


class MeasureModel:
    """Common interface: exact mass of dyadic cubes plus pruned enumeration."""

    m: int
    finite_support = False

    def mass(self, cube: DyadicCube) -> Mass:
        raise NotImplementedError

    def positive_children(self, cube: DyadicCube) -> list[tuple[DyadicCube, Mass]]:
        out = []
        for child in children(cube):
            mu = self.mass(child)
            if mu > 0:
                out.append((child, mu))
        return out

    def enumerate_positive(
        self, n: int, max_cubes: int = DEFAULT_MAX_CUBES
    ) -> list[tuple[DyadicCube, Mass]]:
        """All level-n cubes of positive mass, by pruned tree descent."""
        if n < 0:
            raise ValidationError("level must be >= 0")
        frontier = [(root(self.m), Fraction(1))]
        for _ in range(n):
            nxt = []
            for cube, _ in frontier:
                nxt.extend(self.positive_children(cube))
                if len(nxt) > max_cubes:
                    raise ResourceLimitError(
                        f"more than {max_cubes} positive cubes at level {n}"
                    )
            frontier = nxt
        frontier.sort(key=lambda cm: cm[0].index)
        return frontier

    def level_nodes(self, n: int, max_cubes: int = DEFAULT_MAX_CUBES) -> LevelNodes:
        """The node table of the level-n positive cubes; the default groups
        the masses of `enumerate_positive`."""
        positive = self.enumerate_positive(n, max_cubes)
        ids: dict[Mass, int] = {}
        mass_id = np.array([ids.setdefault(mu, len(ids)) for _, mu in positive], dtype=np.intp)
        index = _index_array([cube.index for cube, _ in positive], n, self.m)
        return LevelNodes(index, mass_id, tuple(ids))

    def level_masses(self, n: int, max_cubes: int = DEFAULT_MAX_CUBES) -> dict[Mass, int]:
        """Multiset {mass: count} over the level-n positive cubes.

        Subclasses override this with closed forms where the tree would be
        too large to walk; the default just groups the enumeration.
        """
        out: dict[Mass, int] = {}
        for _, mu in self.enumerate_positive(n, max_cubes):
            out[mu] = out.get(mu, 0) + 1
        return out

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
        pts = [tuple(Fraction(x) for x in p) for p in points]
        wts = [Fraction(w) for w in weights]
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

    def mass(self, cube: DyadicCube) -> Mass:
        return sum(
            (w for p, w in zip(self.points, self.weights) if cube.contains(p)),
            Fraction(0),
        )

    def enumerate_positive(self, n, max_cubes=DEFAULT_MAX_CUBES):
        agg: dict[DyadicCube, Fraction] = {}
        for p, w in zip(self.points, self.weights):
            cube = cube_of_point(p, n)
            agg[cube] = agg.get(cube, Fraction(0)) + w
        return sorted(agg.items(), key=lambda cm: cm[0].index)

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

    def mass(self, cube: DyadicCube) -> Mass:
        s = self.support
        if cube.level >= s.level:
            if cube.ancestor(s.level) == s:
                return Fraction(1, 1 << ((cube.level - s.level) * self.m))
            return Fraction(0)
        if s.ancestor(cube.level) == cube:
            return Fraction(1)
        return Fraction(0)

    def level_masses(self, n, max_cubes=DEFAULT_MAX_CUBES):
        s = self.support
        if n <= s.level:
            return {Fraction(1): 1}
        k = (n - s.level) * self.m
        return {Fraction(1, 1 << k): 1 << k}

    def enumerate_positive(self, n, max_cubes=DEFAULT_MAX_CUBES):
        s = self.support
        if n <= s.level:
            return [(s.ancestor(n), Fraction(1))]
        if (1 << ((n - s.level) * self.m)) > max_cubes:
            raise ResourceLimitError(
                f"more than {max_cubes} positive cubes at level {n}"
            )
        shift = n - s.level
        mu = Fraction(1, 1 << (shift * self.m))
        ranges = [range(l << shift, (l + 1) << shift) for l in s.index]
        return [(DyadicCube(n, idx), mu) for idx in itertools.product(*ranges)]

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


def _dyadic_disjoint(a: DyadicCube, b: DyadicCube) -> bool:
    lo, hi = (a, b) if a.level <= b.level else (b, a)
    return hi.ancestor(lo.level) != lo


class IfsMeasure(MeasureModel):
    """Self-similar measure for dyadically aligned maps with disjoint images.

    nu = sum_i p_i * nu o S_i^{-1}; masses follow by finite recursion on the
    cube level, memoized. An optional embed_shift conjugates the attractor
    into a dyadic subcube so that it avoids the boundary of the unit cube.
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
        self._images = tuple(images)
        self._memo: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        self._multisets: dict[int, dict[Mass, int]] = {}
        self._tables: dict[int, LevelNodes] = {}

    @property
    def common_ratio_log2(self) -> int | None:
        ks = {mp.ratio_log2 for mp in self.maps}
        return ks.pop() if len(ks) == 1 else None

    def _pullback(self, cube: DyadicCube, image: DyadicCube) -> DyadicCube:
        shift = cube.level - image.level
        return DyadicCube(
            cube.level - image.level,
            tuple(l - (o << shift) for l, o in zip(cube.index, image.index)),
        )

    def _mass_base(self, cube: DyadicCube) -> Fraction:
        """Mass of the unshifted self-similar measure."""
        if cube.level == 0:
            return Fraction(1)
        key = (cube.level, cube.index)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        total = Fraction(0)
        for p, image in zip(self.probs, self._images):
            if cube.level <= image.level:
                if image.ancestor(cube.level) == cube:
                    total += p
            elif cube.ancestor(image.level) == image:
                total += p * self._mass_base(self._pullback(cube, image))
        self._memo[key] = total
        return total

    def mass(self, cube: DyadicCube) -> Mass:
        shift = self.embed_shift
        if shift is None:
            return self._mass_base(cube)
        img = shift.image()
        if cube.level <= img.level:
            return Fraction(1) if img.ancestor(cube.level) == cube else Fraction(0)
        if cube.ancestor(img.level) == img:
            return self._mass_base(self._pullback(cube, img))
        return Fraction(0)

    def _shift_level(self) -> int:
        return 0 if self.embed_shift is None else self.embed_shift.ratio_log2

    def level_masses(self, n, max_cubes=DEFAULT_MAX_CUBES):
        k = self._shift_level()
        if n < k:
            return {Fraction(1): 1}
        out = self._level_masses_base(n - k)
        # the multiset is the resource here (cached or not), not the cube count
        if len(out) > max_cubes:
            raise ResourceLimitError(f"more than {max_cubes} distinct masses at level {n}")
        return dict(out)

    def _holders(self, n) -> dict[tuple[int, ...], Fraction]:
        """{index: mass} of the level-n cubes that hold images deeper than n."""
        holders: dict[tuple[int, ...], Fraction] = {}
        for p, mp in zip(self.probs, self.maps):
            if mp.ratio_log2 > n:
                index = tuple(o >> (mp.ratio_log2 - n) for o in mp.offset)
                holders[index] = holders.get(index, Fraction(0)) + p
        return holders

    def _cached_level(self, n, cache: dict, build):
        """cache[n], building first every missing level it reads through the
        images, coarsest first, so no recursion grows with the level."""
        missing, todo = set(), [n]
        while todo:
            j = todo.pop()
            if j not in cache and j not in missing:
                missing.add(j)
                todo.extend(j - mp.ratio_log2 for mp in self.maps if mp.ratio_log2 <= j)
        for j in sorted(missing):
            cache[j] = build(j)
        return cache[n]

    def _level_masses_base(self, n):
        return self._cached_level(n, self._multisets, self._build_multiset)

    def _build_multiset(self, n):
        # the IFS multiset rule of the module docstring
        out = {}
        for p, mp in zip(self.probs, self.maps):
            if mp.ratio_log2 <= n:
                for mu, cnt in self._multisets[n - mp.ratio_log2].items():
                    out[p * mu] = out.get(p * mu, 0) + cnt
        for mu in self._holders(n).values():
            out[mu] = out.get(mu, 0) + 1
        return out

    def level_nodes(self, n, max_cubes=DEFAULT_MAX_CUBES):
        if n < 0:
            raise ValidationError("level must be >= 0")
        k = self._shift_level()
        count = 1 if n < k else self._count_base(n - k, max_cubes)
        if n > 0 and count > max_cubes:
            raise ResourceLimitError(f"more than {max_cubes} positive cubes at level {n}")
        shift = self.embed_shift
        if shift is None:
            return self._base_nodes(n)
        if n < k:
            holder = _index_array([[o >> (k - n) for o in shift.offset]], n, self.m)
            return LevelNodes(holder, np.zeros(1, dtype=np.intp), (Fraction(1),))
        base = self._base_nodes(n - k)
        return base._replace(index=_translate(base.index, shift.offset, n - k, n))

    def _count_base(self, n, max_cubes) -> int:
        """The level-n cube count of the multiset rule, in integers, level by
        level; a coarser level past max_cubes ends the count early (counts
        never decrease), so a cap trips before any multiset is built."""
        counts: list[int] = []
        for j in range(n + 1):
            inner = sum(counts[j - mp.ratio_log2] for mp in self.maps if mp.ratio_log2 <= j)
            counts.append(inner + len(self._holders(j)))
            if counts[j] > max_cubes:
                break
        return counts[-1]

    def _base_nodes(self, n) -> LevelNodes:
        return self._cached_level(n, self._tables, self._build_nodes)

    def _build_nodes(self, n) -> LevelNodes:
        # the multiset rule again, on (index, mass id) tables: an image of
        # level k <= n is the level-(n - k) table translated into the image,
        # its mass ids remapped through p * mu (one lookup per distinct mass),
        # and each holder cube adds one node
        masses = tuple(self._level_masses_base(n))
        ids = {mu: i for i, mu in enumerate(masses)}
        index, mass_id = [], []
        for p, mp in zip(self.probs, self.maps):
            k = mp.ratio_log2
            if k <= n:
                sub = self._tables[n - k]
                index.append(_translate(sub.index, mp.offset, n - k, n))
                remap = np.array([ids[p * mu] for mu in sub.masses], dtype=np.intp)
                mass_id.append(remap[sub.mass_id])
        holders = self._holders(n)
        if holders:
            index.append(_index_array(list(holders), n, self.m))
            mass_id.append(np.array([ids[mu] for mu in holders.values()], dtype=np.intp))
        index, mass_id = np.concatenate(index), np.concatenate(mass_id)
        order = np.lexsort(index.T[::-1])
        index, mass_id = index[order], mass_id[order]
        index.flags.writeable = mass_id.flags.writeable = False  # cached, shared
        return LevelNodes(index, mass_id, masses)

    def enumerate_positive(self, n, max_cubes=DEFAULT_MAX_CUBES):
        index, mass_id, masses = self.level_nodes(n, max_cubes)
        return [
            (DyadicCube(n, tuple(row)), masses[j])
            for row, j in zip(index.tolist(), mass_id.tolist())
        ]

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

    def _split(self, index: tuple[int, ...]):
        pos = 0
        for f in self.factors:
            yield f, index[pos : pos + f.m]
            pos += f.m

    def mass(self, cube: DyadicCube) -> Mass:
        total = Fraction(1)
        for f, idx in self._split(cube.index):
            total *= f.mass(DyadicCube(cube.level, idx))
            if total == 0:
                return Fraction(0)
        return total

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
            if len(out) > max_cubes:
                raise ResourceLimitError(
                    f"more than {max_cubes} distinct masses at level {n}"
                )
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
            if not _looks_numeric(tok):
                raise ParseError(f"non-numeric field {tok!r} in CSV row {lineno}")
            value = Fraction(tok.strip())
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
