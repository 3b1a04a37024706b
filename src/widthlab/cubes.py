"""Exact integer arithmetic for half-open dyadic cubes in the unit cube.

A level-n cube is prod_i (l_i * 2^-n, (l_i + 1) * 2^-n] with integer index
vector l. All geometry is carried by (level, index) pairs; no floating point
enters membership or adjacency decisions, so parent/child/neighbor logic stays
exact at any depth.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError, ValidationError


# the unchecked constructor of the records below: _new(DyadicCube, (level,
# index)) for an index known to be valid at that level
_new = tuple.__new__


class _Cube(NamedTuple):
    level: int
    index: tuple[int, ...]


class DyadicCube(_Cube):
    """Half-open dyadic cube (l * 2^-n, (l+1) * 2^-n] per coordinate.

    The constructor checks the level and every index against 2^level. A cube
    derived from a valid one (`child`, `parent`, `ancestor`) is built by
    `_new` without the check."""

    __slots__ = ()

    def __new__(cls, level: int, index: tuple[int, ...]) -> "DyadicCube":
        if level < 0:
            raise ValidationError(f"cube level must be >= 0, got {level}")
        if not index:
            raise ValidationError("cube index must have at least one coordinate")
        bound = 1 << level
        for l in index:
            if not 0 <= l < bound:
                raise ValidationError(f"cube index {index} out of range at level {level}")
        return _new(cls, (level, index))

    @property
    def m(self) -> int:
        return len(self.index)

    @property
    def side(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    @property
    def volume(self) -> Fraction:
        return Fraction(1, 1 << (self.level * self.m))

    def lower(self) -> tuple[Fraction, ...]:
        s = self.side
        return tuple(l * s for l in self.index)

    def upper(self) -> tuple[Fraction, ...]:
        s = self.side
        return tuple((l + 1) * s for l in self.index)

    def center(self) -> tuple[Fraction, ...]:
        s = self.side
        return tuple(Fraction(2 * l + 1, 1) * s / 2 for l in self.index)

    def contains(self, point) -> bool:
        """Strict lower bound, inclusive upper bound (half-open convention)."""
        s = self.side
        for l, x in zip(self.index, point):
            x = Fraction(x)
            if not l * s < x <= (l + 1) * s:
                return False
        return True

    def parent(self) -> "DyadicCube":
        if self.level == 0:
            raise ValidationError("root cube has no parent")
        return _new(DyadicCube, (self.level - 1, tuple(l >> 1 for l in self.index)))

    def child(self, branch: tuple[int, ...]) -> "DyadicCube":
        return _new(DyadicCube,
                    (self.level + 1, tuple(2 * l + b for l, b in zip(self.index, branch))))

    def ancestor(self, level: int) -> "DyadicCube":
        """The level-`level` cube containing this one (level <= self.level)."""
        if level > self.level:
            raise ValidationError("ancestor level must not exceed cube level")
        if level < 0:
            raise ValidationError(f"cube level must be >= 0, got {level}")
        shift = self.level - level
        return _new(DyadicCube, (level, tuple(l >> shift for l in self.index)))

    def __str__(self) -> str:
        return format_cube(self)


def root(m: int) -> DyadicCube:
    """The unit cube (0, 1]^m as the level-0 cube."""
    if m < 1:
        raise ValidationError(f"dimension must be >= 1, got {m}")
    return DyadicCube(0, (0,) * m)


def children(cube: DyadicCube) -> list[DyadicCube]:
    """All 2^m level-(n+1) cubes contained in `cube`, in lexicographic order."""
    return [
        cube.child(branch)
        for branch in itertools.product((0, 1), repeat=cube.m)
    ]


def neighbors(cube: DyadicCube) -> list[DyadicCube]:
    """Same-level cubes inside the unit cube whose closures touch `cube`.

    Includes the cube itself; cardinality is at most 3^m.
    """
    bound = 1 << cube.level
    ranges = []
    for l in cube.index:
        ranges.append([d for d in (l - 1, l, l + 1) if 0 <= d < bound])
    return [DyadicCube(cube.level, idx) for idx in itertools.product(*ranges)]


class _Box(NamedTuple):
    center: tuple[Fraction, ...]
    half_width: Fraction


class Box(_Box):
    """Closed axis-parallel box; may leave the unit cube."""

    __slots__ = ()

    def __new__(cls, center: tuple[Fraction, ...], half_width: Fraction) -> "Box":
        if half_width <= 0:
            raise ValidationError("box half_width must be positive")
        return _new(cls, (center, half_width))

    @property
    def m(self) -> int:
        return len(self.center)

    def lower(self) -> tuple[Fraction, ...]:
        return tuple(c - self.half_width for c in self.center)

    def upper(self) -> tuple[Fraction, ...]:
        return tuple(c + self.half_width for c in self.center)

    def interior_intersects(self, other: "Box") -> bool:
        return all(
            abs(c1 - c2) < self.half_width + other.half_width
            for c1, c2 in zip(self.center, other.center)
        )

    def contains_closed(self, point) -> bool:
        return all(
            c - self.half_width <= Fraction(x) <= c + self.half_width
            for c, x in zip(self.center, point)
        )

    def inside_unit_cube(self) -> bool:
        return all(
            0 <= c - self.half_width and c + self.half_width <= 1
            for c in self.center
        )


def scaled_box(cube: DyadicCube, r) -> Box:
    """Concentric box with side r times the cube's side length."""
    r = Fraction(r)
    if r <= 0:
        raise ValidationError("scale factor must be positive")
    return Box(cube.center(), r * cube.side / 2)


def format_cube(cube: DyadicCube) -> str:
    """Serialize as "n:l1,l2,...,lm"."""
    return f"{cube.level}:{','.join(str(l) for l in cube.index)}"


def parse_cube(text: str) -> DyadicCube:
    """Parse the "n:l1,l2,...,lm" serialization."""
    try:
        level_part, index_part = text.strip().split(":")
        level = int(level_part)
        index = tuple(int(tok) for tok in index_part.split(","))
    except (ValueError, AttributeError) as exc:
        raise ParseError(f"bad cube serialization {text!r}") from exc
    return DyadicCube(level, index)
