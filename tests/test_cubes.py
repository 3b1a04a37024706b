from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from widthlab import DyadicCube, ValidationError, children, neighbors, root
from widthlab.cubes import format_cube, parse_cube

from oracles import contains, lower_corner, scaled_box, upper_corner


def test_children_binary_split_m1():
    q = root(1)
    kids = children(q)
    assert [str(c) for c in kids] == ["1:0", "1:1"]
    assert lower_corner(kids[0]) == (Fraction(0),) and upper_corner(kids[0]) == (Fraction(1, 2),)


def test_children_quadrants_m2():
    assert len(children(root(2))) == 4


def test_children_index_doubling():
    q = DyadicCube(2, (2,))  # (1/2, 3/4]
    kids = children(q)
    assert [c.index for c in kids] == [(4,), (5,)]
    assert upper_corner(kids[0]) == (Fraction(5, 8),)


def test_neighbors_interior_1d():
    q = DyadicCube(2, (1,))  # (1/4, 1/2]
    assert {c.index for c in neighbors(q)} == {(0,), (1,), (2,)}


def test_neighbors_boundary_cube():
    q = DyadicCube(1, (0,))
    assert {c.index for c in neighbors(q)} == {(0,), (1,)}


def test_neighbors_interior_m2_has_nine():
    q = DyadicCube(3, (3, 4))
    assert len(neighbors(q)) == 9


def test_scaled_box_examples():
    b = scaled_box(DyadicCube(2, (1,)), 3)
    assert b.center == (Fraction(3, 8),) and b.half_width == Fraction(3, 8)
    b1 = scaled_box(DyadicCube(2, (1,)), 1)
    assert b1.lower() == (Fraction(1, 4),) and b1.center[0] + b1.half_width == Fraction(1, 2)
    b5 = scaled_box(root(1), 5)
    assert b5.center == (Fraction(1, 2),) and b5.half_width == Fraction(5, 2)


def test_membership_half_open():
    q = DyadicCube(1, (0,))  # (0, 1/2]
    assert contains(q, (Fraction(1, 2),))
    assert not contains(q, (Fraction(0),))
    assert not contains(DyadicCube(1, (1,)), (Fraction(1, 2),))


def test_serialization_roundtrip():
    q = DyadicCube(5, (3, 17, 0))
    assert parse_cube(format_cube(q)) == q
    assert format_cube(q) == "5:3,17,0"


def test_index_out_of_range_rejected():
    with pytest.raises(ValidationError):
        DyadicCube(2, (4,))
    with pytest.raises(ValidationError):
        DyadicCube(-1, (0,))


cube_strategy = st.integers(1, 3).flatmap(
    lambda m: st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m),
        )
    )
).map(lambda t: DyadicCube(t[0], tuple(t[1])))


@given(cube_strategy)
def test_parent_child_roundtrip(cube):
    for child in children(cube):
        assert child.parent() == cube
    assert cube.side ** cube.m == Fraction(1, 1 << (cube.level * cube.m))


@given(cube_strategy)
def test_children_partition_parent(cube):
    kids = children(cube)
    assert len(kids) == 2**cube.m
    assert len(set(kids)) == len(kids)
    # shared-face points land in exactly one child (half-open convention)
    center = cube.center()
    containing = [c for c in kids if contains(c, center)]
    assert len(containing) == 1
    # children tile the parent: lower/upper corners line up
    assert all(contains(cube, c.center()) for c in kids)


@given(cube_strategy)
def test_neighbors_symmetric_and_bounded(cube):
    nbs = neighbors(cube)
    assert cube in nbs
    assert len(nbs) <= 3**cube.m
    for nb in nbs:
        assert cube in neighbors(nb)


@given(cube_strategy, st.integers(1, 7))
def test_scaled_box_geometry(cube, r):
    box = scaled_box(cube, r)
    assert box.center == cube.center()
    assert box.half_width == Fraction(r) * cube.side / 2
    upper = (c + box.half_width for c in box.center)
    assert all(lo <= c <= hi for lo, c, hi in zip(box.lower(), cube.center(), upper))
