from fractions import Fraction

import pytest

from widthlab import IfsMap, IfsMeasure, lebesgue


@pytest.fixture(scope="session")
def tetrahedron():
    """Sierpinski-tetrahedron style model: m=3, four half-ratio maps."""
    return IfsMeasure(
        [
            IfsMap(1, (0, 0, 0)),
            IfsMap(1, (1, 1, 0)),
            IfsMap(1, (1, 0, 1)),
            IfsMap(1, (0, 1, 1)),
        ],
        [Fraction("0.599"), Fraction("0.3"), Fraction("0.001"), Fraction("0.1")],
    )


@pytest.fixture(scope="session")
def quarter_cantor():
    """Two maps of ratio 1/4 at the ends of the unit interval."""
    return IfsMeasure(
        [IfsMap(2, (0,)), IfsMap(2, (3,))], [Fraction(1, 2), Fraction(1, 2)]
    )


@pytest.fixture(scope="session")
def leb1():
    return lebesgue(1)


@pytest.fixture(scope="session")
def binomial_cascade():
    """Full-support 1-d cascade with unequal branch weights."""
    return IfsMeasure(
        [IfsMap(1, (0,)), IfsMap(1, (1,))], [Fraction(3, 10), Fraction(7, 10)]
    )


@pytest.fixture(scope="session")
def deep_ifs():
    """Two maps of ratio 2^-40 at the ends of the unit interval: its positive
    cubes reach level 63, where indices outgrow int64, and beyond."""
    return IfsMeasure(
        [IfsMap(40, (0,)), IfsMap(40, ((1 << 40) - 1,))], [Fraction(1, 3), Fraction(2, 3)]
    )
