from fractions import Fraction

import pytest
from hypothesis import strategies as st

from widthlab import AtomicMeasure, DyadicCube, IfsMap, IfsMeasure, ProductMeasure, lebesgue


def new_tetrahedron():
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
def tetrahedron():
    return new_tetrahedron()


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


def new_deep_ifs():
    """Two maps of ratio 2^-40 at the ends of the unit interval: its positive
    cubes reach level 63, where indices outgrow int64, and beyond."""
    return IfsMeasure(
        [IfsMap(40, (0,)), IfsMap(40, ((1 << 40) - 1,))], [Fraction(1, 3), Fraction(2, 3)]
    )


@pytest.fixture(scope="session")
def deep_ifs():
    return new_deep_ifs()


EPS = Fraction(1, 10**6)


def boundary_atomic():
    """Four atoms in 2-d: dyadic ones, which lie in the cube their coordinates
    close, and ones 10^-6 to either side of a dyadic boundary."""
    return AtomicMeasure(
        [(Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 2) + EPS, Fraction(1, 4) - EPS),
         (Fraction(1, 4) - EPS, Fraction(3, 4) + EPS), (EPS, 1 - EPS)],
        [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)],
    )


def ifs_atomic_lebesgue():
    """The 3-d product of a 1-d IFS, 1-d atoms (one 10^-6 past 1/2) and
    1-d Lebesgue measure."""
    ifs_1d = IfsMeasure([IfsMap(2, (0,)), IfsMap(2, (3,))], [Fraction(1, 3), Fraction(2, 3)])
    atomic_1d = AtomicMeasure(
        [(Fraction(1, 2),), (Fraction(1, 2) + EPS,), (Fraction(1, 8),)],
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
    )
    return ProductMeasure([ifs_1d, atomic_1d, lebesgue(1)])


# the 7-map mixed-ratio IFS of the benchmark (perfbench/inputs.py): its deep
# images merge into shared holder cubes
IFS7_MAPS = [
    (1, (1, 1), "0.31"),
    (1, (0, 0), "0.23"),
    (2, (3, 0), "0.17"),
    (2, (0, 3), "0.11"),
    (3, (5, 2), "0.07"),
    (3, (4, 3), "0.06"),
    (3, (2, 5), "0.05"),
]


def ifs7(shift=None):
    return IfsMeasure([IfsMap(k, o) for k, o, _ in IFS7_MAPS],
                      [Fraction(p) for *_, p in IFS7_MAPS], shift)


@st.composite
def dyadic_ifs(draw, dims=st.integers(1, 2)):
    """A random IFS in `dims` dimensions (1 or 2 by default): disjoint images
    of levels 1..3, integer weights, and an optional embed_shift."""
    m = draw(dims)
    images = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 3))
        cube = DyadicCube(k, tuple(draw(st.integers(0, (1 << k) - 1)) for _ in range(m)))
        if all(cube.ancestor(min(k, c.level)) != c.ancestor(min(k, c.level)) for c in images):
            images.append(cube)
    weights = [draw(st.integers(1, 9)) for _ in images]
    shift = None
    if draw(st.booleans()):
        ks = draw(st.integers(1, 2))
        shift = IfsMap(ks, tuple(draw(st.integers(0, (1 << ks) - 1)) for _ in range(m)))
    return IfsMeasure([IfsMap(c.level, c.index) for c in images],
                      [Fraction(w, sum(weights)) for w in weights], shift)


@st.composite
def sparse_models(draw, family: str, q: int):
    """A model whose masses are integers over the prime q, with at most a few
    positive cubes at every level up to 64: atoms ("atomic"), an IFS of two
    maps of ratio 2^-32 .. 2^-40, whose second generation lies past level 63,
    without ("ifs") or with ("ifs-shifted") an embed_shift, or the product of
    a 1-d such IFS and 1-d atoms ("product"). Each weight is its share of q,
    so a weight reduces to a / q and den(n) > q^n for an IFS (at q = 2^1279 - 1,
    past 2^1024 from level 1 on, for the atoms at every level)."""

    def weights(k):  # k >= 2 positive integers summing to q, each a / q reduced
        cuts = draw(st.lists(st.integers(1, q - 1), min_size=k - 1, max_size=k - 1, unique=True))
        bounds = [0, *sorted(cuts), q]
        return [Fraction(b - a, q) for a, b in zip(bounds, bounds[1:])]

    def atomic(m):
        coordinate = st.fractions(0, 1, max_denominator=10**20).filter(lambda x: 0 < x < 1)
        points = draw(st.lists(st.tuples(*[coordinate] * m), min_size=2, max_size=min(q, 4)))
        return AtomicMeasure(points, weights(len(points)))

    def ifs(m, shifted):
        k = [draw(st.integers(32, 40)) for _ in range(2)]
        # the first image in the lower half of the first axis, the second in the upper
        halves = [(0, (1 << k[0] - 1) - 1), (1 << k[1] - 1, (1 << k[1]) - 1)]
        maps = [IfsMap(ki, (draw(st.integers(*half)), *(draw(st.integers(0, (1 << ki) - 1))
                                                         for _ in range(m - 1))))
                for ki, half in zip(k, halves)]
        shift = None
        if shifted:
            ks = draw(st.integers(1, 20))
            shift = IfsMap(ks, tuple(draw(st.integers(0, (1 << ks) - 1)) for _ in range(m)))
        return IfsMeasure(maps, weights(2), shift)

    if family == "atomic":
        return atomic(draw(st.integers(1, 2)))
    if family == "product":
        return ProductMeasure([ifs(1, draw(st.booleans())), atomic(1)])
    return ifs(draw(st.integers(1, 2)), family == "ifs-shifted")
