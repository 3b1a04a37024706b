import csv
import itertools
import json
import math
import re
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from widthlab import (
    AtomicMeasure,
    DyadicCube,
    IfsMap,
    IfsMeasure,
    ParseError,
    ProductMeasure,
    ResourceLimitError,
    UniformMeasure,
    ValidationError,
    children,
    cli,
    ingest_points,
    lebesgue,
    load_measure,
    root,
)

from widthlab.measures import (INT64_LEVELS, PACKED_KEY_BITS, MeasureModel, _parse_field,
                               packed_keys)

from conftest import (boundary_atomic, dyadic_ifs, ifs7, ifs_atomic_lebesgue, new_tetrahedron,
                      sparse_models)
from oracles import (capped, contains, descent_positive, oracle_atomic_measure,
                     oracle_atomic_nodes, oracle_ifs_overlap, oracle_ingest_points,
                     oracle_level_masses, oracle_levels, oracle_mass, oracle_packed_keys,
                     oracle_product_masses, oracle_table_masses, oracle_uniform_level_masses,
                     oracle_uniform_nodes, oracle_uniform_template, table_cubes, table_masses)


def test_atomic_mass_membership():
    model = AtomicMeasure(
        [(Fraction(1, 4),), (Fraction(3, 4),)], [Fraction(3, 10), Fraction(7, 10)]
    )
    assert model.mass(DyadicCube(1, (0,))) == Fraction(3, 10)
    assert model.mass(DyadicCube(1, (1,))) == Fraction(7, 10)


def test_uniform_mass_is_volume():
    leb = lebesgue(2)
    assert leb.mass(DyadicCube(3, (1, 5))) == Fraction(1, 64)
    assert leb.mass(root(2)) == 1


def test_ifs_one_step_recursion(quarter_cantor):
    assert quarter_cantor.mass(DyadicCube(2, (0,))) == Fraction(1, 2)
    assert quarter_cantor.mass(DyadicCube(2, (1,))) == 0
    # one more level: the sub-copy splits again
    assert quarter_cantor.mass(DyadicCube(3, (0,))) == Fraction(1, 4)
    assert quarter_cantor.mass(DyadicCube(4, (0,))) == Fraction(1, 4)
    # a cube of another dimension lies outside the model
    assert quarter_cantor.mass(DyadicCube(4, (0, 0))) == 0


def test_enumerate_uniform_m1():
    out = table_cubes(lebesgue(1), 3)
    assert len(out) == 8
    assert all(mu == Fraction(1, 8) for _, mu in out)


def test_enumerate_quarter_cantor_level2(quarter_cantor):
    out = table_cubes(quarter_cantor, 2)
    assert [(str(c), mu) for c, mu in out] == [
        ("2:0", Fraction(1, 2)),
        ("2:3", Fraction(1, 2)),
    ]


def test_enumerate_atomic_stabilizes():
    model = AtomicMeasure(
        [(Fraction(1, 3),), (Fraction(2, 3),)], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert len(table_cubes(model, 12)) == 2


def test_enumerate_cap():
    model = lebesgue(2)
    model.max_cubes = 100
    with pytest.raises(ResourceLimitError):
        model.level_nodes(8)


def test_level_masses_matches_enumeration(tetrahedron, quarter_cantor):
    # two ratios, 2^-1 and 2^-3: at levels 1 and 2 one cube holds both deep images
    mixed = IfsMeasure(
        [IfsMap(1, (0,)), IfsMap(3, (6,)), IfsMap(3, (7,))],
        [Fraction(3, 5), Fraction(3, 10), Fraction(1, 10)],
    )
    shifted = IfsMeasure(mixed.maps, mixed.probs, embed_shift=IfsMap(2, (1,)))
    cases = [(model, (1, 2, 3, 4)) for model in (tetrahedron, quarter_cantor, lebesgue(2))]
    cases += [(mixed, range(6)), (shifted, range(6))]
    for model, levels in cases:
        for n in levels:
            grouped = {}
            for _, mu in table_cubes(model, n):
                grouped[mu] = grouped.get(mu, 0) + 1
            assert model.level_masses(n) == grouped


# -- node tables against the cube-by-cube descent ------------------------------


def _mixed_2d():
    # ratios 2^-1, 2^-2 and 2^-3: at level 1 one cube holds the three deep
    # images, at level 2 one cube holds the two of ratio 2^-3
    return IfsMeasure(
        [IfsMap(1, (0, 0)), IfsMap(2, (2, 3)), IfsMap(3, (6, 4)), IfsMap(3, (7, 5))],
        [Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)],
    )


def _node_models(tetrahedron):
    mixed = _mixed_2d()
    shifted = IfsMeasure(mixed.maps, mixed.probs, embed_shift=IfsMap(2, (1, 2)))
    return {
        "tetrahedron": tetrahedron,
        "mixed": mixed,
        "shifted": shifted,
        "atomic": boundary_atomic(),
        "uniform": UniformMeasure(DyadicCube(2, (1, 2))),
        "product": ifs_atomic_lebesgue(),
    }


NODE_MODELS = ["tetrahedron", "mixed", "shifted", "atomic", "uniform", "product"]
CAPS = (0, 1, 2, 3, 5, 8, 13, 40, 64, 300, 1024)


@pytest.mark.parametrize("name", NODE_MODELS)
def test_node_table_matches_descent(name, tetrahedron):
    model = _node_models(tetrahedron)[name]
    if name == "mixed":  # one holder cube for three deep images
        assert table_cubes(model, 1) == [
            (DyadicCube(1, (0, 0)), Fraction(2, 5)), (DyadicCube(1, (1, 1)), Fraction(3, 5))
        ]
    for n in range(8):
        want = descent_positive(model, n)
        assert table_cubes(model, n) == want
        index, mass_id, nums, _ = table = model.level_nodes(n)
        masses = table_masses(table)
        assert index.dtype == np.int64 and index.shape == (len(want), model.m)
        assert [masses[j] for j in mass_id] == [mu for _, mu in want]
        assert len(set(nums)) == len(nums)
        for cap in CAPS:
            want = _outcome(lambda: descent_positive(model, n, cap))
            assert _outcome(lambda: capped(model, model.level_nodes, n, max_cubes=cap)) == want


def test_atomic_table_obeys_the_cap():
    # four atoms in four level-2 cubes: three fit, as the descent finds
    model = AtomicMeasure([(Fraction(2 * k + 1, 8),) for k in range(4)], [Fraction(1, 4)] * 4)
    assert len(capped(model, model.level_nodes, 2, max_cubes=4).index) == 4
    assert len(descent_positive(model, 2, 4)) == 4
    for enumerate_ in (lambda: descent_positive(model, 2, 3),
                       lambda: capped(model, model.level_nodes, 2, max_cubes=3)):
        with pytest.raises(ResourceLimitError, match="more than 3 positive cubes at level 2$"):
            enumerate_()


@pytest.mark.parametrize("name", NODE_MODELS)
def test_edges_list_the_positive_children_in_index_order(name, tetrahedron):
    # to level 6, the integer rule at every state: branches strictly
    # increasing, the children's masses positive and summing to the
    # parent's, as the store, the tables and the walks assume
    model = _node_models(tetrahedron)[name]
    root_node, root_num = model._root
    assert Fraction(root_num, model._denominator(0)) == 1
    frontier = [(root_node, root_num)]
    for level in range(6):
        below = []
        for node, num in frontier:
            children, branches = model._rule(level, node, num)
            assert len(children) == len(branches) and list(branches) == sorted(set(branches))
            assert all(kid > 0 for _, kid in children)
            assert (Fraction(sum(kid for _, kid in children), model._denominator(level + 1))
                    == Fraction(num, model._denominator(level)))
            below += children
        frontier = below


@pytest.mark.parametrize("name", NODE_MODELS)
def test_negative_level_rejected(name, tetrahedron):
    model = _node_models(tetrahedron)[name]
    for call in (model.level_nodes, model.level_masses, model.card_positive):
        with pytest.raises(ValidationError, match="level must be >= 0"):
            call(-1)


_coords = st.one_of(
    st.integers(1, 63).map(lambda a: Fraction(a, 64)),
    st.integers(1, 10**6 - 1).map(lambda a: Fraction(a, 10**6)),
)


@given(st.lists(st.tuples(_coords, _coords, st.integers(1, 5)), min_size=1, max_size=6),
       st.integers(0, 70))
@settings(max_examples=60, deadline=None)
def test_atomic_table_holds_every_atom(atoms, n):
    total = sum(w for *_, w in atoms)
    model = AtomicMeasure([(x, y) for x, y, _ in atoms], [Fraction(w, total) for *_, w in atoms])
    table = model.level_nodes(n)
    cubes = [DyadicCube(n, tuple(row)) for row in table.index.tolist()]
    masses = table_masses(table)
    node_masses = [masses[j] for j in table.mass_id]
    assert sum(node_masses) == 1
    for point in model.points:
        assert sum(contains(cube, point) for cube in cubes) == 1
    for cube, mu in zip(cubes, node_masses):
        assert mu == sum(w for p, w in zip(model.points, model.weights) if contains(cube, p))


# primes above 2 * 8, so weights a/q with a < q/8 over distinct ones have
# coprime denominators and sum below 1; the last three multiply past 2^64
_PRIMES = [17, 19, 23, 29, 31, 97, 65537, 1000003, 2**31 - 1, 2**61 - 1, 2**89 - 1]


def _check_atomic_units(model, depth):
    # node-table masses and the integer rule's unit sums against the
    # Fraction sums of the atoms
    for n in range(depth + 1):
        index, mass_id, nums, den = model.level_nodes(n)
        assert all(type(num) is int for num in (*nums, den))
        for row, j in zip(index.tolist(), mass_id.tolist()):
            assert Fraction(nums[j], den) == oracle_mass(model, DyadicCube(n, tuple(row)))
    frontier = [(root(model.m), model._root)]
    for level in range(depth):
        below = []
        for cube, state in frontier:
            children, branches = model._rule(level, *state)
            for kid, branch in zip(children, branches):
                child = cube.child(branch)
                assert Fraction(kid[1], model._denominator(level + 1)) == oracle_mass(model, child)
                below.append((child, kid))
        frontier = below


@given(st.lists(st.tuples(_coords, _coords), min_size=2, max_size=8),
       st.lists(st.sampled_from(_PRIMES), min_size=7, max_size=7, unique=True),
       st.data(), st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_atomic_units_match_the_fraction_sums(points, primes, data, depth):
    # all weights but the last are a/q over distinct primes q; the last
    # closes the sum to 1
    weights = [Fraction(data.draw(st.integers(1, q // 8)), q) for q in primes[: len(points) - 1]]
    model = AtomicMeasure(points, [*weights, 1 - sum(weights)])
    _check_atomic_units(model, depth)


def test_atomic_units_beyond_64_bits():
    primes = _PRIMES[-3:]
    weights = [Fraction(q // 9, q) for q in primes]
    points = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3) + Fraction(1, 10**6), Fraction(2, 3)),
              (Fraction(5, 7), Fraction(1, 64)), (Fraction(1, 2), Fraction(1, 2))]
    model = AtomicMeasure(points, [*weights, 1 - sum(weights)])
    assert math.lcm(*(w.denominator for w in model.weights)) > 2**64
    _check_atomic_units(model, 24)


@st.composite
def _boundary_coordinates(draw):
    # a dyadic boundary k / 2^j, 10^-9 to one side of one, or a coordinate
    # over a large prime denominator
    kind = draw(st.sampled_from(["dyadic", "beside", "prime"]))
    if kind == "prime":
        q = draw(st.sampled_from(_PRIMES[-3:]))
        return Fraction(draw(st.integers(1, q - 1)), q)
    j = draw(st.integers(1, 64))
    x = Fraction(draw(st.integers(1, (1 << j) - 1)), 1 << j)
    if kind == "dyadic":
        return x
    eps = Fraction(1, 10**9)
    return draw(st.sampled_from([y for y in (x - eps, x + eps) if 0 < y < 1]))


# one atom over the coprime denominators 2^61 - 1 and 2^89 - 1: their lcm
# passes 2^64, so the coordinates are held as Python ints
_WIDE_ATOM = (Fraction(1, 2**61 - 1), Fraction(2**88, 2**89 - 1))


@given(st.lists(st.tuples(_boundary_coordinates(), _boundary_coordinates()), min_size=1, max_size=4),
       st.booleans(), st.lists(st.integers(1, 5), min_size=5, max_size=5))
@settings(max_examples=25, deadline=None)
def test_atomic_integer_tables_match_the_descent(points, wide, raw):
    if wide:
        points = [*points, _WIDE_ATOM]
    raw = raw[: len(points)]
    model = AtomicMeasure(points, [Fraction(w, sum(raw)) for w in raw])
    if wide:
        assert model._coords.dtype == object
    for n in (0, 1, 2, 62, 63, 64):  # the index dtype switches at 63
        want = descent_positive(model, n)
        index, mass_id, _, _ = table = model.level_nodes(n)
        masses = table_masses(table)
        assert index.dtype == (np.int64 if n < 63 else object)
        assert [tuple(row) for row in index.tolist()] == [c.index for c, _ in want]
        assert [masses[j] for j in mass_id] == [mu for _, mu in want]
        multiset: dict[Fraction, int] = {}
        for _, mu in want:
            multiset[mu] = multiset.get(mu, 0) + 1
        assert model.level_masses(n) == multiset
        for cap in CAPS[:5]:
            assert (_outcome(lambda: capped(model, model.level_nodes, n, max_cubes=cap))
                    == _outcome(lambda: descent_positive(model, n, cap)))
    # the walk of the edges reaches every level-64 cube with its mass
    assert [model.mass(cube) for cube, _ in want] == [mu for _, mu in want]


@pytest.mark.parametrize("q", [3, 5, 10**9, 2**31 - 1, 2**61 - 1, 2**62 + 1, 2**63 + 1])
def test_atomic_indices_where_int64_runs_out(q):
    # (q - 1) 2^n passes 2^63 at a level set by q's bit length, where the
    # indices must leave int64; a q above 2^63 is held in Python ints
    x = Fraction(q - 1, q)
    model = AtomicMeasure([(x, Fraction(1, q))], [1])
    for n in range(72):
        want = (math.ceil(x * 2**n) - 1, math.ceil(Fraction(1, q) * 2**n) - 1)
        index, _, nums, den = model.level_nodes(n)
        assert index.tolist() == [list(want)] and nums == (den,)
        assert model.mass(DyadicCube(n, want)) == 1


@st.composite
def _csv_clouds(draw):
    """CSV text of a cloud in 0 to 3 dimensions, and whether it has a weight
    column "w" (it does at m = 0). A coordinate is a 6-digit decimal, one of
    `_boundary_coordinates` (over a large prime too) written as a fraction,
    or a 20-digit decimal, whose denominator 10^20 passes 2^63; some rows
    repeat, so cubes and masses are shared."""
    m = draw(st.integers(0, 3))
    weighted = m == 0 or draw(st.booleans())
    coordinate = st.one_of(st.integers(1, 10**6 - 1).map(lambda a: f"0.{a:06d}"),
                           _boundary_coordinates().map(str),
                           st.integers(1, 10**19 - 1).map(lambda a: f"0.{10 * a + 1:020d}"))
    rows = draw(st.lists(st.lists(coordinate, min_size=m, max_size=m), min_size=1, max_size=6))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    if weighted:
        weight = st.one_of(st.integers(1, 5).map(str), st.sampled_from(["0.5", "1/3", "2.25"]))
        rows = [[*row, draw(weight)] for row in rows]
    header = [f"x{k}" for k in range(m)] + (["w"] if weighted else [])
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n", weighted


def _raised(call):
    try:
        call()
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return "ok"


@given(_csv_clouds())
@settings(max_examples=60, deadline=None)
def test_atomic_grouping_matches_the_table_route(cloud):
    # levels where n m passes PACKED_KEY_BITS and the keys leave int64
    # (n m = 62, 63, 64), where the indices do (n = 63), and level -1
    text, weighted = cloud
    model = ingest_points(text, "w" if weighted else None)
    m = model.m
    levels = {-1, 0, 1, 3, 62, 63, 64} | {b // m + d for b in (62, 63, 64) for d in (0, 1) if m}
    for n in sorted(levels):
        size = len(oracle_atomic_nodes(model, n).index) if n >= 0 else 1
        for cap in sorted({0, 1, 2, size - 1, size, 1 << 21}):
            want = _raised(lambda: oracle_atomic_nodes(model, n, cap))
            for call in (model.level_masses, model.level_nodes,
                         lambda k: oracle_table_masses(model.level_nodes(k))):
                assert _raised(lambda: capped(model, call, n, max_cubes=cap)) == want
        if n < 0:
            continue
        want, got = oracle_atomic_nodes(model, n), model.level_nodes(n)
        assert (got.index.dtype, got.index.shape) == (want.index.dtype, want.index.shape)
        assert got.index.tolist() == want.index.tolist()
        assert got.mass_id.dtype == want.mass_id.dtype
        assert got.mass_id.tolist() == want.mass_id.tolist()
        assert (got.nums, got.den) == (want.nums, want.den)
        assert all(type(num) is int for num in (*got.nums, got.den))
        multiset = model.level_masses(n)
        assert multiset == oracle_table_masses(got)
        assert all(type(mu) is Fraction for mu in multiset)


def test_atomic_grouping_covers_wide_keys_and_dimension_zero():
    # a 20-digit coordinate puts the denominator past 2^63 (`_indices` in
    # Python ints at every level), a 3-d cloud has 63-bit keys at level 21 while its
    # indices stay int64, and a cloud of weights only has one key
    wide = ingest_points("x,y\n0.12345678901234567891,0.5\n0.25,0.75\n0.25,0.75\n")
    deep = ingest_points("x,y,z\n0.1,0.2,0.3\n0.9,0.8,0.7\n0.1,0.2,0.3000001\n")
    flat = ingest_points("w\n1\n3\n2\n", "w")
    assert wide._den == 3 and wide._pden == 10**20 and wide._coords.dtype == object
    assert deep._coords.dtype == np.int64 and flat.m == 0
    for model, n in ((wide, 0), (wide, 5), (wide, 40), (deep, 20), (deep, 21), (deep, 22),
                     (deep, 70), (flat, 0), (flat, 9), (flat, 64)):
        want = oracle_atomic_nodes(model, n)
        got = model.level_nodes(n)
        assert got.index.dtype == want.index.dtype and got.index.tolist() == want.index.tolist()
        assert got.mass_id.tolist() == want.mass_id.tolist()
        assert (got.nums, got.den) == (want.nums, want.den)
        assert model.level_masses(n) == oracle_table_masses(got)
    assert flat.level_masses(9) == {1: 1} and deep.level_masses(70) == {Fraction(1, 3): 3}
    assert wide.level_masses(40) == {Fraction(1, 3): 1, Fraction(2, 3): 1}


def _outcome(call):
    try:
        call()
    except ResourceLimitError as exc:
        return str(exc)
    return "ok"


@pytest.mark.parametrize("name", ["tetrahedron", "mixed", "shifted"])
def test_node_table_cap_matches_descent(name, tetrahedron):
    model = _node_models(tetrahedron)[name]
    for n in range(6):
        for cap in CAPS:
            want = _outcome(lambda: descent_positive(model, n, cap))
            fresh = IfsMeasure(model.maps, model.probs, model.embed_shift)
            assert _outcome(lambda: capped(fresh, fresh.level_nodes, n, max_cubes=cap)) == want
            model.level_nodes(n)  # the level is now cached
            assert _outcome(lambda: capped(model, model.level_nodes, n, max_cubes=cap)) == want
    assert (_outcome(lambda: capped(model, model.level_nodes, 5, max_cubes=3))
            == "more than 3 positive cubes at level 5")
    deep = IfsMeasure(model.maps, model.probs, model.embed_shift)
    with pytest.raises(ResourceLimitError, match="cubes at level 200$"):
        deep.level_nodes(200)
    # the cap tripped before any level was pushed past the root or tabulated
    assert len(deep._store.states) == 1 and not deep._tables


@st.composite
def uniform_supports(draw):
    m, level = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    return DyadicCube(level, tuple(draw(st.integers(0, (1 << level) - 1)) for _ in range(m)))


@given(uniform_supports(), st.integers(0, 8), st.integers(1, 1 << 12), st.data())
@settings(max_examples=80, deadline=None)
def test_uniform_is_the_ifs_of_its_half_scale_maps(support, n, cap, data):
    model, m = UniformMeasure(support), support.m
    assert isinstance(model, IfsMeasure)
    explicit = IfsMeasure([IfsMap(1, bits) for bits in itertools.product((0, 1), repeat=m)],
                          [Fraction(1, 1 << m)] * (1 << m),
                          IfsMap(support.level, support.index) if support.level else None)
    assert model.template == explicit.template == oracle_uniform_template(support)
    want = oracle_uniform_level_masses(model, n)
    assert model.card_positive(n) == explicit.card_positive(n) == sum(want.values())
    model.max_cubes = explicit.max_cubes = cap
    assert model.level_masses(n) == explicit.level_masses(n) == want
    outcome = _outcome(lambda: oracle_uniform_nodes(model, n, cap))
    assert _outcome(lambda: model.level_nodes(n)) == outcome
    assert _outcome(lambda: explicit.level_nodes(n)) == outcome
    if outcome == "ok":
        got = model.level_nodes(n)
        for table in (explicit.level_nodes(n), oracle_uniform_nodes(model, n, cap)):
            assert got.index.dtype == table.index.dtype
            assert got.index.tolist() == table.index.tolist()
            assert got.mass_id.tolist() == table.mass_id.tolist()
            assert table_masses(got) == table_masses(table)
    # a cube anywhere at level n, and one inside the support
    anywhere = DyadicCube(n, tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(m)))
    shift = n - support.level
    inside = support.ancestor(n) if shift <= 0 else DyadicCube(n, tuple(
        (o << shift) + data.draw(st.integers(0, (1 << shift) - 1)) for o in support.index))
    for cube in (anywhere, inside):
        assert model.mass(cube) == oracle_mass(model, cube)
    assert model.mass(inside) > 0


def test_node_table_exact_beyond_int64(deep_ifs):
    for n in (39, 40, 41, 62, 63, 64, 79, 80, 81):
        want = descent_positive(deep_ifs, n)
        index, mass_id, _, _ = table = deep_ifs.level_nodes(n)
        masses = table_masses(table)
        assert index.dtype == (np.int64 if n < 63 else object)
        assert [tuple(row) for row in index.tolist()] == [c.index for c, _ in want]
        assert [masses[j] for j in mass_id] == [mu for _, mu in want]
    assert max(index[:, 0]) == (1 << 81) - 1


def test_levels_deeper_than_the_recursion_limit():
    # one map: all mass in the first cube of every level, each level built
    # from the one above it, 3000 levels deep
    point = IfsMeasure([IfsMap(1, (0,))], [Fraction(1)])
    assert point.level_masses(3000) == {1: 1}
    assert table_cubes(point, 3000) == descent_positive(point, 3000)


def test_cold_mass_deeper_than_the_recursion_limit():
    # no level cached: the walk from the root is a loop, one edge per level
    point = IfsMeasure([IfsMap(1, (0,))], [Fraction(1)])
    assert point.mass(DyadicCube(5000, (0,))) == 1
    assert point.mass(DyadicCube(5000, (1,))) == 0
    assert lebesgue(1).mass(DyadicCube(5000, (0,))) == Fraction(1, 1 << 5000)
    atom = AtomicMeasure([(Fraction(1, 3),)], [Fraction(1)])
    assert atom.mass(DyadicCube(5000, ((1 << 5000) // 3,))) == 1
    assert atom.mass(DyadicCube(5000, ((1 << 5000) // 3 + 1,))) == 0


@given(dyadic_ifs(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_template_matches_the_pullback_oracle(model, n):
    want = descent_positive(model, n)
    # every child of every positive cube, the first walked from the root
    for cube, _ in want:
        for child in children(cube):
            assert model.mass(child) == oracle_mass(model, child)
    assert table_cubes(model, n) == want
    grouped = {}
    for _, mu in want:
        grouped[mu] = grouped.get(mu, 0) + 1
    assert model.level_masses(n) == grouped
    assert model.card_positive(n) == len(want)


@given(dyadic_ifs(st.integers(1, 3)), st.booleans(), st.integers(0, 1), st.data())
@settings(max_examples=50, deadline=None)
def test_key_built_tables_match_the_descent(model, with_shift, deeper, data):
    """The tables built from their parents' packed keys are the descent's
    cubes and masses, with the keys they keep and the parent rows they
    compose equal to a fresh packing and to the base class's key search:
    on the random IFS, with and without its embed_shift, at levels 0..5,
    and moved under a deep embed_shift to levels on both sides of
    n m = PACKED_KEY_BITS (object keys) and of n = INT64_LEVELS (object
    index), at m = 1, 2 and 3."""
    m = model.m
    if not with_shift:
        model = IfsMeasure(model.maps, model.probs)
    cases = [(model, range(6))]
    for first in (PACKED_KEY_BITS // m - 1, INT64_LEVELS - 1):
        shift = first - 1 - deeper  # the window's levels lie 1 .. 3 + deeper below it
        offset = tuple(data.draw(st.integers(0, (1 << shift) - 1)) for _ in range(m))
        cases.append((IfsMeasure(model.maps, model.probs, IfsMap(shift, offset)),
                      range(first, first + 3)))
    for ifs, levels in cases:
        for n in levels:
            want = descent_positive(ifs, n)
            index = ifs.level_nodes(n).index
            assert index.dtype == (object if n >= INT64_LEVELS else np.int64)
            assert table_cubes(ifs, n) == want
            keys = packed_keys(index, n)
            assert ifs._keys[n].dtype == keys.dtype
            assert ifs._keys[n].tolist() == keys.tolist()
            # the ancestors in each table above, composed from the finer ones
            known = {}
            for level in reversed(range(n + 1)):
                known[level] = ifs._ancestors(n, index, level, known)
                rows, found = MeasureModel._ancestors(ifs, n, index, level, {})
                assert known[level][1].dtype == found.dtype
                # level n's own rows come as a slice
                assert np.arange(len(index))[known[level][0]].tolist() == rows.tolist()
                assert known[level][1].tolist() == found.tolist()


def test_ifs_mass_cap_trips_at_the_requested_level_only():
    # distinct-mass counts 1, 2, 1, 2, 1, 2 at levels 0 .. 5: level 1's two
    # masses do not trip a cap of one at level 2
    model = IfsMeasure([IfsMap(2, o) for o in ((0, 0), (1, 1), (2, 0), (0, 2))],
                       [Fraction(1, 4)] * 4)
    assert [len(model.level_masses(n)) for n in range(6)] == [1, 2, 1, 2, 1, 2]
    fresh = IfsMeasure(model.maps, model.probs)
    fresh.max_cubes = 1
    assert fresh.level_masses(2) == {Fraction(1, 4): 4}
    message = "more than 1 distinct masses at level 3$"
    with pytest.raises(ResourceLimitError, match=message):
        fresh.level_masses(3)
    # the push stopped inside level 3, which keeps no state, and level 2's
    # states stay unexpanded
    store = fresh._store
    assert len(store.counts) == 3 and store.states[3] == []
    assert store.kids[2] == [None] * len(store.states[2])
    model.max_cubes = 1
    with pytest.raises(ResourceLimitError, match=message):
        model.level_masses(3)  # cached


@given(dyadic_ifs())
@settings(max_examples=25, deadline=None)
def test_node_table_masses_are_the_multiset_keys(model):
    # a node table and the multiset take their masses from the store's
    # numerators, in push order: the table holds them over den(n) as integers
    for n in range(9):
        table = model.level_nodes(n)
        counts, den = model.level_counts(n)
        assert counts is model._store.level_counts(n)
        assert (table.nums, table.den) == (tuple(counts), den)
        assert table_masses(table) == tuple(model.level_masses(n))
        assert all(type(num) is int for num in (*table.nums, table.den))


@pytest.mark.parametrize("q", [3, 2**1279 - 1], ids=["q3", "q-mersenne-1279"])
@pytest.mark.parametrize("family", ["atomic", "ifs", "ifs-shifted", "product"])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_table_numerators_over_den_are_the_oracle_masses(family, q, data):
    """A node table holds each distinct mass as an integer N over den(n): at
    levels 0..3 and 63..64, Fraction(N, den) is each cube's mass from its
    family's definition, and the masses sum to 1. At q = 2^1279 - 1, den(n)
    is past 2^1024 at every level n >= 1, where no mass is a float ratio."""
    model = data.draw(sparse_models(family, q))
    for n in (0, 1, 2, 3, 63, 64):
        index, mass_id, nums, den = model.level_nodes(n)
        assert all(type(num) is int for num in (*nums, den)) and den == model._denominator(n)
        assert n == 0 or q == 3 or den > 2**1024
        masses = [Fraction(nums[j], den) for j in mass_id.tolist()]
        assert masses == [oracle_mass(model, DyadicCube(n, tuple(row))) for row in index.tolist()]
        assert sum(masses) == 1


def test_threads_building_node_tables_agree():
    # four threads build the tables of levels 0..8 of one fresh bench 7-map
    # IFS at once, switching every microsecond, so each table's build races
    # the others' reads of the table below it; in each of 20 trials, every
    # thread must get a single-threaded build's tables
    def table(nodes):
        return nodes.index.tolist(), nodes.mass_id.tolist(), nodes.nums, nodes.den

    cold = ifs7()
    want = [table(cold.level_nodes(n)) for n in range(9)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            model, results = ifs7(), [None] * 4

            def build(i):
                results[i] = [model.level_nodes(n) for n in range(9)]

            threads = [threading.Thread(target=build, args=(i,)) for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            got = [None if tables is None else [table(t) for t in tables] for tables in results]
            assert got == [want] * len(results), trial
    finally:
        sys.setswitchinterval(interval)


def _fresh(model):
    return IfsMeasure(model.maps, model.probs, model.embed_shift)


def push_levels(model, n):
    """Level n of a pushed model's store as `oracle_levels` gives it: its
    states (node, mass id) and cube counts in push order, its mass ids in
    push order too, and per state of level n - 1, in push order, its
    children's positions in that order."""
    store = model._store
    order = {s: i for i, s in enumerate(store.counts[n])}
    mass_ids = {num: i for i, num in enumerate(store.level_counts(n))}
    states = [(store.states[n][s][0], mass_ids[store.states[n][s][1]]) for s in order]
    edges = [[order[k] for k in store.kids[n - 1][s]] for s in store.counts[n - 1]] if n else []
    return states, list(store.counts[n].values()), edges


@given(dyadic_ifs(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_integer_push_matches_the_fraction_push(model, with_shift):
    # dyadic_ifs mixes image levels 1..3 and draws an embed_shift half the
    # time; the other half runs the same maps without one
    if not with_shift:
        model = IfsMeasure(model.maps, model.probs)
    want = oracle_levels(model, 10)
    for n in range(11):
        states, counts, multiset, edges = want[n]
        model.level_masses(n)
        # a cold store gives its ids in push order
        assert list(model._store.counts[n]) == list(range(len(model._store.states[n])))
        assert push_levels(model, n) == (states, counts, edges)
        # the same masses, in the same id order, with the same counts
        assert list(model.level_masses(n).items()) == list(multiset.items())
        if sum(counts) <= 1 << 12:
            table = model.level_nodes(n)
            assert table_masses(table) == tuple(multiset)
            assert (np.bincount(table.mass_id, minlength=len(table.nums)).tolist()
                    == list(multiset.values()))


@given(dyadic_ifs(), st.integers(0, 10), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_integer_push_cap_trips_as_the_fraction_push(model, n, cap):
    def outcome(level_masses):
        try:
            return list(level_masses().items())
        except ResourceLimitError as exc:
            return str(exc)

    want = outcome(lambda: oracle_level_masses(_fresh(model), n, cap))
    fresh = _fresh(model)
    assert outcome(lambda: capped(fresh, fresh.level_masses, n, max_cubes=cap)) == want
    assert isinstance(want, list) or want == f"more than {cap} distinct masses at level {n}"


def test_push_makes_no_fraction_arithmetic(monkeypatch):
    model = new_tetrahedron()
    calls = {"new": 0, "mul": 0, "hash": 0}
    new, mul, hash_ = Fraction.__new__, Fraction.__mul__, Fraction.__hash__

    def counting(key, method):
        def counted(*args, **kwargs):
            calls[key] += 1
            return method(*args, **kwargs)
        return counted

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting("new", new)))
    monkeypatch.setattr(Fraction, "__mul__", counting("mul", mul))
    monkeypatch.setattr(Fraction, "__hash__", counting("hash", hash_))
    model.level_masses(10)
    monkeypatch.undo()
    distinct = sum(len(model.level_masses(n)) for n in range(1, 11))
    assert distinct == 1000
    # at most one Fraction, and one hash for its multiset key, per distinct mass
    assert calls["mul"] == 0
    assert calls["new"] <= distinct and calls["hash"] <= distinct


def _packed_rows():
    # a level where packed keys change width (level * m = 62 / 63) or where
    # indices are Python ints (level >= 63), and rows in and out of range
    @st.composite
    def rows(draw):
        m, level = draw(st.sampled_from([(1, 62), (1, 63), (2, 31), (2, 32), (3, 20), (3, 21),
                                         (1, 64), (2, 63), (3, 70), (2, 5)]))
        wide = level >= INT64_LEVELS or draw(st.booleans())
        lo, hi = (-(1 << (level + 2)), 1 << (level + 2)) if wide else (-(1 << 63), (1 << 63) - 1)
        coordinate = st.one_of(st.integers(0, (1 << level) - 1), st.integers(lo, hi),
                               st.sampled_from([-1, 1 << level, (1 << level) - 1]))
        index = draw(st.lists(st.lists(coordinate, min_size=m, max_size=m), max_size=12))
        return level, np.array(index, dtype=object if wide else np.int64).reshape(len(index), m)
    return rows()


@given(_packed_rows())
@settings(max_examples=200, deadline=None)
def test_packed_keys_match_the_row_wise_form(case):
    level, index = case
    got, want = packed_keys(index, level), oracle_packed_keys(index, level)
    assert got.dtype == want.dtype
    assert got.dtype == (object if level * index.shape[1] > PACKED_KEY_BITS else np.int64)
    assert got.tolist() == want.tolist()


def test_level_masses_deep_tetrahedron(tetrahedron):
    ms = tetrahedron.level_masses(12)
    assert sum(ms.values()) == 4**12
    assert sum(mu * c for mu, c in ms.items()) == 1


def test_product_cap_is_its_factors_cap():
    """A product's `max_cubes` caps its factors' levels: below a factor's
    level count the product trips with that factor's message, as when the
    cap was passed down as an argument, and no factor caches a table or a
    level larger than the cap; setting the cap back lifts it everywhere."""
    def fresh():
        # level 4: 4, 16 and 16 cubes; 1, 1 and 5 distinct masses
        return ProductMeasure([
            IfsMeasure([IfsMap(2, (0,)), IfsMap(2, (3,))], [Fraction(1, 2)] * 2), lebesgue(1),
            IfsMeasure([IfsMap(1, (0,)), IfsMap(1, (1,))], [Fraction(3, 10), Fraction(7, 10)])])

    cases = [("level_nodes", 10, "more than 10 positive cubes at level 4"),
             ("level_nodes", 100, "more than 100 positive cubes at level 4"),
             ("level_masses", 4, "more than 4 distinct masses at level 4")]
    for method, cap, message in cases:
        product = fresh()
        product.max_cubes = cap
        assert [f.max_cubes for f in product.factors] == [cap] * 3
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            getattr(product, method)(4)
        for f in product.factors:
            store = f._store
            assert all(len(table.index) <= cap for table in f._tables)
            assert all(len({num for _, num in states}) <= cap for states in store.states)
            # a level that tripped keeps no state
            assert all(states == [] for states in store.states[len(store.counts):])
    product.max_cubes = cli.DEFAULT_MAX_CUBES
    assert len(product.level_nodes(4).index) == 4 * 16 * 16
    assert sum(product.level_masses(4).values()) == 4 * 16 * 16


def test_product_measure_mass(quarter_cantor):
    prod = ProductMeasure([quarter_cantor, lebesgue(1)])
    assert prod.m == 2
    assert prod.mass(DyadicCube(2, (0, 1))) == Fraction(1, 2) * Fraction(1, 4)
    assert prod.mass(DyadicCube(2, (1, 1))) == 0
    grouped = {}
    for _, mu in table_cubes(prod, 3):
        grouped[mu] = grouped.get(mu, 0) + 1
    assert prod.level_masses(3) == grouped


def test_embed_shift_moves_support(quarter_cantor):
    shifted = IfsMeasure(
        quarter_cantor.maps, quarter_cantor.probs, embed_shift=IfsMap(2, (1,))
    )
    # support now sits inside (1/4, 1/2]
    assert shifted.mass(DyadicCube(2, (1,))) == 1
    assert shifted.mass(DyadicCube(2, (0,))) == 0
    assert shifted.mass(DyadicCube(4, (4,))) == Fraction(1, 2)
    assert shifted.level_masses(4) == {Fraction(1, 2): 2}


def test_load_measure_tetrahedron_spec():
    doc = {
        "type": "ifs",
        "m": 3,
        "maps": [
            {"ratio_log2": 1, "offset": [0, 0, 0]},
            {"ratio_log2": 1, "offset": [1, 1, 0]},
            {"ratio_log2": 1, "offset": [1, 0, 1]},
            {"ratio_log2": 1, "offset": [0, 1, 1]},
        ],
        "probs": [0.599, 0.3, 0.001, 0.1],
    }
    model = load_measure(json.dumps(doc))
    assert isinstance(model, IfsMeasure)
    # decimal probabilities parse exactly
    assert model.probs[0] == Fraction(599, 1000)
    assert model.probs[2] == Fraction(1, 1000)


def test_load_measure_rejects_overlapping_images():
    doc = {
        "type": "ifs",
        "m": 1,
        "maps": [{"ratio_log2": 2, "offset": [0]}, {"ratio_log2": 2, "offset": [0]}],
        "probs": [0.5, 0.5],
    }
    with pytest.raises(ValidationError, match="overlap"):
        load_measure(json.dumps(doc))


def test_load_measure_rejects_nested_images():
    doc = {
        "type": "ifs",
        "m": 1,
        "maps": [{"ratio_log2": 1, "offset": [0]}, {"ratio_log2": 2, "offset": [1]}],
        "probs": [0.5, 0.5],
    }
    with pytest.raises(ValidationError, match="overlap"):
        load_measure(json.dumps(doc))


def _ifs_images(m):
    cube = st.integers(1, 3).flatmap(lambda level: st.tuples(
        st.just(level), st.tuples(*[st.integers(0, (1 << level) - 1)] * m)))
    # random lists nest and repeat images; distinct cubes of one level are disjoint
    return st.one_of(st.lists(cube, min_size=1, max_size=8),
                     st.lists(st.tuples(*[st.integers(0, 7)] * m), min_size=1, max_size=8,
                              unique=True).map(lambda rows: [(3, row) for row in rows]))


@given(st.integers(1, 2).flatmap(_ifs_images))
@settings(max_examples=300, deadline=None)
def test_ifs_overlap_message_names_the_first_pair(images):
    maps = [IfsMap(level, index) for level, index in images]
    want = oracle_ifs_overlap([mp.image() for mp in maps])
    try:
        IfsMeasure(maps, [Fraction(1, len(maps))] * len(maps))
    except ValidationError as exc:
        assert str(exc) == want
    else:
        assert want is None


def test_load_measure_rejects_bad_weights():
    doc = {"type": "atomic", "m": 1, "points": [[0.2], [0.8]], "weights": [0.5, 0.6]}
    with pytest.raises(ValidationError, match="sum"):
        load_measure(json.dumps(doc))


def test_load_measure_other_variants():
    uni = load_measure('{"type":"uniform","m":1,"support":"1:1"}')
    assert isinstance(uni, UniformMeasure) and uni.support == DyadicCube(1, (1,))
    prod = load_measure(
        '{"type":"product","factors":['
        '{"type":"uniform","m":1,"support":"0:0"},'
        '{"type":"atomic","m":1,"points":[[0.5]],"weights":[1.0]}]}'
    )
    assert isinstance(prod, ProductMeasure) and prod.m == 2
    with pytest.raises(ParseError):
        load_measure("{not json")
    with pytest.raises(ParseError):
        load_measure('{"type":"mystery"}')


_TWO_MAPS = '"maps":[{"ratio_log2":1,"offset":[0]},{"ratio_log2":1,"offset":[1]}]'


@pytest.mark.parametrize("spec, message", [
    ('{"type":"ifs",%s,"probs":[NaN,0.5]}' % _TWO_MAPS,
     "field probs[0]: expected a number, got nan"),
    ('{"type":"atomic","points":[[Infinity]],"weights":[1]}',
     "field points[0][0]: expected a number, got inf"),
    ('{"type":"atomic","points":[[0.5]],"weights":["1/0"]}',
     "field weights[0]: expected a number, got '1/0'"),
    ('{"type":"ifs","maps":[{"ratio_log2":1}],"probs":[1]}', "field maps[0].offset is missing"),
    ('{"type":"atomic","points":[[0.5]]}', "field weights is missing"),
    ('{"type":"ifs","maps":[{"ratio_log2":1.5,"offset":[0]}],"probs":[1]}',
     "field maps[0].ratio_log2: expected an integer, got 3/2"),
    ('{"type":"ifs","maps":[{"ratio_log2":1,"offset":[0.5]}],"probs":[1]}',
     "field maps[0].offset[0]: expected an integer, got 1/2"),
    ('{"type":"product","factors":[{"type":"atomic","points":[0.5],"weights":[1]}]}',
     "field factors[0].points[0]: expected a list, got Fraction(1, 2)"),
    ('{"type":"uniform","support":5}', "field support: expected a str, got 5"),
    ('{"type":"ifs",%s,"probs":[0.5,0.5],"m":NaN}' % _TWO_MAPS,
     "field m: expected a number, got nan"),
])
def test_malformed_spec_fields_are_parse_errors(spec, message):
    with pytest.raises(ParseError) as info:
        load_measure(spec)
    assert str(info.value) == "measure spec " + message


def test_ingest_points_uniform_weights():
    model = ingest_points("0.1\n0.2\n0.3\n")
    assert model.weights == (Fraction(1, 3),) * 3


def test_ingest_points_weight_column():
    model = ingest_points("x,w\n0.25,0.3\n0.75,0.7\n", weight_column="w")
    assert model.points == ((Fraction(1, 4),), (Fraction(3, 4),))
    assert model.weights == (Fraction(3, 10), Fraction(7, 10))
    # weights that do not sum to 1 are normalized
    model = ingest_points("x,w\n0.25,0.5\n0.5,1/3\n0.75,2\n", "w")
    assert model.weights == (Fraction(3, 17), Fraction(2, 17), Fraction(12, 17))


def test_atomic_points_without_coordinates():
    # a row of weights only makes a model of dimension 0: one cube per level
    model = ingest_points("w\n1\n3\n", "w")
    assert model.m == 0 and model.weights == (Fraction(1, 4), Fraction(3, 4))
    index, mass_id, nums, den = model.level_nodes(5)
    assert index.shape == (1, 0) and nums == (den,) == (4,)
    assert (*model._rule(0, *model._root), model._denominator(1)) == ([((0, 1), 4)], [()], 4)


@pytest.mark.parametrize("source", ["text", "file"])
def test_text_with_a_byte_order_mark(source, tmp_path):
    # a mark left on text, or on a file read as utf-8, is dropped as the
    # bytes path drops it: the first row stays a data row
    def read(name, text):
        if source == "text":
            return text
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path.open(encoding="utf-8")

    cloud = read("bom.csv", "\ufeff0.25,0.25\n0.75,0.75\n")
    assert ingest_points(cloud).points == ingest_points("0.25,0.25\n0.75,0.75\n").points
    weighted = read("bomw.csv", "\ufeffw,x\n1,0.25\n3,0.75\n")
    assert ingest_points(weighted, "w").weights == (Fraction(1, 4), Fraction(3, 4))
    spec = read("bom.json", '\ufeff{"type": "uniform", "m": 1, "support": "2:1"}')
    assert load_measure(spec).support == DyadicCube(2, (1,))
    for handle in (cloud, weighted, spec):
        if source == "file":
            handle.close()


def test_ingest_points_boundary_rejected():
    with pytest.raises(ValidationError, match="open unit cube"):
        ingest_points("1.0\n")


def test_ingest_points_non_numeric_names_row():
    with pytest.raises(ParseError, match="row 2"):
        ingest_points("0.5\nabc\n")


@pytest.mark.parametrize("text, message", [
    ("0.5\nabc\n", "non-numeric field 'abc' in CSV row 2"),
    ("x,y\n0.5,0.5\n0.25, 1/0\n", "non-numeric field ' 1/0' in CSV row 2"),
])
def test_ingest_points_unparsable_field_message(text, message):
    with pytest.raises(ParseError) as info:
        ingest_points(text)
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: ingest_points("0.5,0.5\n0.25,0\n"),
     "coordinate 0 in CSV row 2 not inside the open unit cube"),
    (lambda: ingest_points("x,y\n1.0,0.5\n"),
     "coordinate 1 in CSV row 1 not inside the open unit cube"),
    (lambda: ingest_points("x,w\n0.5,0.0\n", "w"), "non-positive weight in CSV row 1"),
    (lambda: ingest_points("x,w\n0.5,1\n0.25,-2\n", "w"), "non-positive weight in CSV row 2"),
    # a ragged row is reported where it is met, before a bad coordinate below it
    (lambda: ingest_points("x,y\n0.5,0.5\n0.25\n2,0.5\n"), "CSV row 2 has 1 coordinates, row 1 has 2"),
    (lambda: ingest_points("x,y,w\n0.5,0.5,1\n0.25,0.5,0.75,2\n", "w"),
     "CSV row 2 has 3 coordinates, row 1 has 2"),
    (lambda: AtomicMeasure([(Fraction(1, 2),), (Fraction(1, 4), Fraction(1, 4))], [Fraction(1, 2)] * 2),
     "inconsistent point dimensions"),
    (lambda: AtomicMeasure([(Fraction(1, 2), Fraction(3, 2))], [1]),
     "atomic point ('1/2', '3/2') not in the open unit cube"),
    (lambda: AtomicMeasure([(Fraction(1, 2),), (Fraction(0),)], [Fraction(1, 2)] * 2),
     "atomic point ('0',) not in the open unit cube"),
    (lambda: AtomicMeasure([(Fraction(1, 4), 1)], [1]), "atomic point ('1/4', '1') not in the open unit cube"),
    (lambda: AtomicMeasure([(Fraction(1, 2),), (Fraction(1, 4),)], [Fraction(3, 2), Fraction(-1, 2)]),
     "atomic weights must be positive"),
    (lambda: AtomicMeasure([(Fraction(1, 2),), (Fraction(1, 4),)], [Fraction(1, 2), Fraction(2, 5)]),
     "atomic weights sum to 9/10, not a probability measure"),
    (lambda: AtomicMeasure([(Fraction(1, 2),), (Fraction(1, 4),)], [1, 1]),
     "atomic weights sum to 2, not a probability measure"),
])
def test_atomic_validation_messages(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert type(info.value) is ValidationError and str(info.value) == message


def _six_digit_cloud(weighted):
    # perfbench's cloud.csv style: 6-digit decimals strictly inside (0, 1)
    rng = np.random.default_rng(7)
    coords = rng.integers(1, 10**6, size=(300, 2)).tolist()
    raw = rng.integers(1, 10, size=300).tolist()
    lines = [f"0.{a:06d},0.{b:06d}" + (f",{w}" if weighted else "") for (a, b), w in zip(coords, raw)]
    text = "\n".join(["x,y,w" if weighted else "x,y", *lines]) + "\n"
    points = [[Fraction(c, 10**6) for c in row] for row in coords]
    weights = [Fraction(w, sum(raw)) for w in raw] if weighted else [Fraction(1, 300)] * 300
    return text, AtomicMeasure(points, weights)


def _integer_state(model):
    return (model.m, model._pden, model._den, model._coords.dtype, model._units.dtype,
            model._coords.tolist(), model._units.tolist())


@pytest.mark.parametrize("weighted", [False, True])
def test_ingest_points_spec_matches_the_fraction_construction(weighted):
    text, _ = _six_digit_cloud(weighted)
    # a 20-digit field over 10^20 reduces to the cloud's 10^6, back in int64
    text += "0.12345600000000000000,0.5" + (",0.50000000000000000000\n" if weighted else "\n")
    rows = [[Fraction(tok) for tok in line.split(",")] for line in text.splitlines()[1:]]
    raw = [row.pop() for row in rows] if weighted else [1] * len(rows)
    want = AtomicMeasure(rows, [Fraction(w) / sum(raw) for w in raw])
    got = ingest_points(text.encode(), "w" if weighted else None)
    assert want._coords.dtype == want._units.dtype == np.int64
    assert _integer_state(got) == _integer_state(want)
    assert (got.points, got.weights) == (want.points, want.weights)


def test_ingest_points_builds_no_fraction_on_plain_decimals(monkeypatch, tmp_path):
    # a bench-style cloud (header, 6-digit decimals, weights 1/N), read and
    # hashed for provenance as the command line does; the public points and
    # weights are built on read
    text, want = _six_digit_cloud(weighted=False)
    path = tmp_path / "cloud.csv"
    path.write_text(text)
    parsed = cli.build_parser().parse_args(["spectrum", "--measure", str(path)])
    calls = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    run = cli.Run(parsed)
    model = run.model
    assert calls == [] and "points" not in vars(model) and "weights" not in vars(model)
    # the header hashes the converted options; the t-grid's exact decimal
    # steps are Fractions, converted once as `_spectrum` converts them
    monkeypatch.undo()
    run.get("t_grid")
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    header = run.header
    assert calls == []
    monkeypatch.undo()
    assert header.startswith("# widthlab ") and _integer_state(model) == _integer_state(want)
    assert (model.points, model.weights) == (want.points, want.weights)


_DIGITS = st.text("0123456789", max_size=4)
_FIELDS = st.one_of(
    # plain decimals, with "5.", ".5", "." and "" among them
    st.tuples(_DIGITS, st.sampled_from(["", "."]), _DIGITS),
    # signs, exponents, a/b and underscores
    st.tuples(st.sampled_from(["", "+", "-"]), _DIGITS,
              st.sampled_from(["", "e3", "E-2", "e+1", ".5e1", "/4", "/0", "/3_0", "_5", "__5", "_"])),
    # other digits and symbols, mixed
    st.lists(st.sampled_from(list("0123456789.+-_/eE") + ["\u0663", "\u06f5", "\u00b2", "\u00b3"]),
             max_size=6),
    st.tuples(st.sampled_from(["nan", "inf", "-inf", "Infinity", "NaN", "x", "1e", "0x1"])),
).map("".join)


@given(st.tuples(st.sampled_from(["", " ", "\t", "\u00a0", "\u2003"]), _FIELDS,
                 st.sampled_from(["", " ", "\n", "\u3000"])).map("".join))
@settings(max_examples=400, deadline=None)
def test_parse_field_accepts_what_fraction_accepts(token):
    try:
        want = Fraction(token.strip())
    except (ValueError, ZeroDivisionError):
        want = None
    got = _parse_field(token)
    if want is None:
        assert got is None
    else:
        assert got[1] > 0 and Fraction(*got) == want


def test_parse_field_past_the_int_digit_limit():
    # each part of the decimal is within int()'s default 4300-digit limit,
    # the digits together are not
    token = "0" * 3000 + "1." + "0" * 2999 + "1"
    assert Fraction(*_parse_field(token)) == Fraction(token)


# fields the column read takes whole (plain decimals, a quoted one among
# them) and fields it leaves to `_parse_field`: fractions, exponents, signs,
# underscores, non-ASCII digits, 20 digits; then fields outside (0, 1), or
# no number at all. Weights are drawn from the same fields.
_CLOUD_FIELDS = st.one_of(
    st.integers(1, 10**6 - 1).map(lambda a: f"0.{a:06d}"),
    st.sampled_from(["0.5", ".25", " 0.75 ", '"0.125"', "0.0625", "0.5000"]),
    st.sampled_from(["1/3", "5e-1", "+0.5", "0.2_5", "\u0660.\u0665", "0.\u06f5",
                     "0.12345678901234567891", "2/7", ".5E0"]),
    st.sampled_from(["0", "1", "1.0", "0.000", "2", "5.", "3", "-0.5", "-2", "0/1", "1e400",
                     "abc", "", " ", ".", "1.2.3", "1/0", "0x1", "nan", "inf", "\u00bd",
                     "\u00b2", "x"]),
)


@st.composite
def _csv_inputs(draw):
    """CSV input in one of the forms `ingest_points` takes, and a weight
    column: rows of 1 to 3 fields, some ragged, blank lines among them, a
    header or none, a byte-order mark or none."""
    width = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        size = width + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1])) if rows else width
        rows.append([draw(_CLOUD_FIELDS) for _ in range(max(size, 1))])
    names = [f"x{k}" for k in range(width - 1)] + ["w"]
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from([names, ["x", "1"], [" w ", "y"]])))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[], [" "], ["", ""]])))
    text = "".join(",".join(row) + "\n" for row in rows)
    if draw(st.booleans()):
        text = "\ufeff" + text
    form = draw(st.sampled_from(["str", "bytes", "lines"]))
    source = {"str": text, "bytes": text.encode(), "lines": text.splitlines(keepends=True)}[form]
    weight = draw(st.sampled_from([None, None, "w", "y", 0, 1, 2, "1", " 2", "9", "x9"]))
    return source, weight


def _ingested(read, source, weight):
    try:
        model = read(source, weight)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return _integer_state(model), model._root, model._coords.flags.c_contiguous


@given(_csv_inputs())
@settings(max_examples=500, deadline=None)
def test_ingest_points_reads_as_the_field_by_field_reader(case):
    source, weight = case
    want = _ingested(oracle_ingest_points, source, weight)
    assert _ingested(ingest_points, source, weight) == want


_ATOM_VALUES = st.one_of(
    st.fractions(0, 1, max_denominator=10**6), st.integers(1, 9).map(lambda a: Fraction(a, 10)),
    st.sampled_from([Fraction(-1, 2), Fraction(3, 2), 1, 0.5, "1/3", "0.25", "x", None, 1e400]),
)


@given(st.lists(st.lists(_ATOM_VALUES, min_size=1, max_size=3), min_size=1, max_size=5),
       st.data())
@settings(max_examples=300, deadline=None)
def test_atomic_measure_reads_as_the_atom_by_atom_constructor(points, data):
    # points of one or of several dimensions; weights that sum to 1, or not
    weight = st.one_of(*[st.integers(1, 4)] * 4, st.sampled_from([0, -1]))
    raw = data.draw(st.lists(weight, min_size=len(points), max_size=len(points)))
    total = sum(raw) or 1
    weights = data.draw(st.sampled_from([[Fraction(w, total) for w in raw], raw]))
    if data.draw(st.booleans()):
        width = len(points[0])
        points = [p[:1] * width if len(p) != width else p for p in points]
    want = _ingested(oracle_atomic_measure, points, weights)
    assert _ingested(AtomicMeasure, points, weights) == want


@pytest.mark.parametrize("text, weight, message", [
    # the first bad row wins, whatever kind of error each row has
    ("x,y\n0.5,0.5\n0.25,abc\n0,0.5\n", None, "non-numeric field 'abc' in CSV row 2"),
    ("x,y\n0.5,0.5\n0,0.5\n0.25,abc\n", None,
     "coordinate 0 in CSV row 2 not inside the open unit cube"),
    ("x,y\n0.5,0.5\n0.25\n0.25,abc\n", None, "CSV row 2 has 1 coordinates, row 1 has 2"),
    ("x,y\n0.5,0.5\n0.25,abc,1\n", None, "non-numeric field 'abc' in CSV row 2"),
    ("x,w\n0.5,1\n0.25\n", "w", "weight column 1 is beyond the 1 fields of CSV row 2"),
    ("x,w\n0.5,1\n2,1/0\n", "w", "non-numeric field '1/0' in CSV row 2"),
    # within a row, the weight before the coordinates, and these in order
    ("x,y,w\n0.5,0.5,1\n0,2,0\n", "w", "non-positive weight in CSV row 2"),
    ("x,y,w\n0.5,0.5,1\n0.5,2,1\n0,0.5,1\n", "w",
     "coordinate 2 in CSV row 2 not inside the open unit cube"),
    # a column of plain decimals beside one read field by field
    ("0.5,1/3\n0.25,0.5\n1.5,0.5\n", None, "coordinate 3/2 in CSV row 3 not inside the open unit cube"),
])
def test_ingest_points_reports_the_first_bad_row(text, weight, message):
    with pytest.raises((ParseError, ValidationError)) as info:
        ingest_points(text, weight)
    assert str(info.value) == message
    with pytest.raises(type(info.value), match="^" + re.escape(message) + "$"):
        oracle_ingest_points(text, weight)


def test_a_field_past_the_int_digit_limit_is_named_so():
    # the field by field reader called it non-numeric; a field whose digits
    # together pass the limit, but each of its parts does not, is read
    limit = sys.get_int_max_str_digits()
    text = "x\n0." + "1" * (limit + 700) + "\n"
    with pytest.raises(ParseError) as info:
        ingest_points(text)
    assert str(info.value) == (
        f"field in column 0 of CSV row 1 has more digits than the int limit of {limit}")
    with pytest.raises(ParseError, match="^non-numeric field '0.1111"):
        oracle_ingest_points(text)
    long = "0." + "0" * (limit - 1) + "1"
    assert ingest_points(f"x,y\n0.5,{long}\n").points == ((Fraction(1, 2), Fraction(long)),)


def test_a_row_the_csv_reader_cannot_read_is_a_parse_error():
    big = "0." + "1" * (csv.field_size_limit() + 1)
    with pytest.raises(csv.Error):
        oracle_ingest_points(f"x,y\n0.5,0.5\n{big},0.5\n")
    cases = [
        (f"x,y\n0.5,0.5\n{big},0.5\n", "in CSV row 2"),
        (f"{big},0.5\n0.5,0.5\n", "in CSV row 1"),
        (f"x,y\n{big},0.5\n", "in CSV row 1"),
    ]
    for text, where in cases:
        with pytest.raises(ParseError) as info:
            ingest_points(text, name="c.csv")
        assert str(info.value) == (
            f"c.csv: field larger than field limit ({csv.field_size_limit()}) {where}")
    # a bad row before it is reported first, as before a source's own error
    def lines(row):
        yield from ["x,y\n", row]
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    for read in (ingest_points, oracle_ingest_points):
        for source in (f"x,y\n0.5,2\n{big},0.5\n", lines("0.5,2\n")):
            with pytest.raises(ValidationError) as info:
                read(source)
            assert str(info.value) == "coordinate 2 in CSV row 1 not inside the open unit cube"
        with pytest.raises(UnicodeDecodeError):
            read(lines("0.5,0.5\n"))


# -- property tests -----------------------------------------------------------


@st.composite
def random_models(draw):
    kind = draw(st.sampled_from(["uniform", "atomic", "ifs", "cascade"]))
    if kind == "uniform":
        m = draw(st.integers(1, 2))
        level = draw(st.integers(0, 2))
        idx = tuple(draw(st.integers(0, (1 << level) - 1)) for _ in range(m))
        return UniformMeasure(DyadicCube(level, idx))
    if kind == "atomic":
        npts = draw(st.integers(1, 4))
        pts = [
            (Fraction(draw(st.integers(1, 31)), 32),)
            for _ in range(npts)
        ]
        raw = [Fraction(draw(st.integers(1, 5))) for _ in range(npts)]
        total = sum(raw)
        return AtomicMeasure(pts, [w / total for w in raw])
    a = Fraction(draw(st.integers(1, 9)), 10)
    if kind == "ifs":
        return IfsMeasure([IfsMap(2, (0,)), IfsMap(2, (3,))], [a, 1 - a])
    return IfsMeasure([IfsMap(1, (0,)), IfsMap(1, (1,))], [a, 1 - a])


@given(random_models(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_additivity_and_total_mass(model, n):
    total = Fraction(0)
    for cube, mu in table_cubes(model, n):
        assert mu == sum(model.mass(c) for c in children(cube))
        assert mu <= model.mass(cube.parent()) if cube.level > 0 else True
        total += mu
    assert total == 1


@given(st.one_of(random_models(), st.builds(ifs_atomic_lebesgue)), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_tree_walk_matches_the_oracle(model, n):
    # every child of every positive cube, each walked from the root
    for cube, _ in descent_positive(model, n):
        for child in children(cube):
            assert model.mass(child) == oracle_mass(model, child)


@given(st.integers(1, 9), st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_ifs_self_similarity(num, n):
    a = Fraction(num, 10)
    model = IfsMeasure([IfsMap(1, (0,)), IfsMap(1, (1,))], [a, 1 - a])
    for cube, mu in table_cubes(model, n):
        acc = Fraction(0)
        for p, image in zip(model.probs, (m.image() for m in model.maps)):
            if cube.level >= image.level and cube.ancestor(image.level) == image:
                shift = cube.level - image.level
                pulled = DyadicCube(
                    shift, tuple(l - (o << shift) for l, o in zip(cube.index, image.index))
                )
                acc += p * model.mass(pulled)
        assert acc == mu


def _integer_view(model, n):
    """The level view read through `Fraction(N, den)`, in its order; its
    distinct numerators must be distinct masses."""
    counts, den = model.level_counts(n)
    view = [(Fraction(num, den), count) for num, count in counts.items()]
    assert len(dict(view)) == len(view) and all(type(num) is int for num in counts)
    return view


def _cloud_model(cloud):
    text, weighted = cloud
    return ingest_points(text, "w" if weighted else None)


def _fraction_multiset(model, n, cap=cli.DEFAULT_MAX_CUBES):
    """The `Fraction` multiset of the release before the integer level
    view, from each family's oracle, under the cap."""
    if isinstance(model, ProductMeasure):
        return oracle_product_masses(model, n, cap)
    if isinstance(model, AtomicMeasure):
        return oracle_table_masses(oracle_atomic_nodes(model, n, cap))
    return oracle_level_masses(model, n, cap)


_VIEW_MODELS = st.one_of(dyadic_ifs(), _csv_clouds().map(_cloud_model))


@given(dyadic_ifs(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_ifs_level_view_is_the_fraction_multiset(model, with_shift):
    # in push order, as the Fraction push gives it, with and without a shift
    if not with_shift:
        model = IfsMeasure(model.maps, model.probs)
    levels = oracle_levels(model, 8)
    for n, (_, counts, multiset, _) in enumerate(levels):
        assert _integer_view(model, n) == list(multiset.items())
        assert list(model.level_masses(n).items()) == list(multiset.items())
        assert model.card_positive(n) == sum(counts)


@given(_csv_clouds())
@settings(max_examples=40, deadline=None)
def test_atomic_level_view_is_the_table_multiset(cloud):
    model = _cloud_model(cloud)
    for n in (0, 1, 3, 21, 63, 64):
        want = oracle_table_masses(oracle_atomic_nodes(model, n))
        assert dict(_integer_view(model, n)) == model.level_masses(n) == want
        assert model.card_positive(n) == sum(want.values())


@given(st.lists(_VIEW_MODELS, min_size=1, max_size=3), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_product_level_view_is_the_product_of_fraction_multisets(factors, n):
    # numerators and denominators multiplied, equal masses merged
    product = ProductMeasure(factors)
    want = oracle_product_masses(product, n)
    assert dict(_integer_view(product, n)) == product.level_masses(n) == want
    assert product.card_positive(n) == sum(want.values())


@given(st.one_of(_VIEW_MODELS, st.lists(_VIEW_MODELS, min_size=1, max_size=3).map(ProductMeasure)),
       st.integers(-1, 6), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_level_view_caps_trip_as_the_fraction_multisets(model, n, cap):
    """Under a small `max_cubes`, the integer view, its `Fraction` view and
    the cube count raise what each family's `Fraction` multiset raised: the
    same type and message, or the same multiset."""
    want = _raised(lambda: _fraction_multiset(model, n, cap))
    for call in (lambda k: dict(_integer_view(model, k)), model.level_masses, model.card_positive):
        assert _raised(lambda: capped(model, call, n, max_cubes=cap)) == want
    if want == "ok":
        assert dict(_integer_view(model, n)) == _fraction_multiset(model, n, cap)


@pytest.mark.parametrize("build, n, cap, message", [
    (ifs7, 4, 51, "more than 51 distinct masses at level 4"),
    (ifs7, 6, 1000, None),
    (boundary_atomic, 3, 3, "more than 3 positive cubes at level 3"),
    (lambda: ProductMeasure([boundary_atomic(), lebesgue(1)]), 3, 3,
     "more than 3 positive cubes at level 3"),
    (ifs_atomic_lebesgue, 4, 2, "more than 2 distinct masses at level 4"),
    (ifs_atomic_lebesgue, 4, 3, "more than 3 distinct masses at level 4"),
    (ifs_atomic_lebesgue, 4, 4, None),
], ids=["ifs7", "ifs7-under", "atomic", "product-atomic-factor", "product-ifs-factor",
        "product", "product-under"])
def test_level_view_caps_keep_their_messages(build, n, cap, message):
    """The messages of the release that built each family's multiset in
    `Fraction`s: an IFS counts its distinct masses, an atomic model its
    cubes, a product each factor's cap and then its own distinct masses (at
    level 4: 3 for the IFS factor, 3 atomic cubes, 4 for the product)."""
    model = build()
    want = (ResourceLimitError, message) if message else "ok"
    assert _raised(lambda: _fraction_multiset(model, n, cap)) == want
    for call in (model.level_counts, model.level_masses, model.card_positive):
        assert _raised(lambda: capped(model, call, n, max_cubes=cap)) == want
