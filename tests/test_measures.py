import json
import math
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
    ingest_points,
    lebesgue,
    load_measure,
    root,
)

from conftest import boundary_atomic, dyadic_ifs, ifs_atomic_lebesgue
from oracles import descent_positive, oracle_mass


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
    out = lebesgue(1).enumerate_positive(3)
    assert len(out) == 8
    assert all(mu == Fraction(1, 8) for _, mu in out)


def test_enumerate_quarter_cantor_level2(quarter_cantor):
    out = quarter_cantor.enumerate_positive(2)
    assert [(str(c), mu) for c, mu in out] == [
        ("2:0", Fraction(1, 2)),
        ("2:3", Fraction(1, 2)),
    ]


def test_enumerate_atomic_stabilizes():
    model = AtomicMeasure(
        [(Fraction(1, 3),), (Fraction(2, 3),)], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert len(model.enumerate_positive(12)) == 2


def test_enumerate_cap():
    with pytest.raises(ResourceLimitError):
        lebesgue(2).enumerate_positive(8, max_cubes=100)


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
            for _, mu in model.enumerate_positive(n):
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
        assert model.enumerate_positive(1) == [
            (DyadicCube(1, (0, 0)), Fraction(2, 5)), (DyadicCube(1, (1, 1)), Fraction(3, 5))
        ]
    for n in range(8):
        want = descent_positive(model, n)
        assert model.enumerate_positive(n) == want
        index, mass_id, masses = model.level_nodes(n)
        assert index.dtype == np.int64 and index.shape == (len(want), model.m)
        assert [masses[j] for j in mass_id] == [mu for _, mu in want]
        assert len(set(masses)) == len(masses)
        for cap in CAPS:
            want = _outcome(lambda: descent_positive(model, n, cap))
            assert _outcome(lambda: model.level_nodes(n, cap)) == want
            assert _outcome(lambda: model.enumerate_positive(n, cap)) == want


def test_atomic_table_obeys_the_cap():
    # four atoms in four level-2 cubes: three fit, as the descent finds
    model = AtomicMeasure([(Fraction(2 * k + 1, 8),) for k in range(4)], [Fraction(1, 4)] * 4)
    assert len(model.level_nodes(2, 4).index) == len(descent_positive(model, 2, 4)) == 4
    for enumerate_ in (descent_positive, AtomicMeasure.level_nodes, AtomicMeasure.enumerate_positive):
        with pytest.raises(ResourceLimitError, match="more than 3 positive cubes at level 2$"):
            enumerate_(model, 2, 3)


@pytest.mark.parametrize("name", NODE_MODELS)
def test_edges_list_the_positive_children_in_index_order(name, tetrahedron):
    # to level 6, every node's edges: branches strictly increasing, the
    # ratios positive and summing to 1, as the tables and the walks assume
    model = _node_models(tetrahedron)[name]
    frontier = [model.root_node()]
    for _ in range(6):
        below = []
        for node in frontier:
            edges = model.edges(node)
            branches = [branch for _, _, branch in edges]
            assert branches == sorted(set(branches))
            assert all(ratio > 0 for _, ratio, _ in edges)
            assert sum(ratio for _, ratio, _ in edges) == 1
            below += [child for child, _, _ in edges]
        frontier = below


@pytest.mark.parametrize("name", NODE_MODELS)
def test_negative_level_rejected(name, tetrahedron):
    model = _node_models(tetrahedron)[name]
    for call in (model.level_nodes, model.level_masses, model.enumerate_positive, model.card_positive):
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
    index, mass_id, masses = model.level_nodes(n)
    cubes = [DyadicCube(n, tuple(row)) for row in index.tolist()]
    node_masses = [masses[j] for j in mass_id]
    assert sum(node_masses) == 1
    for point in model.points:
        assert sum(cube.contains(point) for cube in cubes) == 1
    for cube, mu in zip(cubes, node_masses):
        assert mu == sum(w for p, w in zip(model.points, model.weights) if cube.contains(p))


# primes above 2 * 8, so weights a/q with a < q/8 over distinct ones have
# coprime denominators and sum below 1; the last three multiply past 2^64
_PRIMES = [17, 19, 23, 29, 31, 97, 65537, 1000003, 2**31 - 1, 2**61 - 1, 2**89 - 1]


def _check_atomic_units(model, depth):
    # node-table masses and edge ratios against the Fraction sums of the atoms
    for n in range(depth + 1):
        index, mass_id, masses = model.level_nodes(n)
        assert all(type(mu) is Fraction for mu in masses)
        for row, j in zip(index.tolist(), mass_id.tolist()):
            assert masses[j] == oracle_mass(model, DyadicCube(n, tuple(row)))
    frontier = [(root(model.m), model.root_node(), Fraction(1))]
    for _ in range(depth):
        below = []
        for cube, node, mu in frontier:
            for child, ratio, branch in model.edges(node):
                kid = cube.child(branch)
                assert mu * ratio == oracle_mass(model, kid)
                below.append((kid, child, mu * ratio))
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
            assert _outcome(lambda: fresh.level_nodes(n, cap)) == want
            model.level_nodes(n)  # the level is now cached
            assert _outcome(lambda: model.level_nodes(n, cap)) == want
            assert _outcome(lambda: model.enumerate_positive(n, cap)) == want
    assert _outcome(lambda: model.level_nodes(5, 3)) == "more than 3 positive cubes at level 5"
    deep = IfsMeasure(model.maps, model.probs, model.embed_shift)
    with pytest.raises(ResourceLimitError, match="cubes at level 200$"):
        deep.enumerate_positive(200)
    # the cap tripped before any level was pushed past the root or tabulated
    assert len(deep._levels) == 1 and not deep._tables


def test_node_table_exact_beyond_int64(deep_ifs):
    for n in (39, 40, 41, 62, 63, 64, 79, 80, 81):
        want = descent_positive(deep_ifs, n)
        index, mass_id, masses = deep_ifs.level_nodes(n)
        assert index.dtype == (np.int64 if n < 63 else object)
        assert [tuple(row) for row in index.tolist()] == [c.index for c, _ in want]
        assert [masses[j] for j in mass_id] == [mu for _, mu in want]
    assert max(index[:, 0]) == (1 << 81) - 1


def test_levels_deeper_than_the_recursion_limit():
    # one map: all mass in the first cube of every level, each level built
    # from the one above it, 3000 levels deep
    point = IfsMeasure([IfsMap(1, (0,))], [Fraction(1)])
    assert point.level_masses(3000) == {1: 1}
    assert point.enumerate_positive(3000) == descent_positive(point, 3000)


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
    index, mass_id, masses = model.level_nodes(n)
    assert [(DyadicCube(n, tuple(row)), masses[j])
            for row, j in zip(index.tolist(), mass_id.tolist())] == want
    grouped = {}
    for _, mu in want:
        grouped[mu] = grouped.get(mu, 0) + 1
    assert model.level_masses(n) == grouped
    assert model.card_positive(n) == len(want)


def test_ifs_mass_cap_trips_at_the_requested_level_only():
    # distinct-mass counts 1, 2, 1, 2, 1, 2 at levels 0 .. 5: level 1's two
    # masses do not trip a cap of one at level 2
    model = IfsMeasure([IfsMap(2, o) for o in ((0, 0), (1, 1), (2, 0), (0, 2))],
                       [Fraction(1, 4)] * 4)
    assert [len(model.level_masses(n)) for n in range(6)] == [1, 2, 1, 2, 1, 2]
    fresh = IfsMeasure(model.maps, model.probs)
    assert fresh.level_masses(2, max_cubes=1) == {Fraction(1, 4): 4}
    message = "more than 1 distinct masses at level 3$"
    with pytest.raises(ResourceLimitError, match=message):
        fresh.level_masses(3, max_cubes=1)
    # the push stopped inside level 3, which is not cached
    assert len(fresh._levels) == 3
    with pytest.raises(ResourceLimitError, match=message):
        model.level_masses(3, max_cubes=1)  # cached


def test_level_masses_deep_tetrahedron(tetrahedron):
    ms = tetrahedron.level_masses(12)
    assert sum(ms.values()) == 4**12
    assert sum(mu * c for mu, c in ms.items()) == 1


def test_product_measure_mass(quarter_cantor):
    prod = ProductMeasure([quarter_cantor, lebesgue(1)])
    assert prod.m == 2
    assert prod.mass(DyadicCube(2, (0, 1))) == Fraction(1, 2) * Fraction(1, 4)
    assert prod.mass(DyadicCube(2, (1, 1))) == 0
    grouped = {}
    for _, mu in prod.enumerate_positive(3):
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


def test_ingest_points_uniform_weights():
    model = ingest_points("0.1\n0.2\n0.3\n")
    assert model.weights == (Fraction(1, 3),) * 3


def test_ingest_points_weight_column():
    model = ingest_points("x,w\n0.25,0.3\n0.75,0.7\n", weight_column="w")
    assert model.points == ((Fraction(1, 4),), (Fraction(3, 4),))
    assert model.weights == (Fraction(3, 10), Fraction(7, 10))


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
    for cube, mu in model.enumerate_positive(n):
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
    for cube, mu in model.enumerate_positive(n):
        acc = Fraction(0)
        for p, image in zip(model.probs, (m.image() for m in model.maps)):
            if cube.level >= image.level and cube.ancestor(image.level) == image:
                shift = cube.level - image.level
                pulled = DyadicCube(
                    shift, tuple(l - (o << shift) for l, o in zip(cube.index, image.index))
                )
                acc += p * model.mass(pulled)
        assert acc == mu
