import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from widthlab import (
    AtomicMeasure,
    DyadicCube,
    ValidationError,
    alpha_good_cubes,
    coarse_profile,
    closed_form_spectrum,
    count_alpha_good,
    j_value,
    lebesgue,
    s_b_solve,
    scaled_box,
    well_separated,
)
from widthlab import coarse
from widthlab.coarse import count_view, default_alpha_grid, dominant_cubes
from widthlab.cubes import neighbors
from widthlab.measures import IfsMap, IfsMeasure, MeasureModel
from widthlab.spectrum import frac_log2

from conftest import boundary_atomic, ifs7, ifs_atomic_lebesgue, new_tetrahedron
from oracles import oracle_coarse_profile, oracle_count_view, oracle_mass


def test_j_value_lebesgue():
    leb = lebesgue(1)
    for n in (1, 3, 6):
        assert j_value(leb, DyadicCube(n, (0,)), 1.0) == pytest.approx(
            2.0 ** (-2 * n), rel=1e-14
        )


def test_j_value_zero_mass(quarter_cantor):
    assert j_value(quarter_cantor, DyadicCube(2, (1,)), 1.0) == 0.0


def test_j_value_quarter_cantor(quarter_cantor):
    assert j_value(quarter_cantor, DyadicCube(2, (0,)), 1.0) == pytest.approx(1 / 8)


def test_count_lebesgue_threshold_equality():
    leb = lebesgue(1)
    assert count_alpha_good(leb, 5, 1.0, 2.0) == 32  # equality counts
    assert count_alpha_good(leb, 5, 1.0, 1.5) == 0


def test_count_quarter_cantor(quarter_cantor):
    assert count_alpha_good(quarter_cantor, 2, 1.0, 1.5) == 2  # J = 1/8 = 2^-3


def test_count_monotone_in_alpha(tetrahedron):
    counts = [count_alpha_good(tetrahedron, 6, 2.0, a) for a in (1.0, 2.0, 3.0, 5.0, 8.0)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_saturates(binomial_cascade):
    n, rho = 6, 1.0
    min_mass = min(binomial_cascade.level_masses(n))
    alpha_sat = 1 + rho + (math.log2(1 / float(min_mass))) / n
    assert count_alpha_good(binomial_cascade, n, rho, alpha_sat) == 2**n


def test_profile_lebesgue_m1():
    prof = coarse_profile(lebesgue(1), range(4, 13), 1.0)
    assert prof.optimized_upper == pytest.approx(0.5, abs=0.05)
    assert prof.s_rho_estimate == prof.optimized_upper


def test_profile_tetrahedron_matches_s2(tetrahedron):
    prof = coarse_profile(tetrahedron, range(6, 13), 2.0)
    s2 = s_b_solve(closed_form_spectrum(tetrahedron), 2.0)
    assert prof.optimized_upper == pytest.approx(s2, abs=0.05)
    assert prof.optimized_lower <= prof.optimized_upper + 1e-12


def test_profile_atomic_degenerates():
    model = AtomicMeasure(
        [(Fraction(1, 4),), (Fraction(5, 8),)], [Fraction(1, 2), Fraction(1, 2)]
    )
    shallow = coarse_profile(model, [4, 5], 1.0)
    deep = coarse_profile(model, [16, 20], 1.0)
    assert deep.optimized_upper < shallow.optimized_upper
    assert deep.optimized_upper < 0.1


def test_profile_regular_models_tight_window(quarter_cantor):
    prof = coarse_profile(quarter_cantor, range(10, 13), 1.0)
    assert abs(prof.optimized_upper - prof.optimized_lower) <= 0.1


def test_well_separated_lebesgue_level3(leb1):
    cubes = [c for c, _ in leb1.enumerate_positive(3)]
    out = well_separated(cubes, leb1)
    assert len(out) >= len(cubes) // 5
    boxes = [scaled_box(c, 3) for c in out]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert not boxes[i].interior_intersects(boxes[j])


def test_well_separated_single_cube(leb1):
    cube = DyadicCube(4, (7,))
    assert well_separated([cube], leb1) == [cube]


def test_well_separated_two_adjacent_equal_mass(leb1):
    cubes = [DyadicCube(3, (4,)), DyadicCube(3, (5,))]
    out = well_separated(cubes, leb1)
    assert len(out) == 1


def test_well_separated_level_mismatch(leb1):
    with pytest.raises(ValidationError):
        well_separated([DyadicCube(2, (1,)), DyadicCube(3, (1,))], leb1)


def test_well_separated_threshold_validation(binomial_cascade):
    # bottom-half cubes by mass violate the threshold property
    ranked = sorted(
        binomial_cascade.enumerate_positive(4), key=lambda cm: cm[1]
    )
    bottom = [c for c, _ in ranked[: len(ranked) // 2]]
    with pytest.raises(ValidationError, match="threshold"):
        well_separated(bottom, binomial_cascade, validate_threshold=True)
    top = [c for c, _ in ranked[len(ranked) // 2 :]]
    well_separated(top, binomial_cascade, validate_threshold=True)


@given(st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_well_separated_separation_and_cardinality(level, data):
    # adversarial masses: random atomic measure on a random cube subset
    size = data.draw(st.integers(1, min(12, 1 << level)))
    indices = data.draw(
        st.lists(
            st.integers(0, (1 << level) - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    raw = [data.draw(st.integers(1, 50)) for _ in indices]
    total = sum(raw)
    side = Fraction(1, 1 << level)
    points = [(Fraction(2 * i + 1, 1) * side / 2,) for i in indices]
    model = AtomicMeasure(points, [Fraction(w, total) for w in raw])
    cubes = [DyadicCube(level, (i,)) for i in indices]
    out = well_separated(cubes, model)
    assert len(out) >= len(cubes) // 5
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert max(abs(a - b) for a, b in zip(out[i].index, out[j].index)) >= 3


def test_well_separated_dominance_on_plateau_families(leb1, quarter_cantor):
    # equal masses (ties) and separated supports: all three conclusions hold
    for model, n in ((leb1, 4), (quarter_cantor, 6)):
        cubes = [c for c, _ in model.enumerate_positive(n)]
        out = well_separated(cubes, model)
        assert len(out) >= len(cubes) // 5
        for cube in out:
            mu = model.mass(cube)
            assert all(model.mass(nb) <= mu for nb in neighbors(cube))


def test_greedy_defect_on_increasing_chain_documented():
    """Strictly increasing adjacent masses admit no family that is both
    1/5^m-dense and neighbor-dominant; the greedy keeps the cardinality
    guarantee and necessarily gives up dominance somewhere."""
    n = 10
    weights = [Fraction(k, 55) for k in range(1, 11)]
    points = [(Fraction(2 * i + 1, 32),) for i in range(10)]
    model = AtomicMeasure(points, weights)
    cubes = [DyadicCube(4, (i,)) for i in range(10)]

    out = well_separated(cubes, model)
    assert len(out) >= 10 // 5
    dominant = dominant_cubes(out, model)
    assert len(dominant) < len(out)  # dominance fails for some survivor

    filtered = well_separated(cubes, model, require_dominant=True)
    assert filtered == dominant_cubes(filtered, model)
    assert len(filtered) < 10 // 5 + 1  # the cardinality bound is lost here


def test_dominant_cubes_match_the_mass_oracle(tetrahedron, deep_ifs):
    """Masses read from the node table select exactly the cubes whose `mass`
    dominates their neighbours', zero-mass cubes and mixed levels included."""
    def every_cube(n, m):
        return [DyadicCube(n, idx) for idx in itertools.product(range(1 << n), repeat=m)]

    deep = [c for c, _ in deep_ifs.enumerate_positive(64)]
    cases = [
        (tetrahedron, every_cube(3, 3) + [c for c, _ in tetrahedron.enumerate_positive(4)]),
        (ifs7(IfsMap(2, (1, 2))), every_cube(5, 2)),
        (boundary_atomic(), every_cube(5, 2)[::-1]),
        (deep_ifs, deep + [DyadicCube(64, (c.index[0] ^ 1,)) for c in deep]),
    ]
    for model, cubes in cases:
        want = [c for c in cubes if all(model.mass(nb) <= model.mass(c) for nb in neighbors(c))]
        assert 0 < len(want) < len(cubes)
        assert dominant_cubes(cubes, model) == want


def _greedy(model, cubes, require_dominant=False):
    # the greedy of well_separated over oracle masses, cube by cube
    def mass(cube):
        return oracle_mass(model, cube)
    if require_dominant:
        cubes = [c for c in cubes if all(mass(nb) <= mass(c) for nb in neighbors(c))]
    kept = []
    for cube in sorted(cubes, key=lambda c: (-mass(c), c.index)):
        if all(max(abs(a - b) for a, b in zip(cube.index, k.index)) > 2 for k in kept):
            kept.append(cube)
    return sorted(kept, key=lambda c: c.index)


def test_well_separated_never_queries_mass(tetrahedron, monkeypatch):
    """The sort key, the dominance filter and the threshold check read the
    level's node table: with `mass` unavailable the output is the greedy's
    over oracle masses, zero-mass inputs included."""
    atomic, product = boundary_atomic(), ifs_atomic_lebesgue()
    light = min(atomic.enumerate_positive(5), key=lambda cm: cm[1])[0]
    cases = [
        (tetrahedron, alpha_good_cubes(tetrahedron, 8, 2.0, 3.5), True, False),
        (atomic, [DyadicCube(3, idx) for idx in itertools.product(range(8), repeat=2)], False, False),
        (atomic, [c for c, _ in atomic.enumerate_positive(5)], True, True),
        (product, [c for c, _ in product.enumerate_positive(3)], False, True),
    ]
    want = [_greedy(model, cubes, dominant) for model, cubes, dominant, _ in cases]

    def no_mass(self, cube):
        raise AssertionError(f"mass oracle queried for {cube}")

    for cls in (MeasureModel, *MeasureModel.__subclasses__()):
        monkeypatch.setattr(cls, "mass", no_mass)
    for (model, cubes, dominant, validate), expected in zip(cases, want):
        got = well_separated(cubes, model, require_dominant=dominant, validate_threshold=validate)
        assert got == expected
    with pytest.raises(ValidationError, match="threshold"):
        well_separated([light], atomic, validate_threshold=True)


def test_alpha_good_cubes_match_count(tetrahedron):
    for n, alpha in [(4, 2.5), (4, 3.5), (6, 2.0), (6, 3.0), (6, 4.5), (6, 9.0), (6, 0.1)]:
        cubes = alpha_good_cubes(tetrahedron, n, 2.0, alpha)
        assert len(cubes) == count_alpha_good(tetrahedron, n, 2.0, alpha)
        # the per-cube filter over the enumeration, cube by cube
        threshold = (2.0 - alpha) * n
        assert cubes == [cube for cube, mass in tetrahedron.enumerate_positive(n)
                         if frac_log2(mass) >= threshold]


@given(st.integers(1, 6), st.one_of(st.floats(0.01, 12.0), st.fractions(Fraction(1, 100), 12)
                                    .map(float), st.integers(1, 12).map(float)))
@settings(max_examples=200, deadline=None)
def test_default_alpha_grid_steps_exact_decimals(m, rho):
    # the grid of the exact Fraction walk 0.1, 0.15, ... up to m + rho + 2
    hi = Fraction(m) + Fraction(rho).limit_denominator(10**6) + 2
    want, a = [], Fraction(1, 10)
    while a <= hi:
        want.append(float(a))
        a += Fraction(1, 20)
    assert default_alpha_grid(m, rho) == want


# one instance each, so their level multisets are built once per session
PROFILE_MODELS = {
    "tetrahedron": new_tetrahedron(),
    "ifs7": ifs7(),
    "boundary_atomic": boundary_atomic(),
    "product": ifs_atomic_lebesgue(),
}


def assert_same_profile(got, want):
    # equal fields, the same float bits (repr tells -0.0 and numpy scalars
    # apart) and Python ints for every count
    assert got == want
    assert repr(got) == repr(want)
    assert all(type(c) is int for row in got.counts for c in row)
    assert all(type(x) is float for x in (*got.f_upper, *got.f_lower,
                                          got.optimized_upper, got.optimized_lower))


@given(st.sampled_from(sorted(PROFILE_MODELS)),
       st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.floats(0.05, 8.0),
       st.lists(st.floats(0.01, 15.0), max_size=12),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 10**6)), max_size=6),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_profile_matches_the_bisection_oracle(name, levels, rho, alphas, edges, shared):
    """The per-level array search gives the per-alpha bisection's profile bit
    for bit, on unsorted grids with alphas that put (rho - alpha) * n on a
    log mass of the level, with the views built inside or passed in."""
    model = PROFILE_MODELS[name]
    for k, pick in edges:  # alpha = rho - log2(mass) / n, for a mass of level n
        n = levels[k % len(levels)]
        log_masses, _ = oracle_count_view(model, n)
        alpha = rho - log_masses[pick % len(log_masses)] / n
        if alpha > 0:
            alphas.append(alpha)
    grid = alphas or None
    views = {n: count_view(model, n) for n in levels} if shared else None
    got = coarse_profile(model, levels, rho, grid, views=views)
    assert_same_profile(got, oracle_coarse_profile(model, levels, rho, grid))
    n, alpha = levels[0], got.alpha_grid[-1]
    count = count_alpha_good(model, n, rho, alpha)
    assert type(count) is int and count == got.counts[0][-1]


def test_profile_exact_on_threshold_equality_and_a_single_level(leb1):
    # Lebesgue: every level-5 log mass is -5 = (1 - 2) * 5, which counts
    grid = [2.0, 1.5, 2.5, 0.5, 2.0]
    for levels in ([5], [3, 5, 4]):
        got = coarse_profile(leb1, levels, 1.0, grid)
        assert_same_profile(got, oracle_coarse_profile(leb1, levels, 1.0, grid))
    assert coarse_profile(leb1, [5], 1.0, grid).counts == ((32, 0, 32, 0, 32),)


def test_profile_exact_past_int64_counts(binomial_cascade):
    """At levels 64 and 65 the saturated counts are 2^64 and 2^65 cubes."""
    grid = [0.5, 3.0, 1.0, 2.0, 1.6]
    got = coarse_profile(binomial_cascade, [64, 65], 1.0, grid)
    assert_same_profile(got, oracle_coarse_profile(binomial_cascade, [64, 65], 1.0, grid))
    assert got.counts[0][1] == 1 << 64 and got.counts[1][1] == 1 << 65
    assert max(got.counts[1]) > (1 << 63) > got.counts[1][-1] > 0


@pytest.mark.parametrize("grid", [[0.0, 0.5, 1.0], [-1.0, 0.5], [1.0, math.nan], [-math.inf]])
def test_profile_rejects_nonpositive_alpha_before_counting(grid, tetrahedron, monkeypatch):
    def no_view(*args, **kwargs):
        raise AssertionError("a count view was built")

    monkeypatch.setattr(coarse, "count_view", no_view)
    with pytest.raises(ValidationError, match="alpha must be positive"):
        coarse_profile(tetrahedron, [3, 4], 2.0, grid)


@pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan, -math.inf])
def test_count_rejects_nonpositive_alpha(alpha, tetrahedron):
    with pytest.raises(ValidationError, match="alpha must be positive"):
        count_alpha_good(tetrahedron, 5, 1.0, alpha)
