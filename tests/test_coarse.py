import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from widthlab import (
    AtomicMeasure,
    DyadicCube,
    EmbeddingParams,
    ValidationError,
    coarse_profile,
    closed_form_spectrum,
    lebesgue,
    s_b_solve,
)
from widthlab import coarse
from widthlab.coarse import coarse_profiles, default_alpha_grid
from widthlab.probe import alpha_good_cubes, dominant_cubes, well_separated
from widthlab.cubes import neighbors
from widthlab.measures import IfsMap, IfsMeasure, MeasureModel

from conftest import boundary_atomic, dyadic_ifs, ifs7, ifs_atomic_lebesgue, new_tetrahedron
from oracles import (check_threshold, frac_log2, oracle_coarse_profile, oracle_count_view,
                     oracle_default_alpha_grid, oracle_greedy_separation, oracle_mass,
                     scaled_box, table_cubes)


def j_value(model, cube, rho):
    # J_rho(Q) = nu(Q) vol(Q)^(rho/m) from the mass oracle
    return float(model.mass(cube)) * 2.0 ** (-cube.level * rho)


def count_alpha_good(model, n, rho, alpha):
    # N_{rho,n}(alpha), the level-n cubes with J_rho(Q) >= 2^(-alpha n), as
    # a one-level, one-alpha coarse profile counts them
    return coarse_profile(model, [n], rho, [alpha]).counts[0][0]


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
    cubes = [c for c, _ in table_cubes(leb1, 3)]
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
        table_cubes(binomial_cascade, 4), key=lambda cm: cm[1]
    )
    bottom = [c for c, _ in ranked[: len(ranked) // 2]]
    with pytest.raises(ValidationError, match="threshold"):
        check_threshold(bottom, binomial_cascade)
    top = [c for c, _ in ranked[len(ranked) // 2 :]]
    check_threshold(top, binomial_cascade)
    well_separated(top, binomial_cascade)


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


@given(st.integers(1, 3), st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_well_separated_matches_the_pairwise_greedy(m, level, data):
    # the set of blocked indices against a test of each candidate against
    # every kept cube; few distinct weights, so ties break by index often
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, (1 << level) - 1)] * m),
                              min_size=1, max_size=30, unique=True))
    raw = data.draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    side = Fraction(1, 1 << level)
    model = AtomicMeasure([tuple((2 * l + 1) * side / 2 for l in row) for row in rows],
                          [Fraction(w, sum(raw)) for w in raw])
    cubes = [DyadicCube(level, row) for row in rows]
    weight = dict(zip(rows, raw))
    order = sorted(cubes, key=lambda c: (-weight[c.index], c.index))
    assert well_separated(cubes, model) == oracle_greedy_separation(order)


def test_well_separated_dominance_on_plateau_families(leb1, quarter_cantor):
    # equal masses (ties) and separated supports: all three conclusions hold
    for model, n in ((leb1, 4), (quarter_cantor, 6)):
        cubes = [c for c, _ in table_cubes(model, n)]
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

    deep = [c for c, _ in table_cubes(deep_ifs, 64)]
    cases = [
        (tetrahedron, every_cube(3, 3) + [c for c, _ in table_cubes(tetrahedron, 4)]),
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
    light = min(table_cubes(atomic, 5), key=lambda cm: cm[1])[0]
    cases = [
        (tetrahedron, alpha_good_cubes(tetrahedron, 8, 2.0, 3.5), True, False),
        (atomic, [DyadicCube(3, idx) for idx in itertools.product(range(8), repeat=2)], False, False),
        (atomic, [c for c, _ in table_cubes(atomic, 5)], True, True),
        (product, [c for c, _ in table_cubes(product, 3)], False, True),
    ]
    want = [_greedy(model, cubes, dominant) for model, cubes, dominant, _ in cases]

    def no_mass(self, cube):
        raise AssertionError(f"mass oracle queried for {cube}")

    for cls in (MeasureModel, *MeasureModel.__subclasses__()):
        monkeypatch.setattr(cls, "mass", no_mass)
    for (model, cubes, dominant, validate), expected in zip(cases, want):
        if validate:
            check_threshold(cubes, model)
        assert well_separated(cubes, model, require_dominant=dominant) == expected
    with pytest.raises(ValidationError, match="threshold"):
        check_threshold([light], atomic)


def test_alpha_good_cubes_match_count(tetrahedron):
    for n, alpha in [(4, 2.5), (4, 3.5), (6, 2.0), (6, 3.0), (6, 4.5), (6, 9.0), (6, 0.1)]:
        cubes = alpha_good_cubes(tetrahedron, n, 2.0, alpha)
        assert len(cubes) == count_alpha_good(tetrahedron, n, 2.0, alpha)
        # the per-cube filter over the enumeration, cube by cube
        threshold = (2.0 - alpha) * n
        assert cubes == [cube for cube, mass in table_cubes(tetrahedron, n)
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


def test_default_alpha_grids_of_the_bench_sweep_are_unchanged():
    # the 36 rho of the benchmark's order sweep: m = 2, sigma = 2, p and q
    # over 1.5:4:0.5; a sweep's profiles slice theirs from the longest one
    grid = [1.5 + k / 2 for k in range(6)]
    rhos = [EmbeddingParams(m=2, sigma=2, p=p, q=q).rho for p in grid for q in grid]
    assert len(rhos) == 36
    profiles = coarse_profiles(PROFILE_MODELS["ifs7"], (4,), rhos)
    for rho, profile in zip(rhos, profiles, strict=True):
        assert default_alpha_grid(2, rho) == oracle_default_alpha_grid(2, rho)
        assert profile.alpha_grid == tuple(oracle_default_alpha_grid(2, rho))


@pytest.mark.parametrize("offset", [0.0, 2.0**-30, -(2.0**-30), -4e-7, 5e-7, -5e-7, 5.5e-7,
                                    -5.5e-7])
def test_default_alpha_grid_near_a_grid_point(offset):
    # rho at and next to k/20, where floor(20 rho) and the count of the
    # limited fraction can part (for 20 of these k at -4e-7, 8e-6 from an
    # integer in 20 rho), and at either side of the 1e-5 window in 20 rho
    # where the count falls back to that fraction
    for m in (1, 2, 3):
        for k in range(1, 401):
            rho = k / 20 + offset
            assert default_alpha_grid(m, rho) == oracle_default_alpha_grid(m, rho), (m, k)


@pytest.mark.parametrize("m, rho, count", [
    (2, 104853.7, "2097153"), (2, 1e9, "20000000079"), (1, 1e300, "over 2^1000")])
def test_default_alpha_grid_past_the_cube_cap_is_counted_not_built(m, rho, count):
    # from one value more than the default cube cap on (2097152 = 2^21)
    message = f"the default alpha grid for rho={rho} holds {count} values, more than 2097152"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        default_alpha_grid(m, rho)


def test_default_alpha_grid_of_the_cube_cap_is_built():
    assert len(default_alpha_grid(2, 104853.65)) == 2097152


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
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 10**6)), max_size=6))
@settings(max_examples=150, deadline=None)
def test_profile_matches_the_bisection_oracle(name, levels, rho, alphas, edges):
    """The per-level array search gives the per-alpha bisection's profile bit
    for bit, on unsorted grids with alphas that put (rho - alpha) * n on a
    log mass of the level."""
    model = PROFILE_MODELS[name]
    for k, pick in edges:  # alpha = rho - log2(mass) / n, for a mass of level n
        n = levels[k % len(levels)]
        log_masses, _ = oracle_count_view(model, n)
        alpha = rho - log_masses[pick % len(log_masses)] / n
        if alpha > 0:
            alphas.append(alpha)
    grid = alphas or None
    got = coarse_profile(model, levels, rho, grid)
    assert_same_profile(got, oracle_coarse_profile(model, levels, rho, grid))
    n, alpha = levels[0], got.alpha_grid[-1]
    count = count_alpha_good(model, n, rho, alpha)
    assert type(count) is int and count == got.counts[0][-1]


@given(st.one_of(st.sampled_from(sorted(PROFILE_MODELS)).map(PROFILE_MODELS.get), dyadic_ifs()),
       st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.lists(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.5]), st.floats(0.05, 8.0)),
                min_size=1, max_size=8),
       st.one_of(st.none(), st.lists(st.floats(0.01, 15.0), min_size=1, max_size=12)),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5), st.integers(0, 10**6)),
                max_size=6))
@settings(max_examples=150, deadline=None)
def test_profiles_match_the_oracle_for_each_rho(model, levels, rhos, grid, edges):
    """The one-pass kernel gives each rho of a sweep, repeats included, the
    bisection oracle's profile, field for field: on each rho's default alpha
    grid or one grid for all, with alphas that put (rho - alpha) * n on a
    log mass of level n for one of the rho, on fixed models (atomic among
    them) and random dyadic IFS, shifted or not."""
    views = {n: oracle_count_view(model, n) for n in levels}
    for i, k, pick in edges if grid is not None else ():
        rho, n = rhos[i % len(rhos)], levels[k % len(levels)]
        alpha = rho - views[n][0][pick % len(views[n][0])] / n
        if alpha > 0:
            grid.append(alpha)
    got = list(coarse_profiles(model, levels, rhos, grid))
    assert len(got) == len(rhos)
    for prof, rho in zip(got, rhos):
        assert_same_profile(prof, oracle_coarse_profile(model, levels, rho, grid, views=views))
    if grid is not None:  # one grid for every rho, even read from an iterator
        assert list(coarse_profiles(model, levels, rhos, iter(grid))) == got


def test_profiles_of_the_benchmark_sweep_search_once_per_level(monkeypatch):
    """The 36 rho of the order sweep of the benchmark on `ifs7` at levels
    4..6: three array searches in all, not one per (rho, level), and the
    oracle's profiles."""
    model, levels = PROFILE_MODELS["ifs7"], (4, 5, 6)
    grid = [1.5 + k / 2 for k in range(6)]
    rhos = [q * (2 - 2 / p) for p in grid for q in grid]
    searches = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searches.append(1) or searchsorted(*a, **k))
    got = list(coarse_profiles(model, levels, rhos))
    monkeypatch.undo()
    assert len(searches) == len(levels)
    views = {n: oracle_count_view(model, n) for n in levels}
    for prof, rho in zip(got, rhos, strict=True):
        assert_same_profile(prof, oracle_coarse_profile(model, levels, rho, views=views))
    assert list(coarse_profiles(model, levels, [])) == []


@pytest.mark.parametrize("cap, passes", [
    (1, [89, 139, 99, 139, 239, 124]),
    (250, [228, 238, 239, 124]),
    (228, [228, 99, 139, 239, 124]),  # a pass of exactly the cap
    (400, [327, 378, 124]),
    (1000, [829]),
])
def test_profiles_come_in_passes_of_at_most_the_cap(cap, passes, monkeypatch):
    """Under a cap of `cap` (rho, alpha) pairs a pass, a sweep searches the
    pairs of the fewest consecutive rho that stay under it (a rho whose grid
    alone passes it gets a pass of its own), builds one view per level and
    gives the profiles of a single pass."""
    model, levels = PROFILE_MODELS["ifs7"], (4, 5)
    rhos = [0.5, 3.0, 1.0, 3.0, 8.0, 2.25]
    assert [len(default_alpha_grid(model.m, rho)) for rho in rhos] == [89, 139, 99, 139, 239, 124]
    want = list(coarse_profiles(model, levels, rhos))
    views, searched = [], []
    view, searchsorted = coarse.count_view, np.searchsorted
    monkeypatch.setattr(coarse, "PASS_PAIRS", cap)
    monkeypatch.setattr(coarse, "count_view", lambda *a: views.append(a[1]) or view(*a))
    monkeypatch.setattr(np, "searchsorted",
                        lambda a, v, **k: searched.append(len(v)) or searchsorted(a, v, **k))
    got = list(coarse_profiles(model, levels, rhos))
    monkeypatch.undo()
    assert views == list(levels)
    assert searched == [size for size in passes for _ in levels]
    for prof, prev in zip(got, want, strict=True):
        assert_same_profile(prof, prev)


def test_profiles_check_every_rho_before_counting(tetrahedron, monkeypatch):
    def no_view(*args, **kwargs):
        raise AssertionError("a count view was built")

    monkeypatch.setattr(coarse, "count_view", no_view)
    for rhos in ([1.0, 2.0, math.nan], [3.0, -1.0]):
        with pytest.raises(ValidationError, match="rho must be positive and finite"):
            coarse_profiles(tetrahedron, [3, 4], rhos)
    with pytest.raises(ValidationError, match="alpha must be positive"):
        coarse_profiles(tetrahedron, [3, 4], [1.0, 2.0], [1.0, 0.0])


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


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
def test_profile_rejects_rho_not_positive_and_finite(rho, tetrahedron, monkeypatch):
    def no_view(*args, **kwargs):
        raise AssertionError("a count view was built")

    monkeypatch.setattr(coarse, "count_view", no_view)
    with pytest.raises(ValidationError, match="rho must be positive and finite"):
        coarse_profile(tetrahedron, [3, 4], rho)
    with pytest.raises(ValidationError, match="rho must be positive and finite"):
        coarse_profile(tetrahedron, [3, 4], rho, [1.0, 2.0])


@pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan, -math.inf])
def test_count_rejects_nonpositive_alpha(alpha, tetrahedron):
    with pytest.raises(ValidationError, match="alpha must be positive"):
        count_alpha_good(tetrahedron, 5, 1.0, alpha)


@pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan, -math.inf])
def test_alpha_good_cubes_rejects_nonpositive_alpha(alpha, tetrahedron):
    with pytest.raises(ValidationError, match="alpha must be positive"):
        alpha_good_cubes(tetrahedron, 3, 1.0, alpha)
