import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from widthlab import (
    AtomicMeasure,
    ClosedFormSpectrum,
    DyadicCube,
    ResourceLimitError,
    SolverError,
    UniformMeasure,
    ValidationError,
    beta_n,
    closed_form_spectrum,
    empirical_spectrum,
    lebesgue,
    minkowski,
    s_b_solve,
)
from widthlab import spectrum
from widthlab.spectrum import DEFAULT_T_GRID, beta_row

from conftest import boundary_atomic, dyadic_ifs, ifs7, ifs_atomic_lebesgue, new_tetrahedron
from oracles import MoranMeasure, frac_log2, moran_beta, oracle_beta, oracle_s_b_empirical


def values(curve):
    """Every grid value of an empirical curve, read in grid order."""
    return tuple(map(curve.value, range(len(curve.t_grid))))


def scan_crossing(beta, b, lo, hi, steps=200_000):
    """Independent s_b oracle: sign scan plus a linear refinement."""
    prev_t, prev_g = lo, beta(lo) - b * lo
    assert prev_g > 0
    for i in range(1, steps + 1):
        t = lo + (hi - lo) * i / steps
        g = beta(t) - b * t
        if g <= 0:
            return prev_t + (t - prev_t) * prev_g / (prev_g - g)
        prev_t, prev_g = t, g
    raise AssertionError("no crossing in scan range")


def test_beta_tetrahedron_at_zero_is_exactly_two(tetrahedron):
    for n in range(2, 9):
        assert beta_n(tetrahedron, n, 0.0) == 2.0


def test_beta_at_one_is_exactly_zero(tetrahedron, quarter_cantor):
    for model in (tetrahedron, quarter_cantor, lebesgue(2)):
        for n in (1, 3, 5):
            assert beta_n(model, n, 1.0) == 0.0


def test_beta_uniform_analytic():
    leb2 = lebesgue(2)
    for n in (1, 4, 9):
        assert abs(beta_n(leb2, n, 0.5) - 1.0) < 1e-12


def test_closed_form_tetrahedron(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    probs = (0.599, 0.3, 0.001, 0.1)
    for t in (0.0, 0.3, 0.7, 1.0, 1.4):
        assert curve.beta(t) == pytest.approx(
            math.log2(sum(p**t for p in probs)), abs=1e-14
        )
    assert curve.beta(0.0) == 2.0


def test_closed_form_uniform_m3():
    curve = closed_form_spectrum(lebesgue(3))
    for t in (0.0, 0.25, 1.0):
        assert curve.beta(t) == 3 * (1 - t)


@pytest.mark.parametrize("support", [DyadicCube(0, (0,)), DyadicCube(0, (0, 0)),
                                     DyadicCube(0, (0, 0, 0)), DyadicCube(2, (1, 3)),
                                     DyadicCube(1, (1, 0, 1))], ids=str)
def test_closed_form_uniform_keeps_its_label_and_values(support):
    # a uniform model is an IFS of one common ratio too: its own closed form
    # must still win over the IFS one, whose values round differently
    model, m = UniformMeasure(support), support.m
    curve = closed_form_spectrum(model)
    assert curve.label == f"lebesgue(m={m})"
    for t in (k / 20 for k in range(31)):
        assert curve.beta(t) == m * (1.0 - t)


def test_closed_form_quarter_cantor_derived(quarter_cantor):
    # solve 2 * (1/2)^t * (1/4)^beta = 1  =>  beta = (1 - t)/2
    curve = closed_form_spectrum(quarter_cantor)
    for t in (0.0, 0.4, 1.0, 1.2):
        assert curve.beta(t) == pytest.approx((1 - t) / 2, abs=1e-14)


def test_closed_form_unavailable_for_atomic_and_mixed_ratio():
    atomic = AtomicMeasure([(Fraction(1, 2),)], [Fraction(1)])
    assert closed_form_spectrum(atomic) is None
    from widthlab import IfsMap, IfsMeasure

    mixed = IfsMeasure(
        [IfsMap(1, (0,)), IfsMap(2, (2,))], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert closed_form_spectrum(mixed) is None


def test_closed_form_product_adds(quarter_cantor):
    from widthlab import ProductMeasure

    prod = ProductMeasure([quarter_cantor, lebesgue(1)])
    curve = closed_form_spectrum(prod)
    for t in (0.0, 0.5, 1.0):
        assert curve.beta(t) == pytest.approx((1 - t) / 2 + (1 - t), abs=1e-14)


def test_s_b_lebesgue_m3_b2():
    curve = closed_form_spectrum(lebesgue(3))
    assert s_b_solve(curve, 2.0) == pytest.approx(0.6, abs=1e-12)


def test_s_b_tetrahedron_b2_vs_scan(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    value = s_b_solve(curve, 2.0)
    oracle = scan_crossing(curve.beta, 2.0, 0.40, 0.46)
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(0.43121313814181, abs=1e-10)  # frozen from the scan
    assert value == pytest.approx(0.430, abs=5e-3)


def test_s_b_ahlfors_half():
    # the affine spectrum (1 - t) s of an Ahlfors-David s-regular measure, s = 1/2
    curve = ClosedFormSpectrum(lambda t: (1.0 - t) * 0.5, "ahlfors(s=0.5)")
    assert s_b_solve(curve, 1.0) == pytest.approx(1 / 3, abs=1e-12)


def test_s_b_nan_spectrum_is_a_solver_error():
    # a WidthlabError, so the command line reports it and exits 1
    curve = ClosedFormSpectrum(lambda t: math.nan, "nan")
    with pytest.raises(SolverError, match="NaN"):
        s_b_solve(curve, 2.0)


def test_s_b_degenerate_zero_spectrum():
    assert s_b_solve(ClosedFormSpectrum(lambda t: (1.0 - t) * 0.0, "ahlfors(s=0)"), 1.0) == 0.0


def test_s_b_monotone_in_b(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    values = [s_b_solve(curve, b) for b in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_s_b_chord_bound(tetrahedron, quarter_cantor):
    # convexity chord: s_b <= beta(0) / (beta(0) + b)
    for model in (tetrahedron, quarter_cantor, lebesgue(2)):
        curve = closed_form_spectrum(model)
        d = curve.beta(0.0)
        for b in (0.5, 1.0, 2.0):
            assert s_b_solve(curve, b) <= d / (d + b) + 1e-9


def test_empirical_matches_closed_form_uniform():
    leb2 = lebesgue(2)
    curve = closed_form_spectrum(leb2)
    for n in (1, 3, 6):
        emp = empirical_spectrum(leb2, n, [0.0, 0.25, 0.5, 1.0, 1.25])
        for t, v in zip(emp.t_grid, values(emp)):
            assert v == pytest.approx(curve.beta(t), abs=1e-12)


def test_empirical_matches_closed_form_ifs_at_aligned_levels(quarter_cantor):
    curve = closed_form_spectrum(quarter_cantor)
    for n in (2, 4, 8):  # multiples of ratio_log2
        emp = empirical_spectrum(quarter_cantor, n, [0.0, 0.5, 1.0])
        for t, v in zip(emp.t_grid, values(emp)):
            assert v == pytest.approx(curve.beta(t), abs=1e-12)


def test_empirical_convex_nonincreasing(tetrahedron, binomial_cascade):
    grid = [k / 20 for k in range(0, 31)]
    for model in (tetrahedron, binomial_cascade):
        emp = empirical_spectrum(model, 6, grid)
        v = values(emp)  # second differences on the uniform grid
        assert min(a - 2 * b + c for a, b, c in zip(v, v[1:], v[2:])) >= -1e-12
        assert all(a >= b - 1e-12 for a, b in zip(values(emp), values(emp)[1:]))


def test_empirical_s_b_and_out_of_grid():
    emp = empirical_spectrum(lebesgue(1), 5, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert s_b_solve(emp, 1.0) == pytest.approx(0.5, abs=1e-12)
    short = empirical_spectrum(lebesgue(1), 5, [0.0, 0.25, 0.5])
    with pytest.raises(SolverError):
        s_b_solve(short, 0.1)  # crossing at 1/1.1, past the truncated grid


def test_minkowski_tetrahedron_exact(tetrahedron):
    est = minkowski(tetrahedron, range(2, 9))
    assert est.values == (2.0,) * 7
    assert est.window_min == est.window_max == 2.0


def test_minkowski_quarter_cantor_even_levels(quarter_cantor):
    est = minkowski(quarter_cantor, [2, 4, 6, 8, 10])
    assert est.values == (0.5,) * 5


def test_minkowski_atomic_decays():
    model = AtomicMeasure(
        [(Fraction(k, 8),) for k in (1, 3, 5, 7, 2)],
        [Fraction(1, 5)] * 5,
    )
    est = minkowski(model, [4, 8, 16])
    assert est.values[0] > est.values[-1]
    assert est.values[-1] == pytest.approx(math.log2(5) / 16, abs=1e-12)


def _beta_oracle(model, n, t):
    """The per-t formula: log-sum over the level-n multiset, rebuilt for t."""
    if t == 1:
        return 0.0
    terms = [t * frac_log2(mu) + math.log2(c) for mu, c in model.level_masses(n).items()]
    top = max(terms)
    return (top + math.log2(math.fsum(2.0 ** (x - top) for x in terms))) / n


def test_beta_row_equals_per_t_beta_n(tetrahedron, binomial_cascade):
    grid = [0.0, 0.25, 1.0, 0.5, 1.5, 1.0, 3.0]  # unsorted, t = 1 twice
    for model in (tetrahedron, binomial_cascade, lebesgue(2)):
        for n in (1, 3, 5):
            row = beta_row(model, n, grid)
            assert row == [beta_n(model, n, t) for t in grid]
            assert row == [_beta_oracle(model, n, t) for t in grid]
    ts = [0.0, 0.5, 1.0, 1.5]
    assert values(empirical_spectrum(tetrahedron, 4, ts)) == tuple(beta_row(tetrahedron, 4, ts))


def test_beta_row_t_one_builds_no_multiset(tetrahedron, monkeypatch):
    # level 4 has more than 3 distinct masses: only t != 1 reaches the cap
    monkeypatch.setattr(tetrahedron, "max_cubes", 3)
    assert beta_row(tetrahedron, 4, [1.0, 1.0]) == [0.0, 0.0]
    with pytest.raises(ResourceLimitError):
        beta_row(tetrahedron, 4, [1.0, 0.5])
    with pytest.raises(ValidationError):
        beta_row(tetrahedron, 0, [1.0])
    with pytest.raises(ValidationError):
        beta_row(tetrahedron, 2, [1.0, -0.5])


@pytest.mark.parametrize("grid", [[math.nan], [0.5, math.nan], [1.0, math.nan]])
def test_beta_row_rejects_nan_t(grid, tetrahedron):
    with pytest.raises(ValidationError, match="beta_n needs t >= 0"):
        beta_row(tetrahedron, 2, grid)


# one instance each, so their level multisets are built once per session
CURVE_MODELS = [new_tetrahedron(), ifs7(), boundary_atomic(), ifs_atomic_lebesgue()]
# grids that end below 1 often leave the crossing of a small b past their end
T_GRIDS = st.one_of(
    st.just(DEFAULT_T_GRID),
    st.sampled_from([0.6, 3.0]).flatmap(lambda top: st.lists(
        st.one_of(st.floats(0.0, top), st.just(min(top, 1.0))), min_size=2, max_size=20))
    .map(lambda ts: sorted({abs(t) for t in ts})).filter(lambda ts: len(ts) >= 2),
)


@given(st.one_of(st.sampled_from(CURVE_MODELS), dyadic_ifs()), st.integers(1, 6), T_GRIDS,
       st.lists(st.floats(0.01, 20.0), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_curve_read_where_needed_solves_as_the_eager_one(model, n, grid, bs):
    """One curve serves the b in the order drawn; each s_b, or its
    SolverError past the grid, is the one of the curve computed in full,
    bit for bit, and the values it kept are the full row's."""
    eager = beta_row(model, n, grid)
    curve = empirical_spectrum(model, n, grid)
    for b in bs:
        try:
            want = oracle_s_b_empirical(curve.t_grid, eager, b)
        except SolverError:
            with pytest.raises(SolverError, match="outside the empirical t-grid"):
                s_b_solve(curve, b)
            continue
        got = s_b_solve(curve, b)
        assert type(got) is float and repr(got) == repr(want)
    assert values(curve) == tuple(eager)


def test_a_sweep_computes_the_curve_up_to_its_smallest_b_crossing(monkeypatch):
    """The order sweep of the benchmark (sigma = 2, p and q in 1.5 .. 4 by
    0.5, so b = rho from 1 to 6) on the level-6 curve of `ifs7` reads 63 of
    the 151 grid points, each computed once: b = 1 crosses between t = 0.61
    and 0.62, and every larger b crosses earlier. The curve computes them in
    chunks of CHUNK = 16 grid points, so 64 in all."""
    computed = []
    betas = spectrum._betas
    monkeypatch.setattr(spectrum, "_betas",
                        lambda view, n, ts: computed.extend(ts) or betas(view, n, ts))
    curve = empirical_spectrum(CURVE_MODELS[1], 6)
    assert computed == []
    grid = [1.5 + k / 2 for k in range(6)]
    rhos = [q * (2 - 2 / p) for p in grid for q in grid]
    solved = [s_b_solve(curve, rho) for rho in rhos]
    assert min(rhos) == 1.0 and 0.61 < s_b_solve(curve, 1.0) < 0.62
    assert spectrum.CHUNK == 16 and computed == list(DEFAULT_T_GRID[:64])
    eager = beta_row(CURVE_MODELS[1], 6, DEFAULT_T_GRID)
    assert solved == [oracle_s_b_empirical(DEFAULT_T_GRID, eager, rho) for rho in rhos]


@pytest.mark.parametrize("grid", [[0.0, 0.5, 1.0, math.nan], [0.0, 0.5, math.nan, 2.0]])
def test_a_bad_t_past_the_crossing_still_raises(grid, tetrahedron):
    """The grid is checked when the curve is built, not when a point is
    read: at b = 10 the crossing is at the second point, before the NaN."""
    assert s_b_solve(empirical_spectrum(tetrahedron, 4, grid[:2]), 10.0) < grid[1]
    with pytest.raises(ValidationError, match="beta_n needs t >= 0"):
        empirical_spectrum(tetrahedron, 4, grid)


def test_curve_builds_its_level_view_when_built(tetrahedron, monkeypatch):
    """The level view, with its cap, and the level check come first; a
    grid of t = 1 alone builds no view, and fails on its length."""
    monkeypatch.setattr(tetrahedron, "max_cubes", 3)
    with pytest.raises(ResourceLimitError):
        empirical_spectrum(tetrahedron, 4, [1.0, 1.5])
    with pytest.raises(ValidationError, match="level n >= 1"):
        empirical_spectrum(tetrahedron, 0, [0.0, 0.5])
    with pytest.raises(ValidationError, match=">= 2 grid points"):
        empirical_spectrum(tetrahedron, 4, [1.0])
    with pytest.raises(ResourceLimitError):
        empirical_spectrum(tetrahedron, 4, [1.5, 0.5])
    monkeypatch.undo()
    with pytest.raises(ValidationError, match="strictly increasing"):
        empirical_spectrum(tetrahedron, 4, [1.5, 0.5])


@pytest.mark.parametrize("model", CURVE_MODELS)
def test_curve_keeps_its_level_view_as_two_float_arrays(model):
    """A curve holds its level view for as long as it lives: two float
    arrays, the log2 mass and the log2 count of each distinct mass of the
    level, in the level view's order (8 bytes an entry, not a tuple)."""
    masses, counts = empirical_spectrum(model, 5)._view
    assert masses.dtype == counts.dtype == np.float64
    assert list(zip(masses, counts)) == [(lm, math.log2(c))
                                         for lm, c in spectrum.level_log_masses(model, 5)]


def _one_atom():
    """One atom: every level has one cube, of mass 1 (log2 mass 0)."""
    return AtomicMeasure([(Fraction(1, 3), Fraction(2, 3))], [1])


# (model, level, grid): t = 0 and t = 1 on every grid; one-mass levels of
# mass below 1 and of mass 1; and ifs7's 142 919 distinct masses at level 30,
# more than one kernel pass holds, so each t gets a pass of its own
KERNEL_CASES = {
    "tetrahedron": (new_tetrahedron, 5, DEFAULT_T_GRID),
    "ifs7": (ifs7, 6, DEFAULT_T_GRID),
    "product": (ifs_atomic_lebesgue, 4, DEFAULT_T_GRID),
    "one-mass": (lambda: lebesgue(2), 3, DEFAULT_T_GRID),
    "one-atom": (_one_atom, 3, DEFAULT_T_GRID),
    "ifs7-level-30": (ifs7, 30, (0.0, 0.05, 0.5, 0.61, 1.0, 1.5)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_is_the_per_t_formula_bit_for_bit(name):
    """`beta_row` and the empirical curve equal the per-t Python formula
    over the same level view to the last bit."""
    build, n, grid = KERNEL_CASES[name]
    model = build()
    view = spectrum._view(model, n, grid)
    if name == "ifs7-level-30":
        assert len(view[0]) > spectrum.KERNEL_FLOATS
    want = [oracle_beta(view, n, t).hex() for t in grid]
    assert [x.hex() for x in beta_row(model, n, grid)] == want
    assert [x.hex() for x in values(empirical_spectrum(model, n, grid))] == want


@pytest.mark.parametrize("build, last", [(new_tetrahedron, None), (_one_atom, math.nan)],
                         ids=["tetrahedron", "one-atom"])
def test_a_grid_ending_in_inf_fails_only_where_it_is_read(build, last):
    """At t = inf every term is -inf, and beta_n is a SolverError, raised
    when that value is read and not before; on a level of one cube of mass
    1, inf * 0 is nan, as in Python floats. No numpy warning either way."""
    model, grid = build(), (0.0, 0.5, 1.0, 2.0, math.inf)
    view = spectrum._view(model, 4, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = empirical_spectrum(model, 4, grid)
        head = [curve.value(i).hex() for i in range(4)]
        assert head == [oracle_beta(view, 4, t).hex() for t in grid[:4]]
        if last is None:
            for read in (lambda: curve.value(4), lambda: beta_row(model, 4, grid),
                         lambda: oracle_beta(view, 4, math.inf)):
                with pytest.raises(SolverError, match="^log-sum over empty or degenerate terms$"):
                    read()
            assert [curve.value(i).hex() for i in range(4)] == head
        else:
            assert math.isnan(curve.value(4)) and math.isnan(oracle_beta(view, 4, math.inf))
            assert [x.hex() for x in beta_row(model, 4, grid)] == [*head, "nan"]


def test_beta_row_on_a_moran_measure_is_its_exact_curve():
    """The level-dependent Moran measure of `tests/oracles.py`: beta_n(t) =
    f_n b(t) + (1 - f_n)(1 - t), f_n its share of biased levels below n."""
    model = MoranMeasure()
    for n in range(1, 41):
        row = beta_row(model, n, DEFAULT_T_GRID)
        assert row == pytest.approx([moran_beta(n, t) for t in DEFAULT_T_GRID], rel=0, abs=1e-15)
