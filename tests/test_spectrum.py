import math
from fractions import Fraction

import pytest

from widthlab import (
    AtomicMeasure,
    ClosedFormSpectrum,
    DyadicCube,
    ResourceLimitError,
    SolverError,
    UniformMeasure,
    ValidationError,
    ahlfors_spectrum,
    beta_n,
    closed_form_spectrum,
    empirical_spectrum,
    lebesgue,
    minkowski,
    s_b_solve,
)
from widthlab.spectrum import beta_row, frac_log2


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
    curve = ahlfors_spectrum(0.5)
    assert s_b_solve(curve, 1.0) == pytest.approx(1 / 3, abs=1e-12)


def test_s_b_nan_spectrum_is_a_solver_error():
    # a WidthlabError, so the command line reports it and exits 1
    curve = ClosedFormSpectrum(lambda t: math.nan, "nan")
    with pytest.raises(SolverError, match="NaN"):
        s_b_solve(curve, 2.0)


def test_s_b_degenerate_zero_spectrum():
    assert s_b_solve(ahlfors_spectrum(0.0), 1.0) == 0.0


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
        for t, v in zip(emp.t_grid, emp.values):
            assert v == pytest.approx(curve.beta(t), abs=1e-12)


def test_empirical_matches_closed_form_ifs_at_aligned_levels(quarter_cantor):
    curve = closed_form_spectrum(quarter_cantor)
    for n in (2, 4, 8):  # multiples of ratio_log2
        emp = empirical_spectrum(quarter_cantor, n, [0.0, 0.5, 1.0])
        for t, v in zip(emp.t_grid, emp.values):
            assert v == pytest.approx(curve.beta(t), abs=1e-12)


def test_empirical_convex_nonincreasing(tetrahedron, binomial_cascade):
    grid = [k / 20 for k in range(0, 31)]
    for model in (tetrahedron, binomial_cascade):
        emp = empirical_spectrum(model, 6, grid)
        assert emp.convexity_defect() >= -1e-12
        assert all(a >= b - 1e-12 for a, b in zip(emp.values, emp.values[1:]))


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
    assert empirical_spectrum(tetrahedron, 4, ts).values == tuple(beta_row(tetrahedron, 4, ts))


def test_beta_row_t_one_builds_no_multiset(tetrahedron):
    # level 4 has more than 3 distinct masses: only t != 1 reaches the cap
    assert beta_row(tetrahedron, 4, [1.0, 1.0], max_cubes=3) == [0.0, 0.0]
    with pytest.raises(ResourceLimitError):
        beta_row(tetrahedron, 4, [1.0, 0.5], max_cubes=3)
    with pytest.raises(ValidationError):
        beta_row(tetrahedron, 0, [1.0])
    with pytest.raises(ValidationError):
        beta_row(tetrahedron, 2, [1.0, -0.5])
