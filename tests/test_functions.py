import itertools
import math

import numpy as np
import pytest

from widthlab import Bump, ValidationError, catalog, coordinate
from widthlab.functions import _g_deriv, _g_factor, monomials, multi_indices

from oracles import (ExactBump, ExactPolynomial, ExactSinProduct, oracle_gather_monomials,
                     oracle_monomials, sympy_g_numerator)


def test_bump_bounds_and_plateau():
    bump = Bump(1)
    xs = np.linspace(0.0, 1.0, 4001).reshape(-1, 1)
    vals = bump(xs)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    third = np.linspace(1 / 3, 2 / 3, 201).reshape(-1, 1)
    assert np.all(bump(third) == 1.0)


def test_bump_supported_inside_open_cube():
    bump = Bump(1)
    outside = np.array([[0.0], [1.0], [0.05], [0.95]])
    assert np.all(bump(outside) == 0.0)
    bump2 = Bump(2)
    edge = np.array([[0.5, 0.03], [0.97, 0.5], [0.5, 0.5]])
    vals = bump2(edge)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] == 1.0


def test_bump_plateau_m2():
    bump = Bump(2)
    g = np.linspace(1 / 3, 2 / 3, 9)
    pts = np.array([[a, b] for a in g for b in g])
    assert np.all(bump(pts) == 1.0)


@pytest.mark.parametrize("order", range(9))
def test_bump_derivatives_match_differences(order):
    # the mollifier's derivatives from the recurrence of P_k against sympy's
    # derivative of exp(1/(u^2 - 1)), evaluated in 50-digit mpmath
    mp, sp = pytest.importorskip("mpmath"), pytest.importorskip("sympy")
    u = sp.symbols("u")
    exact = sp.lambdify(u, sp.diff(sp.exp(1 / (u**2 - 1)), u, order), "mpmath")
    us = np.array([-0.97, -0.9, -0.62, -0.31, -0.05, 0.0, 0.13, 0.5, 0.77, 0.93, 0.999])
    with mp.workdps(50):
        want = np.array([float(exact(mp.mpf(x))) for x in us.tolist()])
    got = _g_deriv(np.concatenate([us, [-1.0, 1.0, 1.5]]), order)
    assert np.all(got[-3:] == 0.0)
    assert np.abs(got[:-3] - want).max() <= 1e-13 * np.abs(want).max()
    # P_k itself: sympy's numerator, highest power first, at integer points
    for x in range(-2, 3):
        assert _g_factor(float(x), order) == sum(
            c * x**i for i, c in enumerate(sympy_g_numerator(order)[::-1]))


def test_bump_mixed_partial_m2():
    bump = ExactBump(2)
    dk = bump.partial((1, 1))
    h = 1e-5
    pts = np.array([[0.2, 0.8], [0.25, 0.3]])
    fd = (
        bump(pts + [h, h]) - bump(pts + [h, -h]) - bump(pts + [-h, h]) + bump(pts - [h, h])
    ) / (4 * h * h)
    assert np.abs(dk(pts) - fd).max() < 1e-5


def test_sin_product_partials():
    f = ExactSinProduct(2, (1.0, 2.0))
    pts = np.array([[0.3, 0.7], [0.11, 0.62]])
    d10 = f.partial((1, 0))(pts)
    expected = (
        2 * math.pi * np.cos(2 * math.pi * pts[:, 0]) * np.sin(4 * math.pi * pts[:, 1])
    )
    assert np.allclose(d10, expected, atol=1e-12)
    d02 = f.partial((0, 2))(pts)
    expected2 = (
        -((4 * math.pi) ** 2)
        * np.sin(2 * math.pi * pts[:, 0])
        * np.sin(4 * math.pi * pts[:, 1])
    )
    assert np.allclose(d02, expected2, atol=1e-10)


def test_polynomial_partials_and_degree():
    f = ExactPolynomial(2, {(2, 1): 3.0, (0, 0): -1.0})
    assert f.poly_degree == 3
    pts = np.array([[0.5, 0.25]])
    assert f(pts)[0] == pytest.approx(3 * 0.25 * 0.25 - 1)
    d = f.partial((1, 1))
    assert d(pts)[0] == pytest.approx(6 * 0.5)
    dz = f.partial((0, 4))
    assert dz(pts)[0] == 0.0


def test_coordinate_helper():
    f = coordinate(3, axis=1)
    pts = np.array([[0.1, 0.7, 0.9]])
    assert f(pts)[0] == pytest.approx(0.7)


def test_catalog_names():
    assert catalog("sin", 2).m == 2
    assert catalog("linear", 1).poly_degree == 1
    assert catalog("bump", 1).name.startswith("bump")
    assert catalog("constant", 2).poly_degree == 0
    with pytest.raises(ValidationError):
        catalog("mystery", 1)


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("degree", range(6))
def test_monomials_match_the_axis_product(m, degree):
    rng = np.random.default_rng(10 * m + degree)
    pts = np.vstack([rng.uniform(-2.0, 2.0, (40, m)), np.zeros((1, m)),
                     np.full((1, m), -0.0), np.full((1, m), 1e200)])
    exps = multi_indices(m, degree)
    exps = np.array(exps, dtype=int).reshape(len(exps), m)
    with np.errstate(over="ignore"):  # 1e200 ** 2 is inf on both sides
        got, want = monomials(exps, pts), oracle_monomials(exps, pts)
        gathered = oracle_gather_monomials(exps, pts)
    assert got.shape == (len(pts), len(exps)) and got.flags.c_contiguous
    # the same bits, inf, -0.0 and all
    assert got.tobytes() == want.tobytes() == gathered.tobytes()
    assert np.array_equal(monomials(exps, pts[0]), oracle_monomials(exps, pts[0]))


@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("top", range(4))
def test_monomials_match_the_axis_product_at_each_max_exponent(m, top):
    # every exponent row in 0..top per axis: the table's ones and copied
    # columns (exponents 0 and 1) and its pow columns (2 and up) alike
    rng = np.random.default_rng(100 * m + top)
    pts = np.vstack([rng.uniform(-3.0, 3.0, (25, m)), np.full((1, m), -0.0),
                     np.full((1, m), np.inf), np.full((1, m), 5e-324)])
    exps = np.array(list(itertools.product(range(top + 1), repeat=m)), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = monomials(exps, pts), oracle_monomials(exps, pts)
        gathered = oracle_gather_monomials(exps, pts)
    assert got.tobytes() == want.tobytes() == gathered.tobytes()


@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("rows", [1, 2, 33])
@pytest.mark.parametrize("order", ["C", "F"])
def test_monomials_are_the_gather_form_bit_for_bit(m, rows, order):
    # the (m, top + 1, N) gathers against the (N, top + 1, m) ones they
    # replaced, on exponents that hold a 2, where numpy's pow squares by a
    # product if one exponent spans its inner loop (so the np.prod form
    # differs in the last bit on [(2,)]), and on C- and F-ordered points;
    # the result is C-ordered, the layout its matrix products sum in
    rng = np.random.default_rng(1000 * m + rows)
    pts = np.asarray(rng.uniform(-3.0, 3.0, (rows, m)), order=order)
    for exps in (multi_indices(m, 1), multi_indices(m, 2), multi_indices(m, 3),
                 [(2,) * m], [(0,) * (m - 1) + (2,)], [(1,) * m, (2,) + (0,) * (m - 1)]):
        exps = np.array(exps, dtype=int)
        assert 2 in exps or exps.max() < 2
        got, want = monomials(exps, pts), oracle_gather_monomials(exps, pts)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
