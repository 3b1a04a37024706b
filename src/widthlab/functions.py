"""Catalog of test functions with known smoothness.

The smooth bump is a tensor product of one-dimensional mollified indicators
(mollifier radius 1/8, plateau [3/16, 13/16] per axis): it takes values in
[0, 1], is supported strictly inside the open unit cube, and equals 1 on the
concentric cube of side 1/3 - the properties the packing construction needs.
Each derivative of its profile is one of the mollifier g(u) = exp(1/(u^2 -
1)), whose k-th derivative is g P_k / (u^2 - 1)^(2k) for an integer
polynomial P_k (`_g_poly`, `_g_factor`), at every order: the probe's
Sobolev seminorm is built from them. The package holds only defs that a subcommand calls (the
runtime reach test of `tests/test_api.py`), so the closed-form partials of
polynomials, sine products and the bump, which only tests compare against,
live in `tests/oracles.py`.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ValidationError
from .quadrature import unit_rule_1d

TWO_PI = 2.0 * math.pi


class TestFunction:
    """Callable on (N, m) point arrays."""

    name: str = "abstract"
    m: int = 1
    poly_degree: int | None = None  # total degree when polynomial, else None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Polynomial(TestFunction):
    """sum of coeff * x^k over multi-indices k."""

    def __init__(self, m: int, coeffs: dict[tuple[int, ...], float], name=None):
        if not coeffs:
            raise ValidationError("polynomial needs at least one term")
        for k in coeffs:
            if len(k) != m or any(e < 0 for e in k):
                raise ValidationError(f"bad multi-index {k} for dimension {m}")
        self.m = m
        self.coeffs = {tuple(k): float(c) for k, c in coeffs.items()}
        self.poly_degree = max(sum(k) for k in coeffs)
        self.name = name or f"poly(deg={self.poly_degree})"

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return monomials(list(self.coeffs), pts) @ np.array(list(self.coeffs.values()))


def coordinate(m: int, axis: int = 0) -> Polynomial:
    """f(x) = x_axis."""
    key = tuple(1 if i == axis else 0 for i in range(m))
    return Polynomial(m, {key: 1.0}, name=f"x{axis}")


class SinProduct(TestFunction):
    """prod_i sin(2 pi f_i x_i)."""

    def __init__(self, m: int, freqs=None):
        freqs = tuple(freqs) if freqs is not None else (1.0,) * m
        if len(freqs) != m:
            raise ValidationError("one frequency per coordinate required")
        self.m = m
        self.freqs = tuple(float(f) for f in freqs)
        self.name = f"sinprod{self.freqs}"

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.ones(pts.shape[0])
        for i, f in enumerate(self.freqs):
            out *= np.sin(TWO_PI * f * pts[:, i])
        return out


# -- the smooth bump ---------------------------------------------------------

_EPSILON = 0.125  # mollifier radius
_PLATEAU_LO = 3.0 / 16.0
_PLATEAU_HI = 13.0 / 16.0


@functools.lru_cache(maxsize=None)
def _g_poly(order: int) -> tuple[int, ...]:
    """The integer coefficients, lowest power first, of R_order, where
    g^(k) = g P_k / d^(2k) for g(u) = exp(1/d), d = u^2 - 1, and
    P_k(u) = u^(k mod 2) R_k(d). P_0 = 1 and
    P_{k+1} = d^2 P_k' - 2u P_k - 4k u d P_k, which with e = k mod 2 is
    R_{k+1} = 2 d^2 (d + 1)^e R_k' + (e d^2 - (d + 1)^e (2 + 4k d)) R_k."""
    if order == 0:
        return (1,)
    prev, k = _g_poly(order - 1), order - 1
    e = k % 2
    out = [0] * (len(prev) + 2)
    for i, c in enumerate(prev):
        out[i] -= 2 * c
        out[i + 1] += (2 * i - 4 * k - 2 * e) * c
        out[i + 2] += e * (2 * i + 1 - 4 * k) * c
    return tuple(out)


def _g_factor(u, order: int):
    """P_order(u), by Horner in d = u^2 - 1: R_order has positive
    coefficients, so near u = +-1, where g^(order) is largest, no terms
    cancel (Horner in u loses 2e-9 of the largest value at order 8)."""
    value = np.polyval(np.array(_g_poly(order)[::-1], dtype=float), u * u - 1.0)
    return value * u if order % 2 else value


def _g_deriv(u: np.ndarray, order: int) -> np.ndarray:
    """g^(order) on (-1, 1), 0 outside, as P_order(u) exp(1/d - 2 order log|d|):
    d^(-2 order) in the exponent cannot overflow where exp(1/d) underflows.
    Order 0, which every bump value reads, is exp(1/d) alone."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    d = ui * ui - 1.0
    if not order:
        out[inside] = np.exp(1.0 / d)
        return out
    out[inside] = _g_factor(ui, order) * np.exp(1.0 / d - 2 * order * np.log(-d))
    return out


_PROFILE_QUAD = 64


@functools.lru_cache(maxsize=1)
def _g_total() -> float:
    # same node count as the profile rule, so a fully covered mollifier
    # integrates to 1 up to rounding rather than up to quadrature mismatch
    x, w = unit_rule_1d(_PROFILE_QUAD)
    u = 2.0 * x - 1.0
    return 2.0 * float(np.dot(w, _g_deriv(u, 0)))


def _psi(u: np.ndarray, order: int = 0) -> np.ndarray:
    """Derivatives of the normalized 1-d mollifier with radius _EPSILON."""
    scale = 1.0 / (_EPSILON * _g_total()) / _EPSILON**order
    return scale * _g_deriv(np.asarray(u, dtype=float) / _EPSILON, order)


def _profile(x: np.ndarray) -> np.ndarray:
    """w = psi * indicator([PLATEAU_LO, PLATEAU_HI]), vectorized.

    w(x) integrates psi over [x - hi, x - lo] clipped to the mollifier
    support; a fixed Gauss rule on the clipped interval is exact to machine
    precision for this smooth integrand. Clipping to [0, 1] removes rounding
    noise only; the exact profile already satisfies the bounds.
    """
    x = np.asarray(x, dtype=float)
    lo = np.maximum(x - _PLATEAU_HI, -_EPSILON)
    hi = np.minimum(x - _PLATEAU_LO, _EPSILON)
    length = np.clip(hi - lo, 0.0, None)
    nodes, weights = unit_rule_1d(_PROFILE_QUAD)
    u = lo[..., None] + length[..., None] * nodes  # (N, npts)
    vals = _psi(u.ravel()).reshape(u.shape)
    return np.clip(length * (vals @ weights), 0.0, 1.0)


class Bump(TestFunction):
    """Tensor-product mollified indicator; 1 on the central-third cube."""

    def __init__(self, m: int):
        self.m = m
        self.name = f"bump(m={m})"

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.ones(pts.shape[0])
        for i in range(self.m):
            out *= _profile(pts[:, i])
        return out


def catalog(name: str, m: int) -> TestFunction:
    """Builtin functions reachable from the CLI."""
    if name == "sin":
        return SinProduct(m)
    if name == "linear":
        return coordinate(m, 0)
    if name == "bump":
        return Bump(m)
    if name == "constant":
        return Polynomial(m, {(0,) * m: 1.0}, name="one")
    raise ValidationError(
        f"unknown catalog function {name!r}; choose sin, linear, bump, or constant"
    )


def multi_indices(m: int, max_total: int) -> list[tuple[int, ...]]:
    """All multi-indices with |k| <= max_total, graded lexicographic."""
    out = [
        k
        for k in itertools.product(range(max_total + 1), repeat=m)
        if sum(k) <= max_total
    ]
    out.sort(key=lambda k: (sum(k), k))
    return out


def monomials(exponents, pts) -> np.ndarray:
    """The (N, K) matrix of pts^k for points (N, m) and exponent rows k (K, m)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    exponents = np.asarray(exponents)
    # each column is the product of its factors pts_i^k_i, left to right as
    # np.prod takes them, multiplied into ones in place; a factor of
    # exponent 0 is 1 and skipped, one of exponent 1 is the coordinate, and
    # higher ones come from the broadcast pow on an (N, top + 1, m) operand,
    # which must keep that layout: given one exponent 2 for a whole inner
    # loop, numpy squares by a product, which may change bits
    top = exponents.max(initial=0)
    table = pts[:, None, :] ** np.arange(top + 1)[None, :, None] if top > 1 else None
    out = np.ones((len(pts), len(exponents)))
    for column, k in zip(out.T, exponents.tolist()):
        for i, e in enumerate(k):
            if e:
                column *= pts[:, i] if e == 1 else table[:, e, i]
    return out
