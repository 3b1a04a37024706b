"""Finite-level L^q-spectra, closed forms, Minkowski estimates, and s_b.

The finite-level spectrum at level n is log(sum over positive level-n cubes
of mass^t) normalized by log(2^n). Sums run in the log2 domain (stable
log-sum-exp), with exact logs for dyadic masses, so deep levels neither
underflow nor drift.

One level view, `level_log_masses` ((log2 mass, count) over the level-n
multiset), serves a whole t-grid in `beta_row` (hence `beta_n`,
`empirical_spectrum`, the CLI table) and the coarse counts.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ._brent import brentq
from .errors import SolverError, ValidationError
from .measures import DEFAULT_MAX_CUBES, IfsMeasure, MeasureModel, ProductMeasure, UniformMeasure

DEFAULT_T_GRID = tuple(float(Fraction(k, 100)) for k in range(0, 151))


def frac_log2(x: Fraction) -> float:
    """log2 of a positive rational; exact for powers of two."""
    if x <= 0:
        raise ValidationError("log2 of a non-positive rational")
    return math.log2(x.numerator) - math.log2(x.denominator)


def _log2sum(terms: list[float]) -> float:
    top = max(terms)
    if math.isinf(top):
        raise SolverError("log-sum over empty or degenerate terms")
    return top + math.log2(math.fsum(2.0 ** (x - top) for x in terms))


def level_log_masses(
    model: MeasureModel, n: int, max_cubes: int = DEFAULT_MAX_CUBES
) -> list[tuple[float, int]]:
    """The level view: (log2 mass, count) over the level-n mass multiset."""
    return [(frac_log2(mass), count) for mass, count in model.level_masses(n, max_cubes).items()]


def beta_row(
    model: MeasureModel,
    n: int,
    t_grid,
    max_cubes: int = DEFAULT_MAX_CUBES,
) -> list[float]:
    """beta_n(model, n, t) for each t of the grid, from one level view built
    at the first t other than 1 (beta_n(1) = 0: masses sum to one exactly)."""
    view, out = None, []
    for t in t_grid:
        if n < 1:
            raise ValidationError("beta_n needs level n >= 1")
        if not t >= 0:  # NaN too
            raise ValidationError("beta_n needs t >= 0")
        if t != 1 and view is None:
            view = level_log_masses(model, n, max_cubes)
        out.append(0.0 if t == 1 else _log2sum([t * lm + math.log2(c) for lm, c in view]) / n)
    return out


def beta_n(
    model: MeasureModel,
    n: int,
    t: float,
    max_cubes: int = DEFAULT_MAX_CUBES,
) -> float:
    """Finite-level spectrum value at level n and moment t >= 0."""
    return beta_row(model, n, (t,), max_cubes)[0]


class SpectrumCurve:
    """Representation of t -> beta(t)."""

    kind = "abstract"

    def beta(self, t: float) -> float:
        raise NotImplementedError


class ClosedFormSpectrum(SpectrumCurve):
    kind = "closed-form"

    def __init__(self, fn, label: str) -> None:
        self._fn = fn
        self.label = label

    def beta(self, t: float) -> float:
        return self._fn(t)

    def __repr__(self) -> str:
        return f"ClosedFormSpectrum({self.label})"


class EmpiricalSpectrum(SpectrumCurve):
    """Per-level spectrum sampled on an increasing t-grid."""

    kind = "empirical"

    def __init__(self, level: int, t_grid, values) -> None:
        t_grid = tuple(float(t) for t in t_grid)
        values = tuple(float(v) for v in values)
        if len(t_grid) != len(values) or len(t_grid) < 2:
            raise ValidationError("empirical spectrum needs >= 2 grid points")
        if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
            raise ValidationError("t_grid must be strictly increasing")
        self.level = level
        self.t_grid = t_grid
        self.values = values

    def beta(self, t: float) -> float:
        ts, vs = self.t_grid, self.values
        if not ts[0] <= t <= ts[-1]:
            raise SolverError(f"t={t} outside the empirical grid [{ts[0]}, {ts[-1]}]")
        return float(np.interp(t, ts, vs))


def empirical_spectrum(
    model: MeasureModel,
    n: int,
    t_grid=DEFAULT_T_GRID,
    max_cubes: int = DEFAULT_MAX_CUBES,
) -> EmpiricalSpectrum:
    return EmpiricalSpectrum(n, t_grid, beta_row(model, n, t_grid, max_cubes))


def closed_form_spectrum(model: MeasureModel) -> ClosedFormSpectrum | None:
    """Exact limiting spectrum, or None when only the empirical route exists.

    Covers uniform models, aligned IFS with a common contraction ratio, and
    products of such factors.
    """
    if isinstance(model, UniformMeasure):
        m = model.m
        return ClosedFormSpectrum(lambda t: m * (1.0 - t), f"lebesgue(m={m})")
    if isinstance(model, IfsMeasure):
        k = model.common_ratio_log2
        if k is None:
            return None
        probs = [float(p) for p in model.probs]

        def fn(t, probs=tuple(probs), k=k):
            return math.log2(math.fsum(p**t for p in probs)) / k

        return ClosedFormSpectrum(fn, f"ifs(k={k}, r={len(probs)} maps)")
    if isinstance(model, ProductMeasure):
        parts = [closed_form_spectrum(f) for f in model.factors]
        if any(p is None for p in parts):
            return None
        return ClosedFormSpectrum(
            lambda t: sum(p.beta(t) for p in parts), "product"
        )
    return None


def s_b_solve(curve: SpectrumCurve, b: float, t_max: float = 1.5) -> float:
    """Critical exponent inf{t > 0 : beta(t) - b*t <= 0}.

    Convexity of beta makes t -> beta(t) - b*t cross zero at most once from
    above; the crossing is bracketed (doubling t_max up to 64) and refined by
    Brent's root finder (Brent 1973, ch. 4) to near machine precision,
    comfortably inside the 1e-10 contract.
    """
    if b <= 0:
        raise ValidationError("s_b needs b > 0")

    def g(t: float) -> float:
        return curve.beta(t) - b * t

    if isinstance(curve, EmpiricalSpectrum):
        ts, vs = curve.t_grid, curve.values
        gs = [v - b * t for t, v in zip(ts, vs)]
        if gs[0] <= 0:
            return 0.0 if ts[0] == 0 else ts[0]
        for i in range(1, len(ts)):
            if gs[i] <= 0:
                # linear interpolation between grid neighbors
                t0, t1, g0, g1 = ts[i - 1], ts[i], gs[i - 1], gs[i]
                return t0 if g1 == g0 else t0 + g0 * (t1 - t0) / (g0 - g1)
        raise SolverError(
            f"s_b crossing for b={b} lies outside the empirical t-grid"
        )

    lo = 0.0
    g0 = g(1e-12)
    if g0 <= 0:
        return 0.0
    hi = t_max
    while g(hi) > 0:
        hi *= 2.0
        if hi > 64.0:
            raise SolverError(f"no crossing of beta(t) - {b}*t below t = 64")
    return brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)


class _DimensionEstimate(NamedTuple):
    levels: tuple[int, ...]
    values: tuple[float, ...]
    window_min: float
    window_max: float


class DimensionEstimate(_DimensionEstimate):
    """Per-level box-counting exponents with their window extremes."""

    __slots__ = ()

    def __new__(cls, levels: tuple[int, ...], values: tuple[float, ...], window_min: float,
                window_max: float) -> "DimensionEstimate":
        if window_min > window_max + 1e-12:
            raise ValidationError("dimension window inverted")
        return super().__new__(cls, levels, values, window_min, window_max)


def minkowski(
    model: MeasureModel,
    levels,
    max_cubes: int = DEFAULT_MAX_CUBES,
) -> DimensionEstimate:
    """Finite-level Minkowski (box) dimension proxies log2(card D_n)/n."""
    levels = tuple(int(n) for n in levels)
    if not levels or any(n < 1 for n in levels):
        raise ValidationError("minkowski needs a nonempty range of levels >= 1")
    values = tuple(
        math.log2(model.card_positive(n, max_cubes)) / n for n in levels
    )
    return DimensionEstimate(levels, values, min(values), max(values))
