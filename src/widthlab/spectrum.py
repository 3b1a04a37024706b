"""Finite-level L^q-spectra, closed forms, Minkowski estimates, and s_b.

The finite-level spectrum at level n is log(sum over positive level-n cubes
of mass^t) normalized by log(2^n). Sums run in the log2 domain (stable
log-sum-exp), with exact logs for dyadic masses, so deep levels neither
underflow nor drift.

One level view, `level_log_masses` ((log2 mass, count) from the integer
view), serves a whole t-grid in `beta_row` (hence `beta_n`, the CLI table)
and in `empirical_spectrum`, and the coarse counts. One kernel (`_betas`)
takes a run of t: terms and row maxes by numpy elementwise ops (the IEEE
operations of Python's float expressions), then per t `math.fsum` of libm's
`math.pow(2.0, x)`, as `2.0 ** x` is; `np.power` and `np.exp2` miss that in
the last bit (at 1 of the 151 values of `ifs7`'s level-6 curve).

A curve is closed-form, with a callable `beta`, or empirical: a t-grid
whose values `s_b_solve` computes on first read, up to the crossing. The
package holds only defs that a subcommand calls (the runtime reach test of
`tests/test_api.py`), so that curve has no `beta` and no list of values.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ._brent import brentq
from .errors import SolverError, ValidationError
from .measures import IfsMeasure, MeasureModel, ProductMeasure, UniformMeasure, log2_mass

DEFAULT_T_GRID = tuple(k / 100 for k in range(0, 151))  # k / 100 is correctly rounded
CHUNK = 16  # grid points an empirical curve computes at a read
KERNEL_FLOATS = 1 << 16  # terms of one kernel pass: a deep level's stay this many
_POW2 = functools.partial(math.pow, 2.0)  # libm pow, as 2.0 ** x is


def level_log_masses(model: MeasureModel, n: int) -> list[tuple[float, int]]:
    """(log2 mass, count) over the level view, each `log2_mass` of N / den(n)."""
    counts, den = model.level_counts(n)
    return [(log2_mass(num, den), count) for num, count in counts.items()]


def _view(model: MeasureModel, n: int, t_grid) -> tuple[np.ndarray, np.ndarray] | None:
    """Check n and each t in order; the level view (float arrays of log2 mass
    and log2 count) built at the first t other than 1, or None (beta_n(1) = 0)."""
    view = None
    for t in t_grid:
        if n < 1:
            raise ValidationError("beta_n needs level n >= 1")
        if not t >= 0:  # NaN too
            raise ValidationError("beta_n needs t >= 0")
        if t != 1 and view is None:
            level = level_log_masses(model, n)
            view = np.array([lm for lm, _ in level]), np.array([math.log2(c) for _, c in level])
    return view


def _betas(view, n: int, ts) -> list[float | None]:
    """beta_n at each t of `ts`, None where every term is -inf (t = inf)."""
    if view is None:  # every t is 1
        return [0.0] * len(ts)
    masses, counts = view
    out, step = [], max(1, KERNEL_FLOATS // len(masses))
    for start in range(0, len(ts), step):
        run = ts[start:start + step]
        with np.errstate(over="ignore", invalid="ignore"):  # inf t, silent as in Python
            terms = np.array(run, dtype=float)[:, None] * masses + counts
            tops = terms.max(axis=1)
            terms -= tops[:, None]
        out += [0.0 if t == 1 else None if math.isinf(top) else
                (top + math.log2(math.fsum(map(_POW2, row)))) / n
                for t, top, row in zip(run, tops.tolist(), terms.tolist())]
    return out


def beta_row(model: MeasureModel, n: int, t_grid) -> list[float]:
    """beta_n(model, n, t) for each t of the grid, from one level view."""
    t_grid = tuple(t_grid)  # read twice
    row = _betas(_view(model, n, t_grid), n, t_grid)
    if None in row:
        raise SolverError("log-sum over empty or degenerate terms")
    return row


def beta_n(model: MeasureModel, n: int, t: float) -> float:
    """Finite-level spectrum value at level n and moment t >= 0."""
    return beta_row(model, n, (t,))[0]


class ClosedFormSpectrum:
    """t -> beta(t) in closed form."""

    def __init__(self, fn, label: str) -> None:
        self._fn = fn
        self.label = label

    def beta(self, t: float) -> float:
        return self._fn(t)


class EmpiricalSpectrum:
    """Level-n spectrum on an increasing t-grid, each value computed on first read."""

    def __init__(self, level: int, t_grid, view) -> None:
        t_grid = tuple(float(t) for t in t_grid)
        if len(t_grid) < 2:
            raise ValidationError("empirical spectrum needs >= 2 grid points")
        if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
            raise ValidationError("t_grid must be strictly increasing")
        self.level, self.t_grid, self._view = level, t_grid, view
        self._values: list[float | None] = [None] * len(t_grid)

    def value(self, i: int) -> float:
        if self._values[i] is None:  # with the next CHUNK - 1 points
            run = _betas(self._view, self.level, self.t_grid[i:i + CHUNK])
            self._values[i:i + len(run)] = run
            if run[0] is None:
                raise SolverError("log-sum over empty or degenerate terms")
        return self._values[i]


def empirical_spectrum(model: MeasureModel, n: int, t_grid=DEFAULT_T_GRID) -> EmpiricalSpectrum:
    """The level-n curve: grid checked and level view built now, values when read."""
    return EmpiricalSpectrum(n, t_grid, _view(model, n, t_grid))


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


def s_b_solve(curve: ClosedFormSpectrum | EmpiricalSpectrum, b: float,
              t_max: float = 1.5) -> float:
    """Critical exponent inf{t > 0 : beta(t) - b*t <= 0}.

    Convexity of beta makes t -> beta(t) - b*t cross zero at most once from
    above. An empirical curve is read in grid order up to the crossing, then
    interpolated linearly; on a closed form it is bracketed (doubling t_max
    up to 64) and refined by Brent's root finder (Brent 1973, ch. 4) to near
    machine precision, comfortably inside the 1e-10 contract.
    """
    if b <= 0:
        raise ValidationError("s_b needs b > 0")

    if isinstance(curve, EmpiricalSpectrum):
        ts = curve.t_grid
        for i, t in enumerate(ts):
            g1 = curve.value(i) - b * t
            if g1 <= 0:
                if i == 0:
                    return 0.0 if t == 0 else t
                t0 = ts[i - 1]  # linear interpolation between grid neighbors
                return t0 if g1 == g0 else t0 + g0 * (t - t0) / (g0 - g1)
            g0 = g1
        raise SolverError(
            f"s_b crossing for b={b} lies outside the empirical t-grid"
        )

    def g(t: float) -> float:
        return curve.beta(t) - b * t

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


def minkowski(model: MeasureModel, levels) -> DimensionEstimate:
    """Finite-level Minkowski (box) dimension proxies log2(card D_n)/n."""
    levels = tuple(int(n) for n in levels)
    if not levels or any(n < 1 for n in levels):
        raise ValidationError("minkowski needs a nonempty range of levels >= 1")
    values = tuple(math.log2(model.card_positive(n)) / n for n in levels)
    return DimensionEstimate(levels, values, min(values), max(values))
