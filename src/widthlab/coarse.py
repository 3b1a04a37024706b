"""Coarse multifractal counts and optimized dimensions.

The partition function J_rho(Q) = nu(Q) * vol(Q)^(rho/m) drives both the
alpha-good counts N_{rho,n}(alpha) and the adaptive partition. Counts read
the level view `spectrum.level_log_masses` of the exact mass multiset, so
levels far beyond what full enumeration could reach stay cheap. Sorted once
per level (`count_view`), a view is an array of increasing log2 masses with,
per position, the number of cubes at or above it and that count's estimate
log2(count)/n; a profile then reads the counts of a whole alpha grid at one
level with one array search, and a sweep over rho shares the views of its
levels.

The alpha-good cubes themselves, and the separated families that the
packing probe builds from them, are in `widthlab.probe`.
"""
from __future__ import annotations

import itertools
import math
from operator import truediv
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .measures import DEFAULT_MAX_CUBES, MeasureModel
from .spectrum import level_log_masses


class CountView(NamedTuple):
    """One level sorted for counting: the log2 masses in increasing order;
    for position i the number of cubes at positions i and above, with one
    more entry, 0, for none (Python ints: deep levels pass 2^63 cubes); and
    the estimate log2(max(count, 1)) / n of each of those counts."""

    log_masses: np.ndarray
    at_or_above: list[int]
    estimates: np.ndarray


def count_view(model: MeasureModel, n: int, max_cubes: int = DEFAULT_MAX_CUBES) -> CountView:
    """The level-n `CountView` of the model, under the cap `max_cubes`."""
    view = sorted(level_log_masses(model, n, max_cubes))
    at_or_above = list(itertools.accumulate(count for _, count in reversed(view)))[::-1] + [0]
    return CountView(
        np.array([log_mass for log_mass, _ in view], dtype=float),
        at_or_above,
        np.array([math.log2(max(c, 1)) / n for c in at_or_above]),
    )


def default_alpha_grid(m: int, rho: float) -> list[float]:
    """Grid 0.1 .. m + rho + 2 in exact decimal steps of 0.05."""
    hi = m + Fraction(rho).limit_denominator(10**6) + 2
    return [k / 20 for k in range(2, math.floor(20 * hi) + 1)]


class CoarseProfile(NamedTuple):
    """Counts N_{rho,n}(alpha) with window F-estimates and optimized dims.

    F estimates use log2(max(count, 1)); the optimized dimensions take the
    grid supremum of estimate/alpha. `s_rho_estimate` is the optimized upper
    value, the finite-level stand-in for the large-deviation identity
    s_rho = optimized upper coarse dimension.
    """

    rho: float
    levels: tuple[int, ...]
    alpha_grid: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]  # [level][alpha]
    f_upper: tuple[float, ...]  # per alpha, window max of log2(count)/n
    f_lower: tuple[float, ...]  # per alpha, window min
    optimized_upper: float
    optimized_lower: float

    @property
    def s_rho_estimate(self) -> float:
        return self.optimized_upper

    def summary(self) -> dict:
        return {
            "rho": self.rho,
            "levels": list(self.levels),
            "optimized_upper": self.optimized_upper,
            "optimized_lower": self.optimized_lower,
            "s_rho_estimate": self.s_rho_estimate,
        }


def coarse_profile(
    model: MeasureModel,
    levels,
    rho: float,
    alpha_grid=None,
    max_cubes: int = DEFAULT_MAX_CUBES,
    views=None,
) -> CoarseProfile:
    """Fill the count matrix over levels x alpha grid and optimize.

    `views` maps each level to its `count_view`, for a caller that sweeps
    rho over one model; without it the views are built here.
    """
    levels = tuple(int(n) for n in levels)
    if not levels:
        raise ValidationError("coarse profile needs a nonempty level list")
    if min(levels) < 1:
        raise ValidationError("coarse profile needs levels n >= 1")
    if not 0 < rho < math.inf:
        raise ValidationError("rho must be positive and finite")
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(model.m, rho)
    alpha_grid = tuple(map(float, alpha_grid))
    if not alpha_grid:
        raise ValidationError("coarse profile needs a nonempty alpha grid")

    if not all(alpha > 0 for alpha in alpha_grid):
        raise ValidationError("alpha must be positive")

    if views is None:
        views = {n: count_view(model, n, max_cubes) for n in levels}
    # the alpha-good cubes of level n have log2(mass) >= (rho - alpha) * n:
    # they sit at and above the first such position of the sorted view. The
    # thresholds and the ratios f / alpha stay Python floats: numpy arithmetic
    # would page in one more block of its kernels (64 KB of peak RSS) for
    # about 1 ms a sweep
    positions = [np.searchsorted(views[n].log_masses, [(rho - alpha) * n for alpha in alpha_grid])
                 for n in levels]
    counts = [tuple(map(views[n].at_or_above.__getitem__, pos.tolist()))
              for n, pos in zip(levels, positions)]
    ests = np.stack([views[n].estimates[pos] for n, pos in zip(levels, positions)])
    f_upper, f_lower = ests.max(axis=0).tolist(), ests.min(axis=0).tolist()
    return CoarseProfile(
        rho=float(rho),
        levels=levels,
        alpha_grid=alpha_grid,
        counts=tuple(counts),
        f_upper=tuple(f_upper),
        f_lower=tuple(f_lower),
        optimized_upper=max(map(truediv, f_upper, alpha_grid)),
        optimized_lower=max(map(truediv, f_lower, alpha_grid)),
    )
