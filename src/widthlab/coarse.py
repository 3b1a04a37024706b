"""Coarse multifractal counts and optimized dimensions.

The partition function J_rho(Q) = nu(Q) * vol(Q)^(rho/m) drives both the
alpha-good counts N_{rho,n}(alpha) and the adaptive partition. Counts read
`spectrum.level_log_masses` of the model's integer level view, so levels
far beyond what full enumeration could reach stay cheap. Sorted once
per level (`count_view`), a view is an array of increasing log2 masses with,
per position, the number of cubes at or above it and that count's estimate
log2(count)/n. `coarse_profiles` then reads the counts of every (rho, alpha)
pair of a sweep over rho at one level with one array search, and each
rho's optimized dimensions with one segmented max; `coarse_profile` is its
one-rho case.

The alpha-good cubes themselves, and the separated families that the
packing probe builds from them, are in `widthlab.probe`.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ValidationError
from .measures import DEFAULT_MAX_CUBES, MeasureModel
from .spectrum import level_log_masses

PASS_PAIRS = 1 << 13  # (rho, alpha) pairs of a pass: a long sweep's arrays stay this small


class CountView(NamedTuple):
    """One level sorted for counting: the log2 masses in increasing order;
    for position i the number of cubes at positions i and above, with one
    more entry, 0, for none (Python ints: deep levels pass 2^63 cubes); and
    the estimate log2(max(count, 1)) / n of each of those counts."""

    log_masses: np.ndarray
    at_or_above: list[int]
    estimates: np.ndarray


def count_view(model: MeasureModel, n: int) -> CountView:
    """The level-n `CountView` of the model, under its cap `max_cubes`."""
    view = sorted(level_log_masses(model, n))
    at_or_above = list(itertools.accumulate(count for _, count in reversed(view)))[::-1] + [0]
    return CountView(
        np.array([log_mass for log_mass, _ in view], dtype=float),
        at_or_above,
        np.array([math.log2(max(c, 1)) / n for c in at_or_above]),
    )


def default_alpha_grid(m: int, rho: float) -> list[float]:
    """Grid 0.1 .. m + rho + 2 in exact decimal steps of 0.05, with rho read
    as L = Fraction(rho).limit_denominator(10**6). It is counted before it
    is built, as a range or grid flag is: past the default cube cap of
    values it would fill the memory first, and is a ValidationError."""
    return [k / 20 for k in range(2, _default_alpha_count(m, rho) + 2)]


def _default_alpha_count(m: int, rho: float) -> int:
    """The length of `default_alpha_grid(m, rho)`, checked against the cap.

    The count needs floor(20 L), and |L - rho| <= 5e-7, so floor(20 L) is
    floor(20 rho) unless 20 rho lies within 1e-5 of an integer: only there
    is L computed."""
    exact = Fraction(rho)
    steps, rest = divmod(20 * exact.numerator, exact.denominator)
    if min(rest, exact.denominator - rest) * 10**5 <= exact.denominator:
        steps = math.floor(20 * exact.limit_denominator(10**6))
    count = 20 * m + 39 + steps
    if count > DEFAULT_MAX_CUBES:
        shown = count if count < 1 << 64 else f"over 2^{count.bit_length() - 1}"
        raise ValidationError(f"the default alpha grid for rho={rho} holds {shown} values,"
                              f" more than {DEFAULT_MAX_CUBES}")
    return count


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


def coarse_profile(model: MeasureModel, levels, rho: float, alpha_grid=None) -> CoarseProfile:
    """The profile of one rho, the package's public name for the one-rho
    case of `coarse_profiles` and the `coarse` subcommand's entry."""
    return next(coarse_profiles(model, levels, [rho], alpha_grid))


def coarse_profiles(model: MeasureModel, levels, rhos: list[float],
                    alpha_grid=None) -> Iterator[CoarseProfile]:
    """The profile of each rho, over levels x alpha grid: `alpha_grid` for
    every rho, or each rho's default grid if it is None. The arguments are
    checked and the views built (in level order) now; the profiles come a
    pass at a time, of at most PASS_PAIRS (rho, alpha) pairs or one rho."""
    levels = tuple(int(n) for n in levels)
    if not levels:
        raise ValidationError("coarse profile needs a nonempty level list")
    if min(levels) < 1:
        raise ValidationError("coarse profile needs levels n >= 1")
    if not all(0 < rho < math.inf for rho in rhos):
        raise ValidationError("rho must be positive and finite")
    if alpha_grid is not None:  # a tuple from here on: the grid may come as an iterator
        alpha_grid = tuple(map(float, alpha_grid))
        if not alpha_grid:
            raise ValidationError("coarse profile needs a nonempty alpha grid")
        if not all(alpha > 0 for alpha in alpha_grid):
            raise ValidationError("alpha must be positive")
    views = {n: count_view(model, n) for n in levels} if rhos else {}
    return _passes(model.m, views, levels, rhos, alpha_grid)


def _passes(m: int, views, levels, rhos, alpha_grid) -> Iterator[CoarseProfile]:
    batch, pairs, longest = [], 0, ()
    for rho in rhos:
        if alpha_grid is None:  # each default grid is a prefix of the longest so far
            count = _default_alpha_count(m, rho)
            longest += tuple(k / 20 for k in range(len(longest) + 2, count + 2))
        grid = alpha_grid or longest[:count]
        if batch and pairs + len(grid) > PASS_PAIRS:
            yield from _one_pass(views, levels, batch)
            batch, pairs = [], 0
        batch.append((rho, grid))
        pairs += len(grid)
    if batch:
        yield from _one_pass(views, levels, batch)


def _one_pass(views, levels, batch) -> list[CoarseProfile]:
    # the alpha-good cubes of level n have log2(mass) >= (rho - alpha) * n:
    # they sit at and above the first such position of the sorted view. Each
    # array step rounds as its Python float counterpart would
    rhos, grids = zip(*batch)
    sizes = [len(grid) for grid in grids]
    alphas = np.array([alpha for grid in grids for alpha in grid])
    gaps = np.repeat(np.array(rhos, dtype=float), sizes) - alphas
    positions = [np.searchsorted(views[n].log_masses, gaps * n) for n in levels]
    counts = [list(map(views[n].at_or_above.__getitem__, pos.tolist()))
              for n, pos in zip(levels, positions)]
    ests = np.stack([views[n].estimates[pos] for n, pos in zip(levels, positions)])
    f_upper, f_lower = ests.max(axis=0), ests.min(axis=0)
    starts = np.cumsum([0, *sizes[:-1]])
    opt_upper = np.maximum.reduceat(f_upper / alphas, starts).tolist()
    opt_lower = np.maximum.reduceat(f_lower / alphas, starts).tolist()
    f_upper, f_lower = f_upper.tolist(), f_lower.tolist()
    cuts = [slice(start, start + size) for start, size in zip(starts.tolist(), sizes)]
    return [CoarseProfile(float(rho), levels, grid, tuple(tuple(row[cut]) for row in counts),
                          tuple(f_upper[cut]), tuple(f_lower[cut]), upper, lower)
            for rho, grid, cut, upper, lower in zip(rhos, grids, cuts, opt_upper, opt_lower)]
