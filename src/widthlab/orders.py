"""Approximation orders of Sobolev embeddings from the measure's spectrum.

Exact finite-dimensional width exponent tables for the Kolmogorov, Gelfand,
and linear widths (evaluated in ``Fraction`` arithmetic, so the K/G duality
and L = max(K, G) hold without rounding) combine with the spectral quantity
S_upper = 1/(q * s_rho) (or rho_hat / upper box dimension when q is
infinite) into the upper approximation orders; lower orders come as
sandwich intervals from the coarse profile, or exactly for q = infinity.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .coarse import CoarseProfile
from .errors import SolverError, ValidationError
from .spectrum import ClosedFormSpectrum, DimensionEstimate, EmpiricalSpectrum, s_b_solve

INF = math.inf
STARS = ("K", "G", "L")
_TABLE_TOL = 1e-12
# optimized (or box) dimension estimates this close mark the measure regular
REGULARITY_TOL = 0.05


def _inv(r: float) -> float:
    """1/r with the extended-real convention 1/inf = 0."""
    return 0.0 if math.isinf(r) else 1.0 / r


@functools.lru_cache(maxsize=256)
def _inv_exact(r) -> Fraction:
    """1/r as an exact Fraction, with 1/inf = 0; computed once per exponent."""
    return Fraction(0) if math.isinf(r) else 1 / Fraction(r)


@functools.lru_cache(maxsize=256)
def dual_exponent(r):
    """Hoelder conjugate r' = r/(r-1), with 1' = inf and inf' = 1.

    For finite r > 1 the conjugate is the exact ``Fraction`` r/(r-1), so
    1/r + 1/r' = 1 holds without rounding and the width tables can check the
    K/G duality exactly. Each exponent's conjugate is computed once, as the
    width tables and `case_label` ask for it at every (p, q) point.
    """
    if not 1 <= r:
        raise ValidationError(f"exponent must lie in [1, inf], got {r}")
    if r == 1:
        return INF
    if math.isinf(r):
        return 1.0
    return Fraction(r) / (Fraction(r) - 1)


class _EmbeddingParams(NamedTuple):
    m: int
    sigma: int
    p: float
    q: float


class EmbeddingParams(_EmbeddingParams):
    """Validated parameters of the embedding W^{sigma,p} -> L^q_nu."""

    __slots__ = ()

    def __new__(cls, m: int, sigma: int, p: float, q: float) -> "EmbeddingParams":
        if m < 1:
            raise ValidationError("dimension m must be >= 1")
        if sigma < 1 or int(sigma) != sigma:
            raise ValidationError("smoothness sigma must be a positive integer")
        for name, r in (("p", p), ("q", q)):
            if not (1 <= r or math.isinf(r)):
                raise ValidationError(f"{name} must lie in [1, inf], got {r}")
        self = super().__new__(cls, m, sigma, p, q)
        if self.rho_hat <= 0:
            raise ValidationError(
                f"smoothness surplus sigma - m/p = {self.rho_hat} must be positive"
            )
        return self

    @property
    def rho_hat(self) -> float:
        return self.sigma - self.m * _inv(self.p)

    @property
    def rho(self) -> float:
        return INF if math.isinf(self.q) else self.q * self.rho_hat

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "sigma": self.sigma,
            "p": self.p,
            "q": self.q,
            "rho_hat": self.rho_hat,
            "rho": self.rho,
        }


def _branches(star: str, p, q) -> list[Fraction]:
    """All applicable table branches, exactly (overlaps must agree)."""
    ip, iq = _inv_exact(p), _inv_exact(q)
    half = Fraction(1, 2)
    out: list[Fraction] = []
    if star == "K":
        if q <= p or 2 <= p <= q:
            out.append(iq - ip)
        if p <= q <= 2:
            out.append(Fraction(0))
        if p <= 2 <= q:
            out.append(iq - half)
    elif star == "G":
        if q <= p or p <= q <= 2:
            out.append(iq - ip)
        if 2 <= p <= q:
            out.append(Fraction(0))
        if p <= 2 <= q:
            out.append(half - ip)
    elif star == "L":
        pd = dual_exponent(p)
        if q <= p:
            out.append(iq - ip)
        if 2 <= p <= q or p <= q <= 2:
            out.append(Fraction(0))
        if p <= 2 <= q <= pd:
            out.append(iq - half)
        if p <= 2 and pd <= q:
            out.append(half - ip)
    else:
        raise ValidationError(f"unknown width family {star!r}")
    return out


def width_exponent(star: str, p, q) -> float:
    """Exponent e with d_n(ball_p^{2n}, l_q^{2n}) ~ n^e for the given family.

    The branches are evaluated exactly on the (exactly representable) inputs;
    overlapping case boundaries are evaluated on every applicable branch and
    asserted equal. The result is rounded to float once, at the end.
    """
    values = _branches(star, p, q)
    if not values:
        raise ValidationError(f"no table branch applies for star={star}, p={p}, q={q}")
    first = values[0]
    if any(v != first for v in values[1:]):
        raise SolverError(
            f"inconsistent overlapping branches for {star}, p={p}, q={q}: {values}"
        )
    return float(first)


def case_label(p: float, q: float) -> str:
    """Region of the (p, q) square: I, II, III, IV.a, or IV.b."""
    if q <= p:
        return "I"
    if p <= q <= 2:
        return "II"
    if 2 <= p <= q:
        return "III"
    # p <= 2 <= q from here on
    return "IV.a" if q <= dual_exponent(p) else "IV.b"


def _solve_S(
    curve: ClosedFormSpectrum | EmpiricalSpectrum,
    dims: Optional[DimensionEstimate],
    params: EmbeddingParams,
) -> tuple[Optional[float], float]:
    """(s_rho, S_upper), solving for s_rho once; s_rho is None for q = inf.
    A closed-form curve is cross-checked against a second closed form."""
    if math.isinf(params.q):
        if dims is None:
            raise ValidationError("q = inf needs a dimension estimate")
        if dims.window_max <= 0:
            raise SolverError(
                "upper box dimension estimate is 0 (degenerate finite-support measure)"
            )
        return None, params.rho_hat / dims.window_max
    s = s_b_solve(curve, params.rho)
    if s <= 0:
        raise SolverError(
            "s_rho = 0 (degenerate spectrum); approximation orders are -inf"
        )
    value = 1.0 / (params.q * s)
    if isinstance(curve, ClosedFormSpectrum):
        # alternative closed form: 1/S = inf{t > 0 : beta(t/q) - t*rho_hat <= 0};
        # beta(1) = 0 puts the crossing at or below t = q
        sub = ClosedFormSpectrum(lambda t: curve.beta(t / params.q), "beta(t/q)")
        t_star = s_b_solve(sub, params.rho_hat, t_max=max(1.5, params.q))
        if abs(t_star - 1.0 / value) > 1e-8 * max(1.0, abs(t_star)):
            raise SolverError(
                f"S_upper cross-check failed: 1/S={1.0 / value} vs {t_star}"
            )
    return s, value


class OrderReport:
    """Everything the order calculator knows about one embedding. The lower
    orders (`S_lower_est`, `lower`, `regularity_flag`) are set by
    `lower_order`."""

    def __init__(self, params: EmbeddingParams, case: str, exponents: dict[str, float],
                 S_upper: float, s_rho: Optional[float], upper: dict[str, float],
                 dim_upper: Optional[float] = None, dim_lower: Optional[float] = None) -> None:
        self.params, self.case, self.exponents = params, case, exponents
        self.S_upper, self.s_rho, self.upper = S_upper, s_rho, upper
        self.dim_upper, self.dim_lower = dim_upper, dim_lower
        self.S_lower_est: Optional[float] = None
        self.lower: Optional[dict[str, tuple[float, float]]] = None
        self.regularity_flag: Optional[bool] = None

    def to_dict(self) -> dict:
        out = {
            "params": self.params.to_dict(),
            "case": self.case,
            "exponents": self.exponents,
            "S_upper": self.S_upper,
            "s_rho": self.s_rho,
            "upper_order": self.upper,
        }
        if self.lower is not None:
            out["S_lower_est"] = self.S_lower_est
            out["lower_order"] = {k: list(v) for k, v in self.lower.items()}
            out["regularity_flag"] = self.regularity_flag
        if self.dim_upper is not None:
            out["dim_upper"] = self.dim_upper
            out["dim_lower"] = self.dim_lower
        return out


def upper_order(
    params: EmbeddingParams,
    curve: ClosedFormSpectrum | EmpiricalSpectrum,
    dims: Optional[DimensionEstimate] = None,
) -> OrderReport:
    """Upper approximation orders -S_upper + e_star for all three widths."""
    p, q = params.p, params.q
    s_rho, S = _solve_S(curve, dims, params)
    exps = {star: width_exponent(star, p, q) for star in STARS}
    if abs(exps["L"] - max(exps["K"], exps["G"])) > _TABLE_TOL:
        raise SolverError("linear exponent is not the max of K and G exponents")
    upper = {star: -S + exps[star] for star in STARS}
    if abs(upper["L"] - max(upper["K"], upper["G"])) > _TABLE_TOL:
        raise SolverError("upper linear order is not the max of K and G orders")
    return OrderReport(
        params=params,
        case=case_label(p, q),
        exponents=exps,
        S_upper=S,
        s_rho=s_rho,
        upper=upper,
        dim_upper=None if dims is None else dims.window_max,
        dim_lower=None if dims is None else dims.window_min,
    )


def lower_order(
    params: EmbeddingParams,
    curve: ClosedFormSpectrum | EmpiricalSpectrum,
    dims: Optional[DimensionEstimate] = None,
    coarse: Optional[CoarseProfile] = None,
) -> OrderReport:
    """Lower approximation orders.

    Finite q: sandwich intervals [uAO - (S_lower_est - S_upper), uAO] with
    S_lower_est from the coarse profile's optimized lower dimension; the
    regularity flag is set when the optimized upper and lower estimates
    coincide within REGULARITY_TOL (then the order exists and the interval is
    reported as collapsed onto the upper order).

    q = inf: exact values -rho_hat / dim_lower + e_star, from the lower box
    dimension estimate and the width exponent table of the upper orders.
    """
    report = upper_order(params, curve, dims)
    if math.isinf(params.q):
        if dims is None:
            raise ValidationError("q = inf needs a dimension estimate")
        dim_lo = dims.window_min
        if dim_lo <= 0:
            raise SolverError("lower box dimension estimate is 0")
        base = -params.rho_hat / dim_lo
        report.lower = {star: (base + e, base + e) for star, e in report.exponents.items()}
        report.S_lower_est = params.rho_hat / dim_lo
        report.regularity_flag = abs(dims.window_max - dim_lo) <= REGULARITY_TOL
        return report

    if coarse is None:
        raise ValidationError("finite q needs a coarse profile for lower orders")
    if coarse.optimized_lower <= 0:
        report.S_lower_est = INF
        report.lower = {star: (-INF, v) for star, v in report.upper.items()}
        report.regularity_flag = False
        return report
    S_lower_est = 1.0 / (params.q * coarse.optimized_lower)
    width = max(0.0, S_lower_est - report.S_upper)
    report.S_lower_est = S_lower_est
    report.regularity_flag = (
        abs(coarse.optimized_lower - coarse.optimized_upper) <= REGULARITY_TOL
    )
    if report.regularity_flag:
        report.lower = {star: (v, v) for star, v in report.upper.items()}
    else:
        report.lower = {star: (v - width, v) for star, v in report.upper.items()}
    return report


def geometric_bounds(
    params: EmbeddingParams,
    S: float,
    dims: DimensionEstimate,
) -> tuple[float, float, float]:
    """The chain -S <= -rho_hat/dim_upper - 1/q <= -rho_hat/m - 1/q, S = S_upper."""
    if math.isinf(params.q):
        raise ValidationError("geometric bounds are stated for finite q")
    iq = _inv(params.q)
    middle = -params.rho_hat / dims.window_max - iq
    right = -params.rho_hat / params.m - iq
    if not (-S <= middle + 1e-12 and middle <= right + 1e-12):
        raise SolverError(
            f"geometric bound chain violated: {-S} <= {middle} <= {right}"
        )
    return (-S, middle, right)
