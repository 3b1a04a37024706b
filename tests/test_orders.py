import contextlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from widthlab import (
    ClosedFormSpectrum,
    cli,
    EmbeddingParams,
    ValidationError,
    closed_form_spectrum,
    dual_exponent,
    empirical_spectrum,
    geometric_bounds,
    lebesgue,
    lower_order,
    minkowski,
    s_b_solve,
    upper_order,
    width_exponent,
)
from widthlab.coarse import coarse_profile
from widthlab.orders import STARS, case_label

from conftest import new_tetrahedron
from oracles import MoranMeasure, uncached

INF = math.inf


def test_dual_exponent():
    assert dual_exponent(2) == 2
    assert dual_exponent(1) == INF
    assert dual_exponent(INF) == 1
    assert dual_exponent(4) == pytest.approx(4 / 3)


def test_width_exponent_spec_examples():
    assert width_exponent("K", 2, INF) == pytest.approx(-0.5)
    assert width_exponent("G", 1, INF) == pytest.approx(-0.5)
    assert width_exponent("L", 1, 4) == pytest.approx(-0.25)


def test_width_exponent_tables():
    # one spot value per row of each table
    assert width_exponent("K", 4, 2) == pytest.approx(1 / 2 - 1 / 4)  # q <= p
    assert width_exponent("K", 1.5, 1.8) == 0.0  # p <= q <= 2
    assert width_exponent("K", 3, 5) == pytest.approx(1 / 5 - 1 / 3)  # 2 <= p <= q
    assert width_exponent("K", 1.5, 4) == pytest.approx(1 / 4 - 1 / 2)
    assert width_exponent("G", 1.2, 1.9) == pytest.approx(1 / 1.9 - 1 / 1.2)
    assert width_exponent("G", 3, 7) == 0.0
    assert width_exponent("G", 1.5, 6) == pytest.approx(1 / 2 - 1 / 1.5)
    assert width_exponent("L", 5, 2) == pytest.approx(1 / 2 - 1 / 5)
    assert width_exponent("L", 1.4, 1.9) == 0.0
    assert width_exponent("L", 1.5, 2.5) == pytest.approx(1 / 2.5 - 1 / 2)  # q <= p'
    assert width_exponent("L", 1.5, 4) == pytest.approx(1 / 2 - 1 / 1.5)  # q >= p'


exponent_values = st.one_of(
    st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, INF]),
    st.floats(1.0, 16.0),
)


@given(exponent_values, exponent_values)
@example(1.0, 1.5)
@example(4.0, 3.0)
@settings(max_examples=300)
def test_duality_and_linear_max(p, q):
    eg = width_exponent("G", p, q)
    ek_dual = width_exponent("K", dual_exponent(q), dual_exponent(p))
    assert eg == ek_dual  # exact equality
    el = width_exponent("L", p, q)
    assert el == max(width_exponent("K", p, q), width_exponent("G", p, q))


def _tables(p, q):
    return [width_exponent(star, p, q).hex() for star in STARS], case_label(p, q)


@given(exponent_values, exponent_values)
@settings(max_examples=200)
def test_exponent_caches_match_the_uncached_tables(p, q):
    # bit for bit, on cold caches and on warm ones; the conjugates' exact
    # Fractions are the inputs of the duality check
    want = uncached(_tables, p, q)
    assert _tables(p, q) == want == _tables(p, q)
    for r in (p, q):
        conjugate = dual_exponent.__wrapped__(r)
        assert (dual_exponent(r), type(dual_exponent(r))) == (conjugate, type(conjugate))
    dual = (dual_exponent(q), dual_exponent(p))
    assert _tables(*dual) == uncached(_tables, *dual)


def test_exponent_caches_match_on_the_bench_sweep():
    # the 6 x 6 (p, q) grid 1.5:4:0.5 of the order sweep
    grid = [1.5 + 0.5 * i for i in range(6)]
    want = [uncached(_tables, p, q) for p in grid for q in grid]
    assert [_tables(p, q) for p in grid for q in grid] == want


@given(exponent_values, exponent_values)
@settings(max_examples=300)
def test_pairwise_exponent_gap(p, q):
    values = [width_exponent(s, p, q) for s in "KGL"]
    for a in values:
        for b in values:
            assert abs(a - b) <= 0.5 + 1e-12


def test_params_validation():
    with pytest.raises(ValidationError):
        EmbeddingParams(m=3, sigma=1, p=2.0, q=2.0)  # rho_hat = -1/2
    with pytest.raises(ValidationError):
        EmbeddingParams(m=3, sigma=2, p=1.5, q=2.0)  # rho_hat = 0: no embedding into C
    with pytest.raises(ValidationError):
        EmbeddingParams(m=1, sigma=1, p=0.5, q=2.0)
    params = EmbeddingParams(m=2, sigma=3, p=INF, q=INF)
    assert params.rho_hat == 3 and math.isinf(params.rho)


def test_upper_S_lebesgue_m1():
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    curve = closed_form_spectrum(lebesgue(1))
    assert upper_order(params, curve).S_upper == pytest.approx(1.0, abs=1e-9)


def test_upper_S_tetrahedron(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    params = EmbeddingParams(m=3, sigma=2, p=2.0, q=2.0)
    s1 = s_b_solve(curve, 1.0)
    assert s1 == pytest.approx(0.5897481046380905, abs=1e-10)
    assert upper_order(params, curve).S_upper == pytest.approx(1 / (2 * s1), abs=1e-12)
    dims = minkowski(tetrahedron, range(2, 9))
    pinf = EmbeddingParams(m=3, sigma=2, p=2.0, q=INF)
    assert upper_order(pinf, curve, dims).S_upper == pytest.approx(0.25, abs=1e-12)


def test_upper_order_classical_rate():
    for m in (1, 2, 3):
        for sigma in (1, 2, 3):
            if sigma - m / 2 <= 0:
                continue
            params = EmbeddingParams(m=m, sigma=sigma, p=2.0, q=2.0)
            rep = upper_order(params, closed_form_spectrum(lebesgue(m)))
            for star in "KGL":
                assert rep.upper[star] == pytest.approx(-sigma / m, abs=1e-9)


def test_upper_order_tetrahedron_q2(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    rep = upper_order(EmbeddingParams(m=3, sigma=2, p=2.0, q=2.0), curve)
    for star in "KGL":
        assert rep.upper[star] == pytest.approx(-0.847819596311944, abs=1e-9)


def test_upper_order_tetrahedron_qinf(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    dims = minkowski(tetrahedron, range(2, 9))
    rep = upper_order(EmbeddingParams(m=3, sigma=2, p=2.0, q=INF), curve, dims)
    assert rep.upper["K"] == pytest.approx(-0.75, abs=1e-12)
    assert rep.upper["G"] == pytest.approx(-0.25, abs=1e-12)
    assert rep.upper["L"] == pytest.approx(-0.25, abs=1e-12)


def test_case_i_upper_order_is_negative(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    for p, q in ((3.0, 2.0), (INF, 4.0), (2.0, 2.0)):
        params = EmbeddingParams(m=3, sigma=2, p=p, q=q)
        rep = upper_order(params, curve)
        if rep.case == "I":
            assert rep.upper["K"] < 0


def test_lower_order_regular_collapse(quarter_cantor):
    curve = closed_form_spectrum(quarter_cantor)
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    prof = coarse_profile(quarter_cantor, range(6, 13), params.rho)
    rep = lower_order(params, curve, None, prof)
    assert rep.regularity_flag
    for star in "KGL":
        lo, hi = rep.lower[star]
        assert lo == hi == rep.upper[star]


def test_lower_order_qinf_formulas(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    dims = minkowski(tetrahedron, range(2, 9))
    rep3 = lower_order(
        EmbeddingParams(m=3, sigma=2, p=3.0, q=INF), curve, dims
    )
    # p = 3: rho_hat = 2 - 3/3 = 1 over box dimension 2, so the base is -1/2
    assert rep3.lower["K"][0] == pytest.approx(-0.5 - 1 / 3, abs=1e-12)
    assert rep3.lower["G"][0] == pytest.approx(-0.5, abs=1e-12)
    for star in "KGL":
        lo, hi = rep3.lower[star]
        assert lo <= hi <= rep3.upper[star]
    rep2 = lower_order(
        EmbeddingParams(m=3, sigma=2, p=2.0, q=INF), curve, dims
    )
    # p <= 2 branch degenerates to the p > 2 value at p = 2
    assert rep2.lower["G"][0] == pytest.approx(-0.25, abs=1e-12)
    assert rep2.regularity_flag


@given(exponent_values, st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_lower_orders_qinf_read_the_width_table(tetra_inputs, p, sigma):
    assume(sigma > 3 / p)  # rho_hat > 0
    curve, dims = tetra_inputs
    params = EmbeddingParams(m=3, sigma=sigma, p=p, q=INF)
    rep = lower_order(params, curve, dims)
    base = -params.rho_hat / dims.window_min
    for star in "KGL":
        assert rep.lower[star] == (base + rep.exponents[star],) * 2
    assert rep.lower["L"] == max(rep.lower["K"], rep.lower["G"])
    # the q = inf rows of the paper's tables: p > 2, and p <= 2
    ip = 0.0 if math.isinf(p) else 1 / p
    want = ({"K": base - ip, "G": base, "L": base} if p > 2 else
            {"K": base - 0.5, "G": base + 0.5 - ip, "L": base + 0.5 - ip})
    assert {star: rep.lower[star][0] for star in "KGL"} == pytest.approx(want, abs=1e-12)


def test_lower_order_needs_coarse(quarter_cantor):
    curve = closed_form_spectrum(quarter_cantor)
    with pytest.raises(ValidationError):
        lower_order(EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0), curve)


def _hilbert_orders(params, curve):
    # the q = 2 (Hilbert target) closed forms against the tables, s = s_rho:
    # all three orders -1/(2s) + 1/2 - 1/p for p >= 2; for p < 2, K and L at
    # -1/(2s) and G at -1/(2s) + 1/2 - 1/p
    assert params.q == 2
    report = upper_order(params, curve)
    s, ip = report.s_rho, 1.0 / params.p
    if params.p >= 2:
        expected = dict.fromkeys("KGL", -1.0 / (2 * s) + 0.5 - ip)
    else:
        expected = {"K": -1.0 / (2 * s), "L": -1.0 / (2 * s), "G": -1.0 / (2 * s) - ip + 0.5}
    for star in "KGL":
        assert report.upper[star] == pytest.approx(expected[star], abs=1e-12)
    return report.upper


def test_hilbert_cases(tetrahedron):
    leb_curve = closed_form_spectrum(lebesgue(1))
    out = _hilbert_orders(EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0), leb_curve)
    assert out["K"] == pytest.approx(-1.0, abs=1e-9)
    assert out["K"] == out["G"]  # no strict gap for p >= 2

    out4 = _hilbert_orders(
        EmbeddingParams(m=3, sigma=2, p=4.0, q=2.0), closed_form_spectrum(tetrahedron)
    )
    assert out4["K"] == out4["G"] == out4["L"]

    # p < 2: the strict gap between the K and G orders
    out15 = _hilbert_orders(EmbeddingParams(m=1, sigma=2, p=1.5, q=2.0), leb_curve)
    assert out15["K"] - out15["G"] == pytest.approx(1 / 1.5 - 0.5, abs=1e-12)


def test_geometric_bounds_examples(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    dims = minkowski(tetrahedron, range(2, 9))
    params = EmbeddingParams(m=3, sigma=2, p=2.0, q=2.0)
    chain = geometric_bounds(params, upper_order(params, curve, dims).S_upper, dims)
    assert chain[0] == pytest.approx(-0.847819596311944, abs=1e-9)
    assert chain[1] == pytest.approx(-0.75, abs=1e-12)
    assert chain[2] == pytest.approx(-2 / 3, abs=1e-12)

    leb3 = lebesgue(3)
    dims_l = minkowski(leb3, range(2, 5))
    S_l = upper_order(params, closed_form_spectrum(leb3), dims_l).S_upper
    chain_l = geometric_bounds(params, S_l, dims_l)
    assert chain_l[1] == pytest.approx(chain_l[2], abs=1e-12)


def test_geometric_bounds_ahlfors_tight():
    # the affine spectrum (1 - t) s of an Ahlfors-David s-regular measure, s = 1/2
    curve = ClosedFormSpectrum(lambda t: (1.0 - t) * 0.5, "ahlfors(s=0.5)")
    # dims for an s=1/2 measure: use the quarter-Cantor window
    from widthlab.spectrum import DimensionEstimate

    dims = DimensionEstimate((2, 4), (0.5, 0.5), 0.5, 0.5)
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    chain = geometric_bounds(params, upper_order(params, curve, dims).S_upper, dims)
    assert chain[0] == pytest.approx(-1.5, abs=1e-9)
    assert chain[1] == pytest.approx(-1.5, abs=1e-12)
    assert chain[2] == pytest.approx(-1.0, abs=1e-12)


def test_monotone_in_smoothness(tetrahedron):
    curve = closed_form_spectrum(tetrahedron)
    previous = 0.0
    for sigma in (2, 3, 4, 5):
        rep = upper_order(EmbeddingParams(m=3, sigma=sigma, p=2.0, q=2.0), curve)
        assert rep.upper["K"] < previous
        previous = rep.upper["K"]


def _branch_values(star, p, q, region):
    ip = 0.0 if math.isinf(p) else 1.0 / p
    iq = 0.0 if math.isinf(q) else 1.0 / q
    if star in ("K",):
        table = {"I": iq - ip, "II": 0.0, "III": iq - ip, "IV": iq - 0.5}
    elif star == "G":
        table = {"I": iq - ip, "II": iq - ip, "III": 0.0, "IV": 0.5 - ip}
    else:
        table = {
            "I": iq - ip,
            "II": 0.0,
            "III": 0.0,
            "IV.a": iq - 0.5,
            "IV.b": 0.5 - ip,
        }
    return table[region]


def test_boundary_continuity_two_sided(tetrahedron):
    """At each case boundary the adjacent branch formulas give equal orders."""
    curve = closed_form_spectrum(tetrahedron)

    def uao(star, p, q, region):
        # sigma = 3 keeps rho_hat = sigma - 3/p positive at p = 1.5; S cancels
        params = EmbeddingParams(m=3, sigma=3, p=p, q=q)
        return -upper_order(params, curve).S_upper + _branch_values(star, p, q, region)

    # p = 2 boundary (II|IV below q=2 side handled at q boundary; here III|IV)
    for star, regions in (("K", ("III", "IV")), ("G", ("III", "IV"))):
        a = uao(star, 2.0, 3.0, regions[0])
        b = uao(star, 2.0, 3.0, regions[1])
        assert abs(a - b) < 1e-9
    # q = 2 boundary (II|IV) at p = 1.5
    for star in ("K", "G"):
        a = uao(star, 1.5, 2.0, "II")
        b = uao(star, 1.5, 2.0, "IV")
        assert abs(a - b) < 1e-9
    # p = q boundary (I|II at 1.7, I|III at 3)
    for star in ("K", "G", "L"):
        region_lo = "II" if star != "L" else "II"
        assert abs(uao(star, 1.7, 1.7, "I") - uao(star, 1.7, 1.7, region_lo)) < 1e-9
        assert abs(uao(star, 3.0, 3.0, "I") - uao(star, 3.0, 3.0, "III")) < 1e-9
    # q = p' boundary for the linear widths (p = 1.5, q = 3)
    assert abs(uao("L", 1.5, 3.0, "IV.a") - uao("L", 1.5, 3.0, "IV.b")) < 1e-9
    # epsilon probe across p = 2 at fixed q (table + S continuous)
    eps = 1e-8
    for star in "KGL":
        left = upper_order(
            EmbeddingParams(m=3, sigma=2, p=2.0 - eps, q=3.0), curve
        ).upper[star]
        right = upper_order(
            EmbeddingParams(m=3, sigma=2, p=2.0 + eps, q=3.0), curve
        ).upper[star]
        assert abs(left - right) < 1e-6


# -- order invariants over random (p, q) on the tetrahedron ------------------

ORDER_TOL = 1e-12  # fixed beforehand: float rounding of -S + table exponent


@pytest.fixture(scope="module")
def tetra_inputs(tetrahedron):
    """Spectrum curve and Minkowski window of the tetrahedron, built once."""
    return closed_form_spectrum(tetrahedron), minkowski(tetrahedron, range(2, 6))


@given(exponent_values, exponent_values, st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_lower_order_below_upper(tetrahedron, tetra_inputs, p, q, sigma):
    assume(sigma > 3 / p)  # rho_hat > 0
    curve, dims = tetra_inputs
    params = EmbeddingParams(m=3, sigma=sigma, p=p, q=q)
    prof = None
    if not math.isinf(q):
        prof = coarse_profile(tetrahedron, (3, 4, 5), params.rho)
    rep = lower_order(params, curve, dims, prof)
    for star in "KGL":
        lo, hi = rep.lower[star]
        assert lo <= hi <= rep.upper[star] + ORDER_TOL


@given(exponent_values, exponent_values)
@settings(max_examples=100, deadline=None)
def test_upper_orders_nonincreasing_in_sigma(tetra_inputs, p, q):
    curve, dims = tetra_inputs
    sigmas = [s for s in range(1, 7) if s > 3 / p]  # rho_hat > 0
    reports = [upper_order(EmbeddingParams(m=3, sigma=s, p=p, q=q), curve, dims)
               for s in sigmas]
    for coarser, smoother in zip(reports, reports[1:]):
        for star in "KGL":
            assert smoother.upper[star] <= coarser.upper[star] + ORDER_TOL


# The Hilbert case in 1-D. For a self-similar measure on [0, 1] whose pieces
# S_i [0, 1] are disjoint, with ratios r_i and weights p_i, the eigenvalues of
# the Krein-Feller problem decay with the exponent gamma that solves
# sum (p_i r_i)^gamma = 1 (Fujita 1987; Solomyak & Verbitsky 1995), so the
# Kolmogorov widths of W^{1,2} in L^2_nu decay like n^(-1 / (2 gamma)). The
# paper's upper K order at sigma = 1, p = q = 2 is the same number. Here that
# closed form is solved by bisection and compared with the order the command
# line reports at its default levels. Out of scope: sigma >= 2 needs
# C^(sigma - 1) elements, and m >= 2 the setting of Naimark & Solomyak.

def hilbert_order(pieces) -> float:
    """-1 / (2 gamma), with sum (p_i r_i)^gamma = 1 over pieces (r_i, p_i):
    the sum falls from len(pieces) >= 2 at gamma = 0 to below 1 at 1."""
    lo, hi = 0.0, 1.0
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return -1 / (2 * mid)
        if math.fsum(float(p * r) ** mid for r, p in pieces) > 1:
            lo = mid
        else:
            hi = mid


def cli_upper_k_order(maps) -> float:
    """`order --sigma 1 --p 2 --q 2`'s upper K order for the 1-D IFS of
    maps (ratio_log2, offset, prob)."""
    spec = {"type": "ifs", "m": 1, "probs": [str(p) for *_, p in maps],
            "maps": [{"ratio_log2": k, "offset": [o]} for k, o, _ in maps]}
    with tempfile.TemporaryDirectory() as cwd:
        (Path(cwd) / "ifs.json").write_text(json.dumps(spec))
        out = Path(cwd) / "out.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["order", "--measure", str(Path(cwd) / "ifs.json"), "--sigma", "1",
                             "--p", "2", "--q", "2", "--out", str(out)])
        assert code == cli.EX_OK
        return json.loads(out.read_text().partition("\n")[2])["upper_order"]["K"]


def _pieces(maps):
    return [(Fraction(1, 1 << k), Fraction(p)) for k, _, p in maps]


@pytest.mark.parametrize("maps", [
    [(1, 0, "0.6"), (1, 1, "0.4")],
    [(1, 0, "0.8"), (1, 1, "0.2")],
    [(2, 0, "0.7"), (2, 3, "0.3")],
], ids=["bernoulli-6-4", "bernoulli-8-2", "cantor-7-3"])
def test_hilbert_order_matches_the_closed_form(maps):
    assert abs(cli_upper_k_order(maps) - hilbert_order(_pieces(maps))) < 1e-9


@st.composite
def common_ratio_ifs(draw):
    """A 1-D IFS of 2..2^k maps of one ratio 2^-k, at distinct offsets."""
    k = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=2, max_size=1 << k,
                            unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(offsets), max_size=len(offsets)))
    return [(k, o, Fraction(w, sum(weights))) for o, w in zip(offsets, weights)]


@given(common_ratio_ifs())
@settings(max_examples=30, deadline=None)
def test_hilbert_order_matches_the_closed_form_on_common_ratios(maps):
    assert abs(cli_upper_k_order(maps) - hilbert_order(_pieces(maps))) < 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: on a mixed-ratio IFS `order` reads the "
                   "finite-level curve at max(levels), not the limiting spectrum")
def test_hilbert_order_matches_the_closed_form_on_mixed_ratios():
    # closed form -1.28382, `order` -1.25778 at the default levels 4..10
    maps = [(1, 0, "0.35"), (2, 3, "0.65")]
    assert abs(cli_upper_k_order(maps) - hilbert_order(_pieces(maps))) < 1e-9


def _order_report(model, params, levels):
    """The report `order` writes for one embedding with finite q, built as
    the command line builds it."""
    curve = closed_form_spectrum(model) or empirical_spectrum(model, max(levels))
    profile = coarse_profile(model, levels, params.rho)
    return lower_order(params, curve, minkowski(model, levels), profile).to_dict()


# level windows from 4..6 to 48..62: the Moran measure's share of biased
# levels moves between 1/3 and 2/3 across them
MORAN_WINDOWS = [range(4, 7), range(8, 13), range(12, 19), range(16, 25), range(24, 33),
                 range(32, 41), range(40, 49), range(48, 63)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the regularity flag compares the "
                   "optimized coarse dimensions of one finite window, which no rule on a finite "
                   "window can certify")
def test_order_never_flags_regularity_on_a_moran_measure():
    # its upper and lower L^q-spectra differ (s_rho 0.487317 against
    # 0.474636 at rho = 1), so its orders need not exist; every window reads
    # `true` today, with S_upper 1.0260 to 1.0530 following max(levels)
    params = EmbeddingParams(m=1, sigma=1, p=2, q=2)
    flags = [_order_report(MoranMeasure(), params, levels)["regularity_flag"]
             for levels in MORAN_WINDOWS]
    assert flags == [False] * len(MORAN_WINDOWS)


def test_order_may_flag_regularity_on_the_tetrahedron():
    # the negative control: on a regular measure the flag can read `true`,
    # so the test above does not just forbid it
    params = EmbeddingParams(m=3, sigma=2, p=2, q=2)
    assert _order_report(new_tetrahedron(), params, range(3, 7))["regularity_flag"] is True
