import functools
import logging
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from widthlab import (
    AtomicMeasure,
    Bump,
    DyadicCube,
    EmbeddingParams,
    IfsMap,
    IfsMeasure,
    Polynomial,
    SinProduct,
    SolverError,
    UniformMeasure,
    ValidationError,
    build_partition,
    coordinate,
    decay_experiment,
    lebesgue,
    lq_error,
    moment_project,
    packing_probe,
    piecewise_project,
    polynomial_space_dim,
    root,
    scaling_check,
    sobolev_seminorm,
)
from widthlab import empirical
from widthlab.functions import monomials, multi_indices
from widthlab.quadrature import integrate_on_cell

from oracles import descent_positive, oracle_locate, oracle_moment_project


def test_polynomial_space_dim():
    assert polynomial_space_dim(1, 3) == 3
    assert polynomial_space_dim(2, 2) == 3
    assert polynomial_space_dim(2, 3) == 6
    assert polynomial_space_dim(3, 2) == 4


def test_moment_project_mean():
    coeffs = moment_project(coordinate(1), root(1), 0)
    assert coeffs[0] == pytest.approx(0.5, abs=1e-12)


def test_moment_project_x_squared_oracle():
    # solve the 2x2 moment system by hand: r(x) = x - 1/6
    coeffs = moment_project(Polynomial(1, {(2,): 1.0}), root(1), 1)
    assert coeffs[0] == pytest.approx(-1 / 6, abs=1e-10)
    assert coeffs[1] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m,degree", [(1, 2), (2, 1), (2, 2)])
def test_moment_project_reproduces_polynomials(m, degree):
    rng = np.random.default_rng(7)
    exps = multi_indices(m, degree)
    coeffs = {k: float(c) for k, c in zip(exps, rng.uniform(-2, 2, len(exps)))}
    f = Polynomial(m, coeffs)
    cell = DyadicCube(2, (1,) * m)
    out = moment_project(f, cell, degree)
    # expected coefficients in rescaled-cell coordinates: f(lower + side*y)
    side = float(cell.side)
    lower = [float(x) for x in cell.lower()]
    y = rng.uniform(0, 1, size=(40, m))
    x = np.array(lower) + side * y
    assert np.abs(
        monomials(exps, y) @ out - f(x)
    ).max() < 1e-10


def test_moment_residuals_vanish():
    f = SinProduct(1)
    cell = DyadicCube(1, (0,))
    degree = 2
    coeffs = moment_project(f, cell, degree)
    exps = np.array(multi_indices(1, degree))
    side = float(cell.side)
    lower = np.array([float(v) for v in cell.lower()])

    def residual(k):
        def integrand(pts):
            y = (pts - lower) / side
            mono = np.prod(y ** np.array(k), axis=1)
            return mono * (np.asarray(f(pts)) - monomials(exps, y) @ coeffs)

        return integrate_on_cell(integrand, cell, 12)

    for k in multi_indices(1, degree):
        assert abs(residual(k)) < 1e-12


def test_projection_is_best_l2_approximation():
    f = SinProduct(1)
    cell = DyadicCube(1, (1,))
    degree = 1
    coeffs = moment_project(f, cell, degree)
    exps = np.array(multi_indices(1, degree))
    side = float(cell.side)
    lower = np.array([float(v) for v in cell.lower()])

    def l2_err(c):
        def integrand(pts):
            y = (pts - lower) / side
            return (np.asarray(f(pts)) - monomials(exps, y) @ c) ** 2

        return integrate_on_cell(integrand, cell, 16)

    best = l2_err(coeffs)
    for delta in ([0.01, 0.0], [0.0, -0.02], [0.005, 0.005]):
        assert best <= l2_err(coeffs + np.array(delta)) + 1e-15


def test_piecewise_constant_reproduced():
    f = Polynomial(1, {(0,): 3.25})
    cells = [DyadicCube(2, (i,)) for i in range(4)]
    approx = piecewise_project(f, cells, 0)
    assert np.allclose(approx.coeffs.ravel(), 3.25, atol=1e-12)
    pts = np.array([[0.1], [0.6], [0.99]])
    assert np.allclose(approx.evaluate(pts), 3.25, atol=1e-12)


def test_piecewise_cell_means():
    approx = piecewise_project(
        coordinate(1), [DyadicCube(1, (0,)), DyadicCube(1, (1,))], 0
    )
    assert approx.coeffs.ravel() == pytest.approx([0.25, 0.75], abs=1e-12)


def _mixed_cells(m):
    """Cells on levels 1 .. 6, over the bump's slopes and plateau."""
    return [
        DyadicCube(level, tuple((j * ((1 << level) - 1)) // (m + 1) + (level % 2) * (j % 2)
                                for j in range(1, m + 1)))
        for level in (1, 3, 2, 6, 4, 5)
    ]


def _projection_functions(m):
    rng = np.random.default_rng(m)
    poly = {k: float(c) for k, c in zip(multi_indices(m, 4), rng.uniform(-2, 2, 100))}
    return [SinProduct(m, [1.0 + i for i in range(m)]), Polynomial(m, poly), Bump(m)]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_batched_projection_matches_per_cell_body(m, degree, monkeypatch):
    cells = _mixed_cells(m)
    assert len({c.level for c in cells}) == len(cells)
    for f in _projection_functions(m):
        want = np.vstack([oracle_moment_project(f, c, degree) for c in cells])
        assert np.array_equal(piecewise_project(f, cells, degree).coeffs, want)
        assert np.array_equal(moment_project(f, cells[2], degree), want[2])
        # blocks of one and of two cells per call of f
        for block in (1, 2 * len(empirical.unit_rule(m, max(2 * (degree + 1), 8))[0])):
            monkeypatch.setattr(empirical, "PROJECT_BLOCK_POINTS", block)
            assert np.array_equal(piecewise_project(f, cells, degree).coeffs, want)
        monkeypatch.undo()


@pytest.mark.parametrize("block", [None, 1, 16])
def test_projection_names_first_non_finite_cube(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(empirical, "PROJECT_BLOCK_POINTS", block)
    cells = [DyadicCube(2, (0,)), DyadicCube(2, (2,)), DyadicCube(3, (7,)), DyadicCube(1, (0,))]
    f = lambda pts: np.where(np.atleast_2d(pts)[:, 0] > 0.5, np.nan, 1.0)  # noqa: E731
    with pytest.raises(SolverError, match=r"^non-finite function values on cube 2:2$"):
        piecewise_project(f, cells, 1)
    with pytest.raises(SolverError, match=r"^non-finite function values on cube 3:7$"):
        moment_project(f, cells[2], 0)


def test_gram_built_once_per_dimension_and_degree(caplog):
    empirical._hilbert_gram.cache_clear()
    caplog.set_level(logging.DEBUG, logger="widthlab.empirical")
    cells = [DyadicCube(2, (i, j)) for i in range(4) for j in range(4)]
    for _ in range(2):
        piecewise_project(SinProduct(2), cells, 1)
        piecewise_project(SinProduct(2), cells, 1, npts=12)
        moment_project(SinProduct(2), cells[5], 1)
    piecewise_project(SinProduct(2), cells, 2)
    logged = [r.getMessage() for r in caplog.records if "moment gram" in r.getMessage()]
    assert [msg.split(" cond=")[0] for msg in logged] == [
        "moment gram: m=2 degree=1", "moment gram: m=2 degree=2"
    ]


def test_piecewise_refinement_converges_pointwise():
    f = SinProduct(1)
    pts = np.array([[0.23], [0.57], [0.81]])
    errors = []
    for n in (2, 4, 6):
        cells = [DyadicCube(n, (i,)) for i in range(1 << n)]
        approx = piecewise_project(f, cells, 0)
        errors.append(np.abs(approx.evaluate(pts) - f(pts)).max())
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 0.02


def test_lq_error_analytic_two_cell():
    approx = piecewise_project(
        coordinate(1), [DyadicCube(1, (0,)), DyadicCube(1, (1,))], 0
    )
    err = lq_error(coordinate(1), approx, lebesgue(1), 2.0, 10)
    assert err == pytest.approx(1 / math.sqrt(48), abs=1e-3)
    err_inf = lq_error(coordinate(1), approx, lebesgue(1), math.inf, 10)
    assert err_inf == pytest.approx(0.25, abs=2.0**-10)


def test_lq_error_zero_for_own_projection():
    f = Polynomial(1, {(1,): 2.0, (0,): -0.5})
    cells = [DyadicCube(2, (i,)) for i in range(4)]
    approx = piecewise_project(f, cells, 1)
    assert lq_error(f, approx, lebesgue(1), 2.0, 8) < 1e-12


def test_lq_error_depth_precondition():
    approx = piecewise_project(coordinate(1), [DyadicCube(3, (i,)) for i in range(8)], 0)
    with pytest.raises(ValidationError):
        lq_error(coordinate(1), approx, lebesgue(1), 2.0, 4)


def test_sobolev_seminorm_examples():
    assert sobolev_seminorm(coordinate(1), 1, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert sobolev_seminorm(SinProduct(1), 1, 2.0) == pytest.approx(
        math.sqrt(2) * math.pi, abs=1e-3
    )
    assert sobolev_seminorm(coordinate(1), 2, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert sobolev_seminorm(SinProduct(1), 1, math.inf) == pytest.approx(
        2 * math.pi, abs=1e-3
    )


def test_sobolev_seminorm_fd_fallback():
    # plain callable without exact partials
    f = lambda pts: np.sin(2 * math.pi * np.atleast_2d(pts)[:, 0])
    value = sobolev_seminorm(f, 1, 2.0, resolution=5, m=1)
    assert value == pytest.approx(math.sqrt(2) * math.pi, abs=1e-3)


@pytest.mark.parametrize("sigma", [1, 2])
@pytest.mark.parametrize("p", [2.0, math.inf])
def test_scaling_check_1d(sigma, p):
    ratio = scaling_check(Bump(1), DyadicCube(3, (2,)), sigma, p)
    assert ratio == pytest.approx(1.0, abs=1e-3)


def test_scaling_check_root_cube():
    assert scaling_check(Bump(1), root(1), 1, 2.0) == pytest.approx(1.0, abs=1e-3)


def test_scaling_check_2d():
    ratio = scaling_check(Bump(2), DyadicCube(1, (0, 1)), 1, 2.0, resolution=3)
    assert ratio == pytest.approx(1.0, abs=1e-3)


def test_decay_experiment_classical(leb1):
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    result = decay_experiment(
        SinProduct(1), leb1, params, [4.0**-k for k in range(2, 8)]
    )
    assert result.slope == pytest.approx(-1.0, abs=0.1)
    assert result.predicted == pytest.approx(-1.0, abs=1e-9)
    assert result.upper_bound_ok


def test_decay_experiment_singular(quarter_cantor):
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    result = decay_experiment(
        coordinate(1), quarter_cantor, params, [2.0**-k for k in range(4, 16)]
    )
    assert result.predicted == pytest.approx(-1.5, abs=1e-9)
    assert result.slope <= -1.5 + 0.15
    assert result.upper_bound_ok


def test_decay_experiment_degenerate_polynomial(leb1):
    params = EmbeddingParams(m=1, sigma=2, p=2.0, q=2.0)
    result = decay_experiment(
        Polynomial(1, {(1,): 1.0}), leb1, params, [4.0**-k for k in range(2, 6)]
    )
    assert result.degenerate and result.slope is None


def test_packing_probe_single_cube_family():
    support = DyadicCube(2, (1,))
    model = UniformMeasure(support)
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    probe = packing_probe(model, 2, 3.0, params)
    assert probe.family == (support,)
    # one-term sum: ratio equals the single bump's norm quotient
    assert probe.ratio == pytest.approx(probe.lq_norm / probe.sobolev_norm, rel=1e-12)
    assert probe.operator_bound_ok


def test_packing_probe_normalized_ratio_stable(leb1):
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    values = [
        packing_probe(leb1, n, 2.0, params).normalized_ratio for n in range(3, 7)
    ]
    assert max(values) / min(values) < 4.0


def test_packing_probe_supports_disjoint(leb1):
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    probe = packing_probe(leb1, 5, 2.0, params)
    from widthlab import scaled_box

    boxes = [scaled_box(c, 3) for c in probe.family]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert not boxes[i].interior_intersects(boxes[j])
    assert all(box.inside_unit_cube() for box in boxes)


def test_packing_probe_operator_bound(leb1, binomial_cascade):
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    for model, alpha in ((leb1, 2.0), (binomial_cascade, 2.5)):
        probe = packing_probe(model, 4, alpha, params, n_random=5, seed=11)
        assert probe.operator_bound_ok
        for lhs, rhs in probe.operator_checks:
            assert lhs <= rhs * (1 + 1e-9)


def test_packing_probe_empty_family(leb1):
    params = EmbeddingParams(m=1, sigma=1, p=2.0, q=2.0)
    with pytest.raises(ValidationError):
        packing_probe(leb1, 5, 1.5, params)  # no alpha-good cubes at alpha=1.5


# -- reference oracles for cell location --------------------------------------
# The per-cube ancestor walk and the per-point, per-level loop that cell
# location used to run, kept as exact oracles for `locate`, `evaluate` and
# `lq_error`.


def oracle_cell_row(approx, cube):
    by_key = {(c.level, c.index): i for i, c in enumerate(approx.cells)}
    for level in range(approx.min_level, min(cube.level, approx.max_level) + 1):
        row = by_key.get((level, cube.ancestor(level).index))
        if row is not None:
            return row
    return None


def oracle_evaluate(approx, pts):
    by_key = {(c.level, c.index): i for i, c in enumerate(approx.cells)}
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.zeros(pts.shape[0])
    for j, x in enumerate(pts):
        for level in range(approx.min_level, approx.max_level + 1):
            scale = 1 << level
            idx = tuple(int(np.ceil(v * scale)) - 1 for v in x)
            if any(i < 0 or i >= scale for i in idx):
                continue
            row = by_key.get((level, idx))
            if row is not None:
                cell = approx.cells[row]
                lower = np.array([float(v) for v in cell.lower()])
                y = (x - lower) / float(cell.side)
                out[j] = (monomials(approx.exponents, y) @ approx.coeffs[row])[0]
                break
    return out


def oracle_lq_error(f, approx, model, q, depth):
    positive = model.enumerate_positive(depth)
    centers = np.array([[float(x) for x in cube.center()] for cube, _ in positive])
    avals = np.zeros(len(positive))
    for j, (cube, _) in enumerate(positive):
        row = oracle_cell_row(approx, cube)
        if row is not None:
            cell = approx.cells[row]
            lower = np.array([float(v) for v in cell.lower()])
            y = (centers[j] - lower) / float(cell.side)
            avals[j] = (monomials(approx.exponents, y[None, :]) @ approx.coeffs[row])[0]
    diff = np.abs(np.asarray(f(centers)) - avals)
    masses = np.array([float(mu) for _, mu in positive])
    return float(np.dot(masses, diff**q) ** (1.0 / q))


def _gapped_1d():
    # ratios 2^-1 and 2^-3, with the gap (1/2, 3/4] outside the support
    return IfsMeasure(
        [IfsMap(1, (0,)), IfsMap(3, (6,)), IfsMap(3, (7,))],
        [Fraction(3, 5), Fraction(3, 10), Fraction(1, 10)],
    )


def _mixed_2d():
    # ratios 2^-1 and 2^-2; the two small images share their level-1 ancestor
    return IfsMeasure(
        [IfsMap(1, (0, 0)), IfsMap(2, (3, 2)), IfsMap(2, (2, 3))],
        [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)],
    )


def _wide_atomic(m, exponent, weight):
    # two atoms 2^-exponent apart and a light third one: cells on two levels,
    # the finer with level * m > 62 while the quadrature depth stays below 63
    half, tiny = Fraction(1, 2), Fraction(1, 2**exponent)
    rest = (Fraction(1, 3),) * (m - 1)
    return AtomicMeasure(
        [(half + tiny,) + rest, (half + 3 * tiny,) + rest,
         (Fraction(1, 8),) + (Fraction(7, 8),) * (m - 1)],
        [(1 - weight) / 2, (1 - weight) / 2, weight],
    )


def _deep_atomic():
    # two atoms 2^-59 apart next to 1/2, where floats are 2^-53 apart: the
    # partition cells lie at level 60, and float cube centres at the
    # quadrature depth would round onto cell boundaries
    half, tiny = Fraction(1, 2), Fraction(1, 2**60)
    return AtomicMeasure(
        [(half + tiny, Fraction(1, 3)), (half + 3 * tiny, Fraction(1, 3)),
         (Fraction(1, 8), Fraction(7, 8))],
        [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)],
    )


def _boundary_points(m, levels, rng):
    """Random points, dyadic boundary points of the given levels, and points
    outside the unit cube (0 itself, negative, beyond 1), also with a single
    coordinate, leading or not, outside and the others inside."""
    pts = [rng.uniform(0, 1, m) for _ in range(40)]
    for level in levels:
        for _ in range(20):
            pts.append(rng.integers(0, (1 << level) + 1, m) / float(1 << level))
    pts += [np.zeros(m), np.full(m, -0.25), np.full(m, 1.5), np.full(m, 1.0)]
    out = np.array(pts)
    out[-5, 0] = 1.0 + 2.0**-40  # just beyond the upper face
    single = []
    for axis in range(m):
        for value in (0.0, -0.25, 1.5, 1.0 + 2.0**-40):
            for inside in (0.3, 0.71):
                point = np.full(m, inside)
                point[axis] = value
                single.append(point)
    return np.vstack([out] + single)


@pytest.fixture(scope="module")
def located_partitions(binomial_cascade, tetrahedron):
    """(model, partition) pairs with cells on several levels, m = 1, 2, 3,
    and the deep atomic one."""
    cases = [
        (binomial_cascade, build_partition(binomial_cascade, 1.0, 2.0**-7)),
        (_gapped_1d(), build_partition(_gapped_1d(), 1.0, 2.0**-9)),
        (_mixed_2d(), build_partition(_mixed_2d(), 2.0, 2.0**-9)),
        (tetrahedron, build_partition(tetrahedron, 2.5, 2.0**-10)),
        (_wide_atomic(2, 34, Fraction(1, 2**16)),
         build_partition(_wide_atomic(2, 34, Fraction(1, 2**16)), 1.0, 2.0**-36)),
        (_wide_atomic(3, 24, Fraction(1, 2**10)),
         build_partition(_wide_atomic(3, 24, Fraction(1, 2**10)), 1.0, 2.0**-26)),
        (_deep_atomic(), build_partition(_deep_atomic(), 1.0, 2.0**-62)),
    ]
    for _, part in cases:
        assert part.min_level < part.max_level or part.min_level > 53
    # cell keys wider than int64 (level * m > 62) on int64 node indices, next
    # to a narrow cell level, in m = 2 and m = 3
    wide = [part for model, part in cases
            if model.m > 1 and part.max_level * model.m > 62 and part.max_level + 3 < 63]
    assert len(wide) == 2
    for part in wide:
        assert part.min_level * part.cells[0].m <= 62
    return cases


def test_deep_atomic_partition_is_below_level_53(located_partitions):
    _, part = located_partitions[-1]
    assert part.min_level > 53 and part.card == 3


def test_locate_matches_ancestor_walk(located_partitions):
    for model, part in located_partitions:
        approx = piecewise_project(SinProduct(model.m), part, 0)
        for depth in (part.max_level, part.max_level + 2):
            # Lebesgue cubes reach outside every cell of a singular measure
            for source in (model, lebesgue(model.m)):
                if source is not model and depth * model.m > 12:
                    continue
                positive = source.enumerate_positive(depth)
                index = np.array([c.index for c, _ in positive], dtype=object)
                rows = approx.locate(depth, index.reshape(len(positive), model.m))
                want = [oracle_cell_row(approx, c) for c, _ in positive]
                assert rows.tolist() == [-1 if r is None else r for r in want]


def _perturbed_indices(positive, depth, m):
    """The indices of `positive`, and each pushed out of [0, 2^depth) in one
    coordinate at a time: by +2^depth, which a key packed without a range
    check would carry into the coordinate before, and to -1 - index."""
    rows = [list(c.index) for c, _ in positive]
    out = list(rows)
    for axis in range(m):
        for row in rows:
            for value in (row[axis] + (1 << depth), -1 - row[axis]):
                out.append(row[:axis] + [value] + row[axis + 1:])
    return np.array(out, dtype=np.int64 if depth < 63 else object)


def test_locate_matches_per_node_dict(located_partitions):
    for model, part in located_partitions:
        approx = piecewise_project(SinProduct(model.m), part, 0)
        for depth in (part.max_level, part.max_level + 2):
            index = _perturbed_indices(model.enumerate_positive(depth), depth, model.m)
            rows = approx.locate(depth, index)
            assert rows.tolist() == oracle_locate(approx, depth, index).tolist()
            assert (rows[: len(index) // (2 * model.m + 1)] >= 0).all()


def test_locate_wide_keys_do_not_wrap(located_partitions):
    # moving the leading coordinate of a level-L cell by 2^(64 - L (m - 1))
    # leaves a key packed into 64 wrapping bits unchanged
    cases = 0
    for model, part in located_partitions:
        m, depth = model.m, part.max_level + 2
        approx = piecewise_project(SinProduct(m), part, 0)
        rows = []
        for cell in part.cells:
            step = 1 << (64 - cell.level * (m - 1))
            if cell.level * m <= 64 or step >= 1 << cell.level:
                continue
            lead = cell.index[0] + (step if cell.index[0] < step else -step)
            rows.append([(v << (depth - cell.level)) for v in (lead,) + cell.index[1:]])
        if rows:
            cases += 1
            index = np.array(rows, dtype=np.int64 if depth < 63 else object)
            got = approx.locate(depth, index)
            assert got.tolist() == oracle_locate(approx, depth, index).tolist() == [-1] * len(rows)
    assert cases >= 2


def test_locate_far_outside_at_object_depth(deep_ifs):
    # Python-int indices far outside [0, 2^depth), on int64-wide cell levels
    part = build_partition(deep_ifs, 1.0, 2.0**-62)
    approx = piecewise_project(SinProduct(1), part, 0)
    index = np.array([[1 << 200], [-(1 << 200)], [(1 << 64) - 1], [0]], dtype=object)
    rows = approx.locate(64, index)
    assert rows.tolist() == oracle_locate(approx, 64, index).tolist()
    assert rows.tolist()[:2] == [-1, -1] and min(rows.tolist()[2:]) >= 0


def test_evaluate_non_finite_and_far_points_are_outside(located_partitions):
    for model, part in (located_partitions[0], located_partitions[-1]):
        m = model.m
        approx = piecewise_project(SinProduct(m), part, 1)
        pts = np.array([[v] + [0.3] * (m - 1) for v in (np.nan, np.inf, -np.inf, 1e300)]
                       + [[0.3] * (m - 1) + [np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert approx.evaluate(pts).tolist() == [0.0] * len(pts)


def test_overlapping_cells_coarsest_first():
    cells = [DyadicCube(3, (1,)), DyadicCube(1, (0,)), DyadicCube(2, (0,)), DyadicCube(2, (3,))]
    approx = piecewise_project(SinProduct(1), cells, 0)
    approx.coeffs = np.arange(1.0, 5.0)[:, None]
    index = np.arange(16)[:, None]
    assert approx.locate(4, index).tolist() == oracle_locate(approx, 4, index).tolist()
    pts = np.array([[0.1], [0.2], [0.4], [0.6], [0.9]])
    assert approx.evaluate(pts).tolist() == oracle_evaluate(approx, pts).tolist() == [
        2.0, 2.0, 2.0, 0.0, 4.0
    ]


@pytest.mark.parametrize("m,level", [(2, 2), (3, 2), (2, 33), (3, 21)])
def test_evaluate_outside_in_a_trailing_coordinate(m, level):
    # a constant projection on the level grid of the uniform measure is 1
    # inside (0, 1]^m and 0 wherever any coordinate leaves it
    cells = [DyadicCube(level, (0,) * (m - 1) + (i,)) for i in range(4)]
    cells += [DyadicCube(level, (1,) + (0,) * (m - 2) + (i,)) for i in range(4)]
    approx = piecewise_project(Polynomial(m, {(0,) * m: 1.0}), cells, 0)
    side = 2.0**-level
    inner = [side / 2] * (m - 1)
    pts = np.array([inner + [v] for v in (side / 2, 3.5 * side, 1.5, -0.25, 4 * side + 1.0)])
    pts = np.vstack([pts, [[0.3, 1.5] + [side / 2] * (m - 2)], [[0.3, -0.25] + [side / 2] * (m - 2)]])
    want = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert approx.evaluate(pts).tolist() == want
    assert oracle_evaluate(approx, pts).tolist() == want


def test_evaluate_matches_per_point_loop(located_partitions):
    rng = np.random.default_rng(5)
    for model, part in located_partitions:
        m = model.m
        pts = _boundary_points(m, sorted({c.level for c in part.cells}), rng)
        # also the cells' own corners, and points just inside them
        for cell in part.cells:
            lower = np.array([float(x) for x in cell.lower()])
            upper = np.array([float(x) for x in cell.upper()])
            pts = np.vstack([pts, lower, upper, np.nextafter(upper, -1.0)])
        # degree 0 with coefficient row + 1: the value names the row exactly
        rowwise = piecewise_project(SinProduct(m), part, 0)
        rowwise.coeffs = np.arange(1.0, part.card + 1.0)[:, None]
        assert rowwise.evaluate(pts).tolist() == oracle_evaluate(rowwise, pts).tolist()
        approx = piecewise_project(SinProduct(m), part, 1)
        np.testing.assert_allclose(
            approx.evaluate(pts), oracle_evaluate(approx, pts), rtol=1e-13, atol=1e-15
        )


def test_lq_error_matches_oracle(located_partitions):
    for model, part in located_partitions:
        f = SinProduct(model.m)
        approx = piecewise_project(f, part, 1)
        for depth in (part.max_level + 2, part.max_level + 3):
            got = lq_error(f, approx, model, 2.0, depth)
            assert got == pytest.approx(oracle_lq_error(f, approx, model, 2.0, depth), rel=1e-12)


def test_lq_error_exact_below_level_53(located_partitions):
    model, part = located_partitions[-1]
    # one coefficient per cell, distinct: each node's error reveals its cell
    approx = piecewise_project(SinProduct(2), part, 0)
    approx.coeffs = np.array([[10.0], [20.0], [40.0]])
    f = lambda pts: np.zeros(np.atleast_2d(pts).shape[0])  # noqa: E731
    depth = part.max_level + 4
    err = lq_error(f, approx, model, 1.0, depth)
    # every atom's node lies in the atom's own cell: sum of mass * |coefficient|
    cells = {c: i for i, c in enumerate(part.cells)}
    want = 0.0
    for point, weight in zip(model.points, model.weights):
        row = cells[next(c for c in part.cells if c.contains(point))]
        want += float(weight) * approx.coeffs[row, 0]
    assert err == want
    assert err == oracle_lq_error(f, approx, model, 1.0, depth)


def test_lq_error_beyond_int64_matches_oracle(deep_ifs, monkeypatch):
    # cells at levels 59..61, quadrature nodes at levels 63 and 64
    part = build_partition(deep_ifs, 1.0, 2.0**-62)
    f = SinProduct(1)
    approx = piecewise_project(f, part, 1)
    got = [lq_error(f, approx, deep_ifs, 2.0, d) for d in (63, 64)]
    # the oracle reads the cubes from the descent, not the node table
    descent = functools.partial(descent_positive, deep_ifs)
    monkeypatch.setattr(deep_ifs, "enumerate_positive", descent)
    want = [oracle_lq_error(f, approx, deep_ifs, 2.0, d) for d in (63, 64)]
    assert got == pytest.approx(want, rel=1e-12)


# (t, card, error) of the tetrahedron decay run below, as computed by the
# cube-by-cube descent that the node table replaced
TETRAHEDRON_DECAY_ROWS = [
    (1.0, 4, 0.1794581584609719),
    (0.5, 4, 0.1794581584609719),
    (0.25, 4, 0.1794581584609719),
    (0.125, 4, 0.1794581584609719),
    (0.0625, 7, 0.1985415170966562),
    (0.03125, 10, 0.19665521290665763),
    (0.015625, 13, 0.1960224111697517),
    (0.0078125, 16, 0.1763519392658507),
    (0.00390625, 22, 0.12242480523237785),
    (0.001953125, 25, 0.102339993234629),
    (0.0009765625, 34, 0.07473535938810022),
]


def test_decay_experiment_builds_each_depth_once(tetrahedron, monkeypatch):
    model = IfsMeasure(tetrahedron.maps, tetrahedron.probs)  # no cached levels
    depths, builds = [], []
    level_nodes, build_nodes = IfsMeasure.level_nodes, IfsMeasure._build_nodes

    def counted_level_nodes(self, n, *args):
        depths.append(n)
        return level_nodes(self, n, *args)

    def counted_build(self, n):
        builds.append(n)
        return build_nodes(self, n)

    monkeypatch.setattr(IfsMeasure, "level_nodes", counted_level_nodes)
    monkeypatch.setattr(IfsMeasure, "_build_nodes", counted_build)
    params = EmbeddingParams(m=3, sigma=2, p=4.0, q=2.0)
    result = decay_experiment(SinProduct(3), model, params, [2.0**-k for k in range(11)])
    assert list(result.rows) == TETRAHEDRON_DECAY_ROWS
    assert depths == [4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7]
    # one build per distinct quadrature depth, and one per coarser level
    # that its expansion reads; none repeats
    assert [n for n in builds if n in depths] == [4, 5, 6, 7]
    assert sorted(builds) == list(range(8))


def test_sup_norm_does_not_depend_on_resolution():
    # the finite-difference path (Bump has no exact partials of order 5): a
    # single refined node settled on a lower local maximum at resolution 4
    values = [sobolev_seminorm(Bump(1), 5, math.inf, resolution=r) for r in range(3, 7)]
    assert max(values) == pytest.approx(min(values), rel=1e-6)
