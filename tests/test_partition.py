import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from widthlab import (
    DyadicCube,
    ResourceLimitError,
    SolverError,
    build_partition,
    entropy_slope,
    lebesgue,
    partition_row,
)
from widthlab.coarse import j_log2
from widthlab.measures import IfsMap, IfsMeasure, MeasureModel, UniformMeasure

from conftest import (IFS7_MAPS, boundary_atomic, dyadic_ifs, ifs7, ifs_atomic_lebesgue,
                      new_deep_ifs, new_tetrahedron)
from oracles import naive_partition, oracle_j_log2

def test_lebesgue_partition_example(leb1):
    part = build_partition(leb1, 1.0, 2.0**-6)
    assert part.card == 16
    assert part.min_level == part.max_level == 4
    assert not part.degenerate
    # the classical case in 2-d: J = 4^-n 2^-n drops below 2^-24 at level 9
    row = partition_row(lebesgue(2), 1.0, 2.0**-24)
    assert (row.card, row.min_level, row.max_level, row.max_j) == (4**9, 9, 9, 2.0**-27)


def test_degenerate_threshold(leb1):
    part = build_partition(leb1, 1.0, 2.0)
    assert part.degenerate and part.card == 1
    assert part.cells[0] == DyadicCube(0, (0,))


def test_quarter_cantor_partition_derived(quarter_cantor):
    # level-3 cells have mass 1/4, J = 2^-5 < 2^-4 while their level-2
    # parents have J = 2^-3 >= 2^-4: the partition stops at level 3
    part = build_partition(quarter_cantor, 1.0, 2.0**-4)
    assert part.card == 4
    assert part.min_level == part.max_level == 3
    assert part.cells == tuple(naive_partition(quarter_cantor, 1.0, 2.0**-4))


def test_partition_matches_naive_oracle(tetrahedron, quarter_cantor, binomial_cascade):
    cases = [
        (lebesgue(2), 1.0, 0.01),
        (quarter_cantor, 1.0, 2.0**-7),
        (binomial_cascade, 0.5, 2.0**-5),
        (tetrahedron, 2.0, 2.0**-9),
    ]
    for model, rho, t in cases:
        part = build_partition(model, rho, t)
        assert part.cells == tuple(naive_partition(model, rho, t))


def test_partition_invariants(binomial_cascade):
    rho, t = 1.0, 2.0**-8
    part = build_partition(binomial_cascade, rho, t)
    log_t = math.log2(t)
    total = Fraction(0)
    for cell in part.cells:
        assert j_log2(binomial_cascade, cell, rho) < log_t
        assert j_log2(binomial_cascade, cell.parent(), rho) >= log_t
        total += binomial_cascade.mass(cell)
    assert total == 1
    # pairwise disjoint: no cell is an ancestor of another
    for i, a in enumerate(part.cells):
        for b in part.cells[i + 1 :]:
            lo, hi = (a, b) if a.level <= b.level else (b, a)
            assert hi.ancestor(lo.level) != lo


def test_monotone_j_along_refinement(binomial_cascade):
    for cube, _ in binomial_cascade.enumerate_positive(5):
        parent_j = j_log2(binomial_cascade, cube.parent(), 1.0)
        assert j_log2(binomial_cascade, cube, 1.0) <= parent_j + 1e-12


def test_card_nonincreasing_in_t(quarter_cantor):
    ts = [2.0**-k for k in range(2, 12)]
    cards = [build_partition(quarter_cantor, 1.0, t).card for t in ts]
    assert all(a <= b for a, b in zip(cards, cards[1:]))


def test_level_spread_bounded_for_single_ratio(quarter_cantor):
    spreads = [
        (lambda p: p.max_level - p.min_level)(
            build_partition(quarter_cantor, 1.0, 2.0**-k)
        )
        for k in range(3, 16)
    ]
    assert max(spreads) <= 2


def test_entropy_slope_lebesgue(leb1):
    fit = entropy_slope(leb1, 1.0, [4.0**-k for k in range(2, 11)])
    assert fit.slope == pytest.approx(0.5, abs=0.02)


def test_entropy_slope_quarter_cantor(quarter_cantor):
    fit = entropy_slope(quarter_cantor, 1.0, [2.0**-k for k in range(3, 18)])
    assert fit.slope == pytest.approx(1 / 3, abs=0.03)


def test_entropy_slope_tetrahedron(tetrahedron):
    from widthlab import closed_form_spectrum, s_b_solve

    fit = entropy_slope(tetrahedron, 2.0, [2.0**-k for k in range(40, 91, 5)], max_cells=1 << 80)
    assert max(row[3] for row in fit.rows) <= 64
    target = s_b_solve(closed_form_spectrum(tetrahedron), 2.0)
    assert fit.slope == pytest.approx(target, abs=5e-4)


def _moran_root(factors) -> float:
    """The s with sum_i factors_i^s = 1 (factors in (0, 1)), by bisection."""
    lo, hi = 0.0, 1.0
    while sum(f**hi for f in factors) > 1:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if sum(f**mid for f in factors) > 1 else (lo, mid)
    return (lo + hi) / 2


def test_entropy_slope_mixed_ratio_ifs():
    # renewal count: card(P_t) ~ t^-s with sum_i (p_i 2^(-k_i rho))^s = 1
    rho = 1.0
    fit = entropy_slope(ifs7(), rho, [2.0**-k for k in range(10, 31, 2)],
                        max_cells=1 << 60)
    assert max(row[3] for row in fit.rows) <= 64
    target = _moran_root([float(p) * 2.0 ** (-k * rho) for k, _, p in IFS7_MAPS])
    assert fit.slope == pytest.approx(target, abs=2e-3)


def test_entropy_slope_needs_enough_points(leb1):
    with pytest.raises(SolverError):
        entropy_slope(leb1, 1.0, [0.1, 0.01])
    with pytest.raises(SolverError):
        entropy_slope(leb1, 1.0, [0.5, 0.25, 0.125])  # under three decades


def _row(part):
    return (part.t, part.rho, part.card, part.max_j, part.min_level, part.max_level,
            part.degenerate)


def _naive_row(model, rho, t):
    cells = naive_partition(model, rho, t)
    return (t, rho, len(cells), 2.0 ** max(oracle_j_log2(model, c, rho) for c in cells),
            min(c.level for c in cells), max(c.level for c in cells), False)


def _assert_rows_agree(model, rho, t):
    """Cells walk == naive oracle, and the rows of the recursion, of the
    cells walk and of the oracle's cells are equal."""
    part = build_partition(model, rho, t)
    assert part.cells == tuple(naive_partition(model, rho, t))
    assert _row(partition_row(model, rho, t)) == _row(part) == _naive_row(model, rho, t)


def test_state_rows_match_descent_and_oracle(tetrahedron):
    shifted = ifs7(IfsMap(2, (1, 2)))
    # the last three are not IFS: an atomic model's tree splits its atoms
    # among the children, a uniform model's template is a chain down to its
    # support and one node of 2^m self-edges, and the product pairs an IFS
    # template with those two trees
    cases = [(tetrahedron, 1.0, 12), (tetrahedron, 2.0, 16), (ifs7(), 1.0, 12),
             (ifs7(), 0.5, 7), (shifted, 1.0, 14), (boundary_atomic(), 1.0, 14),
             (UniformMeasure(DyadicCube(2, (1, 2))), 1.0, 14), (ifs_atomic_lebesgue(), 1.0, 12)]
    for model, rho, deepest in cases:
        for k in range(deepest + 1):
            _assert_rows_agree(model, rho, 2.0**-k)


def test_state_row_degenerate_threshold(tetrahedron):
    for t in (2.0, 1.5):
        row = partition_row(tetrahedron, 1.0, t)
        assert _row(row) == _row(build_partition(tetrahedron, 1.0, t))
        assert row.degenerate and (row.card, row.min_level, row.max_level) == (1, 0, 0)
    assert not partition_row(tetrahedron, 1.0, 1.0).degenerate


def _outcome(build, model, rho, t, cap):
    try:
        return _row(build(model, rho, t, cap))
    except ResourceLimitError as exc:
        return str(exc)


def _cap_cases():
    # name: (model builder, t, caps); lopsided: the heavy left chain passes
    # level 64 while light right branches emit cells first, in the cells
    # walk's depth-first order, so max_cells trips first for a small cap and
    # the level guard for a large one; its maps are listed right first, the
    # walk's edges left first
    eps = Fraction(1, 1 << 60)
    uniform = lambda: UniformMeasure(DyadicCube(2, (1, 2)))
    card = build_partition(new_tetrahedron(), 1.0, 2.0**-12).card
    flat = build_partition(uniform(), 1.0, 2.0**-12).card
    return {
        "tetrahedron": (new_tetrahedron, 2.0**-12, [0, 1, card - 1, card]),
        "uniform": (uniform, 2.0**-12, [0, 1, flat - 1, flat]),
        "lopsided": (lambda: IfsMeasure([IfsMap(1, (1,)), IfsMap(1, (0,))], [eps, 1 - eps]),
                     2.0**-70, [0, *range(110, 125), 1 << 40]),
        "deep": (new_deep_ifs, 2.0**-200, [0, 1 << 40]),
    }


def _cold_cap_outcomes(cases):
    # (name, cap) -> the cells walk's row or message, each on a fresh model;
    # the recursion's, on another fresh model, must be the same
    want = {}
    for name, (make, t, caps) in cases.items():
        for cap in caps:
            want[name, cap] = _outcome(build_partition, make(), 1.0, t, cap)
            assert _outcome(partition_row, make(), 1.0, t, cap) == want[name, cap]
    return want


def test_state_rows_trip_caps_as_the_descent():
    want = _cold_cap_outcomes(_cap_cases())
    kinds = {}
    for (name, _), outcome in want.items():
        kind = "guard" if "level 64" in outcome else "cap" if isinstance(outcome, str) else "row"
        kinds.setdefault(name, set()).add(kind)
    assert kinds == {"tetrahedron": {"row", "cap"}, "uniform": {"row", "cap"},
                     "lopsided": {"cap", "guard"}, "deep": {"guard"}}


def test_caps_trip_alike_on_warm_models():
    # the same cases on one model each, left warm by both walks at every
    # cap and by rows at coarser thresholds, in both orders of the caps
    cases = _cap_cases()
    want = _cold_cap_outcomes(cases)
    for name, (make, t, caps) in cases.items():
        model = make()
        for k in range(0, 12, 3):
            partition_row(model, 1.0, 2.0**-k)
        for cap in [*caps, *reversed(caps)]:
            for build in (build_partition, partition_row):
                assert _outcome(build, model, 1.0, t, cap) == want[name, cap]


def test_partitions_never_query_the_ifs_mass_oracle(tetrahedron, monkeypatch):
    # both walks take every child's mass from the edges of the model's tree,
    # whatever its family
    shifted = ifs7(IfsMap(2, (1, 2)))
    others = [boundary_atomic(), UniformMeasure(DyadicCube(2, (1, 2))), ifs_atomic_lebesgue()]
    cases = [(tetrahedron, 1.0, k) for k in range(13)] + [(shifted, 1.0, k) for k in range(15)]
    cases += [(model, 1.0, k) for model in others for k in range(12)]
    want = [(naive_partition(model, rho, 2.0**-k), _naive_row(model, rho, 2.0**-k))
            for model, rho, k in cases]

    def no_mass(self, cube):
        raise AssertionError(f"mass oracle queried for {cube}")

    for cls in (MeasureModel, *MeasureModel.__subclasses__()):
        monkeypatch.setattr(cls, "mass", no_mass)
    for (model, rho, k), (cells, row) in zip(cases, want):
        part = build_partition(model, rho, 2.0**-k)
        assert part.cells == tuple(cells)
        assert _row(part) == _row(partition_row(model, rho, 2.0**-k)) == row


def test_a_second_sweep_makes_no_edges_calls():
    # every state the bench sweep meets is expanded once per model, whatever
    # the threshold, the walk or the order of the calls
    model = new_tetrahedron()
    calls = []
    edges = model.edges
    model.edges = lambda node: calls.append(node) or edges(node)
    thresholds = [2.0**-k for k in range(4, 21)]

    def sweep():
        return [(_row(partition_row(model, 1.0, t)), build_partition(model, 1.0, t))
                for t in thresholds]

    first = sweep()
    expanded = len(calls)
    assert expanded > 0
    assert sweep() == first
    assert len(calls) == expanded


def test_warm_models_match_cold_models_and_the_oracle():
    # one model per family swept ascending, descending, then at a second
    # rho: each partition equals a fresh model's and the oracle's
    makers = [new_tetrahedron, lambda: ifs7(IfsMap(2, (1, 2))), boundary_atomic,
              lambda: UniformMeasure(DyadicCube(2, (1, 2))), ifs_atomic_lebesgue]
    ks = range(0, 11)
    sweeps = [(1.0, k) for k in ks] + [(1.0, k) for k in reversed(ks)] + [(2.0, k) for k in ks]
    for make in makers:
        model = make()
        oracle = {}
        for rho, k in sweeps:
            t = 2.0**-k
            if (rho, k) not in oracle:
                oracle[rho, k] = (tuple(naive_partition(model, rho, t)), _naive_row(model, rho, t))
            cells, row = oracle[rho, k]
            part = build_partition(model, rho, t)
            assert part == build_partition(make(), rho, t)
            assert part.cells == cells
            assert _row(partition_row(model, rho, t)) == _row(partition_row(make(), rho, t))
            assert _row(partition_row(model, rho, t)) == _row(part) == row


def test_threads_sharing_a_cold_model_agree():
    # eight threads sweep one fresh model at once, each from another
    # threshold and switching every microsecond, so their first expansions
    # race; each must get the rows of a single-threaded sweep
    thresholds = [2.0**-k for k in range(4, 21)]
    want = {t: _row(partition_row(new_tetrahedron(), 1.0, t)) for t in thresholds}
    model, results = new_tetrahedron(), [None] * 8

    def sweep(i):
        order = thresholds[2 * i:] + thresholds[:2 * i]
        results[i] = {t: _row(partition_row(model, 1.0, t)) for t in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [want] * len(results)


@given(st.integers(1, 9), st.integers(2, 10))
@settings(max_examples=25, deadline=None)
def test_partition_oracle_randomized(num, k):
    a = Fraction(num, 10)
    model = IfsMeasure([IfsMap(1, (0,)), IfsMap(1, (1,))], [a, 1 - a])
    _assert_rows_agree(model, 1.0, 2.0**-k)


@given(dyadic_ifs(), st.sampled_from([1.0, 1.5, 2.0]), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_state_rows_oracle_random_dyadic_ifs(model, rho, k):
    _assert_rows_agree(model, rho, 2.0**-k)
