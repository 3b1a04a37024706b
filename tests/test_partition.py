import gc
import itertools
import math
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, find, given, settings, strategies as st

from widthlab import (
    DyadicCube,
    PartitionResult,
    ResourceLimitError,
    SolverError,
    ValidationError,
    WidthlabError,
    build_partition,
    entropy_slope,
    lebesgue,
    partition_row,
)
from widthlab.measures import (AtomicMeasure, IfsMap, IfsMeasure, MeasureModel, ProductMeasure,
                               UniformMeasure)
from widthlab.partition import fit_loglog, partition_rows

from conftest import (IFS7_MAPS, boundary_atomic, dyadic_ifs, ifs7, ifs_atomic_lebesgue,
                      new_deep_ifs, new_tetrahedron)
from oracles import (capped, naive_partition, oracle_exact_slope, oracle_j_log2, oracle_levels,
                     oracle_polyfit_slope, oracle_walk, table_cubes)

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
        assert oracle_j_log2(binomial_cascade, cell, rho) < log_t
        assert oracle_j_log2(binomial_cascade, cell.parent(), rho) >= log_t
        total += binomial_cascade.mass(cell)
    assert total == 1
    # pairwise disjoint: no cell is an ancestor of another
    for i, a in enumerate(part.cells):
        for b in part.cells[i + 1 :]:
            lo, hi = (a, b) if a.level <= b.level else (b, a)
            assert hi.ancestor(lo.level) != lo


def test_monotone_j_along_refinement(binomial_cascade):
    for cube, _ in table_cubes(binomial_cascade, 5):
        parent_j = oracle_j_log2(binomial_cascade, cube.parent(), 1.0)
        assert oracle_j_log2(binomial_cascade, cube, 1.0) <= parent_j + 1e-12


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


@pytest.mark.parametrize("rho, t, message", [
    (1.0, 0.0, "partition threshold t must be positive"),
    (1.0, -0.5, "partition threshold t must be positive"),
    (1.0, math.nan, "partition threshold t must be positive"),
    (0.0, 0.5, "rho must be positive"),
    (-1.0, 0.5, "rho must be positive"),
    (math.nan, 0.5, "rho must be positive"),
    (math.nan, 2.0, "rho must be positive"),
])
def test_threshold_and_rho_must_be_positive(rho, t, message, tetrahedron):
    for build in (build_partition, partition_row):
        with pytest.raises(ValidationError, match=message):
            build(tetrahedron, rho, t)


def test_entropy_slope_lebesgue(leb1):
    fit = entropy_slope(leb1, 1.0, [4.0**-k for k in range(2, 11)])
    assert fit.slope == pytest.approx(0.5, abs=0.02)


def test_entropy_slope_quarter_cantor(quarter_cantor):
    fit = entropy_slope(quarter_cantor, 1.0, [2.0**-k for k in range(3, 18)])
    assert fit.slope == pytest.approx(1 / 3, abs=0.03)


def test_entropy_slope_tetrahedron(tetrahedron):
    from widthlab import closed_form_spectrum, s_b_solve

    fit = capped(tetrahedron, entropy_slope, tetrahedron, 2.0, [2.0**-k for k in range(40, 91, 5)],
                 max_cells=1 << 80)
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
    model = ifs7()
    model.max_cells = 1 << 60
    fit = entropy_slope(model, rho, [2.0**-k for k in range(10, 31, 2)])
    assert max(row[3] for row in fit.rows) <= 64
    target = _moran_root([float(p) * 2.0 ** (-k * rho) for k, _, p in IFS7_MAPS])
    assert fit.slope == pytest.approx(target, abs=2e-3)


def test_entropy_slope_needs_enough_points(leb1):
    with pytest.raises(SolverError):
        entropy_slope(leb1, 1.0, [0.1, 0.01])
    with pytest.raises(SolverError):
        entropy_slope(leb1, 1.0, [0.5, 0.25, 0.125])  # under three decades


def _points(values):
    return st.integers(2, 24).flatmap(lambda n: st.tuples(
        *[st.lists(values, min_size=n, max_size=n)] * 2))


_LOG_POINTS = _points(st.floats(-60.0, 60.0))


@given(st.one_of(_LOG_POINTS, _points(st.floats(allow_nan=False, allow_infinity=False))))
@settings(max_examples=300, deadline=None)
def test_fit_loglog_is_the_exactly_rounded_slope(points):
    # bit for bit the exact Fraction slope of the data, rounded once; past
    # the largest float the slope is a SolverError
    xs, ys = points
    assume(len(set(xs)) > 1)
    try:
        want = oracle_exact_slope(xs, ys)
    except OverflowError:
        with pytest.raises(SolverError, match="^fitted slope overflows a float$"):
            fit_loglog(xs, ys)
    else:
        assert fit_loglog(xs, ys).hex() == want.hex()


def _fsum_slope(xs, ys):
    n = len(xs)
    x_bar, y_bar = math.fsum(xs) / n, math.fsum(ys) / n
    sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    return sxy / math.fsum((x - x_bar) ** 2 for x in xs)


def test_an_fsum_slope_fails_the_bit_equality():
    # negative control: a slope from correctly rounded float sums of rounded
    # deviations is not the exactly rounded slope, and the check above tells
    xs, ys = find(_LOG_POINTS, lambda p: len(set(p[0])) > 1
                  and _fsum_slope(*p) != oracle_exact_slope(*p),
                  settings=settings(database=None, derandomize=True))
    assert fit_loglog(xs, ys) == oracle_exact_slope(xs, ys) != _fsum_slope(xs, ys)


@given(st.lists(st.integers(1, 10**6), min_size=3, max_size=20, unique=True)
       .filter(lambda cards: max(cards) >= 10 * min(cards)),
       st.floats(-3.0, 3.0).filter(lambda slope: abs(slope) >= 0.1), st.floats(-10.0, 10.0),
       st.data())
@settings(max_examples=100, deadline=None)
def test_fit_loglog_agrees_with_polyfit(cards, slope, intercept, data):
    # log-log data over at least a decade of cards, as the callers fit
    xs = [math.log(c) for c in cards]
    noise = data.draw(st.lists(st.floats(-0.05, 0.05), min_size=len(xs), max_size=len(xs)))
    ys = [slope * x + intercept + e for x, e in zip(xs, noise)]
    assert fit_loglog(xs, ys) == pytest.approx(oracle_polyfit_slope(xs, ys), rel=1e-12)


@pytest.mark.parametrize("xs", [[0, 1], [0, 1, 2, 3, 4], [-7, 2, 10, 11], [5, 5, 6, 1000]])
def test_fit_loglog_of_exact_data(xs):
    assert fit_loglog([float(x) for x in xs], [3.0 * x + 1 for x in xs]) == 3.0


@pytest.mark.parametrize("xs, ys, message", [
    ([1.0, math.nan], [0.0, 1.0], "finite values"),
    ([1.0, 2.0], [0.0, math.nan], "finite values"),
    ([1.0, 2.0], [math.inf, 1.0], "finite values"),
    ([-math.inf, 2.0], [0.0, 1.0], "finite values"),
    ([2.0, 2.0, 2.0], [0.0, 1.0, 2.0], ">= 2 distinct xs"),
    ([1.0], [1.0], ">= 2 points"),
    ([], [], ">= 2 points"),
])
def test_fit_loglog_rejects(xs, ys, message):
    with pytest.raises(SolverError, match=f"^fit needs {message}$"):
        fit_loglog(xs, ys)
    with pytest.raises(ValidationError, match="^fit needs as many xs as ys$"):
        fit_loglog(xs, [*ys, 0.0])


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
        return _row(capped(model, build, model, rho, t, max_cells=cap))
    except ResourceLimitError as exc:
        return str(exc)


def _cap_cases():
    # name: (model builder, t, {cap: row or message}). The outcomes are
    # literals, measured on the explicit-stack cells walk that the shared
    # recursion replaced, so both public functions are held to fixed values
    # rather than to each other. lopsided: the heavy left chain passes level
    # 64 while light right branches emit cells first, in depth-first order,
    # so max_cells trips first for a small cap and the level guard for a
    # large one; its maps are listed right first, the walk's edges left first
    eps = Fraction(1, 1 << 60)
    t12, t70 = 2.0**-12, 2.0**-70
    guard = "partition descent exceeded level 64"

    def tripped(t, caps):
        return {cap: f"partition for t={t} exceeded {cap} cells" for cap in caps}

    return {
        "tetrahedron": (new_tetrahedron, t12, {
            **tripped(t12, [0, 1, 366]),
            367: (t12, 1.0, 367, 0.00022425062500000022, 2, 7, False)}),
        "uniform": (lambda: UniformMeasure(DyadicCube(2, (1, 2))), t12, {
            **tripped(t12, [0, 1, 255]), 256: (t12, 1.0, 256, 2.0**-14, 6, 6, False)}),
        "lopsided": (lambda: IfsMeasure([IfsMap(1, (1,)), IfsMap(1, (0,))], [eps, 1 - eps]),
                     t70, {**tripped(t70, [0, *range(110, 120)]),
                           **dict.fromkeys([*range(120, 125), 1 << 40], guard)}),
        "deep": (new_deep_ifs, 2.0**-200, dict.fromkeys([0, 1 << 40], guard)),
    }


def test_state_rows_trip_caps_as_the_descent():
    # each public function, each cap on a fresh model
    for name, (make, t, want) in _cap_cases().items():
        for cap, outcome in want.items():
            for build in (build_partition, partition_row):
                assert _outcome(build, make(), 1.0, t, cap) == outcome, (name, cap, build)


def test_caps_trip_alike_on_warm_models():
    # the same cases on one model each, left warm by both functions at every
    # cap and by rows at coarser thresholds, in both orders of the caps
    for name, (make, t, want) in _cap_cases().items():
        model = make()
        for k in range(0, 12, 3):
            partition_row(model, 1.0, 2.0**-k)
        for cap in [*want, *reversed(want)]:
            for build in (build_partition, partition_row):
                assert _outcome(build, model, 1.0, t, cap) == want[cap], (name, cap, build)


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


def test_a_second_sweep_makes_no_rule_calls():
    # every state the sweep meets is expanded once per model, whatever the
    # threshold, the walk or the order of the calls, in every family
    for make in (new_tetrahedron, boundary_atomic, lambda: UniformMeasure(DyadicCube(2, (1, 2))),
                 ifs_atomic_lebesgue):
        model = make()
        calls = []
        rule = model._rule
        model._rule = lambda level, node, num: calls.append(level) or rule(level, node, num)
        thresholds = [2.0**-k for k in range(4, 21 if make is new_tetrahedron else 13)]

        def sweep():
            return [(_row(partition_row(model, 1.0, t)), build_partition(model, 1.0, t))
                    for t in thresholds]

        first = sweep()
        expanded = len(calls)
        assert expanded > 0
        assert sweep() == first
        assert len(calls) == expanded


def test_a_model_is_freed_with_its_last_reference():
    # its store refers to the model weakly, so a model that walked and
    # pushed is freed by reference counting, with no cyclic collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in (new_tetrahedron, boundary_atomic, ifs_atomic_lebesgue):
            model = make()
            build_partition(model, 1.0, 2.0**-8)
            model.level_masses(4)
            ref = weakref.ref(model)
            del model
            assert ref() is None, make
    finally:
        if enabled:
            gc.enable()


def _cold(model):
    """A model equal to `model` with nothing in its store."""
    if isinstance(model, ProductMeasure):
        return ProductMeasure([_cold(f) for f in model.factors])
    if isinstance(model, UniformMeasure):
        return UniformMeasure(model.support)
    if isinstance(model, IfsMeasure):
        return IfsMeasure(model.maps, model.probs, model.embed_shift)
    return AtomicMeasure(model.points, model.weights)


@st.composite
def _shared_models(draw):
    # an IFS with and without its embed_shift, a uniform model, atoms, and
    # the product of a 1-d IFS with 1-d atoms
    kind = draw(st.sampled_from(["ifs", "unshifted", "uniform", "atomic", "product"]))
    if kind in ("ifs", "unshifted"):
        model = draw(dyadic_ifs())
        return model if kind == "ifs" else IfsMeasure(model.maps, model.probs)
    if kind == "uniform":
        level = draw(st.integers(0, 3))
        return UniformMeasure(DyadicCube(level, tuple(
            draw(st.integers(0, (1 << level) - 1)) for _ in range(draw(st.integers(1, 2))))))
    atom = st.integers(1, 63).map(lambda a: Fraction(a, 64))
    weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    atomic = AtomicMeasure([(draw(atom),) for _ in weights],
                           [Fraction(w, sum(weights)) for w in weights])
    if kind == "atomic":
        return atomic
    ifs = draw(dyadic_ifs().filter(lambda model: model.m == 1))
    return ProductMeasure([ifs, atomic])


@given(_shared_models(), st.integers(0, 6), st.sampled_from([1.0, 2.0]), st.integers(0, 8),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_walks_and_pushes_share_the_store(model, n, rho, k, walk_first):
    # the J_rho walk and the level push read one store per model, in either
    # order: each result equals a cold model's and the oracles'
    t = 2.0**-k

    def push(model):
        index, mass_id, masses = model.level_nodes(n)
        return (list(model.level_masses(n).items()),
                (index.tolist(), mass_id.tolist(), masses))

    if walk_first:
        part, pushed = build_partition(model, rho, t), push(model)
    else:
        pushed, part = push(model), build_partition(model, rho, t)
    assert part == build_partition(_cold(model), rho, t)
    assert part.cells == tuple(naive_partition(model, rho, t))
    assert pushed == push(_cold(model))
    if isinstance(model, IfsMeasure):
        assert pushed[0] == list(oracle_levels(model, n)[n][2].items())


def test_a_walk_first_leaves_ids_out_of_push_order():
    # the case the push order is for: the walk meets level 4 of the bench
    # ifs7 out of push order, and the push still gives a cold model's
    # multisets and tables, masses in the same order
    model = ifs7()
    build_partition(model, 1.0, 2.0**-8)
    for n in range(9):
        cold, table, want = ifs7(), model.level_nodes(n), ifs7().level_nodes(n)
        assert list(model.level_masses(n).items()) == list(cold.level_masses(n).items())
        assert table.masses == want.masses and table.mass_id.tolist() == want.mass_id.tolist()
    store = model._store
    assert list(store.counts[4]) != list(range(len(store.states[4])))


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
    # race, and every other thread first pushes the level multisets through
    # the same store; each must get the rows and multisets of one thread
    thresholds = [2.0**-k for k in range(4, 21)]
    cold = new_tetrahedron()
    want = ({t: _row(partition_row(cold, 1.0, t)) for t in thresholds},
            [list(cold.level_masses(n).items()) for n in range(13)])
    model, results = new_tetrahedron(), [None] * 8

    def sweep(i):
        order = thresholds[2 * i:] + thresholds[:2 * i]
        pushed = [list(model.level_masses(n).items()) for n in range(13)] if i % 2 else want[1]
        results[i] = ({t: _row(partition_row(model, 1.0, t)) for t in order}, pushed)

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


def _oracle_partition(model, rho, t):
    cells = []
    row = oracle_walk(model, rho, t, cells)
    cells.sort()
    return PartitionResult(*row, tuple(DyadicCube(level, index) for level, index, _ in cells))


def _capped_outcome(call, model, rho, t, cap):
    """call's result with the cell cap set on the model, or the type and
    message of its error."""
    try:
        return capped(model, call, model, rho, t, max_cells=cap)
    except WidthlabError as exc:
        return type(exc), str(exc)


@given(st.one_of(dyadic_ifs(), st.sampled_from([
           boundary_atomic, lambda: UniformMeasure(DyadicCube(2, (1, 2))), ifs_atomic_lebesgue,
       ]).map(lambda make: make())),
       st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.integers(0, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_level_walk_matches_the_recursion(model, rho, k, data):
    # rows, cells and outcome of both walks under a random cell cap; at
    # t >= 2^-12 no walk passes the level guard, whose cases are the
    # literals of _cap_cases
    t = 2.0**-k
    card = oracle_walk(model, rho, t, None).card
    cap = data.draw(st.integers(0, 2 * card + 1), label="max_cells")
    assert (_capped_outcome(partition_row, model, rho, t, cap)
            == _capped_outcome(lambda *args: oracle_walk(*args, None), model, rho, t, cap))
    assert (_capped_outcome(build_partition, model, rho, t, cap)
            == _capped_outcome(_oracle_partition, model, rho, t, cap))


def _oracle_rows(model, rho, thresholds):
    """The rows of a loop of the recursion over `thresholds`."""
    return [oracle_walk(model, rho, t, None) for t in thresholds]


@st.composite
def _threshold_lists(draw, pool):
    """An unsorted list from `pool` and t > 1, often with a duplicate, and
    now and then a t <= 0 or NaN at a random place."""
    ts = draw(st.lists(st.sampled_from([*pool, 1.0, 1.5, 2.0]), max_size=8))
    if ts and draw(st.booleans()):
        ts.insert(draw(st.integers(0, len(ts))), draw(st.sampled_from(ts)))
    if draw(st.integers(0, 3)) == 0:
        ts.insert(draw(st.integers(0, len(ts))), draw(st.sampled_from([0.0, -0.5, math.nan])))
    return ts


def _rows_agree(model, rho, thresholds, cap):
    assert (_capped_outcome(partition_rows, model, rho, thresholds, cap)
            == _capped_outcome(_oracle_rows, model, rho, thresholds, cap))


@given(_shared_models(), st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.0, 0.0, math.nan]),
       _threshold_lists([2.0**-k for k in range(13)]), st.data())
@settings(max_examples=150, deadline=None)
def test_rows_of_a_threshold_list_are_the_loop_of_its_walks(model, rho, thresholds, data):
    # one pass for the list gives each threshold's row, or the first error
    # of the loop in input order: a bad t or rho, or a cap its walk trips,
    # under a random cell cap
    ok = [t for t in itertools.takewhile(lambda t: t > 0, thresholds) if t <= 1] if rho > 0 else []
    most = max((oracle_walk(model, rho, t, None).card for t in ok), default=0)
    cap = data.draw(st.integers(-1, 2 * most + 1), label="max_cells")
    _rows_agree(model, rho, thresholds, cap)


@given(st.sampled_from(sorted(_cap_cases())), st.data())
@settings(max_examples=60, deadline=None)
def test_rows_of_a_threshold_list_trip_caps_as_the_loop(name, data):
    # the literal cases, where the guard and max_cells race, each in a list
    # with coarser thresholds under one of its caps: a small cap trips those
    # too, so the first error in input order is not the deepest's
    make, t, want = _cap_cases()[name]
    thresholds = data.draw(_threshold_lists([t, 2.0**-4, 2.0**-8]), label="thresholds")
    cap = data.draw(st.sampled_from(sorted(want)), label="max_cells")
    _rows_agree(make(), 1.0, thresholds, cap)
