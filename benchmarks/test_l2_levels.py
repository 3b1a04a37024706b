"""L2 benchmark: level enumeration by node table against the descent.

Times `level_nodes`, which builds each family's positive cubes in bulk,
against the cube-by-cube descent through the mass oracle that it replaced,
kept as `descent_positive` in `tests/oracles.py`, on:

- a seeded 600-point cloud (6-digit decimals, like perfbench's `cloud.csv`)
  at levels 4..8, the levels of the `spectrum-cloud` workload;
- Lebesgue measure on the unit square at level 8 (65536 cubes);
- the product of a two-map IFS, a three-atom measure and Lebesgue measure on
  [0, 1] at level 6.

Each round gets fresh models, so no IFS level is cached. Both sides must
give the same cubes with the same exact masses. The descent queries every
atom for every child cube: its one round takes 13-23 s on a 2-core VM
shared with other tenants, so it runs once, as the equality oracle. The
seven tables (the atomic ones from integer arrays) run TABLE_ROUNDS = 20
rounds: in one round their figure moved 12.0-18.7 ms between runs of the
same code, too widely to show a change of a few ms. Over 20 rounds the
median was 7.6-12.0 ms before the models kept one state store and
8.6-14.8 ms after, four alternating runs a side, the VM's load moving as
much between runs. The other numbers of this docstring are from three
runs of this file on that VM.

A third case times `ingest_points` on the same cloud written as CSV text,
as perfbench's `cloud.csv` is, and checks its integer state against the
model built from `Fraction`s: a median of 1.8-3.6 ms over 20 rounds on the
same VM; when every field was parsed by `Fraction` it took 13.1-13.4 ms
on an earlier VM. It runs again on the cloud with a third column of
integer weights 1..9 (`weighted`), which the reader normalizes. In three
alternating runs a side, reading field by field and checking atom by atom
took medians of 1.74-2.88 ms (2.00-3.52 ms weighted); reading a column at
a time and checking the integer columns, 0.91-1.31 ms (1.13-1.62 ms
weighted). A fourth times the provenance of a run on that cloud,
the SHA-256 digest of its 10.8 KB of CSV bytes under the run's
`config_hash`: a median of 0.06-0.10 ms over 20 rounds. The provenance
once re-serialized the parsed model to a spec and hashed that instead:
1.6-2.3 ms on the earlier VM.

A fifth case pushes two IFS multisets deep, on fresh models each round:
perfbench's `ifs7` (7 maps, mixed ratios) to level 24 (47 728 distinct
masses) and the tetrahedron to level 32 (6545 distinct masses). The push
keys each state by the integer numerator of its mass over D^n;
`oracle_level_masses` in `tests/oracles.py` is the `Fraction` push it
replaced, one `Fraction` product and hash per (state, edge). The push is
timed twice: ending in the integer level view {N: count} (`level_counts`,
what the package reads) and in its `Fraction` multiset (`level_masses`).
All three must give the same multisets in the same order. On the same VM
the two pushes take a median of 1.44-1.71 s over 5 rounds, against 6.9-8.5 s for
one round of the `Fraction` push. Through the state store, whose rule is
one call per state, the medians were 1.93-2.47 s, against 1.29-2.15 s
before it in the same three alternating runs. In two later runs the push
to the integer view took a median of 1.16-1.25 s, to the `Fraction`
multiset 1.55-1.63 s, and the `Fraction` push 6.97-7.04 s.

A sixth case times the Lebesgue table at level 8 alone, on a fresh model
each round: `level_nodes`, which pushes the uniform model as the IFS of its
four half-scale maps, against the index grid translated to the support that
it replaced, kept as `oracle_uniform_nodes` in `tests/oracles.py`. Both must
give the same table. Over 20 rounds on the same VM the grid took a median
of 0.9-1.4 ms and the push 6.1-10.6 ms, 4-12 times as long: the price of
one table code for both families. No perfbench workload builds a uniform
model.

A seventh case times the cloud's multisets at levels 4..8, those of the
`spectrum-cloud` workload, on one model (an atomic model caches no level):
`level_masses`, which groups the atoms by one packed integer index per
cube and counts the groups' masses, against the route it replaced, the
node table grouped by index tuples (`oracle_atomic_nodes` in
`tests/oracles.py`) with its mass ids counted (`oracle_table_masses`).
Both must give the same multisets, keyed by `Fraction`s. Over 50 rounds
on the same VM the grouping took a median of 0.53-0.87 ms and the table
route 1.96-3.61 ms.

An eighth case times the tetrahedron's table at level 8 (65 536 cubes), the
largest table of the `empirical` decay range 2^0 .. 2^-18, on a fresh model
each round, so every level is pushed and built; it is checked against the
tetrahedron's words, each map of ratio 1/2 giving one bit of every
coordinate and one factor of the mass. Over 20 rounds on the same VM, in
three alternating runs a side, it took a median of 8.8-9.3 ms when each
level repeated the (N, m) index rows above and packed them for its sort,
and 5.0-5.4 ms built from the packed keys of the level above; in the same
runs the uniform table (`ifs` of the sixth case) went 5.9-8.5 -> 4.2-5.2 ms.

Run from the root of the repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from widthlab import (AtomicMeasure, DyadicCube, IfsMap, IfsMeasure, ProductMeasure, __version__,
                      ingest_points, lebesgue)
from widthlab.reports import config_hash, sha256

from tests.conftest import ifs7, new_tetrahedron
from tests.oracles import (descent_positive, oracle_atomic_nodes, oracle_level_masses,
                           oracle_table_masses, oracle_uniform_nodes)

SEED = 0
CLOUD_POINTS = 600
TABLE_ROUNDS = 20


def cloud_coords():
    return np.random.default_rng(SEED).integers(1, 10**6, size=(CLOUD_POINTS, 2)).tolist()


def cases():
    cloud = AtomicMeasure(
        [[Fraction(c, 10**6) for c in row] for row in cloud_coords()],
        [Fraction(1, CLOUD_POINTS)] * CLOUD_POINTS,
    )
    product = ProductMeasure([
        IfsMeasure([IfsMap(2, (0,)), IfsMap(2, (3,))], [Fraction(1, 3), Fraction(2, 3)]),
        AtomicMeasure([(Fraction(1, 2),), (Fraction(500001, 10**6),), (Fraction(1, 8),)],
                      [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
        lebesgue(1),
    ])
    return [(cloud, n) for n in range(4, 9)] + [(lebesgue(2), 8), (product, 6)]


def table_positive(model, n):
    return model.level_nodes(n)


def as_cubes(n, table):
    index, mass_id, masses = table
    return [(DyadicCube(n, tuple(row)), masses[j]) for row, j in zip(index.tolist(), mass_id.tolist())]


@pytest.fixture(scope="module")
def descent():
    return [descent_positive(model, n) for model, n in cases()]


@pytest.mark.parametrize("enumerate_", [descent_positive, table_positive],
                         ids=["descent", "table"])
def test_l2_levels(benchmark, enumerate_, descent):
    got = benchmark.pedantic(
        lambda todo: [enumerate_(model, n) for model, n in todo],
        setup=lambda: ((cases(),), {}),
        rounds=1 if enumerate_ is descent_positive else TABLE_ROUNDS,
    )
    if enumerate_ is table_positive:
        got = [as_cubes(n, table) for (_, n), table in zip(cases(), got)]
    assert got == descent


@pytest.mark.parametrize("build", [oracle_uniform_nodes, table_positive], ids=["grid", "ifs"])
def test_l2_uniform(benchmark, build):
    got = benchmark.pedantic(lambda model: build(model, 8), setup=lambda: ((lebesgue(2),), {}),
                             rounds=20)
    want = oracle_uniform_nodes(lebesgue(2), 8)
    assert got.index.tolist() == want.index.tolist()
    assert got.mass_id.tolist() == want.mass_id.tolist() and got.masses == want.masses


CLOUD_LEVELS = range(4, 9)


def table_route(model, n):
    return oracle_table_masses(oracle_atomic_nodes(model, n))


def grouped(model, n):
    return model.level_masses(n)


@pytest.mark.parametrize("multiset", [table_route, grouped], ids=["table", "grouped"])
def test_l2_cloud_masses(benchmark, multiset):
    # an atomic model caches no level, so one model serves every round
    cloud = cases()[0][0]
    got = benchmark.pedantic(lambda: [multiset(cloud, n) for n in CLOUD_LEVELS], rounds=50,
                             warmup_rounds=1)
    assert got == [table_route(cloud, n) for n in CLOUD_LEVELS]
    assert all(type(mu) is Fraction for masses in got for mu in masses)


def integer_state(model):
    return (model.m, model._pden, model._den, model._coords.dtype, model._units.dtype,
            model._coords.tolist(), model._units.tolist())


def cloud_text():
    # the cloud as perfbench's cloud.csv writes it
    return "x,y\n" + "".join(f"0.{a:06d},0.{b:06d}\n" for a, b in cloud_coords())


def cloud_weights():
    return np.random.default_rng(SEED + 1).integers(1, 10, size=CLOUD_POINTS).tolist()


@pytest.mark.parametrize("weighted", [False, True])
def test_l2_ingest(benchmark, weighted):
    text = cloud_text()
    want = cases()[0][0]  # the Fraction route
    if weighted:
        # a third column of integer weights, normalized on ingest
        rows = text.splitlines()
        raw = cloud_weights()
        text = "".join(f"{row},{w}\n" for row, w in zip(rows, ["w", *raw]))
        want = AtomicMeasure(want.points, [Fraction(w, sum(raw)) for w in raw])
    got = benchmark.pedantic(ingest_points, args=(text, "w" if weighted else None), rounds=20)
    assert integer_state(got) == integer_state(want)


def test_l2_provenance(benchmark):
    # the provenance of `spectrum --measure cloud.csv`, as the command line
    # builds it from the bytes it read
    data = cloud_text().encode()
    config = {"command": "spectrum", "measure": "cloud.csv", "tool_version": __version__}
    got = benchmark.pedantic(
        lambda: config_hash({**config, "measure_sha256": sha256(data).hexdigest()}), rounds=20)
    digest = hashlib.sha256(data).hexdigest()
    assert got == config_hash({**config, "measure_sha256": digest})


def deep_cases():
    return [(ifs7(), 24), (new_tetrahedron(), 32)]


@pytest.fixture(scope="module")
def deep_multisets():
    return [list(oracle_level_masses(model, n).items()) for model, n in deep_cases()]


def integer_push(model, n):
    return model.level_masses(n)


def integer_view(model, n):
    return model.level_counts(n)


@pytest.mark.parametrize("push", [oracle_level_masses, integer_push, integer_view],
                         ids=["fraction", "integer", "view"])
def test_l2_deep_levels(benchmark, push, deep_multisets):
    got = benchmark.pedantic(
        lambda todo: [push(model, n) for model, n in todo],
        setup=lambda: ((deep_cases(),), {}),
        rounds=1 if push is oracle_level_masses else 5,
    )
    if push is integer_view:
        got = [{Fraction(num, den): count for num, count in counts.items()} for counts, den in got]
    assert [list(multiset.items()) for multiset in got] == deep_multisets


def tetrahedron_words(n):
    """The tetrahedron's level-n cubes in index order, from its words: word
    w has index sum_k offset(w_k) 2^(n-1-k) and mass prod_k p(w_k), as a
    numerator over 1000^n."""
    model = new_tetrahedron()
    nums = [int(p * 1000) for p in model.probs]
    cubes = [(tuple(sum(model.maps[i].offset[j] << (n - 1 - k) for k, i in enumerate(word))
                    for j in range(model.m)), math.prod(nums[i] for i in word))
             for word in itertools.product(range(len(nums)), repeat=n)]
    return sorted(cubes)


def test_l2_tetrahedron_table(benchmark):
    got = benchmark.pedantic(lambda model: model.level_nodes(8),
                             setup=lambda: ((new_tetrahedron(),), {}), rounds=20)
    nums = [int(mu * 1000**8) for mu in got.masses]
    assert [(tuple(row), nums[j]) for row, j in zip(got.index.tolist(), got.mass_id.tolist())] \
        == tetrahedron_words(8)
