"""The public API, and the reach of every function, method and property of
the package.

The command line is the product: a function, method or property that no
subcommand, no class body and no other reached definition refers to is code
that only tests run, and belongs with them in `tests/`."""
import ast
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import widthlab
from widthlab import (
    Box,
    DimensionEstimate,
    DyadicCube,
    EmbeddingParams,
    IfsMap,
    PartitionRow,
    ValidationError,
    build_partition,
    lebesgue,
    neighbors,
    parse_cube,
    partition_row,
)

SRC = Path(widthlab.__file__).parent

# reached by no package code, kept on purpose
UNREACHED_BY_DESIGN = {
    # looked up by name as benchmark spans (`perfbench/spans.py`); they leave
    # together with their spans
    "spectrum.beta_n": "benchmark span target",
    "partition.entropy_slope": "benchmark span target",
    "empirical.piecewise_project": "benchmark span target",
    "empirical.moment_project": "benchmark span target",
    "empirical.lq_error": "benchmark span target",
    "measures.lebesgue": "public constructor of the classical case",
    # per-cube queries and exact views of the public API; the package reads
    # its tables, walks and integer state instead
    "measures.MeasureModel.mass": "the mass oracle: L1 bench and benchmark span target",
    "cubes.DyadicCube.parent": "public cube navigation, timed by the L0 bench",
    "measures.AtomicMeasure.points": "public exact atoms of the integer state",
    "measures.AtomicMeasure.weights": "public exact weights of the integer state",
}


def test_public_names():
    assert sorted(widthlab.__all__) == [
        "AtomicMeasure", "Box", "Bump", "ClosedFormSpectrum", "CoarseProfile", "DecayResult",
        "DimensionEstimate", "DyadicCube", "EmbeddingParams", "EmpiricalSpectrum", "IfsMap",
        "IfsMeasure", "MeasureModel", "OrderReport", "ParseError", "PartitionResult",
        "PartitionRow", "PiecewisePolynomial", "Polynomial", "ProbeResult", "ProductMeasure",
        "ResourceLimitError", "SinProduct", "SolverError", "SpectrumCurve", "UniformMeasure",
        "ValidationError", "WidthlabError", "alpha_good_cubes", "beta_n", "build_partition",
        "case_label", "catalog", "children", "closed_form_spectrum", "coarse", "coarse_profile",
        "coordinate", "cubes", "decay_experiment", "dual_exponent", "empirical",
        "empirical_spectrum", "entropy_slope", "errors", "functions", "geometric_bounds",
        "ingest_points", "lebesgue", "load_measure", "lower_order", "lq_error", "measures",
        "minkowski", "moment_project", "neighbors", "orders", "packing_probe", "parse_cube",
        "partition", "partition_row", "piecewise_project", "quadrature", "root", "s_b_solve",
        "scaled_box", "sobolev_seminorm", "spectrum", "upper_order", "well_separated",
        "width_exponent",
    ]


def _refer(names: set, node) -> None:
    # a bare name reaches a module-level function; an attribute lookup
    # reaches that too (`reports.header_line`) and any class member (".name")
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.update((sub.attr, "." + sub.attr))


def _definitions_and_uses():
    """Each module-level function as "name", and each method or property of
    a class as ".name", -> its qualified names ("module.name",
    "module.Class.name"); and the keys that the definitions of each key and
    all other code (key: None) refer to. A key reaches every definition of
    it: a bare name only module-level functions of that name, an attribute
    lookup those and every member of that name. Special methods, which
    Python calls itself, count as other code. `__init__` only re-exports,
    and docstrings and strings refer to nothing."""
    definitions, uses = {}, {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for top in ast.parse(path.read_text()).body:
            members, prefix = [top], f"{path.stem}."
            if isinstance(top, ast.ClassDef):
                members, prefix = top.body, f"{path.stem}.{top.name}."
                for node in [*top.bases, *top.keywords, *top.decorator_list]:
                    _refer(uses.setdefault(None, set()), node)
            for node in members:
                owner = None
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not re.fullmatch("__.+__", node.name)):
                    owner = node.name if top is node else "." + node.name
                    qualified, name = definitions.setdefault(owner, []), prefix + node.name
                    assert name not in qualified, f"{name} is defined twice"
                    qualified.append(name)
                _refer(uses.setdefault(owner, set()), node)
    return definitions, uses


def test_every_function_is_reached():
    """Reached: referred to by module-level code, a class body or special
    method, or a reached definition, starting from the exceptions above."""
    definitions, uses = _definitions_and_uses()
    allowed = {name for name, qualified in definitions.items()
               if set(qualified) & set(UNREACHED_BY_DESIGN)}
    assert sorted(q for name in allowed for q in definitions[name]) == sorted(UNREACHED_BY_DESIGN)
    reached, todo = set(allowed), [None, *allowed]
    while todo:
        for name in uses.get(todo.pop(), ()):
            if name in definitions and name not in reached:
                reached.add(name)
                todo.append(name)
    assert sorted(q for name in set(definitions) - reached for q in definitions[name]) == []


def test_import_path_loads_no_code_generation_logging_or_openssl():
    """Set-up is shared by every subcommand, so each module but `probe`
    imports eagerly; what no call needs stays out: `dataclasses` (and its
    code generation), `logging` and `hashlib` (OpenSSL). A gram matrix and
    a config hash do not load them either."""
    code = (
        "import sys; before = set(sys.modules)\n"
        "import widthlab.cli\n"
        "from widthlab import empirical, reports\n"
        "empirical._hilbert_gram(2, 1); reports.config_hash({'a': 1})\n"
        "print(sorted({'dataclasses', 'logging', 'hashlib', '_hashlib'}"
        " & (set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout == "[]\n"


def test_runs_but_probe_load_neither_the_probe_nor_numpy_polynomial(tmp_path):
    """Only the `probe` subcommand compiles `widthlab.probe`, and the
    Gauss-Legendre rule needs no `numpy.polynomial`; `from widthlab import
    packing_probe` still finds the probe."""
    (tmp_path / "qc.json").write_text(
        '{"type": "ifs", "m": 1, "maps": [{"ratio_log2": 2, "offset": [0]},'
        ' {"ratio_log2": 2, "offset": [3]}], "probs": ["1/2", "1/2"]}')
    (tmp_path / "leb.json").write_text('{"type": "uniform", "m": 1, "support": "0:0"}')
    common = "'--sigma', '1', '--p', '2', '--q', '2'"
    code = (
        "import contextlib, io, sys\n"
        "import widthlab.cli as cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "    print(sorted({'widthlab.probe', 'numpy.polynomial'} & set(sys.modules)))\n"
        f"run('partition', '--measure', 'qc.json', {common}, '--thresholds', 'pow2:2..8')\n"
        f"run('order', '--measure', 'qc.json', {common}, '--levels', '3..5')\n"
        f"run('empirical', '--measure', 'qc.json', {common}, '--thresholds', 'pow2:2..8')\n"
        f"run('probe', '--measure', 'leb.json', {common}, '--n', '3', '--alpha', '2.5')\n"
        "from widthlab import packing_probe\n"
        "print(packing_probe.__module__)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.splitlines() == ["[]", "[]", "[]", "['widthlab.probe']", "widthlab.probe"]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DyadicCube(-1, (0,)), "cube level must be >= 0, got -1"),
        (lambda: DyadicCube(2, ()), "cube index must have at least one coordinate"),
        (lambda: DyadicCube(2, (1, 4)), "cube index (1, 4) out of range at level 2"),
        (lambda: DyadicCube(level=2, index=(-1,)), "cube index (-1,) out of range at level 2"),
        (lambda: parse_cube("3:8,0"), "cube index (8, 0) out of range at level 3"),
        (lambda: DyadicCube(3, (1,)).ancestor(-1), "cube level must be >= 0, got -1"),
        (lambda: DyadicCube(3, (1,)).ancestor(4), "ancestor level must not exceed cube level"),
        (lambda: DyadicCube(0, (0,)).parent(), "root cube has no parent"),
        (lambda: Box((Fraction(1, 2),), Fraction(0)), "box half_width must be positive"),
        (lambda: IfsMap(0, (0,)), "ratio_log2 must be a positive integer"),
        (lambda: EmbeddingParams(m=0, sigma=1, p=2, q=2), "dimension m must be >= 1"),
        (lambda: EmbeddingParams(m=1, sigma=1.5, p=2, q=2),
         "smoothness sigma must be a positive integer"),
        (lambda: EmbeddingParams(1, 1, 0.5, 2), "p must lie in [1, inf], got 0.5"),
        (lambda: EmbeddingParams(1, 1, 2, float("nan")), "q must lie in [1, inf], got nan"),
        (lambda: EmbeddingParams(m=2, sigma=1, p=2, q=2),
         "smoothness surplus sigma - m/p = 0.0 must be positive"),
        (lambda: DimensionEstimate((1, 2), (1.0, 0.5), 1.0, 0.5), "dimension window inverted"),
    ],
)
def test_validated_records_keep_their_messages(make, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make()


def test_records_are_tuples_of_their_fields():
    cube = DyadicCube(2, (1, 3))
    assert cube == (2, (1, 3)) and hash(cube) == hash((2, (1, 3)))
    level, index = cube
    assert (level, index) == (cube.level, cube.index) and cube._asdict() == {
        "level": 2, "index": (1, 3)}
    assert str(cube) == "2:1,3" and repr(cube) == "DyadicCube(level=2, index=(1, 3))"
    # derived cubes skip the range check but are the same cubes
    derived = [cube.child((1, 0)), cube.parent(), cube.ancestor(0), *neighbors(cube)]
    assert all(type(c) is DyadicCube for c in derived)
    assert derived[:3] == [DyadicCube(3, (3, 6)), DyadicCube(1, (0, 1)), DyadicCube(0, (0, 0))]
    params = EmbeddingParams(m=1, sigma=2, p=2, q=2)
    assert params._fields == ("m", "sigma", "p", "q") and params.rho == 3.0
    part = build_partition(lebesgue(1), 1.0, 0.3)
    assert part._fields == (*PartitionRow._fields, "cells") and not isinstance(part, PartitionRow)
    assert PartitionRow(*part[:-1]) == partition_row(lebesgue(1), 1.0, 0.3)
    assert all(type(c) is DyadicCube for c in part.cells)
