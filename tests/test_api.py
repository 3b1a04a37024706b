"""The public API, and the reach of every def of the package.

The command line is the product, so reach is what the command line runs: a
fresh interpreter traces every call while it imports `widthlab.cli` and runs
each golden case of `test_cli.py`, and every def of `src/widthlab`, methods,
properties and nested defs included, must have been called. A def that no
case calls is code that only tests run, and belongs with them in `tests/`;
one that a subcommand can run but no case does needs a golden case. The
only other ways to pass are an entry of UNREACHED_BY_DESIGN with its reason,
and a body that only raises NotImplementedError, which declares an
interface."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import widthlab
from widthlab import (
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

TESTS = Path(__file__).parent

# called by no golden case, kept on purpose
UNREACHED_BY_DESIGN = {
    # looked up by name as benchmark spans (`perfbench/spans.py`); they leave
    # together with their spans
    "spectrum.beta_n": "benchmark span target",
    "partition.entropy_slope": "benchmark span target",
    "partition.build_partition": "benchmark span target; the command line takes its rows"
                                 " from one `partition_rows` pass",
    "partition.partition_row": "public one-threshold row; only `build_partition` calls it",
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
    "measures.MeasureModel.level_masses": "public `Fraction` view of `level_counts`, which the"
                                          " package reads",
    "cubes.children": "the benchmark's cubes.children counter and the L0 bench",
    "cubes.DyadicCube.child": "called by `children` only: the L0 bench",
    "cubes.root": "public root cube; only `lebesgue` calls it",
    "cubes.DyadicCube.center": "the benchmark's cubes.center counter; the tests' exact boxes",
    "coarse.default_alpha_grid": "public default grid; a sweep slices each rho's from its longest",
}


def test_public_names():
    assert sorted(widthlab.__all__) == [
        "AtomicMeasure", "Bump", "ClosedFormSpectrum", "CoarseProfile", "DecayResult",
        "DimensionEstimate", "DyadicCube", "EmbeddingParams", "EmpiricalSpectrum", "IfsMap",
        "IfsMeasure", "MeasureModel", "OrderReport", "ParseError", "PartitionResult",
        "PartitionRow", "PiecewisePolynomial", "Polynomial", "ProbeResult", "ProductMeasure",
        "ResourceLimitError", "SinProduct", "SolverError", "UniformMeasure",
        "ValidationError", "WidthlabError", "alpha_good_cubes", "beta_n", "build_partition",
        "case_label", "catalog", "children", "closed_form_spectrum", "coarse", "coarse_profile",
        "coordinate", "cubes", "decay_experiment", "dual_exponent", "empirical",
        "empirical_spectrum", "entropy_slope", "errors", "functions", "geometric_bounds",
        "ingest_points", "lebesgue", "load_measure", "lower_order", "lq_error", "measures",
        "minkowski", "moment_project", "neighbors", "orders", "packing_probe", "parse_cube",
        "partition", "partition_row", "piecewise_project", "quadrature", "root", "s_b_solve",
        "spectrum", "upper_order", "well_separated", "width_exponent",
    ]


def _interface(node: ast.FunctionDef) -> bool:
    """Whether the def's body, below its docstring, only raises NotImplementedError."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    exc = body[0].exc if len(body) == 1 and isinstance(body[0], ast.Raise) else None
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _definitions() -> dict:
    """Each def of the package but an interface's, as (file, first line) ->
    its dotted name ("module.Class.method", "module.function.inner"). The
    first line is its code object's `co_firstlineno`: that of its first
    decorator, if it has any."""
    out = {}

    def walk(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _interface(child):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                assert (str(path), first) not in out and name not in out.values(), name
                out[(str(path), first)] = name
            walk(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return out


# In a fresh interpreter, so that no cache that earlier tests filled hides a
# call: the (file, first line) of each code object of the package called
# from before `import widthlab.cli` to the end of the last golden case.
_TRACE = """
import os, sys, tempfile
from pathlib import Path

src, tests = sys.argv[1:]
called = set()


def trace(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        called.add(f"{code.co_firstlineno} {code.co_filename}")


sys.setprofile(trace)
import widthlab.cli

sys.path.insert(0, tests)
import test_cli

for argv in test_cli.CASES.values():
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        test_cli.run_cli(argv, Path(cwd))
        os.chdir(tests)
sys.setprofile(None)
print(*sorted(called), sep="\\n")
"""


def test_no_def_but_the_cap_checks_takes_a_cap():
    """The run's caps are attributes of the model it loaded: no def of the
    package takes `max_cubes` or `max_cells`, but the `_check_*` helpers of
    `measures.py` that compare a count with one."""
    takers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
                if names & {"max_cubes", "max_cells"}:
                    takers.append(f"{path.stem}.{node.name}")
    assert takers == ["measures._check_level", "measures._check_masses"]


def test_fractions_is_imported_only_where_exactness_decides():
    """Exact `Fraction` arithmetic stays where it decides a result: parsing
    specs and CSV fields, cube geometry, the width exponents, the coarse
    grid's rho and the command line's grid tokens. The level interfaces give
    integers over den(n), so the modules that read them (`probe`, `empirical`,
    `spectrum`, `partition`) and every other import no `fractions`."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "fractions" in names:
                importers.add(path.stem)
    assert importers == {"measures", "cubes", "orders", "coarse", "cli"}


def test_every_def_is_called_by_a_golden_case():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _TRACE, str(SRC) + os.sep, str(TESTS)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    called = {(name, int(line)) for line, _, name in
              (entry.partition(" ") for entry in done.stdout.splitlines())}
    uncalled = {name for key, name in _definitions().items() if key not in called}
    unreached, stale = sorted(uncalled - set(UNREACHED_BY_DESIGN)), sorted(
        set(UNREACHED_BY_DESIGN) - uncalled)
    assert not unreached and not stale, (
        f"called by no golden case: {unreached}; stale UNREACHED_BY_DESIGN entries: {stale}")


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
