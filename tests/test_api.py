"""The public API, and the reach of every module-level function of the package.

The command line is the product: a function that no subcommand, no class
and no other reached function refers to is code that only tests run, and
belongs with them in `tests/`."""
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


def _functions_and_uses():
    """Each module-level function as name -> "module.name", and the names
    that each function (key: its name) and all other code (key: None)
    refer to; `__init__` only re-exports, and docstrings and strings
    refer to nothing."""
    functions, uses = {}, {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = top.name
                assert owner not in functions, f"{owner} is defined twice"
                if path.stem != "__main__":
                    functions[owner] = f"{path.stem}.{owner}"
            names = uses.setdefault(owner, set())
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return functions, uses


def test_every_function_is_reached():
    """Reached: referred to by module-level code, a class, or a reached
    function, starting from the exceptions above."""
    functions, uses = _functions_and_uses()
    allowed = {name for name, qualified in functions.items() if qualified in UNREACHED_BY_DESIGN}
    assert sorted(functions[name] for name in allowed) == sorted(UNREACHED_BY_DESIGN)
    reached, todo = set(allowed), [None, *allowed]
    while todo:
        for name in uses.get(todo.pop(), ()):
            if name in functions and name not in reached:
                reached.add(name)
                todo.append(name)
    assert sorted(functions[name] for name in set(functions) - reached) == []


def test_import_path_loads_no_code_generation_logging_or_openssl():
    """Set-up is shared by every subcommand, so each module imports eagerly;
    what no call needs stays out: `dataclasses` (and its code generation),
    `logging` and `hashlib` (OpenSSL). A gram matrix and a config hash do
    not load them either."""
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
