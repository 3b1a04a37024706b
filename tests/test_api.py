"""The public API, and the reach of every module-level function of the package.

The command line is the product: a function that no subcommand, no class
and no other reached function refers to is code that only tests run, and
belongs with them in `tests/`."""
import ast
from pathlib import Path

import widthlab

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
