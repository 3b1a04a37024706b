"""Command-line front end: measures in, CSV/JSON result tables out.

Subcommands: spectrum, dims, partition, coarse, order, empirical, probe,
validate. Flags mirror config-file keys one-to-one; `--config file.json`
loads the same schema with explicit flags taking precedence. Real grids use
"a:b:step", integer level ranges "a..b", thresholds either a comma list or
"pow2:a..b" for 2^-a .. 2^-b, and the literal "inf" is accepted for p or q.

The header line of every output hashes the effective configuration: the
config-file values merged under the flags, the version and the measure.
Runs are self-contained: nothing is cached on disk, and nothing runs in
parallel. Exit codes: 0 success, 1 validation/solver failure, malformed
value (flag or config file) or unwritable output file, 2 resource cap, 64
usage error, 66 unreadable input file.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, reports
from .coarse import coarse_profile, count_view
from .empirical import decay_experiment, packing_probe
from .errors import ParseError, ResourceLimitError, SolverError, ValidationError, WidthlabError
from .functions import catalog
from .measures import DEFAULT_MAX_CUBES, ingest_points, load_measure
from .orders import EmbeddingParams, geometric_bounds, lower_order
from .partition import DEFAULT_MAX_CELLS, build_partition, fit_entropy_slope, partition_row
from .spectrum import beta_row, closed_form_spectrum, empirical_spectrum, minkowski

EX_OK = 0
EX_FAIL = 1
EX_RESOURCE = 2
EX_USAGE = 64
EX_NOINPUT = 66


def parse_extended(text: str) -> float:
    if str(text).strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def parse_levels(text: str) -> list[int]:
    text = str(text).strip()
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_grid(text: str) -> list[float]:
    """Real grid "a:b:step" (exact decimal stepping) or a comma list."""
    text = str(text).strip()
    if ":" in text:
        a, b, step = (Fraction(tok) for tok in text.split(":"))
        if step <= 0:
            raise ParseError("grid step must be positive")
        return [float(a + k * step) for k in range(math.floor((b - a) / step) + 1)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def parse_thresholds(text: str) -> list[float]:
    text = str(text).strip()
    if text.startswith("pow2:"):
        return [2.0 ** (-k) for k in parse_levels(text[5:])]
    return parse_grid(text)


# key: (converter, default, help). Integer and real flags are typed by argparse
# too; the rest stay text until `Run.get`, like config-file values.
OPTIONS = {
    "config": (None, None, "JSON config file; flags override its keys"),
    "measure": (None, None, "measure spec (.json) or point cloud (.csv)"),
    "weight_column": (None, None, "CSV weight column (name or 0-based index)"),
    "max_cubes": (int, DEFAULT_MAX_CUBES, "cap on enumerated cubes / multiset size"),
    "out": (None, None, "output file (default: stdout)"),
    "m": (int, None, "dimension (checked against the measure)"),
    "sigma": (int, None, "smoothness order"),
    "p": (parse_extended, None, "source integrability in [1, inf]"),
    "q": (parse_extended, None, "target integrability in [1, inf]"),
    "rho": (float, None, "partition exponent; defaults to q*(sigma - m/p)"),
    "levels": (parse_levels, "4..10", 'level range "a..b"'),
    "t_grid": (parse_grid, "0:1.5:0.05", 'moment grid "a:b:step"'),
    "thresholds": (parse_thresholds, None, 'comma list, "a:b:step", or "pow2:a..b"'),
    "cells_out": (None, None, "optional cell dump CSV"),
    "max_cells": (int, DEFAULT_MAX_CELLS, "cap on partition cells"),
    "alpha_grid": (parse_grid, None, 'grid "a:b:step"'),
    "summary": (None, None, "summary JSON path"),
    "p_grid": (parse_grid, None, "sweep mode: grid for p"),
    "q_grid": (parse_grid, None, "sweep mode: grid for q"),
    "function": (None, "sin", "catalog function: sin, linear, bump, constant"),
    "depth_offset": (int, 3, "quadrature depth below the finest cell"),
    "verdict": (None, None, "verdict JSON path"),
    "n": (int, None, "level of the probed family"),
    "alpha": (float, None, "goodness exponent"),
    "seed": (int, 0, "seed for random span elements"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {what}: {exc}") from exc


OUTPUTS = ("out", "summary", "verdict", "cells_out")


class Run:
    """One invocation: its options (explicit flags over config-file keys),
    its measure, and where its results go. A value that the option's
    converter rejects, a boolean or fractional number for a numeric or
    integer option, a non-string text option, a cap below 1, a negative
    seed, or a range, grid or threshold list with no values is a
    ParseError, whichever source it came from.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        try:
            config = json.loads(_read(args.config, "config")) if args.config else {}
        except ValueError as exc:
            raise ParseError(f"bad config JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ParseError("bad config JSON: expected an object of option keys")
        self.values = {**config, **{k: v for k, v in vars(args).items() if v is not None}}
        path = self.need("measure")
        data = _read(path, f"measure spec {path}")
        if path.endswith(".csv"):
            self.model = ingest_points(data, self.get("weight_column"), name=path)
        else:
            self.model = load_measure(data, name=path)
        provenance = {"tool_version": __version__, "measure_spec": self.model.to_spec()}
        self.config = {**self.values, **provenance}

    @functools.cached_property
    def header(self) -> str:
        """The header line of every output, its config hashed once per run."""
        return reports.header_line(self.config)

    def get(self, key: str):
        convert, default, _ = OPTIONS[key]
        value = self.values.get(key)
        value = default if value is None else value
        if value is None:
            return value
        if convert is None:
            # open() would take an integer as a file descriptor
            if isinstance(value, str) or (key == "weight_column" and type(value) is int):
                return value
            kind = "a column name or index" if key == "weight_column" else "a string"
            raise ParseError(f"malformed {_flag(key)} value {value!r}: expected {kind}")
        # config values arrive typed: int() would truncate 2.7 and take True as 1
        fractional = convert is int and isinstance(value, float) and not value.is_integer()
        if convert in (int, float) and (isinstance(value, bool) or fractional):
            kind = "an integer" if convert is int else "a number"
            raise ParseError(f"malformed {_flag(key)} value {value!r}: expected {kind}")
        try:
            converted = convert(value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ParseError(f"malformed {_flag(key)} value {value!r}: {exc}") from exc
        if key in ("max_cubes", "max_cells") and converted < 1:  # not a cap that trips
            raise ParseError(f"malformed {_flag(key)} value {value!r}: a cap must be >= 1")
        if key == "seed" and converted < 0:
            raise ParseError(f"malformed {_flag(key)} value {value!r}: a seed must be >= 0")
        if convert in (parse_levels, parse_grid, parse_thresholds) and not converted:
            raise ParseError(f"malformed {_flag(key)} value {value!r}: it holds no values")
        return converted

    def need(self, key: str):
        value = self.get(key)
        if value is None:
            raise ValidationError(f"missing required option {_flag(key)}")
        return value

    def check_outputs(self, keys) -> None:
        """Fail before any work if the output file of an option among `keys`
        is a directory or lies in a missing one, so that a run failing on a
        later output leaves no complete-looking earlier one."""
        for key in (key for key in OUTPUTS if key in keys):
            path = self.get(key)
            parent = os.path.dirname(path or "") or "."
            if path and os.path.isdir(path):
                reason = "Is a directory"
            elif path and not os.path.isdir(parent):
                reason = "Not a directory" if os.path.exists(parent) else "No such file or directory"
            else:
                continue
            raise WidthlabError(f"cannot write {_flag(key)} {path}: {reason}")

    def emit(self, key: str, columns: list[str] | None, data) -> None:
        """Write CSV rows, or a JSON payload if `columns` is None, under the
        header line to the file named by option `key`; if it is unset, the
        main result ("out") goes to stdout the same way, a JSON side result to
        one stdout line. A file that cannot be written is a WidthlabError."""
        path = self.get(key)
        if path is None and key != "out":
            print(reports.json_text(data))
            return
        try:
            with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
                if columns is None:
                    reports.write_json(fh, data, self.header)
                else:
                    reports.write_csv(fh, columns, data, self.header)
        except OSError as exc:
            if not path:
                raise
            raise WidthlabError(f"cannot write {_flag(key)} {path}: {exc.strerror or exc}") from exc


def _embedding(run: Run) -> EmbeddingParams:
    m = run.model.m
    if run.get("m") not in (None, m):
        raise ValidationError(f"--m {run.get('m')} does not match measure dimension {m}")
    return EmbeddingParams(m=m, sigma=run.need("sigma"), p=run.need("p"), q=run.need("q"))


def _rho(run: Run) -> float:
    rho = run.get("rho")
    if rho is None:
        rho = _embedding(run).rho
        if math.isinf(rho):
            raise ValidationError("q = inf has no finite rho; pass --rho directly")
    elif not rho > 0:  # NaN too
        raise ValidationError("--rho must be positive")
    return rho


def _spectrum(run: Run) -> None:
    levels, t_grid, max_cubes = run.get("levels"), run.get("t_grid"), run.get("max_cubes")
    rows = [(n, t, value) for n in levels
            for t, value in zip(t_grid, beta_row(run.model, n, t_grid, max_cubes))]
    run.emit("out", ["n", "t", "beta_n"], rows)
    curve = closed_form_spectrum(run.model)
    if curve is not None and run.get("out") is not None:
        print(f"closed form available: {curve.label}")


def _dims(run: Run) -> None:
    est = minkowski(run.model, run.get("levels"), run.get("max_cubes"))
    run.emit("out", ["n", "boxdim"], list(zip(est.levels, est.values)))


def _partition(run: Run) -> None:
    rho, thresholds = _rho(run), run.need("thresholds")
    # a cell dump takes its rows and cells from the one cells walk
    build = build_partition if run.get("cells_out") else partition_row
    parts = [build(run.model, rho, t, run.get("max_cells")) for t in thresholds]
    rows = [(p.t, p.card, p.min_level, p.max_level, p.max_j) for p in parts]
    run.emit("out", ["t", "card", "min_level", "max_level", "max_j"], rows)
    if run.get("cells_out"):
        run.emit("cells_out", ["t", "cell"], [(p.t, str(c)) for p in parts for c in p.cells])
    if len(thresholds) >= 3:
        with contextlib.suppress(SolverError):
            print(f"entropy slope estimate: {fit_entropy_slope(parts).slope!r}")


def _coarse(run: Run) -> None:
    rho, levels = _rho(run), run.get("levels")
    prof = coarse_profile(run.model, levels, rho, run.get("alpha_grid"), run.get("max_cubes"))
    rows = [(n, alpha, c, math.log2(max(c, 1)) / n)
            for n, row in zip(prof.levels, prof.counts) for alpha, c in zip(prof.alpha_grid, row)]
    run.emit("out", ["n", "alpha", "count", "F_est"], rows)
    run.emit("summary", None, prof.summary())


def _order(run: Run) -> None:
    model, levels, max_cubes = run.model, run.get("levels"), run.get("max_cubes")
    sweep = run.get("p_grid") or run.get("q_grid")
    if sweep:
        sigma = run.need("sigma")
        ps = run.get("p_grid") or [run.need("p")]
        qs = run.get("q_grid") or [run.need("q")]
        grid = [EmbeddingParams(m=model.m, sigma=sigma, p=p, q=q) for p in ps for q in qs]
    else:
        grid = [_embedding(run)]
    # the curve, the dimensions and the count views do not depend on (p, q);
    # the counts do, via rho
    curve = closed_form_spectrum(model) or empirical_spectrum(model, max(levels), max_cubes=max_cubes)
    dims = minkowski(model, levels, max_cubes)
    views, reps = None, []
    for params in grid:
        prof = None
        if not math.isinf(params.q):
            views = views or {n: count_view(model, n, max_cubes) for n in levels}
            prof = coarse_profile(model, levels, params.rho, max_cubes=max_cubes, views=views)
        reps.append(lower_order(params, curve, dims, prof))
    if sweep:
        rows = [(r.params.p, r.params.q, *(r.upper[s] for s in "KGL"), *r.lower["K"], r.case)
                for r in reps]
        run.emit("out", ["p", "q", "uAO_K", "uAO_G", "uAO_L", "lAO_lo", "lAO_hi", "case"], rows)
        return
    payload = reps[0].to_dict()
    if model.finite_support:
        payload["finite_support_warning"] = "measure has finite support; asymptotic formulas degenerate"
    if not math.isinf(grid[0].q):
        payload["geometric_bounds"] = list(geometric_bounds(grid[0], reps[0].S_upper, dims))
    run.emit("out", None, payload)


def _empirical(run: Run) -> None:
    params, fname = _embedding(run), run.get("function")
    result = decay_experiment(
        catalog(fname, run.model.m), run.model, params, run.need("thresholds"),
        depth_offset=run.get("depth_offset"), max_cells=run.get("max_cells"),
        max_cubes=run.get("max_cubes"),
    )
    rows = [(t, card, err, math.log(card), math.log(err) if err > 0 else -math.inf)
            for t, card, err in result.rows]
    run.emit("out", ["t", "card", "error", "logcard", "logerror"], rows)
    verdict = {
        "function": fname,
        "slope": result.slope,
        "predicted": result.predicted,
        "pass": result.upper_bound_ok,
        "degenerate": result.degenerate,
    }
    run.emit("verdict", None, verdict)


def _probe(run: Run) -> None:
    result = packing_probe(
        run.model, run.need("n"), run.need("alpha"), _embedding(run),
        seed=run.get("seed"), max_cubes=run.get("max_cubes"),
    )
    payload = result._asdict()
    payload["family"] = [str(c) for c in result.family]
    payload["family_size"] = len(result.family)
    run.emit("out", None, payload)


def _validate(run: Run) -> None:
    print(f"ok: {run.get('measure')} is a valid {type(run.model).__name__} with m={run.model.m}")


COMMON = "config measure weight_column max_cubes out"
EMBEDDING = "m sigma p q"
# name: (help, option keys beyond COMMON, compute)
SUBCOMMANDS = {
    "spectrum": ("finite-level L^q-spectrum table", "levels t_grid", _spectrum),
    "dims": ("box-counting dimension estimates", "levels", _dims),
    "partition": ("adaptive threshold partitions",
                  f"{EMBEDDING} rho thresholds cells_out max_cells", _partition),
    "coarse": ("coarse multifractal counts and optimized dims",
               f"{EMBEDDING} rho levels alpha_grid summary", _coarse),
    "order": ("approximation-order report", f"{EMBEDDING} levels p_grid q_grid", _order),
    "empirical": ("projection decay experiment",
                  f"{EMBEDDING} function thresholds depth_offset max_cells verdict", _empirical),
    "probe": ("packing lower-bound probe", f"{EMBEDDING} n alpha seed", _probe),
    "validate": ("validate a measure spec", "", _validate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser. If `command` names a subcommand, only its
    subparser is built, since building all eight costs more than parsing
    one command line; otherwise (help, usage errors) all of them are. The
    usage line lists every subcommand either way."""
    parser = argparse.ArgumentParser(prog="widthlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"widthlab {__version__}")
    names, metavar = list(SUBCOMMANDS), None
    if command in SUBCOMMANDS:
        # the usage line names the subparsers built, so name all of them; the
        # usage errors that would print the metavar for "command" cannot occur
        names, metavar = [command], "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, keys, _ = SUBCOMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for key in f"{COMMON} {keys}".split():
            convert, _, help_text = OPTIONS[key]
            typed = convert if convert in (int, float) else None
            sp.add_argument(_flag(key), type=typed, help=help_text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EX_USAGE if exc.code == 2 else exc.code
    _, keys, compute = SUBCOMMANDS[args.command]
    try:
        run = Run(args)
        if compute is not _validate:  # which writes no output
            run.check_outputs(f"{COMMON} {keys}".split())
        compute(run)
        return EX_OK
    except FileNotFoundError as exc:
        message, code = str(exc), EX_NOINPUT
    except ResourceLimitError as exc:
        message, code = f"resource cap: {exc}", EX_RESOURCE
    except WidthlabError as exc:
        message, code = str(exc), EX_FAIL
    sys.stderr.write(f"widthlab: {message}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
