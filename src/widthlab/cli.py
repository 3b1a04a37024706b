"""Command-line front end: measures in, CSV/JSON result tables out.

Subcommands: spectrum, dims, partition, coarse, order, empirical, probe,
validate. Flags mirror config-file keys one-to-one; `--config file.json`
loads the same schema with explicit flags taking precedence. Real grids use
"a:b:step", integer level ranges "a..b", thresholds either a comma list or
"pow2:a..b" for 2^-a .. 2^-b, and the literal "inf" is accepted for p or q.

The header line of every output hashes the effective configuration: each
option of the subcommand as it was converted, defaults filled in (the
config-file values merged under the flags), the version and the SHA-256
digest of the measure file's bytes. Two command lines that spell one run
differently, as `--levels 4..6` and `--levels 4,5,6`, get one header.
Runs are self-contained: nothing is cached on disk, and nothing runs in
parallel. Exit codes: 0 success, 1 validation/solver failure, malformed
value (flag or config file) or unwritable output file, 2 resource cap, 64
usage error, 66 unreadable input file.

Reading a command line: one that is a subcommand's name and then only
`--flag value` pairs of its flags, no value starting with "-", is read
directly (`_direct`), as argparse would read it. argparse, imported on first
use, reads every other one: help, `--version`, usage errors, abbreviated
flags, `--flag=value` and values that start with "-". Its help shows the
text above this paragraph.

Resource caps: `--max-cubes` and `--max-cells` are attributes of the loaded
model (`MeasureModel.max_cubes`, `MeasureModel.max_cells`), set once per
run before any work (`Run.set_caps`; `validate` reads neither). Every level,
node table and partition that the run builds reads them there, so no
function below this module takes a cap, and a malformed cap exits 1 before
the computation starts. To size `--max-cubes`: a template (IFS or uniform)
measure keeps each state (template node, exact mass) of every level it
pushes, about 334 bytes a state (`tracemalloc`, the bench 7-map IFS pushed
to level 20: 84 424 states, 28.2 MB), and a level holds at most its
distinct masses, which the cap bounds, times its template's nodes.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import __version__, reports
from .coarse import coarse_profile, coarse_profiles
from .empirical import decay_experiment
from .errors import ParseError, ResourceLimitError, SolverError, ValidationError, WidthlabError
from .functions import catalog
from .measures import DEFAULT_MAX_CELLS, DEFAULT_MAX_CUBES, ingest_points, load_measure
from .orders import EmbeddingParams, geometric_bounds, lower_order
from .partition import _partition_cells, fit_entropy_slope, partition_rows
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


def _check_count(count: int) -> None:
    """A range or grid is counted before it is built: one past the cube cap
    would fill the memory first. A huge count is named by a power of two."""
    if count > DEFAULT_MAX_CUBES:
        shown = count if count < 1 << 64 else f"over 2^{count.bit_length() - 1}"
        raise ValueError(f"it holds {shown} values, more than {DEFAULT_MAX_CUBES}")


def parse_levels(text: str) -> list[int]:
    text = str(text).strip()
    if ".." in text:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
        _check_count(hi - lo + 1)
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _decimal(token: str) -> Fraction:
    """A grid token's exact value; Fraction would build 10^exponent first."""
    if len(token.lower().partition("e")[2].replace("_", "").lstrip("+-").lstrip("0")) > 4:
        raise ValueError(f"the exponent of {token.strip()!r} has more than 4 digits")
    return Fraction(token)


def parse_grid(text: str) -> list[float]:
    """Real grid "a:b:step" (exact decimal stepping) or a comma list."""
    text = str(text).strip()
    if ":" in text:
        a, b, step = map(_decimal, text.split(":"))
        if step <= 0:
            raise ParseError("grid step must be positive")
        count = math.floor((b - a) / step) + 1
        _check_count(count)
        return [float(a + k * step) for k in range(count)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def parse_thresholds(text: str) -> list[float]:
    text = str(text).strip()
    if text.startswith("pow2:"):
        return [2.0 ** (-k) for k in parse_levels(text[5:])]
    return parse_grid(text)


# key: (converter, default, help). Every flag stays text until `Run.get`
# converts it, as a config-file value is, so a malformed one exits 1.
OPTIONS = {
    "config": (None, None, "JSON config file; flags override its keys"),
    "measure": (None, None, "measure spec (.json) or point cloud (.csv)"),
    "weight_column": (None, None, "CSV weight column (name or 0-based index)"),
    "max_cubes": (int, DEFAULT_MAX_CUBES, "cap on the cubes / distinct masses of each level read"),
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
    seed, a range, grid or threshold list with no values or with more than
    the default cube cap of them, or a grid token with a 5-digit or longer
    exponent is a ParseError, whichever source it came from. Each option is
    converted once per run, on first use.
    """

    def __init__(self, args: SimpleNamespace) -> None:
        try:
            config = json.loads(_read(args.config, "config")) if args.config else {}
        except ValueError as exc:
            raise ParseError(f"bad config JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ParseError("bad config JSON: expected an object of option keys")
        self.command = args.command
        self.values = {**config, **{k: v for k, v in vars(args).items() if v is not None}}
        self._converted = {}
        path = self.need("measure")
        data = _read(path, f"measure spec {path}")
        if path.endswith(".csv"):
            self.model = ingest_points(data, self.get("weight_column"), name=path)
        else:
            self.model = load_measure(data, name=path)
        # provenance covers the bytes read, not the parsed model: two files
        # that spell one measure differently get different headers
        self.measure_sha256 = reports.sha256(data).hexdigest()

    @functools.cached_property
    def header(self) -> str:
        """The header line of every output: the hash, once per run, of the
        subcommand's options as `get` converts them, the version and the
        measure file's digest. The config file's path is no option of the
        run: its values are."""
        config = {key: self.get(key) for key in _keys(self.command) if key != "config"}
        return reports.header_line({**config, "command": self.command,
                                    "tool_version": __version__,
                                    "measure_sha256": self.measure_sha256})

    def get(self, key: str):
        if key not in self._converted:
            self._converted[key] = self._convert(key)
        return self._converted[key]

    def _convert(self, key: str):
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
            raise ParseError(f"malformed {_flag(key)} value {converted!r}: a cap must be >= 1")
        if key == "seed" and converted < 0:
            raise ParseError(f"malformed {_flag(key)} value {converted!r}: a seed must be >= 0")
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

    def set_caps(self, keys) -> None:
        """Put the caps among option `keys` on the model, where every
        level, table and partition of the run reads them."""
        for key in ("max_cubes", "max_cells"):
            if key in keys:
                setattr(self.model, key, self.get(key))

    def emit(self, key: str, columns: list[str] | None, data) -> None:
        """Write CSV rows, or a JSON payload if `columns` is None, under the
        header line to the file named by option `key`; if it is unset, the
        main result ("out") goes to stdout the same way, a JSON side result to
        one stdout line. A file that cannot be written is a WidthlabError."""
        path = self.get(key)
        if path is None and key != "out":
            print(reports.json_text(data))
            return
        header = self.header  # before the file is opened: it converts every option
        try:
            with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
                if columns is None:
                    reports.write_json(fh, data, header)
                else:
                    reports.write_csv(fh, columns, data, header)
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
    levels, t_grid = run.get("levels"), run.get("t_grid")
    rows = [(n, t, value) for n in levels
            for t, value in zip(t_grid, beta_row(run.model, n, t_grid))]
    run.emit("out", ["n", "t", "beta_n"], rows)
    curve = closed_form_spectrum(run.model)
    if curve is not None and run.get("out") is not None:
        print(f"closed form available: {curve.label}")


def _dims(run: Run) -> None:
    est = minkowski(run.model, run.get("levels"))
    run.emit("out", ["n", "boxdim"], list(zip(est.levels, est.values)))


def _partition(run: Run) -> None:
    rho, thresholds = _rho(run), run.need("thresholds")
    parts = partition_rows(run.model, rho, thresholds)  # every threshold's row from one pass
    if run.get("cells_out"):  # then one cells pass per row, the caps passed
        parts = [_partition_cells(run.model, row) for row in parts]
    rows = [(p.t, p.card, p.min_level, p.max_level, p.max_j) for p in parts]
    run.emit("out", ["t", "card", "min_level", "max_level", "max_j"], rows)
    if run.get("cells_out"):
        run.emit("cells_out", ["t", "cell"], [(p.t, str(c)) for p in parts for c in p.cells])
    if len(thresholds) >= 3:
        with contextlib.suppress(SolverError):
            print(f"entropy slope estimate: {fit_entropy_slope(parts).slope!r}")


def _coarse(run: Run) -> None:
    rho, levels = _rho(run), run.get("levels")
    prof = coarse_profile(run.model, levels, rho, run.get("alpha_grid"))
    rows = [(n, alpha, c, math.log2(max(c, 1)) / n)
            for n, row in zip(prof.levels, prof.counts) for alpha, c in zip(prof.alpha_grid, row)]
    run.emit("out", ["n", "alpha", "count", "F_est"], rows)
    run.emit("summary", None, prof.summary())


def _order(run: Run) -> None:
    model, levels = run.model, run.get("levels")
    sweep = run.get("p_grid") or run.get("q_grid")
    if sweep:
        sigma = run.need("sigma")
        ps = run.get("p_grid") or [run.need("p")]
        qs = run.get("q_grid") or [run.need("q")]
        grid = [EmbeddingParams(m=model.m, sigma=sigma, p=p, q=q) for p in ps for q in qs]
    else:
        grid = [_embedding(run)]
    # the curve is read up to the smallest rho's crossing, the profiles pass by
    # pass; their count views cannot fail, as `minkowski` has checked the cap
    curve = closed_form_spectrum(model) or empirical_spectrum(model, max(levels))
    dims = minkowski(model, levels)
    rhos = [params.rho for params in grid if not math.isinf(params.q)]
    profiles = coarse_profiles(model, levels, rhos)
    reps = [lower_order(params, curve, dims, None if math.isinf(params.q) else next(profiles))
            for params in grid]
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
    result = decay_experiment(catalog(fname, run.model.m), run.model, params,
                              run.need("thresholds"), depth_offset=run.get("depth_offset"))
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
    from .probe import packing_probe  # only this subcommand compiles the probe

    result = packing_probe(run.model, run.need("n"), run.need("alpha"), _embedding(run),
                           seed=run.get("seed"))
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


def _keys(command: str) -> list[str]:
    return f"{COMMON} {SUBCOMMANDS[command][1]}".split()


def build_parser():
    """The argparse parser of the command line, all eight subparsers built.
    `_main` reads a well-formed line itself and builds this parser only for
    the rest: help, usage errors and unusual spellings."""
    import argparse  # its first use costs a few ms: gettext, locale, regexes

    description = __doc__.partition("\n\nReading a command line")[0]
    parser = argparse.ArgumentParser(prog="widthlab", description=description,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"widthlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for key in _keys(name):
            sp.add_argument(_flag(key), help=OPTIONS[key][2])
    return parser


def _direct(argv: list[str]) -> SimpleNamespace | None:
    """The options argparse reads from `argv`, with the same keys, if it is
    a subcommand's exact name and then only `--flag value` pairs of that
    subcommand's flags, no value starting with "-" (a later pair of one flag
    wins, as in argparse); None for any other line."""
    if not argv or argv[0] not in SUBCOMMANDS or len(argv) % 2 == 0:
        return None
    keys = _keys(argv[0])
    flags, values = {_flag(key): key for key in keys}, dict.fromkeys(keys)
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in flags or value.startswith("-"):
            return None
        values[flags[flag]] = value
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    What exists on entry, the import's objects among it, is frozen for the
    run, so the collections the run triggers scan only what it allocated,
    and unfrozen on every exit. If a caller has frozen objects already, the
    collector is left to it."""
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        return _main(sys.argv[1:] if argv is None else list(argv))
    finally:
        if freeze:
            gc.unfreeze()


def _main(argv: list[str]) -> int:
    args = _direct(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
            return EX_USAGE if exc.code == 2 else exc.code
    compute = SUBCOMMANDS[args.command][2]
    try:
        run = Run(args)
        if compute is not _validate:  # which writes no output and reads no cap
            keys = _keys(args.command)
            run.check_outputs(keys)
            run.set_caps(keys)
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
