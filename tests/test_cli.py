"""The `widthlab` command line: golden outputs, exit codes and option sets.

`golden/cli.json` holds, for each case below, the exit code, the header line
and the output bodies the command line produced before its dispatcher was
rewritten; the two `spectrum-t-one-cap`/`spectrum-unsorted-grid` cases were
captured from the release before the t-grid began to share one level view,
and `spectrum-cloud-unweighted` from the release before a CSV cloud was
parsed straight to integers.
The file is data: nothing here rewrites it. Bodies are compared
with the benchmark's reference check (text exactly, numbers to relative
1e-9); header lines, whose hash covers the effective configuration, are
compared exactly for runs without `--config`.

Every case runs in a temporary working directory with relative paths, so the
configuration, and with it the header hash, is the same on every machine.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import ParseError, cli, empirical, reports
from widthlab.measures import ingest_points

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import body, mismatch  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli.json"

_TETRAHEDRON = {
    "type": "ifs",
    "m": 3,
    "maps": [
        {"ratio_log2": 1, "offset": [0, 0, 0]},
        {"ratio_log2": 1, "offset": [1, 1, 0]},
        {"ratio_log2": 1, "offset": [1, 0, 1]},
        {"ratio_log2": 1, "offset": [0, 1, 1]},
    ],
    "probs": ["0.599", "0.3", "0.001", "0.1"],
}
_QUARTER_CANTOR = {
    "type": "ifs",
    "m": 1,
    "maps": [{"ratio_log2": 2, "offset": [0]}, {"ratio_log2": 2, "offset": [3]}],
    "probs": ["1/2", "1/2"],
}
# two contraction ratios: no closed-form spectrum, so `order` samples one
_MIXED_RATIOS = {
    "type": "ifs",
    "m": 1,
    "maps": [{"ratio_log2": 1, "offset": [0]}, {"ratio_log2": 2, "offset": [3]}],
    "probs": ["0.6", "0.4"],
}

# Input files of every case, written into its working directory: the
# tetrahedron and quarter-Cantor models of conftest.py, Lebesgue measure on
# [0, 1), a two-ratio IFS, a weighted three-point cloud and an unweighted
# six-point cloud whose fields take the plain-decimal, 20-digit and exponent
# routes of the parser.
FILES = {
    "tet.json": json.dumps(_TETRAHEDRON),
    "qc.json": json.dumps(_QUARTER_CANTOR),
    "mix.json": json.dumps(_MIXED_RATIOS),
    "leb1.json": json.dumps({"type": "uniform", "m": 1, "support": "0:0"}),
    "pts.csv": "x,y,w\n0.25,0.5,1\n0.75,0.125,2\n0.5,0.875,1\n",
    "cloud.csv": "x,y\n0.500000,0.250000\n0.123456,0.654321\n0.75,0.000001\n0.999999,0.5\n"
                 "0.1,0.3\n0.12345678901234567891,5e-1\n",
    "cfg.json": json.dumps(
        {"measure": "tet.json", "sigma": 2, "p": "2", "q": "2", "levels": "3..5"}
    ),
    "bad.json": "{not json",
}

_TET22 = ["--measure", "tet.json", "--sigma", "2", "--p", "2", "--q", "2"]

CASES = {
    "spectrum-stdout": ["spectrum", "--measure", "qc.json", "--levels", "2..4",
                        "--t-grid", "0:1.5:0.25"],
    "spectrum-cloud": ["spectrum", "--measure", "pts.csv", "--weight-column", "w",
                       "--levels", "1..3", "--t-grid", "0:1:0.5", "--out", "out.csv"],
    # the 1/N weights of the benchmark's cloud, to stdout under its header
    "spectrum-cloud-unweighted": ["spectrum", "--measure", "cloud.csv", "--levels", "1..3",
                                  "--t-grid", "0:2:0.5"],
    "spectrum-closed-form": ["spectrum", "--measure", "leb1.json", "--levels", "1..2",
                             "--t-grid", "0:1:0.5", "--out", "out.csv"],
    "dims": ["dims", "--measure", "tet.json", "--levels", "2..5"],
    "partition": ["partition", *_TET22, "--thresholds", "pow2:4..14", "--out", "out.csv"],
    "partition-cells": ["partition", "--measure", "qc.json", "--rho", "1",
                        "--thresholds", "0.5,0.25,0.125", "--cells-out", "cells.csv"],
    "coarse-stdout": ["coarse", *_TET22, "--levels", "3..5", "--alpha-grid", "1:6:0.5"],
    "coarse-summary": ["coarse", "--measure", "qc.json", "--rho", "1", "--levels", "2..6",
                       "--summary", "summary.json", "--out", "out.csv"],
    "order": ["order", *_TET22, "--levels", "3..6"],
    "order-qinf": ["order", "--measure", "tet.json", "--sigma", "2", "--p", "4",
                   "--q", "inf", "--levels", "3..6", "--out", "out.json"],
    "order-empirical": ["order", "--measure", "mix.json", "--sigma", "1", "--p", "3",
                        "--q", "2", "--levels", "3..5"],
    "order-sweep": ["order", "--measure", "qc.json", "--sigma", "1", "--p-grid",
                    "1.5:3:0.5", "--q-grid", "1:4:1", "--levels", "3..5", "--out", "out.csv"],
    "order-sweep-empirical": ["order", "--measure", "mix.json", "--sigma", "2",
                              "--p-grid", "1.5:2:0.5", "--q-grid", "2,3,inf",
                              "--levels", "3..5"],
    "empirical-verdict": ["empirical", "--measure", "qc.json", "--sigma", "1", "--p", "2",
                          "--q", "2", "--function", "sin", "--thresholds", "pow2:2..12",
                          "--out", "out.csv", "--verdict", "verdict.json"],
    "empirical-stdout": ["empirical", "--measure", "leb1.json", "--sigma", "2", "--p", "2",
                         "--q", "2", "--function", "bump", "--thresholds", "pow2:3..13"],
    "probe": ["probe", "--measure", "leb1.json", "--sigma", "1", "--p", "2", "--q", "2",
              "--n", "3", "--alpha", "2.5"],
    "validate-csv": ["validate", "--measure", "pts.csv", "--weight-column", "w"],
    "validate-json": ["validate", "--measure", "tet.json"],
    "config": ["order", "--config", "cfg.json", "--out", "out.json"],
    "config-override": ["coarse", "--config", "cfg.json", "--q", "3", "--out", "out.csv"],
    # exit codes other than 0
    "fail-rho-hat": ["order", "--measure", "tet.json", "--sigma", "1", "--p", "2",
                     "--q", "2"],
    "fail-bad-config": ["dims", "--config", "bad.json"],
    "fail-missing-option": ["partition", "--measure", "tet.json"],
    "resource-cap": ["spectrum", "--measure", "tet.json", "--levels", "4..4",
                     "--max-cubes", "3"],
    # t = 1 builds no multiset, so the cap above does not trip
    "spectrum-t-one-cap": ["spectrum", "--measure", "tet.json", "--levels", "4..4",
                           "--t-grid", "1", "--max-cubes", "3"],
    # a grid that an EmpiricalSpectrum would reject: unsorted, t = 1 first
    "spectrum-unsorted-grid": ["spectrum", "--measure", "tet.json", "--levels", "2..3",
                               "--t-grid", "1,0.5,2"],
    "usage-subcommand": ["frobnicate"],
    "noinput-measure": ["dims", "--measure", "missing.json"],
    "noinput-config": ["dims", "--config", "missing.json"],
}


def run_cli(argv, cwd: Path) -> dict:
    """Run `cli.main(argv)` in `cwd` holding FILES; code, header and bodies."""
    for name, text in FILES.items():
        (cwd / name).write_text(text)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(list(argv))
    produced = {
        p.name: p.read_text() for p in sorted(cwd.iterdir()) if p.name not in FILES
    }
    out_name = argv[argv.index("--out") + 1] if "--out" in argv else None
    main_text = produced.pop(out_name, "")
    first = (main_text or stdout.getvalue()).partition("\n")[0]
    return {
        "code": code,
        "header": first if first.startswith("# widthlab ") else None,
        "body": body(main_text, stdout.getvalue()),
        "side": {name: body(text, "") for name, text in produced.items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def option_sets(parser) -> dict[str, list[str]]:
    sub = next(a for a in parser._actions if a.dest == "command")
    return {
        name: sorted(s for action in sp._actions for s in action.option_strings)
        for name, sp in sub.choices.items()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = CASES[name]
    got, want = run_cli(argv, tmp_path), golden["cases"][name]
    assert got["code"] == want["code"]
    if "--config" not in argv:
        assert got["header"] == want["header"]
    assert mismatch(got["body"], want["body"]) is None
    assert sorted(got["side"]) == sorted(want["side"])
    for side, text in got["side"].items():
        assert (side, mismatch(text, want["side"][side])) == (side, None)


def test_goldens_cover_every_subcommand_and_exit_code(golden):
    assert {argv[0] for argv in CASES.values()} - {"frobnicate"} == set(golden["options"])
    assert {case["code"] for case in golden["cases"].values()} == {0, 1, 2, 64, 66}


def test_option_sets_unchanged_but_threads(golden):
    want = {
        sub: sorted(set(opts) - {"--threads"}) for sub, opts in golden["options"].items()
    }
    assert option_sets(cli.build_parser()) == want


def test_threads_flag_removed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["dims", "--measure", "tet.json", "--levels", "2..3", "--threads", "2"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--measure", "tet.json", "--levels", "foo"],
        ["spectrum", "--measure", "qc.json", "--levels", "2..3", "--t-grid", "0:1:x"],
        ["partition", *_TET22, "--thresholds", "pow2:1..x"],
        ["order", "--measure", "tet.json", "--sigma", "2", "--p", "two", "--q", "2"],
        ["dims", "--config", "levels.json"],
    ],
    ids=["levels", "t-grid", "thresholds", "p", "config-levels"],
)
def test_malformed_values_exit_1(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "levels.json").write_text('{"measure": "tet.json", "levels": "2..x"}')
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    assert capsys.readouterr().err.startswith("widthlab: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["coarse", *_TET22, "--levels", "0..3"],
        ["coarse", *_TET22, "--levels=-2..-1"],
        ["coarse", "--measure", "pts.csv", "--weight-column", "w", "--rho", "1",
         "--levels=-1..2"],
    ],
    ids=["level-0", "negative-ifs", "negative-cloud"],
)
def test_coarse_levels_below_one_exit_1(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    assert capsys.readouterr().err == "widthlab: coarse profile needs levels n >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["coarse", *_TET22, "--levels", "3..4", "--alpha-grid", "0:1:0.5"],
        ["coarse", *_TET22, "--levels", "3..4", "--alpha-grid=-1,0.5"],
        ["coarse", *_TET22, "--levels", "3..4", "--alpha-grid", "1,nan"],
    ],
    ids=["zero", "negative", "nan"],
)
def test_coarse_nonpositive_alpha_exit_1(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    assert capsys.readouterr().err == "widthlab: alpha must be positive\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["partition", *_TET22, "--thresholds", "0.5,nan"], "partition threshold t must be positive"),
        (["partition", "--measure", "qc.json", "--rho", "1", "--thresholds", "nan",
          "--cells-out", "cells.csv"], "partition threshold t must be positive"),
        (["partition", "--measure", "tet.json", "--rho", "nan", "--thresholds", "0.5"],
         "--rho must be positive"),
        (["coarse", "--measure", "tet.json", "--rho", "nan", "--levels", "2..3"],
         "--rho must be positive"),
        (["coarse", "--measure", "tet.json", "--rho", "inf", "--levels", "2..3"],
         "rho must be positive and finite"),
    ],
    ids=["threshold", "threshold-cells", "partition-rho", "coarse-rho", "coarse-rho-inf"],
)
def test_nan_threshold_or_rho_exit_1(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    assert capsys.readouterr().err == f"widthlab: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--measure", "tet.json", "--levels", "2..3", "--t-grid", "nan"],
         "beta_n needs t >= 0"),
        (["spectrum", "--measure", "tet.json", "--levels", "2", "--t-grid", "0.5,nan"],
         "beta_n needs t >= 0"),
        (["probe", *_TET22, "--n", "3", "--alpha", "nan"], "alpha must be positive"),
        (["probe", *_TET22, "--n", "3", "--alpha", "0"], "alpha must be positive"),
    ],
    ids=["t-grid", "t-grid-second", "probe-alpha", "probe-alpha-zero"],
)
def test_nan_t_or_alpha_exit_1(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    assert capsys.readouterr().err == f"widthlab: {message}\n"


@pytest.mark.parametrize(
    "argv, config, flag, value",
    [
        (["partition", *_TET22, "--thresholds", "0.5", "--max-cells", "-1"], None,
         "--max-cells", "-1"),
        (["partition", *_TET22, "--thresholds", "0.5", "--cells-out", "cells.csv",
          "--max-cells", "0"], None, "--max-cells", "0"),
        (["dims", "--measure", "tet.json", "--levels", "2", "--max-cubes", "-1"], None,
         "--max-cubes", "-1"),
        (["spectrum", "--measure", "tet.json", "--levels", "2", "--max-cubes", "0"], None,
         "--max-cubes", "0"),
        (["partition", "--config", "caps.json", "--thresholds", "0.5"], {"max_cells": -1},
         "--max-cells", "-1"),
        (["dims", "--config", "caps.json", "--levels", "2"], {"max_cubes": 0},
         "--max-cubes", "0"),
    ],
    ids=["max-cells", "max-cells-zero-cells-out", "max-cubes", "max-cubes-zero",
         "config-max-cells", "config-max-cubes"],
)
def test_cap_below_one_is_a_malformed_value(argv, config, flag, value, tmp_path, monkeypatch,
                                            capsys):
    # a value no run can meet is a bad flag (exit 1), not a cap that tripped (exit 2)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "caps.json").write_text(json.dumps(
            {"measure": "tet.json", "sigma": 2, "p": 2, "q": 2, **config}))
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    err = capsys.readouterr().err
    assert err.startswith(f"widthlab: malformed {flag} value {value}") and "cap" in err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["spectrum", "--measure", "tet.json", "--levels", "2..3", "--t-grid", "1:0:0.1"],
         "--t-grid", "1:0:0.1"),
        (["spectrum", "--measure", "tet.json", "--levels", "5..3"], "--levels", "5..3"),
        (["partition", *_TET22, "--thresholds", "1:0:0.1"], "--thresholds", "1:0:0.1"),
        (["partition", *_TET22, "--thresholds", "pow2:5..3"], "--thresholds", "pow2:5..3"),
        (["empirical", *_TET22, "--thresholds", "1:0:0.1"], "--thresholds", "1:0:0.1"),
        (["coarse", *_TET22, "--levels", "3..4", "--alpha-grid", "1:0:0.1"],
         "--alpha-grid", "1:0:0.1"),
        (["order", "--measure", "tet.json", "--sigma", "2", "--p-grid", "4:1:0.5", "--q", "2"],
         "--p-grid", "4:1:0.5"),
        (["dims", "--config", "empty.json"], "--levels", "5..3"),
    ],
    ids=["t-grid", "levels", "thresholds", "thresholds-pow2", "empirical-thresholds",
         "alpha-grid", "p-grid", "config-levels"],
)
def test_empty_range_or_grid_is_a_malformed_value(argv, flag, value, tmp_path, monkeypatch,
                                                  capsys):
    # a run over no values would print an empty table, or fall back to a default
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text('{"measure": "tet.json", "levels": "5..3"}')
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    assert capsys.readouterr().err == f"widthlab: malformed {flag} value {value!r}: it holds no values\n"



@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["probe", "--config", "num.json", "--n", "3", "--alpha", "2"], {"sigma": 2.7},
         "malformed --sigma value 2.7: expected an integer"),
        (["probe", "--config", "num.json", "--n", "3", "--alpha", "2"], {"sigma": True},
         "malformed --sigma value True: expected an integer"),
        (["dims", "--config", "num.json", "--levels", "2"], {"max_cubes": 99.5},
         "malformed --max-cubes value 99.5: expected an integer"),
        (["probe", "--config", "num.json", "--sigma", "1", "--alpha", "2"], {"n": False},
         "malformed --n value False: expected an integer"),
        (["probe", "--config", "num.json", "--sigma", "1", "--n", "3"], {"alpha": True},
         "malformed --alpha value True: expected a number"),
        (["partition", "--config", "num.json", "--thresholds", "0.5"], {"rho": True},
         "malformed --rho value True: expected a number"),
        (["probe", "--measure", "leb1.json", "--sigma", "1", "--p", "2", "--q", "2", "--n", "3",
          "--alpha", "3", "--seed", "-1"], {}, "malformed --seed value -1: a seed must be >= 0"),
        (["probe", "--config", "num.json", "--sigma", "1", "--n", "3", "--alpha", "3"],
         {"seed": -2}, "malformed --seed value -2: a seed must be >= 0"),
        (["validate", "--config", "num.json"], {"measure": 2.5},
         "malformed --measure value 2.5: expected a string"),
        (["validate", "--config", "num.json"], {"measure": 0},
         "malformed --measure value 0: expected a string"),
        (["dims", "--config", "num.json", "--levels", "2"], {"out": 987},
         "malformed --out value 987: expected a string"),
        (["coarse", "--config", "num.json", "--sigma", "1", "--levels", "2..3"],
         {"summary": 1.5}, "malformed --summary value 1.5: expected a string"),
        (["empirical", "--config", "num.json", "--sigma", "1", "--thresholds", "pow2:2..6"],
         {"verdict": ["v.json"]}, "malformed --verdict value ['v.json']: expected a string"),
        (["partition", "--config", "num.json", "--sigma", "1", "--thresholds", "0.5"],
         {"cells_out": 2.5}, "malformed --cells-out value 2.5: expected a string"),
        (["validate", "--config", "num.json", "--measure", "pts.csv"], {"weight_column": True},
         "malformed --weight-column value True: expected a column name or index"),
    ],
    ids=["fractional-int", "bool-int", "fractional-cap", "bool-level", "bool-real", "bool-rho",
         "negative-seed", "config-negative-seed", "text-measure", "text-measure-fd", "text-out",
         "text-summary", "text-verdict", "text-cells-out", "text-weight-column"],
)
def test_config_number_or_seed_out_of_type_is_a_malformed_value(argv, config, message, tmp_path,
                                                                 monkeypatch, capsys):
    # int() would run sigma 2.7 as 2 and true as 1, numpy rejects a negative
    # seed late, and open() takes an integer path as a file descriptor (0 is stdin)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "num.json").write_text(json.dumps(
        {"measure": "leb1.json", "p": 2, "q": 2, **config}))
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    assert capsys.readouterr().err == f"widthlab: {message}\n"


@pytest.mark.parametrize(
    "argv, flag, path, reason",
    [
        (["dims", "--measure", "tet.json", "--levels", "2"], "--out", "/", "Is a directory"),
        (["dims", "--measure", "tet.json", "--levels", "2"], "--out", "missing/out.csv",
         "No such file or directory"),
        (["coarse", *_TET22, "--levels", "2..3"], "--summary", "/", "Is a directory"),
        (["empirical", *_TET22, "--thresholds", "pow2:2..6", "--out", "out.csv"], "--verdict",
         "/", "Is a directory"),
        (["partition", *_TET22, "--thresholds", "0.5", "--out", "out.csv"], "--cells-out", "/",
         "Is a directory"),
    ],
    ids=["out-directory", "out-missing-directory", "summary", "verdict", "cells-out"],
)
def test_unwritable_output_exits_1(argv, flag, path, reason, tmp_path, monkeypatch, capsys):
    # an output path is not an input file (exit 66), and its error is no
    # traceback; it is found before any work, so no earlier output of the
    # run, to a file or to stdout, is left complete-looking
    monkeypatch.chdir(tmp_path)
    result = run_cli([*argv, flag, path], tmp_path)
    assert result["code"] == cli.EX_FAIL and result["header"] is None and result["side"] == {}
    assert capsys.readouterr().err == f"widthlab: cannot write {flag} {path}: {reason}\n"


def _reject(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


def _json_documents(text):
    """The JSON documents of an output body, each starting a line with "{"."""
    decoder, docs, end = json.JSONDecoder(parse_constant=_reject), [], 0
    for match in re.finditer(r"^\{", text, re.M):
        if match.start() >= end:
            doc, end = decoder.raw_decode(text, match.start())
            docs.append(doc)
    return docs


def test_json_outputs_are_rfc_8259(golden):
    # a strict parser reads every JSON output: result files, side files and
    # one-line side results on stdout
    docs = {name: [doc for text in (case["body"], *case["side"].values())
                   for doc in _json_documents(text)]
            for name, case in golden["cases"].items()}
    assert [doc["params"]["q"] for doc in docs["order-qinf"]] == ["inf"]
    assert sum(map(len, docs.values())) == 10  # the JSON outputs of the cases


def test_json_text_writes_non_finite_floats_as_strings():
    payload = {"a": [math.inf, -math.inf, math.nan, 1.5], "b": {"c": (math.inf, None)}}
    assert json.loads(reports.json_text(payload), parse_constant=_reject) == {
        "a": ["inf", "-inf", "nan", 1.5], "b": {"c": ["inf", None]}}


def test_empirical_over_one_distinct_card_exit_1(tmp_path, monkeypatch, capsys):
    # four rows of card 4: no line to fit, so no slope and no verdict
    monkeypatch.chdir(tmp_path)
    argv = ["empirical", "--measure", "tet.json", "--sigma", "2", "--p", "4", "--q", "2",
            "--thresholds", "0.5,0.5,0.25,0.125"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    err = capsys.readouterr().err
    assert err == "widthlab: decay fit needs >= 2 distinct partition cardinalities\n"


@pytest.mark.parametrize("name", ["partition", "order-sweep", "order-qinf"])
def test_out_file_is_stdout_with_lf_line_ends(name, tmp_path, monkeypatch, capsys):
    # below the header, whose hash covers "out", an --out file holds what
    # stdout would, with every line ending in LF
    monkeypatch.chdir(tmp_path)
    for file_name, text in FILES.items():
        (tmp_path / file_name).write_text(text)
    argv = CASES[name]
    at = argv.index("--out")
    assert cli.main(argv) == cli.EX_OK
    printed = capsys.readouterr().out
    data = (tmp_path / argv[at + 1]).read_bytes()
    assert b"\r" not in data
    assert cli.main(argv[:at] + argv[at + 2:]) == cli.EX_OK
    stdout = capsys.readouterr().out
    assert stdout.partition("\n")[2] == data.decode().partition("\n")[2] + printed


def test_header_hash_covers_config_file_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    headers = []
    for sigma in (2, 3):
        (tmp_path / "c.json").write_text(
            json.dumps({"measure": "tet.json", "sigma": sigma, "p": "2", "q": "2"})
        )
        result = run_cli(["order", "--config", "c.json", "--levels", "3..4"], tmp_path)
        assert result["code"] == cli.EX_OK
        headers.append(result["header"])
    assert headers[0] != headers[1]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=8), _JSON, max_size=5))
def test_config_hash_is_the_sha256_of_the_canonical_config(config):
    want = hashlib.sha256(reports.canonical_config(config).encode()).hexdigest()[:16]
    assert reports.config_hash(config) == want


def test_header_hashed_once_per_run(tmp_path, monkeypatch):
    # two output files, one config hash, the same header on both
    monkeypatch.chdir(tmp_path)
    hashes = []
    config_hash = reports.config_hash

    def counted(config):
        hashes.append(config_hash(config))
        return hashes[-1]

    monkeypatch.setattr(reports, "config_hash", counted)
    result = run_cli(CASES["coarse-summary"], tmp_path)
    assert result["code"] == cli.EX_OK and len(hashes) == 1
    assert (tmp_path / "summary.json").read_text().partition("\n")[0] == result["header"]
    assert result["header"].endswith(f"config={hashes[0]}")


def test_weight_column_index_matches_name(tmp_path, monkeypatch):
    text = FILES["pts.csv"]
    by_name, by_index = ingest_points(text, "w"), ingest_points(text, "2")
    assert by_index.to_spec() == by_name.to_spec()
    assert by_index.weights == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    monkeypatch.chdir(tmp_path)
    argv = ["validate", "--measure", "pts.csv", "--weight-column", "2"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_OK
    # a config file may give the index as an integer
    (tmp_path / "w.json").write_text(json.dumps({"measure": "pts.csv", "weight_column": 2}))
    assert run_cli(["validate", "--config", "w.json"], tmp_path)["code"] == cli.EX_OK


def test_weight_column_index_on_headerless_csv():
    headerless = FILES["pts.csv"].partition("\n")[2]
    model = ingest_points(headerless, "2")
    assert model.to_spec() == ingest_points(FILES["pts.csv"], "w").to_spec()


@pytest.mark.parametrize("column", ["3", "y2"])
def test_weight_column_out_of_range_or_unknown(column):
    with pytest.raises(ParseError):
        ingest_points(FILES["pts.csv"], column)


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("name, data, argv, want", [
    # headerless: the mark must not turn the first row into a header
    ("bom.csv", _BOM + b"0.25,0.25\n0.75,0.75\n",
     ["spectrum", "--levels", "1", "--t-grid", "0"], "n,t,beta_n\n1,0.0,1.0\n"),
    # the header's first column stays reachable by name
    ("bomw.csv", _BOM + b"w,x\n1,0.25\n3,0.75\n", ["validate", "--weight-column", "w"],
     "ok: bomw.csv is a valid AtomicMeasure with m=1\n"),
    ("bom.json", _BOM + FILES["leb1.json"].encode(), ["validate"],
     "ok: bom.json is a valid UniformMeasure with m=1\n"),
])
def test_measure_file_with_a_byte_order_mark(name, data, argv, want, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(data)
    assert cli.main([argv[0], "--measure", name, *argv[1:]]) == cli.EX_OK
    out = capsys.readouterr().out
    if out.startswith("# widthlab "):
        out = out.partition("\n")[2]
    assert out == want


@pytest.mark.parametrize("name, data, offset", [
    ("bad.csv", b"x,y\n0.25,0.\xff5\n", 11),
    ("bad.json", b'{"type": "uniform", "m": 1, "support": "0:\xff"}', 42),
    # offsets count the byte-order mark
    ("badbom.csv", _BOM + b"0.5\n\xff\n", 7),
])
def test_measure_file_not_utf8_exits_1(name, data, offset, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(data)
    assert cli.main(["validate", "--measure", name]) == cli.EX_FAIL
    assert capsys.readouterr().err == f"widthlab: {name} is not valid UTF-8: byte 0xff at offset {offset}\n"


def test_probe_trips_node_cap_before_the_seminorm(tmp_path, monkeypatch, capsys):
    # level 5 + 6 of the tetrahedron holds more than 2^21 positive cubes; the
    # bump seminorm, on 2^15 composite cells in m = 3, would take minutes
    def seminorm(*args, **kwargs):
        raise AssertionError("sobolev_seminorm ran before the node-table cap")

    monkeypatch.setattr(empirical, "sobolev_seminorm", seminorm)
    monkeypatch.chdir(tmp_path)
    argv = ["probe", *_TET22, "--n", "5", "--alpha", "3"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_RESOURCE
    err = capsys.readouterr().err
    assert err == "widthlab: resource cap: more than 2097152 positive cubes at level 11\n"


@pytest.mark.parametrize("preset, want", [(None, "4"), ("7", "7")])
def test_import_loads_no_scipy_and_keeps_blas_workers_from_spinning(preset, want):
    """A fresh `import widthlab.cli` loads no SciPy module, and sets OpenBLAS's
    idle-thread timeout before numpy loads unless the user set it."""
    probe = ("import os, sys, widthlab.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
             "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split("\n")[:2] == ["[]", want]


def test_python_m_widthlab_runs_the_command_line(tmp_path):
    (tmp_path / "tet.json").write_text(FILES["tet.json"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-m", "widthlab", "validate", "--measure", "tet.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == cli.EX_OK, done.stderr
