"""The `widthlab` command line: golden outputs, exit codes and option sets.

`golden/cli.json` holds, for each case below, the exit code, the header line
and the output bodies the command line produced before its dispatcher was
rewritten; the two `spectrum-t-one-cap`/`spectrum-unsorted-grid` cases were
captured from the release before the t-grid began to share one level view.
The file is data: nothing here rewrites it. Bodies are compared
with the benchmark's reference check (text exactly, numbers to relative
1e-9); header lines, whose hash covers the effective configuration, are
compared exactly for runs without `--config`.

Every case runs in a temporary working directory with relative paths, so the
configuration, and with it the header hash, is the same on every machine.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from widthlab import ParseError, cli, empirical
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
# [0, 1), a two-ratio IFS and a weighted three-point cloud.
FILES = {
    "tet.json": json.dumps(_TETRAHEDRON),
    "qc.json": json.dumps(_QUARTER_CANTOR),
    "mix.json": json.dumps(_MIXED_RATIOS),
    "leb1.json": json.dumps({"type": "uniform", "m": 1, "support": "0:0"}),
    "pts.csv": "x,y,w\n0.25,0.5,1\n0.75,0.125,2\n0.5,0.875,1\n",
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


def test_weight_column_index_matches_name(tmp_path, monkeypatch):
    text = FILES["pts.csv"]
    by_name, by_index = ingest_points(text, "w"), ingest_points(text, "2")
    assert by_index.to_spec() == by_name.to_spec()
    assert by_index.weights == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    monkeypatch.chdir(tmp_path)
    argv = ["validate", "--measure", "pts.csv", "--weight-column", "2"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_OK


def test_weight_column_index_on_headerless_csv():
    headerless = FILES["pts.csv"].partition("\n")[2]
    model = ingest_points(headerless, "2")
    assert model.to_spec() == ingest_points(FILES["pts.csv"], "w").to_spec()


@pytest.mark.parametrize("column", ["3", "y2"])
def test_weight_column_out_of_range_or_unknown(column):
    with pytest.raises(ParseError):
        ingest_points(FILES["pts.csv"], column)


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
