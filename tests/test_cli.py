"""The `widthlab` command line: golden outputs, exit codes and option sets.

`golden/cli.json` holds, for each case below, the exit code, the header line
and the output bodies the command line produced before its dispatcher was
rewritten; the two `spectrum-t-one-cap`/`spectrum-unsorted-grid` cases were
captured from the release before the t-grid began to share one level view,
`spectrum-cloud-unweighted` from the release before a CSV cloud was parsed
straight to integers, and `dims-product`, `partition-cells-atomic`,
`spectrum-shifted` and `empirical-linear` from the release before the header
hashed the measure file's bytes (that change rewrote the `config=` token of
every header line, and nothing else), and the product-measure cases from the
release before the members that no subcommand reaches left the package. The
bodies of `probe` and `probe-pinf` were captured last, when the packing probe
began to sum over the nodes each bump owns rather than over every node: that
moved the ||Q_n g|| entries of `operator_checks` in their last digits (by
less than 1e-15 relative), and nothing else.
Their `sobolev_norm`, `ratio` and `normalized_ratio` were recaptured when
the bump's seminorm became a sum of products of 1-D profile norms, in place
of an m-dimensional grid with finite differences past order 4: `probe`'s
`sobolev_norm` 7.590123087343783 -> 7.590123058505921 (the grid read
3.8e-9 low), `probe-pinf`'s 5381597942.117046 -> 82760939971.14182 (the
order-5 differences read x15.38 low), and nothing else moved.
`probe-m3` and `probe-lp` were captured then.
`empirical-cloud` was captured from the release before an atomic model's
multiset stopped reading its node table, so that a case still builds one.
`partition-unsorted`, `partition-degenerate` and `partition-cells-cap` were
captured from the release before the rows of a threshold list came from
one pass over the model's states.
The slopes of six bodies were recaptured when both fits began to return
the exactly rounded least-squares slope (`partition.fit_loglog`) in place
of `np.polyfit`'s; each new value equals the exact `Fraction` slope of its
data, and nothing else moved. Old -> new, the largest change 4.9e-16
relative:
- `partition`: 0.5931699040795443 -> 0.5931699040795442;
- `partition-product`: 0.6181818181818183 -> 0.6181818181818182;
- `partition-unsorted`: 0.5984777586256455 -> 0.5984777586256456;
- `empirical-linear`: -1.8206996469817787 -> -1.8206996469817796;
- `empirical-stdout`: -1.6966471408234052 -> -1.6966471408234054;
- `empirical-verdict`: -1.8837332391502621 -> -1.8837332391502624.
The `ifs7` verdict below moved with them: -0.9003428583217973 ->
-0.9003428583217971.
The file is data: nothing here rewrites it. Bodies are compared
with the benchmark's reference check (text exactly, numbers to relative
1e-9); header lines, whose hash covers the effective configuration, are
compared exactly.

Every case runs in a temporary working directory with relative paths, so the
configuration, and with it the header hash, is the same on every machine.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widthlab
from widthlab import (ParseError, ResourceLimitError, ValidationError, cli, lebesgue,
                      partition_row, probe, reports, spectrum)
from widthlab.measures import DEFAULT_MAX_CELLS, MAX_TEMPLATE_NODES, ingest_points, load_measure

from conftest import IFS7_MAPS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import body, mismatch  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

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

_LEBESGUE1 = {"type": "uniform", "m": 1, "support": "0:0"}

# Input files of every case, written into its working directory: the
# tetrahedron and quarter-Cantor models of conftest.py, Lebesgue measure on
# [0, 1), a two-ratio IFS, the quarter-Cantor model shifted into (1/2, 1],
# the product of quarter-Cantor and Lebesgue measure, the tetrahedron shifted
# into (1/4, 3/4]^3, a three-atom JSON
# spec, a weighted three-point cloud and an unweighted six-point cloud whose
# fields take the plain-decimal, 20-digit and exponent routes of the parser.
FILES = {
    "tet.json": json.dumps(_TETRAHEDRON),
    "qc.json": json.dumps(_QUARTER_CANTOR),
    "mix.json": json.dumps(_MIXED_RATIOS),
    "leb1.json": json.dumps(_LEBESGUE1),
    "qc-shift.json": json.dumps({**_QUARTER_CANTOR,
                                 "embed_shift": {"ratio_log2": 1, "offset": [1]}}),
    "prod.json": json.dumps({"type": "product", "factors": [_QUARTER_CANTOR, _LEBESGUE1]}),
    "tet-shift.json": json.dumps({**_TETRAHEDRON,
                                  "embed_shift": {"ratio_log2": 2, "offset": [1, 1, 1]}}),
    "atoms.json": json.dumps({"type": "atomic", "m": 2,
                              "points": [["0.25", "0.5"], ["0.3", "0.6"], ["0.9", "1/3"]],
                              "weights": ["0.5", "0.25", "1/4"]}),
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
    "spectrum-shifted": ["spectrum", "--measure", "qc-shift.json", "--levels", "1..4",
                         "--t-grid", "0:2:0.5"],
    "spectrum-closed-form": ["spectrum", "--measure", "leb1.json", "--levels", "1..2",
                             "--t-grid", "0:1:0.5", "--out", "out.csv"],
    "dims": ["dims", "--measure", "tet.json", "--levels", "2..5"],
    "dims-product": ["dims", "--measure", "prod.json", "--levels", "1..5"],
    "partition": ["partition", *_TET22, "--thresholds", "pow2:4..14", "--out", "out.csv"],
    "partition-cells": ["partition", "--measure", "qc.json", "--rho", "1",
                        "--thresholds", "0.5,0.25,0.125", "--cells-out", "cells.csv"],
    "partition-cells-atomic": ["partition", "--measure", "atoms.json", "--rho", "1",
                               "--thresholds", "0.5,0.3,0.2", "--cells-out", "cells.csv"],
    "partition-product": ["partition", "--measure", "prod.json", "--rho", "1",
                          "--thresholds", "pow2:2..12"],
    # a threshold list in no order, one twice, one t > 1 and t = 1, and one
    # whose later threshold passes the cell cap, as its own walk does
    "partition-unsorted": ["partition", *_TET22, "--thresholds", "pow2:9,4,12,4,7,14",
                           "--out", "out.csv"],
    "partition-degenerate": ["partition", *_TET22, "--thresholds", "0.01,1.5,0.001,0.1,1"],
    "partition-cells-cap": ["partition", *_TET22, "--thresholds", "pow2:4,14,20,6",
                            "--max-cells", "100"],
    "coarse-stdout": ["coarse", *_TET22, "--levels", "3..5", "--alpha-grid", "1:6:0.5"],
    "coarse-summary": ["coarse", "--measure", "qc.json", "--rho", "1", "--levels", "2..6",
                       "--summary", "summary.json", "--out", "out.csv"],
    "order": ["order", *_TET22, "--levels", "3..6"],
    "order-qinf": ["order", "--measure", "tet.json", "--sigma", "2", "--p", "4",
                   "--q", "inf", "--levels", "3..6", "--out", "out.json"],
    "order-empirical": ["order", "--measure", "mix.json", "--sigma", "1", "--p", "3",
                        "--q", "2", "--levels", "3..5"],
    "order-product": ["order", "--measure", "prod.json", "--sigma", "2", "--p", "2", "--q", "2",
                      "--levels", "3..5"],
    "order-sweep": ["order", "--measure", "qc.json", "--sigma", "1", "--p-grid",
                    "1.5:3:0.5", "--q-grid", "1:4:1", "--levels", "3..5", "--out", "out.csv"],
    "order-sweep-empirical": ["order", "--measure", "mix.json", "--sigma", "2",
                              "--p-grid", "1.5:2:0.5", "--q-grid", "2,3,inf",
                              "--levels", "3..5"],
    "empirical-verdict": ["empirical", "--measure", "qc.json", "--sigma", "1", "--p", "2",
                          "--q", "2", "--function", "sin", "--thresholds", "pow2:2..12",
                          "--out", "out.csv", "--verdict", "verdict.json"],
    "empirical-linear": ["empirical", "--measure", "qc.json", "--sigma", "1", "--p", "2",
                         "--q", "2", "--function", "linear", "--thresholds", "pow2:2..10"],
    "empirical-stdout": ["empirical", "--measure", "leb1.json", "--sigma", "2", "--p", "2",
                         "--q", "2", "--function", "bump", "--thresholds", "pow2:3..13"],
    "empirical-product": ["empirical", "--measure", "prod.json", "--sigma", "2", "--p", "2",
                          "--q", "2", "--thresholds", "pow2:2..10"],
    # an atomic model's quadrature reads its node table
    "empirical-cloud": ["empirical", "--measure", "cloud.csv", "--sigma", "2", "--p", "4",
                        "--q", "2", "--function", "sin", "--thresholds", "pow2:0..12"],
    "probe": ["probe", "--measure", "leb1.json", "--sigma", "1", "--p", "2", "--q", "2",
              "--n", "3", "--alpha", "2.5"],
    # the sup norm of order-5 partials, read at the sign changes of the 6th
    "probe-pinf": ["probe", "--measure", "leb1.json", "--sigma", "5", "--p", "inf", "--q", "2",
                   "--n", "3", "--alpha", "12"],
    # m = 3: the family's one bump fits in the unit cube only once shifted
    "probe-m3": ["probe", "--measure", "tet-shift.json", "--sigma", "2", "--p", "2", "--q", "2",
                 "--n", "3", "--alpha", "3"],
    # m = 2, p = 4: the l^p-sum of the partials' norms, not the L^p norm of
    # the l^2 gradient field
    "probe-lp": ["probe", "--measure", "prod.json", "--sigma", "2", "--p", "4", "--q", "2",
                 "--n", "3", "--alpha", "5"],
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
    assert got["code"] == want["code"] and got["header"] == want["header"]
    assert mismatch(got["body"], want["body"]) is None
    assert sorted(got["side"]) == sorted(want["side"])
    for side, text in got["side"].items():
        assert (side, mismatch(text, want["side"][side])) == (side, None)


@pytest.mark.parametrize("name", sorted(name for name, argv in CASES.items()
                                  if argv[0] in ("partition", "empirical")))
def test_fits_need_no_lapack_least_squares(name, golden, tmp_path, monkeypatch):
    """The slopes are fitted in exact integers: the golden cases that fit
    one match with numpy's least-squares entries raising."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    test_golden(name, golden, tmp_path, monkeypatch)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, tmp_path, monkeypatch):
    """The heap is frozen during a run and unfrozen on every exit: each exit
    code, and an exception that escapes."""
    monkeypatch.chdir(tmp_path)
    seen = []
    _, keys, dims = cli.SUBCOMMANDS["dims"]

    def frozen_dims(run):
        seen.append(gc.get_freeze_count())
        dims(run)

    def broken(run):
        raise RuntimeError("unexpected")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setitem(cli.SUBCOMMANDS, "dims", ("", keys, frozen_dims))
        codes = [run_cli(CASES[name], tmp_path)["code"] for name in
                 ("dims", "fail-rho-hat", "resource-cap", "usage-subcommand", "noinput-measure")]
        assert codes == [0, 1, 2, 64, 66]
        assert (gc.get_freeze_count(), gc.isenabled()) == (0, enabled)
        monkeypatch.setitem(cli.SUBCOMMANDS, "dims", ("", keys, broken))
        with pytest.raises(RuntimeError, match="^unexpected$"):
            cli.main(CASES["dims"])
        assert (gc.get_freeze_count(), gc.isenabled()) == (0, enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert len(seen) == 1 and seen[0] > 0


def test_main_leaves_a_callers_frozen_objects_frozen(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert run_cli(CASES["dims"], tmp_path)["code"] == cli.EX_OK
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


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
        # a flag is text until the run converts it, as a config-file value is
        ["dims", "--measure", "tet.json", "--levels", "2", "--max-cubes", "x"],
        ["order", "--measure", "tet.json", "--sigma", "2.5", "--p", "2", "--q", "2"],
        ["partition", "--measure", "tet.json", "--rho", "abc", "--thresholds", "0.5"],
        ["probe", "--measure", "leb1.json", "--sigma", "1", "--p", "2", "--q", "2", "--n", "1e3",
         "--alpha", "2.5"],
    ],
    ids=["levels", "t-grid", "thresholds", "p", "config-levels", "max-cubes", "sigma", "rho",
         "n"],
)
def test_malformed_values_exit_1(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "levels.json").write_text('{"measure": "tet.json", "levels": "2..x"}')
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    assert capsys.readouterr().err.startswith("widthlab: malformed --")


def _memory_cap():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv, flag, value, count", [
    (["dims", "--measure", "tet.json"], "--levels", "1..1000000000", 1000000000),
    (["spectrum", "--measure", "tet.json"], "--t-grid", "0:1e9:1", 1000000001),
    (["partition", *_TET22], "--thresholds", "pow2:1..1000000000", 1000000000),
])
def test_range_or_grid_past_the_cube_cap_exits_1_before_it_is_built(argv, flag, value, count,
                                                                    tmp_path):
    """A range or grid is counted before it is built. The child's address
    space is capped, so one built by mistake fails in it, not on the host;
    one BLAS thread keeps numpy's own reservations small under the cap."""
    (tmp_path / "tet.json").write_text(FILES["tet.json"])
    done = _python_m([*argv, flag, value], tmp_path, env={"OPENBLAS_NUM_THREADS": "1"},
                     preexec_fn=_memory_cap, timeout=60)
    assert (done.returncode, done.stdout) == (cli.EX_FAIL, "")
    assert done.stderr == (f"widthlab: malformed {flag} value {value!r}: it holds {count} values,"
                           f" more than {cli.DEFAULT_MAX_CUBES}\n")


def test_a_cells_dump_past_the_cell_cap_exits_2_before_it_is_built(tmp_path):
    """A partition's cells are counted before any index is built: Lebesgue
    measure on the square has 4^14 cells at t = 1e-12, which would fill the
    child's capped address space; one BLAS thread keeps numpy's own
    reservations small under the cap. The rows alone trip the same cap."""
    (tmp_path / "u.json").write_text(json.dumps({"type": "uniform", "m": 2, "support": "0:0,0"}))
    done = _python_m(["partition", "--measure", "u.json", "--rho", "1", "--thresholds", "1e-12",
                      "--cells-out", "cells.csv"], tmp_path, env={"OPENBLAS_NUM_THREADS": "1"},
                     preexec_fn=_memory_cap, timeout=30)
    message = f"partition for t=1e-12 exceeded {DEFAULT_MAX_CELLS} cells"
    assert (done.returncode, done.stdout) == (cli.EX_RESOURCE, "")
    assert done.stderr == f"widthlab: resource cap: {message}\n"
    assert not (tmp_path / "cells.csv").exists()
    with pytest.raises(ResourceLimitError) as caught:
        partition_row(lebesgue(2), 1.0, 1e-12)
    assert str(caught.value) == message


@pytest.mark.parametrize("cap, t", [(12, "0.0625"), (13, "0.015625"), (28, "0.00390625"),
                                    (82, "0.0009765625"), (175, "0.000244140625")],
                         ids=["first", "second", "third", "fourth", "fifth"])
def test_a_cells_dump_whose_kth_threshold_passes_the_cap_exits_2(cap, t, tmp_path, monkeypatch,
                                                                capsys):
    """The tetrahedron's partitions at 2^-4, 2^-6, .., 2^-12 have 13, 28, 82,
    175 and 367 cells: each cap trips at one threshold of the five, with the
    message of the release that built the partitions one by one, and no
    file is written."""
    monkeypatch.chdir(tmp_path)
    argv = ["partition", *_TET22, "--thresholds", "pow2:4,6,8,10,12", "--cells-out", "cells.csv",
            "--max-cells", str(cap), "--out", "out.csv"]
    assert run_cli(argv, tmp_path) == {"code": cli.EX_RESOURCE, "header": None,
                                       "body": body("", ""), "side": {}}
    assert capsys.readouterr() == ("", f"widthlab: resource cap: partition for t={t} exceeded"
                                       f" {cap} cells\n")


@pytest.mark.parametrize("value, message", [
    ("0:1:1e-1000000", "the exponent of '1e-1000000' has more than 4 digits"),
    ("0:1:1e-10000000", "the exponent of '1e-10000000' has more than 4 digits"),
    ("1e+100000:1:1", "the exponent of '1e+100000' has more than 4 digits"),
    ("0:1:1e-9999", f"it holds over 2^33215 values, more than {cli.DEFAULT_MAX_CUBES}"),
])
def test_grid_token_with_a_huge_exponent_exits_1_at_once(value, message, tmp_path):
    """A grid token is screened before its exact value is built: 10^1000000
    and the count it gives would take seconds, and a count too long to print
    is named by a power of two. The child's address space is capped."""
    (tmp_path / "leb1.json").write_text(FILES["leb1.json"])
    start = time.monotonic()
    done = _python_m(["spectrum", "--measure", "leb1.json", "--levels", "1", "--t-grid", value],
                     tmp_path, env={"OPENBLAS_NUM_THREADS": "1"}, preexec_fn=_memory_cap,
                     timeout=30)
    assert time.monotonic() - start < 2.0
    assert (done.returncode, done.stdout) == (cli.EX_FAIL, "")
    assert done.stderr == f"widthlab: malformed --t-grid value {value!r}: {message}\n"


def test_grids_step_by_exact_decimals():
    assert cli.parse_grid("0:1.5:0.05") == [float(k * Fraction(5, 100)) for k in range(31)]
    assert cli.parse_grid("1e-3:1:1e-3") == [float(Fraction(k, 1000)) for k in range(1, 1001)]
    assert cli.parse_grid("0:1:2.5e+0_0001") == [0.0]  # exponent 1 in a long spelling


_PARENT_CAP = "widthlab: resource cap: more than 3 distinct masses at level {}\n"


@pytest.mark.parametrize("argv, level", [
    (["order", "--measure", "mix.json", "--sigma", "1", "--p", "3", "--q", "2",
      "--levels", "3..5"], 5),
    (["order", "--measure", "mix.json", "--sigma", "2", "--p-grid", "1.5:2:0.5",
      "--q-grid", "2,3,inf", "--levels", "3..5"], 5),
    (["order", "--measure", "mix.json", "--sigma", "2", "--p-grid", "1.5:2:0.5",
      "--q-grid", "inf,2", "--levels", "3..5"], 5),
    (["order", *_TET22, "--levels", "3..6"], 3),
    (["coarse", *_TET22, "--levels", "3..5"], 3),
    (["coarse", "--measure", "mix.json", "--rho", "1", "--levels", "2..5"], 3),
], ids=["order-empirical", "order-sweep", "order-sweep-qinf-first", "order-closed-form",
        "coarse", "coarse-first-level-fits"])
def test_cap_below_the_level_view_exits_2_with_the_same_message(argv, level, tmp_path,
                                                                monkeypatch, capsys):
    """`--max-cubes 3` trips at the first level view that a run builds:
    `order` builds the curve's at the top level, then the dimensions' in
    level order, `coarse` its count views in level order. The messages are
    those of the release before the one-pass sweep."""
    monkeypatch.chdir(tmp_path)
    assert run_cli([*argv, "--max-cubes", "3"], tmp_path)["code"] == cli.EX_RESOURCE
    assert capsys.readouterr() == ("", _PARENT_CAP.format(level))


_IFS7 = json.dumps({"type": "ifs", "m": 2, "probs": [p for *_, p in IFS7_MAPS],
                    "maps": [{"ratio_log2": k, "offset": list(o)} for k, o, _ in IFS7_MAPS]})
_IFS7_EMPIRICAL = ["empirical", "--measure", "ifs7.json", "--sigma", "2", "--p", "2", "--q", "2",
                   "--thresholds", "pow2:0..6"]
# what the release before the caps moved onto the model wrote for
# `_IFS7_EMPIRICAL --max-cubes 2000 --out out.csv --verdict verdict.json`,
# but for the verdict's slope, since the exactly rounded fit (the module
# docstring)
_IFS7_HEADER = "# widthlab 0.1.0 config=77dc29bf75e57029\n"
_IFS7_OUT = _IFS7_HEADER + """t,card,error,logcard,logerror
1.0,4,0.32064663545969996,1.3862943611198906,-1.1374155863171014
0.5,4,0.32064663545969996,1.3862943611198906,-1.1374155863171014
0.25,4,0.32064663545969996,1.3862943611198906,-1.1374155863171014
0.125,4,0.32064663545969996,1.3862943611198906,-1.1374155863171014
0.0625,8,0.22237739086574201,2.0794415416798357,-1.503379381549755
0.03125,12,0.1131223215687339,2.4849066497880004,-2.179285553982819
0.015625,12,0.1131223215687339,2.4849066497880004,-2.179285553982819
"""
_IFS7_VERDICT = _IFS7_HEADER + """{
  "degenerate": false,
  "function": "sin",
  "pass": false,
  "predicted": -1.124764592091775,
  "slope": -0.9003428583217971
}
"""


def test_empirical_level_ten_curve_obeys_max_cubes(tmp_path, monkeypatch, capsys):
    """On mixed ratios `empirical` predicts its order from the level-10
    curve, whose 1041 distinct masses on `ifs7` now count against
    `--max-cubes`, as every other level the run reads does. The release
    before built that curve under the default cap, and exited 0 at 600; at
    2000 the outputs are that release's, byte for byte, but for the slope's
    last digit."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ifs7.json").write_text(_IFS7)
    assert run_cli([*_IFS7_EMPIRICAL, "--max-cubes", "600"], tmp_path)["code"] == cli.EX_RESOURCE
    assert capsys.readouterr() == (
        "", "widthlab: resource cap: more than 600 distinct masses at level 10\n")
    argv = [*_IFS7_EMPIRICAL, "--max-cubes", "2000", "--out", "out.csv",
            "--verdict", "verdict.json"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_OK
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "out.csv").read_text() == _IFS7_OUT
    assert (tmp_path / "verdict.json").read_text() == _IFS7_VERDICT


@pytest.mark.parametrize("argv", [
    ["coarse", "--measure", "ifs7.json", "--rho", "1e9"],
    ["order", "--measure", "ifs7.json", "--sigma", "2", "--p", "2", "--q", "1e9"],
], ids=["coarse", "order"])
def test_default_alpha_grid_past_the_cube_cap_exits_1_before_it_is_built(argv, tmp_path):
    """rho = 1e9 asks for a default alpha grid of 2 10^10 values: it is
    counted first, and named with rho. The child's address space is capped,
    so a grid built by mistake fails in it (the release before died there
    with a MemoryError traceback)."""
    (tmp_path / "ifs7.json").write_text(_IFS7)
    done = _python_m(argv, tmp_path, env={"OPENBLAS_NUM_THREADS": "1"},
                     preexec_fn=_memory_cap, timeout=60)
    assert (done.returncode, done.stdout) == (cli.EX_FAIL, "")
    assert done.stderr == ("widthlab: the default alpha grid for rho=1000000000.0 holds"
                           f" 20000000079 values, more than {cli.DEFAULT_MAX_CUBES}\n")


def test_the_first_threshold_past_the_cell_cap_names_itself(tmp_path, monkeypatch, capsys):
    """`partition-cells-cap`: 2^-14 and 2^-20 both pass the cap of 100
    cells; the error names 2^-14, the first in input order, as the release
    before, which walked one threshold at a time."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(CASES["partition-cells-cap"], tmp_path)["code"] == cli.EX_RESOURCE
    assert capsys.readouterr() == (
        "", "widthlab: resource cap: partition for t=6.103515625e-05 exceeded 100 cells\n")


def test_a_malformed_cap_fails_before_the_computation(tmp_path, monkeypatch, capsys):
    """The caps go onto the model before any work: `partition --max-cubes x`,
    which reads no cube cap, fails before its walk with the message it gave
    at the header, after the walk, before. `validate` reads no cap."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "partition_rows", lambda *args: pytest.fail("the walk ran"))
    argv = ["partition", *_TET22, "--thresholds", "0.5", "--max-cubes", "x"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_FAIL
    assert capsys.readouterr() == ("", "widthlab: malformed --max-cubes value 'x': invalid"
                                       " literal for int() with base 10: 'x'\n")
    argv = ["validate", "--measure", "tet.json", "--max-cubes", "x", "--max-cubes", "0"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_OK


def test_order_sweep_computes_the_curve_up_to_the_smallest_rho_crossing(tmp_path, monkeypatch):
    """The `order-sweep-ifs` line of the benchmark: the level-6 curve of
    `ifs7` is read at 63 of its 151 grid points, computed in chunks of
    CHUNK = 16 points, each point once."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ifs7.json").write_text(json.dumps({
        "type": "ifs", "m": 2, "probs": [p for *_, p in IFS7_MAPS],
        "maps": [{"ratio_log2": k, "offset": list(o)} for k, o, _ in IFS7_MAPS]}))
    computed = []
    betas = spectrum._betas
    monkeypatch.setattr(spectrum, "_betas",
                        lambda view, n, ts: computed.extend(ts) or betas(view, n, ts))
    argv = ["order", "--measure", "ifs7.json", "--sigma", "2", "--p-grid", "1.5:4:0.5",
            "--q-grid", "1.5:4:0.5", "--levels", "4..6", "--out", "out.csv"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_OK
    assert spectrum.CHUNK == 16 and computed == list(spectrum.DEFAULT_T_GRID[:64])


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


# the JSON documents of each case that writes any: its result file, side
# files and one-line side results on stdout
JSON_DOCUMENTS = dict.fromkeys(
    ["coarse-stdout", "coarse-summary", "config", "config-override", "empirical-cloud",
     "empirical-linear", "empirical-product", "empirical-stdout", "empirical-verdict", "order",
     "order-empirical", "order-product", "order-qinf", "probe", "probe-lp", "probe-m3",
     "probe-pinf"], 1)


def test_json_outputs_are_rfc_8259(golden):
    # a strict parser reads every JSON output, and finds each case's number
    # of documents
    docs = {name: [doc for text in (case["body"], *case["side"].values())
                   for doc in _json_documents(text)]
            for name, case in golden["cases"].items()}
    assert [doc["params"]["q"] for doc in docs["order-qinf"]] == ["inf"]
    assert {name: len(found) for name, found in docs.items() if found} == JSON_DOCUMENTS


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


_SPECTRUM_DEFAULTS = {"weight_column": None, "max_cubes": cli.DEFAULT_MAX_CUBES, "out": None,
                      "t_grid": [0.0, 0.5, 1.0]}


@pytest.mark.parametrize("argv, config, effective", [
    (["spectrum", "--measure", "qc.json", "--levels", "2..3", "--t-grid", "0:1:0.5"], None,
     {**_SPECTRUM_DEFAULTS, "measure": "qc.json", "levels": [2, 3]}),
    (["spectrum", "--config", "c.json", "--t-grid", "0:1:0.5"],
     {"measure": "pts.csv", "weight_column": "w", "levels": "1..2"},
     {**_SPECTRUM_DEFAULTS, "measure": "pts.csv", "weight_column": "w", "levels": [1, 2]}),
], ids=["argv0-None", "argv1-config1"])
def test_header_hashes_flags_config_version_and_measure_bytes(argv, config, effective,
                                                              tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / "c.json").write_text(json.dumps(config))
    first = run_cli(argv, tmp_path)
    # the token from its definition: every option of the subcommand but
    # --config as converted, defaults filled in, the subcommand, the version
    # and the digest of the measure file's bytes
    measure = (tmp_path / effective["measure"]).read_bytes()
    effective = {**effective, "command": argv[0], "tool_version": widthlab.__version__,
                 "measure_sha256": hashlib.sha256(measure).hexdigest()}
    text = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    token = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert first["code"] == cli.EX_OK
    assert first["header"] == f"# widthlab {widthlab.__version__} config={token}"
    # the same bytes again: the same header and body
    assert run_cli(argv, tmp_path) == first
    # the same measure in other bytes: the same body under another header
    (tmp_path / effective["measure"]).write_bytes(measure + b"\n")
    assert cli.main(argv) == cli.EX_OK
    header, _, rest = capsys.readouterr().out.partition("\n")
    assert header != first["header"] and body("", f"{first['header']}\n{rest}") == first["body"]


def test_header_hashes_the_effective_configuration(tmp_path, monkeypatch):
    # a default spelled out, and a range spelled as a list, are one run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lv.json").write_text(json.dumps({"measure": "leb1.json", "levels": "4..10"}))
    runs = [["dims", "--measure", "leb1.json"],
            ["dims", "--measure", "leb1.json", "--levels", "4..10"],
            ["dims", "--measure", "leb1.json", "--levels", "4,5,6,7,8,9,10"],
            ["dims", "--config", "lv.json"]]
    results = [run_cli(argv, tmp_path) for argv in runs]
    assert {r["code"] for r in results} == {cli.EX_OK}
    assert len({r["header"] for r in results}) == 1 and len({r["body"] for r in results}) == 1
    other = run_cli(["dims", "--measure", "leb1.json", "--levels", "4..9"], tmp_path)
    assert other["header"] != results[0]["header"]


def test_each_option_is_converted_once_per_run(tmp_path, monkeypatch):
    # the header hashes the values the run converted, and parses none again
    monkeypatch.chdir(tmp_path)
    converted = []
    convert = cli.Run._convert

    def counted(self, key):
        converted.append(key)
        return convert(self, key)

    monkeypatch.setattr(cli.Run, "_convert", counted)
    result = run_cli(CASES["coarse-summary"], tmp_path)
    assert result["code"] == cli.EX_OK and (tmp_path / "summary.json").exists()
    options = f"{cli.COMMON} {cli.SUBCOMMANDS['coarse'][1]}".split()
    assert sorted(converted) == sorted(key for key in options if key != "config")


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
    assert (by_index.points, by_index.weights) == (by_name.points, by_name.weights)
    assert by_index.weights == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    monkeypatch.chdir(tmp_path)
    argv = ["validate", "--measure", "pts.csv", "--weight-column", "2"]
    assert run_cli(argv, tmp_path)["code"] == cli.EX_OK
    # a config file may give the index as an integer
    (tmp_path / "w.json").write_text(json.dumps({"measure": "pts.csv", "weight_column": 2}))
    assert run_cli(["validate", "--config", "w.json"], tmp_path)["code"] == cli.EX_OK


def test_weight_column_index_on_headerless_csv():
    headerless = FILES["pts.csv"].partition("\n")[2]
    model, want = ingest_points(headerless, "2"), ingest_points(FILES["pts.csv"], "w")
    assert (model.points, model.weights) == (want.points, want.weights)


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


@pytest.mark.parametrize("rows, message", [
    (["x,y", "0.5,0.5", "{big},0.5"], "big.csv: field larger than field limit ({limit}) in CSV row 2"),
    # a bad row before the one the CSV reader cannot read is reported first
    (["x,y", "0.5,2", "{big},0.5"], "coordinate 2 in CSV row 1 not inside the open unit cube"),
])
def test_a_csv_field_past_the_field_size_limit_exits_1(rows, message, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    limit = csv.field_size_limit()
    text = "\n".join(rows).format(big="0." + "1" * limit) + "\n"
    (tmp_path / "big.csv").write_text(text)
    argv = ["spectrum", "--measure", "big.csv", "--levels", "1..2", "--out", "out.csv"]
    assert cli.main(argv) == cli.EX_FAIL
    assert capsys.readouterr().err == f"widthlab: {message.format(limit=limit)}\n"
    assert not (tmp_path / "out.csv").exists()


_LIMIT = sys.get_int_max_str_digits()
_IFS1 = {"type": "ifs", "m": 1, "maps": [{"ratio_log2": 1, "offset": [0]}], "probs": [1]}
_TEMPLATE_CAP = (f"IFS template of more than {MAX_TEMPLATE_NODES} nodes: the sum of ratio_log2"
                 " - 1 over the maps plus the embed_shift level passes it")


def _int_error(digits: str) -> str:
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name, text, message", [
    ("huge.csv", "x\n0.5\n1e5000\n", "coordinate on axis 0 of CSV row 2 not inside the open"
     f" unit cube; the coordinate has more digits than the int limit of {_LIMIT}"),
    ("huge.csv", "x,y\n0.5,0.5\n0.25,-1e5000\n", "coordinate on axis 1 of CSV row 2 not inside"
     f" the open unit cube; the coordinate has more digits than the int limit of {_LIMIT}"),
    ("huge.json", json.dumps({"type": "atomic", "m": 2, "points": [["0.5", "0.5"],
                                                                  ["0.5", "1e5000"]],
                              "weights": ["0.5", "0.5"]}),
     "coordinate on axis 1 of atomic point 2 not inside the open unit cube; the point has more"
     f" digits than the int limit of {_LIMIT}"),
    # the bad coordinate prints, its point does not
    ("huge.json", json.dumps({"type": "atomic", "m": 2, "points": [["1e-5000", "2"]],
                              "weights": ["1"]}),
     "coordinate on axis 1 of atomic point 1 not inside the open unit cube; the point has more"
     f" digits than the int limit of {_LIMIT}"),
    ("huge.json", json.dumps({"type": "atomic", "m": 1, "points": [["0.5"]],
                              "weights": ["1e5000"]}),
     f"atomic weights sum to a number of more digits than the int limit of {_LIMIT}, not a"
     " probability measure"),
    ("huge.json", json.dumps({**_IFS1, "probs": ["1e5000"]}), "IFS probabilities sum to a"
     f" number of more digits than the int limit of {_LIMIT}, not a probability vector"),
    ("huge.json", json.dumps({**_IFS1, "maps": [{"ratio_log2": "1e-5000", "offset": [0]}]}),
     "measure spec field maps[0].ratio_log2: expected an integer, got a number of more digits"
     f" than the int limit of {_LIMIT}"),
    ("huge.json", json.dumps({**_IFS1, "maps": [{"ratio_log2": "1e5000", "offset": [0]}]}),
     _TEMPLATE_CAP),
    ("huge.json", json.dumps({**_IFS1, "embed_shift": {"ratio_log2": "1e5000", "offset": [0]}}),
     _TEMPLATE_CAP),
    # json reads an integer literal with int(), which refuses it
    ("huge.json", json.dumps(_IFS1).replace('"m": 1', '"m": 1' + "0" * 5000),
     f"invalid JSON in measure spec: {_int_error('1' + '0' * 5000)}"),
], ids=["csv", "csv-second-axis", "json", "json-point", "json-weights", "ifs-probs",
        "ratio-fraction", "ratio-huge", "shift-huge", "integer-literal"])
def test_a_coordinate_past_the_int_digit_limit_exits_1(name, text, message, tmp_path,
                                                       monkeypatch, capsys):
    # the message names the number's place: formatting the number would
    # raise int's digit-limit ValueError out of the command line
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert cli.main(["validate", "--measure", name]) == cli.EX_FAIL
    assert capsys.readouterr().err == f"widthlab: {message}\n"


def test_a_deep_template_is_refused_before_it_is_built(tmp_path):
    """The template's node count, the sum of ratio_log2 - 1 over the maps
    plus the embed_shift level, is checked against MAX_TEMPLATE_NODES before
    anything is built: ratio_log2 = 10^6, a template of a million nodes,
    exits 1 at once, and a template at the bound loads, its root besides."""
    def spec(k, shift=0):
        doc = {"type": "ifs", "m": 1, "probs": ["1/3", "2/3"],
               "maps": [{"ratio_log2": k, "offset": [0]}, {"ratio_log2": k, "offset": [1]}]}
        return json.dumps({**doc, "embed_shift": {"ratio_log2": shift, "offset": [0]}}
                          if shift else doc)

    (tmp_path / "deep.json").write_text(spec(10**6))
    start = time.perf_counter()
    done = _python_m(["validate", "--measure", "deep.json"], tmp_path)
    assert time.perf_counter() - start < 1.0
    assert (done.returncode, done.stdout, done.stderr) == (cli.EX_FAIL, "",
                                                           f"widthlab: {_TEMPLATE_CAP}\n")
    # the conftest's deep IFS (ratio 2^-40), and templates at the bound and past it
    cases = [(spec(40), True), (spec(MAX_TEMPLATE_NODES // 2 + 1), True),
             (spec(MAX_TEMPLATE_NODES // 2 + 1, shift=1), False),
             (spec(1, shift=MAX_TEMPLATE_NODES), True), (spec(1, MAX_TEMPLATE_NODES + 1), False)]
    for text, loads in cases:
        if loads:
            assert len(load_measure(text).template) <= MAX_TEMPLATE_NODES + 1
        else:
            with pytest.raises(ValidationError, match=f"^{re.escape(_TEMPLATE_CAP)}$"):
                load_measure(text)


def test_probe_trips_node_cap_before_the_seminorm(tmp_path, monkeypatch, capsys):
    # level 5 + 6 of the tetrahedron holds more than 2^21 positive cubes: the
    # cap trips before any other work of the probe, the seminorm included
    def seminorm(*args, **kwargs):
        raise AssertionError("_bump_seminorm ran before the node-table cap")

    monkeypatch.setattr(probe, "_bump_seminorm", seminorm)
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


def _python_m(argv, cwd, code=None, env=(), **kwargs) -> subprocess.CompletedProcess:
    """`python -m widthlab argv`, or `python -c code` if `code` is given, in a
    fresh interpreter with this checkout's package first on its path, an
    80-column terminal for argparse's help and the variables in `env`."""
    env = {**os.environ, "COLUMNS": "80", **dict(env)}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    command = ["-m", "widthlab", *argv] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *command], cwd=cwd, env=env, capture_output=True,
                          text=True, **{"timeout": 120, **kwargs})


def test_python_m_widthlab_runs_the_command_line(tmp_path):
    (tmp_path / "tet.json").write_text(FILES["tet.json"])
    done = _python_m(["validate", "--measure", "tet.json"], tmp_path)
    assert done.returncode == cli.EX_OK, done.stderr


def test_a_well_formed_line_loads_no_argparse(tmp_path):
    """A successful run of a plain line loads neither argparse nor the
    `gettext`/`locale` lookups of its messages; one spelled `--flag=value`
    does, which shows the check can see them."""
    (tmp_path / "tet.json").write_text(FILES["tet.json"])
    code = (
        "import contextlib, io, sys\n"
        "import widthlab.cli as cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "    print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        "run('validate', '--measure', 'tet.json')\n"
        "run('dims', '--measure', 'tet.json', '--levels', '2..3')\n"
        "run('dims', '--measure=tet.json', '--levels', '2..3')\n"
    )
    done = _python_m([], tmp_path, code=code, check=True)
    assert done.stdout.splitlines() == ["[]", "[]", "['argparse', 'gettext', 'locale']"]


USAGE_PATH = Path(__file__).parent / "golden" / "usage.json"


@pytest.mark.parametrize("name", ["help", "version", "unknown-subcommand", "unknown-flag"])
def test_help_version_and_usage_errors_unchanged(name, tmp_path):
    """`golden/usage.json` holds the exit code, stdout and stderr of each
    line, captured while argparse still read every command line; argparse
    reads these lines still, and prints them byte for byte as then."""
    want = json.loads(USAGE_PATH.read_text())[name]
    done = _python_m(want["argv"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (want["code"], want["stdout"],
                                                           want["stderr"])


def test_the_benchmark_lines_are_read_directly():
    for workload in WORKLOADS.values():
        for size in workload.args:
            argv = workload.argv(size, "measure.json", "out.csv")
            assert vars(cli._direct(argv)) == vars(cli.build_parser().parse_args(argv))


_ALL_FLAGS = sorted({cli._flag(key) for key in cli.OPTIONS})
_ODD_FLAGS = ["--", "-h", "--help", "--version", "--measure=x.json", "--levels=-1..2", "--meas",
              "--lev", "--p-g", "--t"]
_PLAIN_VALUES = st.one_of(st.sampled_from(["", "a b", "x.json", "2..3", "inf"]),
                         st.text(max_size=4))
_ODD_VALUES = st.sampled_from(["-1", "-inf", "-", "-x y", "--", "-h", "--version"])


@st.composite
def _command_lines(draw) -> list[str]:
    """A subcommand and `--flag value` pairs of its own flags with plain
    values; or, half the time, such a line with flags of other subcommands,
    abbreviations, `--flag=value`, help and version flags, values that start
    with "-" and a stray last token mixed in."""
    command = draw(st.sampled_from([*cli.SUBCOMMANDS] * 3 + ["frobnicate", "--version"]))
    keys = f"{cli.COMMON} {cli.SUBCOMMANDS.get(command, ('', ''))[1]}".split()
    flags, values = st.sampled_from([cli._flag(key) for key in keys]), _PLAIN_VALUES
    mixed = draw(st.booleans())
    if mixed:
        flags = st.one_of(flags, st.sampled_from(_ALL_FLAGS + _ODD_FLAGS))
        values = st.one_of(values, _ODD_VALUES)
    pairs = draw(st.lists(st.tuples(flags, values), max_size=4))
    stray = draw(st.lists(st.one_of(flags, values), max_size=int(mixed)))
    return [command, *(token for pair in pairs for token in pair), *stray]


@settings(max_examples=300, deadline=None)
@given(_command_lines())
def test_direct_reads_a_line_as_argparse_does(argv):
    direct = cli._direct(argv)
    if direct is not None:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                want = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects {argv!r}, which _direct reads")
        assert vars(direct) == vars(want)
