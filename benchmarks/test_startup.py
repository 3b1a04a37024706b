"""Start-up benchmarks: a fresh interpreter that imports `widthlab.cli`, and
one that runs a whole `python -m widthlab validate` on a small spec.

Every subcommand pays the import before its first line of work, and it is
most of a short run: the benchmark's `setup_s` is this import plus one
measure load. The import compiles every module but `widthlab.probe`, which
only the `probe` subcommand loads, and no `numpy.polynomial`; where bytecode
is not written (`PYTHONDONTWRITEBYTECODE`), that compilation is part of the
time. The `validate` run adds what every call pays on top: reading its
command line, which loads no argparse when the line is plain `--flag value`
pairs, and loading one measure. It keeps the cost of reading the command
line visible outside the benchmark's timed call.
Each child runs in the caller's environment (its `PYTHONDONTWRITEBYTECODE`,
its BLAS variables), with this checkout's `src/` first on its path, so the
time covers the interpreter's own start and numpy's import as well. Run
from the root of the repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks/test_startup.py -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SPEC = '{"type": "uniform", "m": 1, "support": "0:0"}'


def start(*args: str, cwd=None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


def test_startup_import_cli(benchmark):
    done = benchmark.pedantic(start, ("-c", "import widthlab.cli"), rounds=20, warmup_rounds=1)
    assert (done.returncode, done.stderr) == (0, "")


def test_startup_cli_run(benchmark, tmp_path):
    (tmp_path / "spec.json").write_text(SPEC)
    args = ("-m", "widthlab", "validate", "--measure", "spec.json")
    done = benchmark.pedantic(start, args, {"cwd": tmp_path}, rounds=20, warmup_rounds=1)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "ok: spec.json is a valid UniformMeasure with m=1\n"
