"""Start-up benchmark: a fresh interpreter that imports `widthlab.cli`.

Every subcommand pays this before its first line of work, and it is most of
a short run: the benchmark's `setup_s` is this import plus one measure load.
The import compiles every module but `widthlab.probe`, which only the `probe`
subcommand loads, and no `numpy.polynomial`; where bytecode is not written
(`PYTHONDONTWRITEBYTECODE`), that compilation is part of the time.
The child runs in the caller's environment (its `PYTHONDONTWRITEBYTECODE`,
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


def start() -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", "import widthlab.cli"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_startup_import_cli(benchmark):
    done = benchmark.pedantic(start, rounds=20, warmup_rounds=1)
    assert (done.returncode, done.stderr) == (0, "")
