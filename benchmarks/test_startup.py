"""Start-up benchmarks: a fresh interpreter that imports `widthlab.cli`, one
that runs a whole `python -m widthlab validate` on a small spec, and one
that runs a whole `partition` on the quarter-Cantor IFS.

Every subcommand pays the import before its first line of work, and it is
most of a short run: the benchmark's `setup_s` is this import plus one
measure load. The import compiles every module but `widthlab.probe`, which
only the `probe` subcommand loads, and no `numpy.polynomial`; where bytecode
is not written (`PYTHONDONTWRITEBYTECODE`), that compilation is part of the
time. The `validate` run adds what every call pays on top: reading its
command line, which loads no argparse when the line is plain `--flag value`
pairs, and loading one measure. It keeps the cost of reading the command
line visible outside the benchmark's timed call. The `partition` run adds
the rows of eleven thresholds on a two-map IFS and their entropy slope, so
the first fit in a process, which a LAPACK fit made cost about 0.5 ms,
stays in view outside the benchmark too. Measured on a shared
2-core VM (python 3.11, numpy 2.4), with the slope from numpy's LAPACK
least squares (`np.polyfit`) and then from the exact integer fit
(`partition.fit_loglog`):
- the `cli.main` call alone, timed inside 30 alternating fresh
  interpreters per side: median 1.154 -> 0.786 ms, faster in 30 of 30;
- this benchmark, three alternating runs of 20 rounds per side:
  medians 143.9, 143.3, 141.6 -> 154.1, 140.9, 144.4 ms. The interpreter's
  start spreads over 140-155 ms, so the 0.4 ms does not show here.
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
QUARTER_CANTOR = ('{"type": "ifs", "m": 1, "maps": [{"ratio_log2": 2, "offset": [0]},'
                  ' {"ratio_log2": 2, "offset": [3]}], "probs": ["1/2", "1/2"]}')


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


def test_startup_partition_run(benchmark, tmp_path):
    (tmp_path / "qc.json").write_text(QUARTER_CANTOR)
    args = ("-m", "widthlab", "partition", "--measure", "qc.json", "--rho", "1",
            "--thresholds", "pow2:2..12")
    done = benchmark.pedantic(start, args, {"cwd": tmp_path}, rounds=20, warmup_rounds=1)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("\nentropy slope estimate: 0.34545454545454546\n")
