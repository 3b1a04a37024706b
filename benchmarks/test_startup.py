"""Start-up benchmarks: a fresh interpreter that imports `widthlab.cli`, one
that runs a whole `python -m widthlab validate` on a small spec, one that
runs a whole `partition` on the quarter-Cantor IFS, and `cli.main` timed
inside fresh interpreters.

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
The interpreter's start hides such costs, so a fourth case times `cli.main`
inside each fresh interpreter, on that `partition` run, on the
`empirical` line of the benchmark's `empirical-ifs` workload (the
tetrahedron, thresholds 2^0 .. 2^-10) and on `spectrum --levels 4..8` over
a 600-point cloud of 6-digit decimals, the line of its `spectrum-cloud`
workload, whose call reads the CSV once. Its table times the whole child;
the in-process times, in ms, are its `extra_info["cli_main_ms"]` (min,
median, max over the rounds), which `--benchmark-json FILE` writes. In
three runs a side on the same VM, the `empirical` call read a median of
16.6-17.0 ms with the IFS tables built from repeated index rows and
14.1-15.7 ms built from packed keys, while the whole child read
189-205 ms and 198-218 ms: the interpreter's spread hides a 2 ms gain.
The `spectrum` call, in three alternating runs a side, read a median of
4.9-6.4 ms with the cloud read field by field and 3.2-3.8 ms with it read
a column at a time, while the whole child read 182-226 ms and 156-190 ms.
Each child runs in the caller's environment (its `PYTHONDONTWRITEBYTECODE`,
its BLAS variables), with this checkout's `src/` first on its path, so the
time covers the interpreter's own start and numpy's import as well. Run
from the root of the repository (pytest-benchmark required):

    PYTHONPATH=src python -m pytest benchmarks/test_startup.py -q

The suite lies outside tier-1, whose `testpaths` is `tests`.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SPEC = '{"type": "uniform", "m": 1, "support": "0:0"}'
QUARTER_CANTOR = ('{"type": "ifs", "m": 1, "maps": [{"ratio_log2": 2, "offset": [0]},'
                  ' {"ratio_log2": 2, "offset": [3]}], "probs": ["1/2", "1/2"]}')
TETRAHEDRON = ('{"type": "ifs", "m": 3, "maps": ['
               + ", ".join(f'{{"ratio_log2": 1, "offset": {list(o)}}}'
                           for o in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
               + '], "probs": ["0.599", "0.3", "0.001", "0.1"]}')
# the child prints the seconds of its `cli.main` call after the run's output
TIMED_MAIN = ("import sys, time\nfrom widthlab import cli\nstart = time.perf_counter()\n"
              "code = cli.main(sys.argv[1:])\nprint(time.perf_counter() - start)\nsys.exit(code)")
# a 600-point cloud of 6-digit decimals, as perfbench's cloud.csv writes it
_RNG = random.Random(0)
CLOUD = "x,y\n" + "".join(f"0.{_RNG.randrange(1, 10**6):06d},0.{_RNG.randrange(1, 10**6):06d}\n"
                          for _ in range(600))
IN_PROCESS = {
    "spectrum": ("cloud.csv", CLOUD, ["--levels", "4..8"], "8,1.5,-0.5750665841781613"),
    "partition": ("qc.json", QUARTER_CANTOR, ["--rho", "1", "--thresholds", "pow2:2..12"],
                  "entropy slope estimate: 0.34545454545454546"),
    "empirical": ("tetrahedron.json", TETRAHEDRON,
                  ["--sigma", "2", "--p", "4", "--q", "2", "--function", "sin",
                   "--thresholds", "pow2:0..10"],
                  '{"degenerate": false, "function": "sin", "pass": false,'
                  ' "predicted": -1.0581236235288816, "slope": -0.29161682672159167}'),
}


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


@pytest.mark.parametrize("command", sorted(IN_PROCESS))
def test_startup_cli_main_in_process(benchmark, tmp_path, command):
    name, spec, args, last_line = IN_PROCESS[command]
    (tmp_path / name).write_text(spec)
    seconds = []

    def timed_run():
        done = start("-c", TIMED_MAIN, command, "--measure", name, *args, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        *_, line, elapsed = done.stdout.splitlines()
        assert line == last_line
        seconds.append(float(elapsed))

    benchmark.pedantic(timed_run, rounds=20)  # each round a fresh interpreter: no warm-up
    seconds.sort()
    benchmark.extra_info["cli_main_ms"] = {
        key: 1e3 * value for key, value in
        (("min", seconds[0]), ("median", seconds[len(seconds) // 2]), ("max", seconds[-1]))}
