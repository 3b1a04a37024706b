"""One timed `widthlab.cli.main(argv)` call in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

JOB.json holds ``src`` (the directory that contains the `widthlab`
package), ``argv``, ``measure`` (the workload's measure file), ``out`` (the
`--out` path in argv), ``trace`` (bool), ``spans`` (path stem for the span
dump) and ``result`` (where this process writes its measurements as JSON).

Set-up is timed as the import of `widthlab.cli` plus one load/validation of
the measure file; the CLI call loads it again, as any user's call does.
Tracing, when asked for, is installed after set-up, so spans cover only the
CLI call.

The machine's speed drifts by tens of percent within seconds when other
tenants load it, so the child also times a fixed calibration loop before
set-up, between set-up and the call, and after the call. `run.py` divides
each time by the calibration time measured around it.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

CALIBRATION_REPS = 8


def _calibration_loop() -> None:
    """Fixed pure-Python work in widthlab's mix: big rationals, dicts, tuples."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    counts: dict[tuple[int, int], int] = {}
    for i in range(16000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())


def calibration_s() -> float:
    """Median time of a few calibration loops.

    The cyclic collector is paused meanwhile: a full collection of the heap
    the import left behind would land in a random repetition.
    """
    times = []
    gc.disable()
    try:
        for _ in range(CALIBRATION_REPS):
            t0 = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])

    cal_before = calibration_s()
    t0 = time.perf_counter()
    from widthlab import cli, measures

    data = Path(job["measure"]).read_bytes()
    if job["measure"].endswith(".csv"):
        measures.ingest_points(data.decode())
    else:
        measures.load_measure(data)
    setup_s = time.perf_counter() - t0
    cal_between = calibration_s()

    recorder = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import SpanRecorder, install_widthlab_tracing

        recorder = SpanRecorder()
        install_widthlab_tracing(recorder)

    captured = io.StringIO()
    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.main(job["argv"])
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_s() - cpu0
    cal_after = calibration_s()

    if recorder is not None:
        recorder.dump(Path(job["spans"]))
    out_path = Path(job["out"])
    import numpy
    import scipy

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calibration_s": [cal_before, cal_between, cal_after],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "out": out_path.read_text() if out_path.exists() else "",
        "stdout": captured.getvalue(),
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
