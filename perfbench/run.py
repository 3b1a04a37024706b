"""Benchmark entry point: time one widthlab workload end to end, or trace its layers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in `workloads.py`, or ``all`` to run each in
turn. The run generates its inputs from the seed, runs one discarded
warm-up, then runs the workload again and again for S seconds as a closed
loop with one client: each run is a fresh child process (`child.py`) that
calls `widthlab.cli.main(argv)`, and the next starts when it has ended.
Every run's output is checked against the reference captured with the
benchmark (`compare.py`).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (medians over the runs); with ``--trace 1`` runs
alternate between traced and untraced, and the object has the per-layer
metrics of `spans.py`. Lines before it give each metric with its unit and
sample count, the failure count, and the versions the numbers were taken
with. Full samples go to ``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference"
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from workloads import CLOUD_POINTS, WORKLOADS, Workload  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Times are reported at the machine speed at which `child.calibration_s`
# reads CAL_REF_S: each time is scaled by CAL_REF_S / (calibration time
# measured around it in the same process).
CAL_REF_S = 0.01
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, inputs or references)."""


def reference_path(workload: Workload, size: str, seed: int) -> Path:
    if workload.measure == "cloud":
        name = f"{workload.name}.cloud{seed % inputs.CLOUD_POOL}.txt"
    else:
        name = f"{workload.name}.txt"
    return REFERENCE / size / name


def make_inputs(size: str, seed: int) -> dict[str, Path]:
    return inputs.write_inputs(
        seed, WORK / "inputs" / f"{size}-seed{seed}", CLOUD_POINTS[size]
    )


def child_env() -> dict[str, str]:
    """The environment of every run: no memo cache, thread pools capped at nproc."""
    env = dict(os.environ)
    env.pop("WIDTHLAB_CACHE_DIR", None)
    nproc = str(os.cpu_count() or 1)
    for var in THREAD_POOL_VARS:
        env[var] = nproc
    return env


def run_child(workload: Workload, size: str, measure: Path, trace: bool, tag: str) -> dict:
    """Run the workload once in a fresh interpreter; returns its measurements.

    The result has ``error`` set when the run failed: a non-zero exit
    (2 is a resource cap) or a child that did not finish.
    """
    jobs = WORK / "jobs"
    jobs.mkdir(parents=True, exist_ok=True)
    out, result_path = jobs / f"{tag}.out", jobs / f"{tag}.result.json"
    for stale in (out, result_path):
        stale.unlink(missing_ok=True)
    job = {
        "src": str(SRC),
        "argv": workload.argv(size, str(measure), str(out)),
        "measure": str(measure),
        "out": str(out),
        "trace": trace,
        "spans": str(jobs / f"{tag}.spans"),
        "result": str(result_path),
    }
    job_path = jobs / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(job_path)],
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"run exceeded {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    result = json.loads(result_path.read_text())
    if result["exit_code"] != 0:
        result["error"] = f"widthlab exited {result['exit_code']}"
    result["body"] = compare.body(result.pop("out"), result.pop("stdout"))
    if trace:
        result["layers"] = spans.layer_metrics(spans.load_spans(Path(job["spans"])))
    return result


def _scale(*calibration_s: float) -> float:
    return CAL_REF_S / statistics.fmean(calibration_s)


def calibrated(result: dict) -> dict[str, float]:
    """The end-to-end metrics of one run, times scaled to the reference speed."""
    before, between, after = result["calibration_s"]
    setup, call = _scale(before, between), _scale(between, after)
    return {
        "wall_s": result["wall_s"] * call,
        "cpu_s": result["cpu_s"] * call,
        "setup_s": result["setup_s"] * setup,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def check(result: dict, reference: str) -> dict:
    """Mark `result` failed if its output differs from the reference."""
    if "error" not in result:
        diff = compare.mismatch(result["body"], reference)
        if diff is not None:
            result["error"] = f"output differs from reference: {diff}"
    return result


def tail_percentile(n: int) -> float | None:
    """Highest of 99.9/99/95/90/75/50 with at least 10 of n samples above it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def provenance() -> dict:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
    }


def run_workload(workload: Workload, size: str, seed: int, seconds: float, trace: bool) -> dict:
    """All runs of one workload; returns the result object for the last line."""
    reference_file = reference_path(workload, size, seed)
    if not reference_file.exists():
        raise BenchError(f"no reference output {reference_file}")
    reference = reference_file.read_text()
    measure = make_inputs(size, seed)[workload.measure]
    tag = f"{workload.name}-{size}-seed{seed}"

    def one_run(traced: bool, label: str) -> dict:
        return check(run_child(workload, size, measure, traced, label), reference)

    warmup = one_run(False, f"{tag}-warmup")
    timed: list[tuple[bool, dict]] = []
    deadline = time.monotonic() + seconds
    while len(timed) < (2 if trace else 1) or time.monotonic() < deadline:
        traced = trace and len(timed) % 2 == 1
        timed.append((traced, one_run(traced, tag)))

    every = [warmup] + [r for _, r in timed]
    failures = [r["error"] for r in every if "error" in r]
    plain = [r for traced, r in timed if not traced and "error" not in r]
    traced_runs = [r for traced, r in timed if traced and "error" not in r]
    env = {**next((r["env"] for r in every if "env" in r), {}), **provenance()}

    print(f"workload {workload.name} (size {size}, seed {seed}, {seconds:g} s)")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(
        f"fail_frac = {len(failures) / len(every)!r} "
        f"({len(failures)} failed / {len(every)} attempted, warm-up included)"
    )
    for err in failures[:5]:
        print(f"  failure: {err}")
    if not plain or (trace and not traced_runs):
        raise BenchError(f"{workload.name}: no run passed; nothing to report")

    samples = {name: [calibrated(r)[name] for r in plain] for name, _ in END_TO_END}
    raw = {name: [r[name] for r in plain] for name, _ in END_TO_END}
    if trace:
        metrics, units = _layer_summary(traced_runs, plain), dict(spans.PER_LAYER)
        for name, unit in spans.PER_LAYER:
            print(f"{name} = {metrics[name]!r} {unit}")
    else:
        metrics = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
        units = dict(END_TO_END)
        tail = tail_percentile(len(plain))
        for name, unit in END_TO_END:
            notes = [f"median of {len(plain)} runs"]
            if tail is None:
                notes.append("no percentile has 10 samples above it")
            else:
                notes.append(f"p{tail:g} {percentile(samples[name], tail)!r} {unit}")
            if unit == "s":
                notes.append(f"uncalibrated median {statistics.median(raw[name])!r} s")
            print(f"{name} = {metrics[name]!r} {unit} ({'; '.join(notes)})")

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "env": env,
        "samples": samples,
        "uncalibrated_samples": raw,
        "calibration_s": [r["calibration_s"] for r in plain],
        "metrics": metrics,
        "failures": failures,
    }
    (results_dir / f"{tag}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    return {
        "correct": not failures,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def _layer_summary(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics: medians of times, counts from the first traced run.

    Layer times are scaled by the calibrations taken before tracing started;
    the one after a traced call runs beside the spans it left in memory and
    reads slow. The overhead compares uncalibrated walls: traced and untraced
    runs alternate, so they share the machine's drift.
    """
    first = traced[0]["layers"]
    for other in traced[1:]:
        drift = [k for k in spans.EXACT_METRICS if other["layers"][k] != first[k]]
        if drift:
            print(f"warning: counts differ between traced runs: {', '.join(drift)}")
    out = {}
    for name, unit in spans.PER_LAYER:
        if name == "trace.overhead_frac":
            out[name] = (
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain)
                - 1.0
            )
        elif unit == "s":
            out[name] = statistics.median(
                r["layers"][name] * _scale(*r["calibration_s"][:2]) for r in traced
            )
        else:
            out[name] = first[name]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(CLOUD_POINTS), default="bench")
    args = ap.parse_args(argv)

    if not (SRC / "widthlab" / "cli.py").is_file():
        print(f"perfbench: no widthlab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                WORKLOADS[name], args.size, args.seed, args.seconds, bool(args.trace)
            )
            print()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
