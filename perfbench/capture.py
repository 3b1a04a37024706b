"""Capture the reference outputs that every benchmark run is checked against.

Usage: python3 perfbench/capture.py

Runs each workload once per input set, at both sizes, and writes its output
body to ``perfbench/reference/<size>/``. The cloud workload has one
reference per pooled cloud sample; the IFS workloads have one each, since
their seeds only reorder the maps. An existing reference is never
overwritten: a run that disagrees with it is a failure to explain, not a
reference to refresh. Delete a file by hand to capture it again.
"""
from __future__ import annotations

import sys

import inputs
import run
from workloads import CLOUD_POINTS, WORKLOADS


def main() -> int:
    if not (run.SRC / "widthlab" / "cli.py").is_file():
        print(f"capture: no widthlab sources under {run.SRC}", file=sys.stderr)
        return 2
    written = 0
    for size in sorted(CLOUD_POINTS):
        for workload in WORKLOADS.values():
            seeds = range(inputs.CLOUD_POOL) if workload.measure == "cloud" else [0]
            for seed in seeds:
                path = run.reference_path(workload, size, seed)
                if path.exists():
                    continue
                measure = run.make_inputs(size, seed)[workload.measure]
                result = run.run_child(workload, size, measure, False, "capture")
                if "error" in result:
                    print(f"capture: {workload.name} seed {seed}: {result['error']}",
                          file=sys.stderr)
                    return 1
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(result["body"])
                written += 1
                print(f"wrote {path.relative_to(run.ROOT)}")
    print(f"{written} reference files written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
