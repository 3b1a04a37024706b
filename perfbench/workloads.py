"""The benchmark's four workloads: one `widthlab` subcommand each.

Why each workload was chosen, and which layers it should and should not
stress, is recorded in `BENCHMARK.json` and `perfbench/README.md`.

Every workload exists in two sizes. ``bench`` is what the benchmark times:
each run of it takes about 1-2 s of `cli.main` on one core, so a run of the
benchmark can take several samples. ``smoke`` is a seconds-long version for
the benchmark's own tests. Sizes shrink point counts, level ranges and
threshold ranges; they keep what decides which layer does the work (the
31-point default t-grid, the 6 x 6 (p, q) grid, the second partition pass
of `entropy_slope`, and thresholds spanning three decades for `empirical`).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    measure: str  # key of the file `inputs.write_inputs` writes
    args: dict[str, list[str]]  # size -> subcommand argv without --measure/--out

    def argv(self, size: str, measure_path: str, out_path: str) -> list[str]:
        sub, *rest = self.args[size]
        return [sub, "--measure", measure_path, *rest, "--out", out_path]


CLOUD_POINTS = {"bench": 600, "smoke": 100}

_EMBED = ["--sigma", "2", "--p", "2", "--q", "2"]
_DECAY = ["--sigma", "2", "--p", "4", "--q", "2", "--function", "sin"]
_SWEEP = ["--sigma", "2", "--p-grid", "1.5:4:0.5", "--q-grid", "1.5:4:0.5"]

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "spectrum-cloud",
            "cloud",
            {
                "bench": ["spectrum", "--levels", "4..8"],
                "smoke": ["spectrum", "--levels", "4..5"],
            },
        ),
        Workload(
            "order-sweep-ifs",
            "ifs7",
            {
                "bench": ["order", *_SWEEP, "--levels", "4..6"],
                "smoke": ["order", "--sigma", "2", "--p-grid", "1.5:2:0.5",
                          "--q-grid", "1.5:2:0.5", "--levels", "4..5"],
            },
        ),
        Workload(
            "partition-ifs",
            "tetrahedron",
            {
                "bench": ["partition", *_EMBED, "--thresholds", "pow2:4..20"],
                "smoke": ["partition", *_EMBED, "--thresholds", "pow2:4..14"],
            },
        ),
        Workload(
            "empirical-ifs",
            "tetrahedron",
            {
                "bench": ["empirical", *_DECAY, "--thresholds", "pow2:0..10"],
                "smoke": ["empirical", *_DECAY, "--thresholds", "pow2:0..6"],
            },
        ),
    ]
}
