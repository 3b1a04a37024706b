"""Seeded input generator for the benchmark.

Writes the three measure files the workloads read:

- ``ifs7.json``: a 7-map 2-d self-similar measure with contraction ratios
  2^-1 (two maps), 2^-2 (two maps) and 2^-3 (three maps). Mixed ratios mean
  there is no closed-form spectrum, so ``order`` takes the empirical route.
- ``tetrahedron.json``: the Sierpinski-tetrahedron measure of the test
  fixture of the same name (m = 3, four half-ratio maps).
- ``cloud.csv``: a chaos-game sample of ``ifs7.json``, written as finite
  decimals strictly inside (0, 1).

The two IFS measures are fixed; the seed shuffles the order of their maps,
which changes the file the program parses but not the measure, so the
program's output must not change. The cloud is drawn from one of
``CLOUD_POOL`` seeded samples, chosen by ``seed % CLOUD_POOL``; every sample
has a reference output captured with the benchmark.

Usage: python3 perfbench/inputs.py --seed N --out DIR [--size bench|smoke]
"""
from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from workloads import CLOUD_POINTS

CLOUD_POOL = 16
CLOUD_DIGITS = 6

IFS7_MAPS = [
    (1, (1, 1), "0.31"),
    (1, (0, 0), "0.23"),
    (2, (3, 0), "0.17"),
    (2, (0, 3), "0.11"),
    (3, (5, 2), "0.07"),
    (3, (4, 3), "0.06"),
    (3, (2, 5), "0.05"),
]

TETRAHEDRON_MAPS = [
    (1, (0, 0, 0), "0.599"),
    (1, (1, 1, 0), "0.3"),
    (1, (1, 0, 1), "0.001"),
    (1, (0, 1, 1), "0.1"),
]


def ifs_spec(maps, rng: random.Random) -> dict:
    order = list(range(len(maps)))
    rng.shuffle(order)
    return {
        "type": "ifs",
        "m": len(maps[0][1]),
        "maps": [
            {"ratio_log2": maps[i][0], "offset": list(maps[i][1])} for i in order
        ],
        "probs": [maps[i][2] for i in order],
    }


def chaos_game(maps, n_points: int, rng: random.Random) -> list[tuple[str, ...]]:
    """Sample the self-similar measure by iterating randomly chosen maps.

    Each point is the image of the centre of the unit cube under 40 random
    maps, so it lies within 2^-40 of the attractor; coordinates are rounded
    to CLOUD_DIGITS decimals and kept strictly inside (0, 1).
    """
    weights = [float(p) for _, _, p in maps]
    lo, hi = 10.0**-CLOUD_DIGITS, 1.0 - 10.0**-CLOUD_DIGITS
    out = []
    for _ in range(n_points):
        x = [0.5] * len(maps[0][1])
        for k, offset, _ in rng.choices(maps, weights, k=40):
            scale = 2.0**-k
            x = [(o + xi) * scale for o, xi in zip(offset, x)]
        out.append(tuple(f"{min(max(xi, lo), hi):.{CLOUD_DIGITS}f}" for xi in x))
    return out


def write_inputs(seed: int, out_dir: Path, cloud_points: int) -> dict[str, Path]:
    """Write the three measure files for `seed`; returns their paths by name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"ifs-order-{seed}")
    paths = {
        "ifs7": out_dir / "ifs7.json",
        "tetrahedron": out_dir / "tetrahedron.json",
        "cloud": out_dir / "cloud.csv",
    }
    paths["ifs7"].write_text(json.dumps(ifs_spec(IFS7_MAPS, rng), indent=1) + "\n")
    paths["tetrahedron"].write_text(
        json.dumps(ifs_spec(TETRAHEDRON_MAPS, rng), indent=1) + "\n"
    )
    cloud_rng = random.Random(f"cloud-{seed % CLOUD_POOL}")
    rows = chaos_game(IFS7_MAPS, cloud_points, cloud_rng)
    paths["cloud"].write_text("x,y\n" + "".join(",".join(r) + "\n" for r in rows))
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--size", choices=sorted(CLOUD_POINTS), default="bench")
    args = ap.parse_args(argv)
    for name, path in write_inputs(args.seed, args.out, CLOUD_POINTS[args.size]).items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
