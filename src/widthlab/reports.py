"""Deterministic CSV/JSON writers with a version-and-config header line.

Every output file starts with a single comment line carrying the tool
version and a hash of the effective run configuration, so reruns are
byte-comparable and provenance travels with the data. JSON consumers should
skip the first line.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math

from . import __version__


def canonical_config(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_config(config).encode()).hexdigest()[:16]


def header_line(config: dict) -> str:
    return f"# widthlab {__version__} config={config_hash(config)}"


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def write_csv(path, columns, rows, header: str) -> None:
    """CSV rows under `header`, the run's `header_line`."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path, payload, header: str) -> None:
    """A JSON payload under `header`, the run's `header_line`."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        json.dump(payload, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
