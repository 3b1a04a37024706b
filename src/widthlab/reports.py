"""Deterministic CSV/JSON writers with a version-and-config header line.

Every output file starts with a single comment line carrying the tool
version and a hash of the effective run configuration, in which the measure
enters as the SHA-256 digest of its file's bytes, so reruns are
byte-comparable and provenance travels with the data. JSON consumers should
skip the first line.
"""
from __future__ import annotations

import csv
import json
import math
import sys

from . import __version__

# CPython's built-in SHA-256, which loads no OpenSSL as `hashlib` does
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # another interpreter, or a build without the module
    from hashlib import sha256


def canonical_config(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)


def config_hash(config: dict) -> str:
    return sha256(canonical_config(config).encode()).hexdigest()[:16]


def header_line(config: dict) -> str:
    return f"# widthlab {__version__} config={config_hash(config)}"


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def write_csv(out, columns, rows, header: str) -> None:
    """CSV rows under `header`, the run's `header_line`, to the text stream
    `out`; every line ends in LF."""
    out.write(header + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def _finite(value):
    """`value` with each non-finite float, in lists and dict values too, as
    the string that `_fmt` writes for it."""
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def json_text(payload, indent: int | None = None) -> str:
    """The payload as JSON with sorted keys. RFC 8259 has no Infinity or
    NaN, so a non-finite float is written as the string "inf", "-inf" or
    "nan", as in the CSV tables."""
    return json.dumps(_finite(payload), sort_keys=True, indent=indent, default=str,
                      allow_nan=False)


def write_json(out, payload, header: str) -> None:
    """A JSON payload under `header`, the run's `header_line`, to the text
    stream `out`."""
    out.write(header + "\n")
    out.write(json_text(payload, indent=2) + "\n")
