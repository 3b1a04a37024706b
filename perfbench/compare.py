"""Reference-output check: text exactly, numbers to relative 1e-9.

A run's body is its `--out` file without the `# widthlab ... config=` header
line (whose hash covers the effective configuration and may change by
design), followed by what the subcommand printed to stdout.
"""
from __future__ import annotations

import math
import re

REL_TOL = 1e-9
STDOUT_MARK = "--- stdout ---\n"

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def body(out_text: str, stdout_text: str) -> str:
    lines = out_text.splitlines(keepends=True)
    if lines and lines[0].startswith("# widthlab ") and " config=" in lines[0]:
        lines = lines[1:]
    return "".join(lines) + STDOUT_MARK + stdout_text


def _split(text: str) -> tuple[list[str], list[str]]:
    """The text between numbers, and the numbers, of `text`."""
    return _NUMBER.split(text), _NUMBER.findall(text)


def mismatch(actual: str, reference: str) -> str | None:
    """None if `actual` matches `reference`, else the first difference."""
    for lineno, (a, r) in enumerate(
        zip(actual.splitlines(), reference.splitlines()), start=1
    ):
        a_text, a_nums = _split(a)
        r_text, r_nums = _split(r)
        if a_text != r_text or len(a_nums) != len(r_nums):
            return f"line {lineno}: {a!r} != {r!r}"
        for x, y in zip(a_nums, r_nums):
            if not math.isclose(float(x), float(y), rel_tol=REL_TOL):
                return f"line {lineno}: {x} != {y} (relative tolerance {REL_TOL})"
    n_a, n_r = len(actual.splitlines()), len(reference.splitlines())
    if n_a != n_r:
        return f"{n_a} lines, reference has {n_r}"
    return None
