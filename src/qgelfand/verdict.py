"""Uniform pass/fail result for identity checks."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """Outcome of one exact identity check.

    ``lhs``/``rhs`` carry canonical renderings of the compared values
    when they are scalars (or short summaries for matrices); ``witness``
    pinpoints the first discrepancy on failure.
    """

    ok: bool
    witness: str | None = None
    lhs: str = ""
    rhs: str = ""

    def __bool__(self):
        return self.ok


def equal_verdict(lhs, rhs, label, show_values=False):
    """Compare two values once, rendering both with ``str``.  On a
    mismatch the witness is ``label``, followed by ": <lhs> != <rhs>"
    when ``show_values``."""
    left, right = str(lhs), str(rhs)
    if lhs == rhs:
        return Verdict(True, lhs=left, rhs=right)
    return Verdict(False, lhs=left, rhs=right,
                   witness=f"{label}: {left} != {right}" if show_values
                   else label)


def matrix_verdict(lhs, rhs, label=""):
    """Compare two matrices entrywise, reporting the first difference."""
    from .tmatrix import first_difference

    diff = first_difference(lhs, rhs)
    summary = f"{lhs.rows}x{lhs.cols} matrix"
    if diff is None:
        return Verdict(True, lhs=summary, rhs=summary)
    i, j, a, b = diff
    where = f"entry ({i},{j})"
    if label:
        where = f"{label}: {where}"
    return Verdict(False,
                   witness=f"{where}: {a.render()} != {b.render()}",
                   lhs=summary, rhs=summary)
