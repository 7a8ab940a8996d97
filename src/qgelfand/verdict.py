"""Uniform pass/fail result for identity checks, and the immutable
record type it and the package's other result values are built on."""

from __future__ import annotations


class Record:
    """An immutable value whose fields are the ``__slots__`` of its class,
    in that order.  ``__init__`` sets them through ``_set``; afterwards
    every assignment raises ``AttributeError``.  Two records are equal
    when they are of one class with equal fields, and hash by their
    fields."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Verdict(Record):
    """Outcome of one exact identity check.

    ``lhs``/``rhs`` carry canonical renderings of the compared values
    when they are scalars (or short summaries for matrices); ``witness``
    pinpoints the first discrepancy on failure.
    """

    __slots__ = ("ok", "witness", "lhs", "rhs")

    def __init__(self, ok, witness=None, lhs="", rhs=""):
        self._set(ok, witness, lhs, rhs)

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
