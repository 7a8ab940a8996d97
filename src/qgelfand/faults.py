"""Soundness-probe hooks.

The verification suite is only trustworthy if every check can actually
fail.  Each probe kind perturbs one construction site by a single entry:

* ``"rmatrix"`` -- one entry of the R-matrix,
* ``"rep"``     -- one generator image of the vector representation,
* ``"qnum"``    -- every nonzero q-integer (off by one).

Probes are activated through ``inject`` (tests) or the hidden
``--inject-fault`` CLI flag, and are meant for single-threaded runs.

A process-wide cache keys on every probe its value reads, so a probed
run and a clean run never share a value: ``rmatrix._rmatrix_set`` keys
on the ``rmatrix`` probe, and ``scalars._phi2`` and ``scalars._divisors``
key on none.
"""

from __future__ import annotations

from contextlib import contextmanager

KINDS = ("rmatrix", "rep", "qnum")

_active: str | None = None


def active(kind):
    return _active == kind


def set_fault(kind):
    global _active
    if kind is not None and kind not in KINDS:
        raise ValueError(f"unknown fault kind: {kind!r}")
    _active = kind


@contextmanager
def inject(kind):
    """Activate a fault kind for the duration of a with-block."""
    previous = _active
    set_fault(kind)
    try:
        yield
    finally:
        set_fault(previous)
