"""Span tracer for the qgelfand layers, installed from outside the package.

``install`` wraps the public functions of ``scalars``, ``tmatrix``,
``reps``, ``rmatrix``, ``invariants``, ``suite`` and ``cli`` and rebinds
every reference to them inside the package, so a function imported by
name into another module (``embed`` into ``reps``, ``rmatrix`` and
``invariants``) is traced there too.  Per-entry ``Scalar`` arithmetic and
rendering are left alone: they run millions of times and a wrapper on
them would swamp the run.

Spans are kept in memory as ``(span_id, parent_id, name_id, start, end)``
and aggregated at the end.  Parents come from a per-thread stack, so the
spans of ``verify --jobs 2`` worker threads nest correctly; a worker
task's root span has no parent.

Run as a script it traces one CLI call:

    python bench/tracer.py SUMMARY.json SPANS.json -- verify --n 2 ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# grouped names for the TMatrix kernels; every other traced function is
# reported as "<module>.<function>"
GROUPS = {
    "TMatrix.__mul__": "tmatrix.mul",
    "TMatrix.__add__": "tmatrix.addsub",
    "TMatrix.__sub__": "tmatrix.addsub",
    "TMatrix.scaled": "tmatrix.addsub",
    "TMatrix.inverse": "tmatrix.elim",
    "TMatrix.solve": "tmatrix.elim",
    "TMatrix.nullspace": "tmatrix.elim",
    "TMatrix.rank": "tmatrix.elim",
    "TMatrix.det": "tmatrix.elim",
    "TMatrix.partial_trace": "tmatrix.tensor_ops",
    "TMatrix.partial_transpose": "tmatrix.tensor_ops",
    "tmatrix.embed": "tmatrix.tensor_ops",
    "tmatrix.kron": "tmatrix.tensor_ops",
}

MODULES = ("scalars", "tmatrix", "reps", "rmatrix", "invariants", "suite",
           "cli")

# per-entry work: called once per matrix entry or rendered coefficient
PER_ENTRY = {"scalars.render_laurent"}

# names whose individual durations are kept (for latency percentiles)
KEEP_DURATIONS = ("cli.cmd_eigenvalue", "cli.cmd_limit")

# one product in this many has its output density counted
MUL_SAMPLE = 16


class Tracer:
    """In-memory span recorder plus the few counters spans cannot carry."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._local = threading.local()
        self._next_id = itertools.count(1).__next__
        self.max_dim = 0
        self.mul_seen = 0
        self.mul_nonzero = 0
        self.mul_entries = 0
        self.reps = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, label=None, after=None):
        """``fn`` recording one span per call.  ``label(args)`` names the
        span from the call's arguments; ``after(result)`` runs once the
        span has closed."""
        nid = self.name_id(name)
        spans, local, next_id = self.spans, self._local, self._next_id
        clock = time.perf_counter
        name_id = self.name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next_id()
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent,
                              nid if label is None else name_id(label(args)),
                              t0, t1))
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def note_matrix(self, result):
        rows = getattr(result, "rows", None)
        if rows is not None:
            self.max_dim = max(self.max_dim, rows, result.cols)

    def note_product(self, result):
        self.note_matrix(result)
        self.mul_seen += 1
        if self.mul_seen % MUL_SAMPLE == 1:
            self.mul_entries += len(result.e)
            self.mul_nonzero += sum(1 for x in result.e if x)

    def note_rep(self, rep):
        self.reps.append(rep)

    def write(self, summary_path, spans_path, **extra):
        """Write the summary (plus ``extra`` keys) and the raw spans."""
        summary = self.summary()
        summary.update(extra)
        with open(summary_path, "w") as fh:
            fh.write(json.dumps(summary))
        with open(spans_path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "spans": self.spans}))

    def summary(self):
        """Per-name calls, total and self seconds, plus the counters."""
        out = aggregate(self.spans, self.names)
        density = []
        for rep in self.reps:
            entries = rep.Lp.e + rep.Lm.e
            density.append(sum(1 for x in entries if x) / len(entries))
        return {
            "layers": out,
            "max_dim": self.max_dim,
            "mul_out_density": (self.mul_nonzero / self.mul_entries
                                if self.mul_entries else 0.0),
            "tensor_power_density": (sum(density) / len(density)
                                     if density else 0.0),
            "span_count": len(self.spans),
        }


def aggregate(spans, names):
    """``{name: {"calls", "total_s", "self_s"[, "durations_s"]}}``.

    Self time is a span's duration minus the durations of its child
    spans.  Children run on their parent's thread, one after another, so
    their durations never overlap inside the parent.
    """
    child = defaultdict(float)
    for sid, parent, nid, t0, t1 in spans:
        if parent:
            child[parent] += t1 - t0
    out = {}
    for sid, parent, nid, t0, t1 in spans:
        name = names[nid]
        d = t1 - t0
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            if name in KEEP_DURATIONS:
                agg["durations_s"] = []
        agg["calls"] += 1
        agg["total_s"] += d
        agg["self_s"] += d - child.get(sid, 0.0)
        if "durations_s" in agg:
            agg["durations_s"].append(d)
    return out


def install(tracer):
    """Wrap the traced functions and rebind every reference to them in
    the loaded ``qgelfand`` modules."""
    from qgelfand import scalars, tmatrix, suite

    wrapped = {}
    for short in MODULES:
        mod = importlib.import_module(f"qgelfand.{short}")
        for attr, obj in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in PER_ENTRY):
                group = GROUPS.get(name)
                after = tracer.note_matrix if group else None
                if name == "reps.tensor_power":
                    after = tracer.note_rep
                wrapped[obj] = tracer.wrap(obj, group or name, after=after)
    wrapped[suite._run_task] = tracer.wrap(
        suite._run_task, "suite.category",
        label=lambda args: f"suite.category.{args[0]}")

    methods = [(scalars.IntLaurent, "gcd", "scalars.laurent_gcd", None),
               (scalars.Poly, "gcd", "scalars.poly_gcd", None)]
    for key, group in GROUPS.items():
        cls_name, _, attr = key.partition(".")
        if cls_name == "TMatrix":
            after = (tracer.note_product if attr == "__mul__"
                     else tracer.note_matrix)
            methods.append((tmatrix.TMatrix, attr, group, after))
    for cls, attr, name, after in methods:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(
                tracer.wrap(raw.__func__, name, after=after)))
        else:
            setattr(cls, attr, tracer.wrap(raw, name, after=after))

    for modname, mod in list(sys.modules.items()):
        if modname != "qgelfand" and not modname.startswith("qgelfand."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def main(argv):
    """Trace ``qgelfand.cli.main`` on the arguments after ``--`` and
    write the summary and the spans to the two paths before it."""
    if len(argv) < 3 or argv[2] != "--":
        raise SystemExit("usage: tracer.py SUMMARY.json SPANS.json -- ARGS...")
    summary_path, spans_path, _, *cli_args = argv
    tracer = Tracer()
    install(tracer)
    from qgelfand import cli
    code = cli.main(cli_args)
    tracer.write(summary_path, spans_path, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
