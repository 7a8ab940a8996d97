"""The named verification suite behind ``qgelfand verify``.

Sixteen check categories, laid out in one check table: each entry names
a category, the contexts it covers for a :class:`SuiteConfig` and the
check run on each.  A task is one check on one context; tasks run
serially and their rows are collected into an order-stable report (rows
sorted by check name, then context).  A check returning one Verdict
gives the row named by its context; one returning (name, Verdict) pairs
gives rows named "context name".  Every exception inside a task becomes
one failed row, named "context (raised)", with the exception text as
witness, so a crashing identity can never masquerade as a pass.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, asdict

from . import __version__, faults
from . import rmatrix, reps, invariants, formulas
from .formulas import CHECK_NAMES, ConfigError, _lam_str
from .verdict import Verdict, equal_verdict


# The largest operator a run may build, as a dimension: n^2 * n^N-max for
# the largest n (defining relations act on C^n (x) C^n (x) W), and n^n
# when the antisymmetrizer category runs (``_rank(n, n)`` acts on
# (C^n)^(x)n).  It admits n=3 with N-max 5 (2187), n=4 with N-max 3
# (1024) and n=5 with the antisymmetrizer (3125), and refuses n=3 with
# N-max 6 (6561) and n=6 with the antisymmetrizer (46656) before anything
# is built.
MAX_OPERATOR_DIM = 4096


def _check_dim(n, exp, formula):
    """Refuse an operator of dimension n^exp above ``MAX_OPERATOR_DIM``."""
    # n >= 2 gives n^exp >= 2^exp, so a long exponent is refused
    # without computing the power
    short = exp <= MAX_OPERATOR_DIM.bit_length()
    if n > 1 and (not short or n ** exp > MAX_OPERATOR_DIM):
        dim = f"{n}^{exp}" + (f" = {n ** exp}" if short else "")
        raise ConfigError(
            f"largest operator dimension {formula} = {dim} exceeds "
            f"the cap of {MAX_OPERATOR_DIM}")


@dataclass(frozen=True)
class SuiteConfig:
    """Bounds and selection for one suite run.

    ``ns`` are the matrix sizes to cover, ``N_max`` caps the tensor
    power, ``m_max`` the invariant degree and ``order`` the u-series
    order.  ``include``/``exclude`` select categories by name.
    ``jobs`` is validated and reported but changes nothing: the checks
    always run serially.  A selection that leaves no task to run is
    refused.
    """

    ns: tuple = (2, 3)
    N_max: int = 3
    m_max: int = 3
    order: int = 3
    include: tuple = CHECK_NAMES
    exclude: tuple = ()
    jobs: int = 1
    fault: str | None = None

    def __post_init__(self):
        if not self.ns or any(n < 1 for n in self.ns):
            raise ConfigError(f"matrix sizes must be positive: {self.ns}")
        for n in self.ns:
            if self.ns.count(n) > 1:
                raise ConfigError(f"matrix size {n} is repeated in {self.ns}")
        if self.N_max < 1:
            raise ConfigError(f"N-max must be positive, got {self.N_max}")
        if self.m_max < 1:
            raise ConfigError(f"m-max must be positive, got {self.m_max}")
        if self.order < 0:
            raise ConfigError(f"order must be nonnegative, got {self.order}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be positive, got {self.jobs}")
        for name in tuple(self.include) + tuple(self.exclude):
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown check name: {name!r}")
        n = max(self.ns)
        _check_dim(n, self.N_max + 2, "n^2*n^N-max")
        if "antisymmetrizer" in self.selected():
            _check_dim(n, n, "n^n (antisymmetrizer)")
        if self.fault is not None and self.fault not in faults.KINDS:
            raise ConfigError(f"unknown fault kind: {self.fault!r}")
        # a run without tasks would report nothing and still exit 0
        if not _tasks(self, None):
            sel = self.selected()
            what = (f"{', '.join(sel)} cover no context" if sel
                    else "every category is excluded")
            raise ConfigError(
                f"no check to run at n={','.join(map(str, self.ns))} "
                f"N-max {self.N_max}: {what}")

    def selected(self):
        return tuple(c for c in CHECK_NAMES
                     if c in self.include and c not in self.exclude)


def dominant_partitions(total, parts):
    """All dominant weights with ``parts`` entries summing to ``total``."""
    out = []

    def rec(rem, k, cap, acc):
        if k == 0:
            if rem == 0:
                out.append(tuple(acc))
            return
        for v in range(min(rem, cap), -1, -1):
            if rem - v > v * (k - 1):
                break
            rec(rem - v, k - 1, v, acc + [v])

    rec(total, parts, total, [])
    return out


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------
# Each entry is (category, contexts, check), and ``contexts(config)``
# yields (context, key, args), one per task.  A task runs
# ``check(power(n, N), *args)`` when ``key`` is (n, N) and ``check(*args)``
# when it is None; ``power(n, N)`` is the N-th tensor power of the vector
# representation of gl_n, built once per run and shared by every task
# (its memo carries most of the suite's work).  A check returns one
# Verdict, the row named ``context``, or (name, Verdict) pairs, the rows
# named "context name".  The table is built per run, not at import, so
# it reads each check from its module when the run starts: a wrapper
# rebound on a module attribute (the benchmark's tracer, a test's
# monkeypatch) is the function the run calls.

def _crossing_rows(n):
    res = rmatrix.crossing_scalar(n)
    return [("proportional", res.proportional),
            ("predicted scalar", res.matches_predicted)]


def _fseries_rows(n, order):
    return [(f"residual order={order}",
             rmatrix.f_series_residual(rmatrix.f_series(n, order))),
            ("first coefficient", rmatrix.f1_closed_form_check(n))]


def _rank(n, k):
    a = rmatrix.antisymmetrizer(k, n)
    return equal_verdict(a.rank(), math.comb(n, k),
                         f"rank A^({k}) at n={n}", show_values=True)


def _vanishing(n):
    ok = not rmatrix.antisymmetrizer(n + 1, n)
    return Verdict(ok, lhs=f"A^({n + 1})", rhs="0",
                   witness=None if ok else
                   f"A^({n + 1}) does not vanish at n={n}")


def _comatrix_rows(rep, sign):
    return [("direct", invariants.comatrix_identity_check(rep, sign)),
            ("transposed", invariants.comatrix_transposed_check(rep, sign))]


def _z_rows(rep):
    """Both z-identity checks on one module, as one task: they share the
    context "n=<n> N=<N>", so a crash in either gives one "(raised)" row."""
    return (invariants.transport_checks(rep)
            + invariants.z_identity_checks(rep, "+"))


def _centrality_rows(rep, m_max, order):
    """Rows "tr_q M^m" for 1 <= m <= m_max and "z coefficient m" for
    0 <= m <= order.  For m >= 1 the z coefficient is c tr_q M^m with
    the nonzero constant c = ``series_factor(n)`` (series-expansion
    cross-checks that against the K-power route), and [c X, g] = c [X, g],
    so both rows have the same first noncommuting generator.  The z rows
    with m <= m_max are therefore derived from the tr_q rows on purpose,
    not recomputed; row m = 0 (the K-power route) and rows m > m_max
    run in full."""
    first = {m: invariants.noncommuting_generator(
                 rep, invariants.gelfand_invariant(rep, m))
             for m in range(1, m_max + 1)}
    rows = [(f"tr_q M^{m}",
             invariants.centrality_verdict(rep, f"tr_q M^{m}", gen))
            for m, gen in first.items()]
    factor = formulas.series_factor(rep.n)
    for m in range(order + 1):
        if m not in first:
            z = (invariants.gelfand_invariant(rep, m).scaled(factor)
                 if m else invariants.z_series_coefficient(rep, 0))
            first[m] = invariants.noncommuting_generator(rep, z)
        label = f"z coefficient {m}"
        rows.append((label,
                     invariants.centrality_verdict(rep, label, first[m])))
    return rows


def _eigenvalue_rows(rep, lam, m_max):
    return [(f"m={m}", invariants.eigenvalue_check(rep, lam, m))
            for m in range(m_max + 1)]


def _family_rows(rep, m_max):
    return [(f"m={m} {name}", v) for m in range(m_max + 1)
            for name, v in invariants.alternate_family_checks(rep, m)]


def _inverted_rows(rep, lam, m_max):
    return [(f"m={m} inverted q",
             invariants.alternate_eigenvalue_check(rep, lam, m))
            for m in range(1, m_max + 1)]


def _formula_rows(n, lams, m_max):
    return [(f"lambda={_lam_str(lam)} s={s} m={m} formula",
             formulas.shift_covariance_formula_check(n, lam, m, s))
            for lam in lams for s in (1, 2) for m in range(1, m_max + 1)]


def _shift_rows(rep, base, m_max):
    return [(f"m={m} operator",
             invariants.shift_covariance_rep_check(rep, base, m, 1))
            for m in range(1, m_max + 1)]


def _sizes(c):
    """One context per matrix size."""
    return ((f"n={n}", None, (n,)) for n in c.ns)


def _small(c):
    """The matrix sizes that the operator categories cover."""
    return [n for n in c.ns if n in (2, 3)]


def _powers(ns, top, *args):
    """Contexts on the N-th tensor power of each n in ``ns``, N <= top."""
    return ((f"n={n} N={N}", (n, N), args)
            for n in ns for N in range(1, top + 1))


def _weights(c, *args):
    """Contexts on each highest weight lambda of the N-th tensor power,
    n in ``_small``, N <= min(N_max, 3); lambda leads the args."""
    return ((f"n={n} lambda={_lam_str(lam)}", (n, N), (lam, *args))
            for n in _small(c) for N in range(1, min(c.N_max, 3) + 1)
            for lam in dominant_partitions(N, n))


def _check_table():
    """The (category, contexts, check) entries, in ``CHECK_NAMES`` order."""
    return (
        ("ybe", _sizes, rmatrix.check_yang_baxter),
        ("crossing", _sizes, _crossing_rows),
        ("f-series", lambda c: ((f"n={n}", None, (n, max(c.order, 2)))
                                for n in c.ns), _fseries_rows),
        ("antisymmetrizer", lambda c: (
            (f"n={n} rank k={k}", None, (n, k))
            for n in c.ns for k in range(1, n + 1)), _rank),
        ("antisymmetrizer", lambda c: (
            (f"n={n} interpolation", None, (n,)) for n in c.ns),
         rmatrix.antisymmetrizer_r0_check),
        ("antisymmetrizer", lambda c: (
            (f"n={n} vanishing k={n + 1}", None, (n,))
            for n in (2,) if n in c.ns), _vanishing),
        ("antisymmetrizer", lambda c: (
            (f"n={n} reduced words S_3", None, (3, n))
            for n in (min(c.ns),)), rmatrix.reduced_word_independence),
        ("antisymmetrizer", lambda c: (
            (f"n={n} action formula k=2", None, (2, n)) for n in _small(c)),
         rmatrix.pq_action_check),
        ("fusion", lambda c: (
            (f"n={n} k=2 sign={s}", (n, 1), (2, s))
            for n in _small(c) for s in "+-"), rmatrix.check_fusion),
        ("defining-relations", lambda c: (
            (f"n={n} N={N}", (n, N), ()) for n in c.ns
            for N in range(1, (c.N_max if n <= 3 else min(c.N_max, 2)) + 1)),
         reps.verify_defining_relations),
        ("comatrix", lambda c: (
            (f"{ctx} sign={s}", key, (s,))
            for ctx, key, _ in _powers(_small(c), min(c.N_max, 2))
            for s in "+-"), _comatrix_rows),
        ("z-identities", lambda c: _powers(_small(c), min(c.N_max, 2)),
         _z_rows),
        ("centrality", lambda c: _powers(_small(c), c.N_max, c.m_max, c.order),
         _centrality_rows),
        ("liouville", lambda c: (
            (f"n={n} N=1 sign={s} operator", (n, 1), (s,))
            for n in _small(c) for s in "+-"),
         invariants.liouville_operator_check),
        ("liouville", _weights, invariants.liouville_scalar_check),
        ("series-expansion", lambda c: (
            (f"{ctx} operator coefficients", key, args)
            for ctx, key, args in _powers(_small(c), c.N_max, c.order)),
         invariants.series_operator_check),
        ("series-expansion", lambda c: (
            (f"{ctx} order={c.order}", key, args)
            for ctx, key, args in _weights(c, c.order)),
         invariants.series_expansion_check),
        ("eigenvalue-match", lambda c: _weights(c, c.m_max), _eigenvalue_rows),
        ("partial-fractions", _weights, invariants.partial_fraction_check),
        ("classical-limit", lambda c: (
            (f"n={n} lambda={_lam_str(lam)}", None,
             (n, lam, range(1, c.m_max + 1)))
            for n in c.ns for N in range(min(c.N_max, 3) + 1)
            for lam in dominant_partitions(N, n)),
         formulas.classical_limit_checks),
        ("alternate-families", lambda c: _powers(
            _small(c), min(c.N_max, 3), c.m_max), _family_rows),
        ("alternate-families", lambda c: _weights(c, c.m_max), _inverted_rows),
        ("shift-covariance", lambda c: (
            (f"n={n}", None,
             (n, dominant_partitions(min(c.N_max, 2), n), c.m_max))
            for n in c.ns), _formula_rows),
        # rep-anchored rows: base weights whose unit shift is a highest
        # weight of the N-th tensor power, the vector one at N = 1
        ("shift-covariance", lambda c: (
            (f"n={n} lambda={_lam_str(base)} s=1", (n, N), (base, c.m_max))
            for n in _small(c)
            for N, base in ((1, (0,) + (-1,) * (n - 1)), (n, (0,) * n),
                            (n + 1, (1,) + (0,) * (n - 1)))
            if N <= c.N_max), _shift_rows),
    )


def _task_rows(power, check, context, key, args):
    """Run one task and name its rows by the table's rule.  A task that
    raises gives one failed row, "<context> (raised)", with the
    exception as witness."""
    try:
        out = check(*args) if key is None else check(power(*key), *args)
        if isinstance(out, Verdict):
            return [(context, out)]
        return [(f"{context} {name}", v) for name, v in out]
    except Exception as exc:      # any crash is a failed check, not a crash
        return [(f"{context} (raised)",
                 Verdict(False, witness=f"{type(exc).__name__}: {exc}"))]


def _tasks(config, power):
    """(category, fn) per task of the selected categories."""
    sel = config.selected()
    return [(category, functools.partial(_task_rows, power, check, *ctx))
            for category, contexts, check in _check_table() if category in sel
            for ctx in contexts(config)]


# ---------------------------------------------------------------------------
# execution and report assembly
# ---------------------------------------------------------------------------

def _run_task(category, fn):
    """The rows of one task, each tagged with its category."""
    return [(category, ctx, v) for ctx, v in fn()]


def run_suite(config):
    """Execute the configured checks; returns the report as a dict."""
    t0 = time.monotonic()
    with faults.inject(config.fault):
        power = functools.cache(
            lambda n, N: reps.tensor_power(reps.vector_rep(n), N))
        chunks = [_run_task(*t) for t in _tasks(config, power)]
    rows = sorted((r for chunk in chunks for r in chunk),
                  key=lambda r: (r[0], r[1]))
    checks = []
    npass = nfail = 0
    for category, ctx, v in rows:
        entry = {"name": category, "context": ctx,
                 "verdict": "pass" if v.ok else "fail",
                 "lhs": v.lhs, "rhs": v.rhs}
        if not v.ok:
            entry["witness"] = v.witness or "mismatch"
            nfail += 1
        else:
            npass += 1
        checks.append(entry)
    cfg = asdict(config)
    cfg["ns"] = list(config.ns)
    cfg["include"] = list(config.include)
    cfg["exclude"] = list(config.exclude)
    return {"version": __version__,
            "config": cfg,
            "checks": checks,
            "summary": {"pass": npass, "fail": nfail},
            "runtime_ms": int((time.monotonic() - t0) * 1000)}


def render_text(report):
    lines = []
    for c in report["checks"]:
        mark = "PASS" if c["verdict"] == "pass" else "FAIL"
        lines.append(f"{mark}  {c['name']}  [{c['context']}]")
        if c["verdict"] != "pass":
            lines.append(f"      witness: {c['witness']}")
    s = report["summary"]
    lines.append(f"{s['pass']} passed, {s['fail']} failed "
                 f"({report['runtime_ms']} ms)")
    return "\n".join(lines) + "\n"


def render_json(report):
    return json.dumps(report, indent=2, sort_keys=False) + "\n"
