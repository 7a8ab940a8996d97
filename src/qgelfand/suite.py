"""The named verification suite behind ``qgelfand verify``.

Sixteen check categories, each expanded into concrete contexts from a
:class:`SuiteConfig`, run serially and collected into an order-stable
report (rows sorted by check name, then context).  Every
exception inside a check becomes a failed row with the exception text as
witness, so a crashing identity can never masquerade as a pass.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, asdict

from . import __version__, faults
from . import rmatrix, reps, invariants
from .verdict import Verdict

CHECK_NAMES = (
    "ybe",
    "crossing",
    "f-series",
    "antisymmetrizer",
    "fusion",
    "defining-relations",
    "comatrix",
    "z-identities",
    "centrality",
    "liouville",
    "series-expansion",
    "eigenvalue-match",
    "partial-fractions",
    "classical-limit",
    "alternate-families",
    "shift-covariance",
)


# The largest operator a run may build, as a dimension: n^2 * n^N-max for
# the largest n (defining relations act on C^n (x) C^n (x) W), and n^n
# when the antisymmetrizer category runs (``_wrap_rank(n, n)`` acts on
# (C^n)^(x)n).  It admits n=3 with N-max 5 (2187), n=4 with N-max 3
# (1024) and n=5 with the antisymmetrizer (3125), and refuses n=3 with
# N-max 6 (6561) and n=6 with the antisymmetrizer (46656) before anything
# is built.
MAX_OPERATOR_DIM = 4096


class ConfigError(ValueError):
    """Rejected suite configuration (unknown names, bad bounds, too large)."""


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
    always run serially.
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


def _lam_str(lam):
    return "(" + ",".join(str(x) for x in lam) + ")"


# ---------------------------------------------------------------------------
# category -> concrete tasks
# ---------------------------------------------------------------------------
# A task is (category, callable) with the callable returning a list of
# (context, Verdict) rows.  ``power(n, N)`` is the N-th tensor power of
# the vector representation of gl_n, built once per run and shared by
# every task (its memo carries most of the suite's work).

def _wrap_crossing(n):
    res = rmatrix.crossing_scalar(n)
    return [(f"n={n} proportional", res.proportional),
            (f"n={n} predicted scalar", res.matches_predicted)]


def _wrap_rank(n, k):
    a = rmatrix.antisymmetrizer(k, n)
    want = math.comb(n, k)
    got = a.rank()
    return [(f"n={n} rank k={k}",
             Verdict(got == want, lhs=str(got), rhs=str(want),
                     witness=None if got == want else
                     f"rank A^({k}) at n={n}: {got} != {want}"))]


def _wrap_vanishing(n):
    a = rmatrix.antisymmetrizer(n + 1, n)
    ok = not a
    return [(f"n={n} vanishing k={n + 1}",
             Verdict(ok, lhs=f"A^({n + 1})", rhs="0",
                     witness=None if ok else
                     f"A^({n + 1}) does not vanish at n={n}"))]


def _wrap_fseries(n, order):
    fs = rmatrix.f_series(n, order)
    return [(f"n={n} residual order={order}", rmatrix.f_series_residual(fs)),
            (f"n={n} first coefficient", rmatrix.f1_closed_form_check(n))]


def _lam_sets(config, n):
    """The highest weights exercised per tensor power, N <= min(N_max, 3)."""
    out = []
    for N in range(1, min(config.N_max, 3) + 1):
        for lam in dominant_partitions(N, n):
            out.append((N, lam))
    return out


def _tasks(config, power):
    tasks = []
    add = tasks.append
    sel = config.selected()
    ns = tuple(config.ns)
    small = tuple(n for n in ns if n in (2, 3))

    if "ybe" in sel:
        for n in ns:
            add(("ybe", lambda n=n: [(f"n={n}", rmatrix.check_yang_baxter(n))]))

    if "crossing" in sel:
        for n in ns:
            add(("crossing", lambda n=n: _wrap_crossing(n)))

    if "f-series" in sel:
        for n in ns:
            add(("f-series", lambda n=n: _wrap_fseries(n, max(config.order, 2))))

    if "antisymmetrizer" in sel:
        for n in ns:
            for k in range(1, n + 1):
                add(("antisymmetrizer", lambda n=n, k=k: _wrap_rank(n, k)))
            add(("antisymmetrizer",
                 lambda n=n: [(f"n={n} interpolation",
                               rmatrix.antisymmetrizer_r0_check(n))]))
        if 2 in ns:
            add(("antisymmetrizer", lambda: _wrap_vanishing(2)))
        nw = min(ns)
        add(("antisymmetrizer",
             lambda n=nw: [(f"n={n} reduced words S_3",
                            rmatrix.reduced_word_independence(3, n))]))
        for n in small:
            add(("antisymmetrizer",
                 lambda n=n: [(f"n={n} action formula k=2",
                               rmatrix.pq_action_check(2, n))]))

    if "fusion" in sel:
        for n in small:
            for sign in "+-":
                add(("fusion",
                     lambda n=n, sign=sign: [
                         (f"n={n} k=2 sign={sign}",
                          rmatrix.check_fusion(power(n, 1), 2, sign))]))

    if "defining-relations" in sel:
        for n in ns:
            cap = config.N_max if n <= 3 else min(config.N_max, 2)
            for N in range(1, cap + 1):
                add(("defining-relations",
                     lambda n=n, N=N: [
                         (f"n={n} N={N} {name}", v)
                         for name, v in reps.verify_defining_relations(
                             power(n, N))]))

    if "comatrix" in sel:
        for n in small:
            for N in range(1, min(config.N_max, 2) + 1):
                for sign in "+-":
                    add(("comatrix",
                         lambda n=n, N=N, sign=sign: [
                             (f"n={n} N={N} sign={sign} direct",
                              invariants.comatrix_identity_check(
                                  power(n, N), sign)),
                             (f"n={n} N={N} sign={sign} transposed",
                              invariants.comatrix_transposed_check(
                                  power(n, N), sign))]))

    if "z-identities" in sel:
        for n in small:
            for N in range(1, min(config.N_max, 2) + 1):
                add(("z-identities",
                     lambda n=n, N=N: [
                         (f"n={n} N={N} {name}", v)
                         for name, v in invariants.z_identity_checks(
                             power(n, N), "+")]))
                add(("z-identities",
                     lambda n=n, N=N: [
                         (f"n={n} N={N} {name}", v)
                         for name, v in invariants.transport_checks(
                             power(n, N))]))

    if "centrality" in sel:
        for n in small:
            for N in range(1, config.N_max + 1):
                def central(n=n, N=N):
                    rep = power(n, N)
                    rows = []
                    for m in range(1, config.m_max + 1):
                        rows.append((f"n={n} N={N} tr_q M^{m}",
                                     invariants.centrality_check(
                                         rep, invariants.gelfand_invariant(rep, m),
                                         f"tr_q M^{m}")))
                    # z coefficients m >= 1 are derived from tr_q M^m;
                    # series-expansion cross-checks the K-power route
                    factor = invariants.series_factor(n)
                    for m in range(config.order + 1):
                        z = (invariants.gelfand_invariant(rep, m).scaled(factor)
                             if m else invariants.z_series_coefficient(rep, 0))
                        rows.append((f"n={n} N={N} z coefficient {m}",
                                     invariants.centrality_check(
                                         rep, z, f"z coefficient {m}")))
                    return rows
                add(("centrality", central))

    if "liouville" in sel:
        for n in small:
            for sign in "+-":
                add(("liouville",
                     lambda n=n, sign=sign: [
                         (f"n={n} N=1 sign={sign} operator",
                          invariants.liouville_operator_check(
                              power(n, 1), sign))]))
            for N, lam in _lam_sets(config, n):
                add(("liouville",
                     lambda n=n, N=N, lam=lam: [
                         (f"n={n} lambda={_lam_str(lam)} {name}", v)
                         for name, v in invariants.liouville_scalar_check(
                             power(n, N), lam)]))

    if "series-expansion" in sel:
        for n in small:
            for N in range(1, config.N_max + 1):
                add(("series-expansion",
                     lambda n=n, N=N: [
                         (f"n={n} N={N} operator coefficients",
                          invariants.series_operator_check(
                              power(n, N), config.order))]))
            for N, lam in _lam_sets(config, n):
                add(("series-expansion",
                     lambda n=n, N=N, lam=lam: [
                         (f"n={n} lambda={_lam_str(lam)} order={config.order}",
                          invariants.series_expansion_check(
                              power(n, N), lam, config.order))]))

    if "eigenvalue-match" in sel:
        for n in small:
            for N, lam in _lam_sets(config, n):
                add(("eigenvalue-match",
                     lambda n=n, N=N, lam=lam: [
                         (f"n={n} lambda={_lam_str(lam)} m={m}",
                          invariants.eigenvalue_check(power(n, N), lam, m))
                         for m in range(config.m_max + 1)]))

    if "partial-fractions" in sel:
        for n in small:
            for N, lam in _lam_sets(config, n):
                add(("partial-fractions",
                     lambda n=n, N=N, lam=lam: [
                         (f"n={n} lambda={_lam_str(lam)}",
                          invariants.partial_fraction_check(
                              power(n, N), lam))]))

    if "classical-limit" in sel:
        ms = range(1, config.m_max + 1)
        for n in ns:
            for N in range(min(config.N_max, 3) + 1):
                for lam in dominant_partitions(N, n):
                    add(("classical-limit",
                         lambda n=n, lam=lam: [
                             (f"n={n} lambda={_lam_str(lam)} {name}", v)
                             for name, v in invariants.classical_limit_checks(
                                 n, lam, ms)]))

    if "alternate-families" in sel:
        for n in small:
            for N in range(1, min(config.N_max, 3) + 1):
                add(("alternate-families",
                     lambda n=n, N=N: [
                         (f"n={n} N={N} m={m} {name}", v)
                         for m in range(config.m_max + 1)
                         for name, v in invariants.alternate_family_checks(
                             power(n, N), m)]))
                add(("alternate-families",
                     lambda n=n, N=N: [
                         (f"n={n} lambda={_lam_str(lam)} m={m} inverted q",
                          invariants.alternate_eigenvalue_check(
                              power(n, N), lam, m))
                         for lam in dominant_partitions(N, n)
                         for m in range(1, config.m_max + 1)]))

    if "shift-covariance" in sel:
        for n in ns:
            add(("shift-covariance",
                 lambda n=n: [
                     (f"n={n} lambda={_lam_str(lam)} s={s} m={m} formula",
                      invariants.shift_covariance_formula_check(n, lam, m, s))
                     for lam in dominant_partitions(min(config.N_max, 2), n)
                     for s in (1, 2)
                     for m in range(1, config.m_max + 1)]))
        for n in small:
            # base weight whose unit shift is the vector representation's
            # highest weight -- rep-anchored rows at every N bound
            base = (0,) + (-1,) * (n - 1)
            add(("shift-covariance",
                 lambda n=n, base=base: [
                     (f"n={n} lambda={_lam_str(base)} s=1 m={m} operator",
                      invariants.shift_covariance_rep_check(
                          power(n, 1), base, m, 1))
                     for m in range(1, config.m_max + 1)]))
            base = (0,) * n
            if n <= config.N_max:
                add(("shift-covariance",
                     lambda n=n, base=base: [
                         (f"n={n} lambda={_lam_str(base)} s=1 m={m} operator",
                          invariants.shift_covariance_rep_check(
                              power(n, n), base, m, 1))
                         for m in range(1, config.m_max + 1)]))
            base = (1,) + (0,) * (n - 1)
            if n + 1 <= config.N_max:
                add(("shift-covariance",
                     lambda n=n, base=base: [
                         (f"n={n} lambda={_lam_str(base)} s=1 m={m} operator",
                          invariants.shift_covariance_rep_check(
                              power(n, n + 1), base, m, 1))
                         for m in range(1, config.m_max + 1)]))

    return tasks


# ---------------------------------------------------------------------------
# execution and report assembly
# ---------------------------------------------------------------------------

def _run_task(category, fn):
    try:
        rows = fn()
    except Exception as exc:      # any crash is a failed check, not a crash
        rows = [("(raised)", Verdict(False,
                                     witness=f"{type(exc).__name__}: {exc}"))]
    return [(category, ctx, v) for ctx, v in rows]


def run_suite(config):
    """Execute the configured checks; returns the report as a dict."""
    t0 = time.monotonic()
    previous = faults.current()
    faults.set_fault(config.fault)
    try:
        power = functools.cache(
            lambda n, N: reps.tensor_power(reps.vector_rep(n), N))
        chunks = [_run_task(*t) for t in _tasks(config, power)]
    finally:
        faults.set_fault(previous)
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
