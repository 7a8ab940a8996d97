"""Acceptance gate: one test per criterion, exact equality, timed budgets.

Every criterion prints a single PASS/FAIL line; a failing criterion lists
its first few witnesses.  All comparisons are exact identities in Q(q) or
its function-field extensions -- no tolerances anywhere.
"""

import itertools
import json
import math
import subprocess
import sys
import time

from qgelfand.scalars import Scalar, SCALARS, UFIELD, qnum, ONE
from qgelfand.tmatrix import TMatrix
from qgelfand.rmatrix import (build_rmatrix_set, check_yang_baxter,
                              crossing_scalar, f_series, f_series_residual,
                              antisymmetrizer, pq_action_check,
                              reduced_word_independence, check_fusion)
from qgelfand.reps import (vector_rep, tensor_power,
                           verify_defining_relations)
from qgelfand.suite import CHECK_NAMES, dominant_partitions
from qgelfand import formulas, invariants as inv


_REP_CACHE = {}


def rep_for(n, N):
    if (n, N) not in _REP_CACHE:
        _REP_CACHE[(n, N)] = tensor_power(vector_rep(n), N)
    return _REP_CACHE[(n, N)]


def lam_set(n):
    """The acceptance weight sweep: all dominant lambda with
    sum <= 5 (n=2), sum <= 4 (n=3), two spot weights at n=4."""
    if n == 2:
        sums = range(6)
    elif n == 3:
        sums = range(5)
    else:
        return [(1, 0, 0, 0), (1, 1, 0, 0)]
    out = []
    for s in sums:
        out.extend(dominant_partitions(s, n))
    return out


def conclude(num, label, t0, budget, failures):
    elapsed = time.monotonic() - t0
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:2d}] {status} {label} "
          f"({elapsed:.1f}s, budget {budget}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, \
        f"criterion {num} overran its budget: {elapsed:.1f}s >= {budget}s"


def run_cli(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "qgelfand", *args],
                          capture_output=True, text=True, timeout=timeout)


# ---------------------------------------------------------------------------

def test_criterion_01_defining_relations():
    t0 = time.monotonic()
    failures = []
    cases = [(n, 1) for n in (1, 2, 3, 4)]
    cases += [(2, N) for N in (2, 3, 4, 5)]
    cases += [(3, N) for N in (2, 3, 4)]
    cases += [(4, 2)]
    for n, N in cases:
        rep = rep_for(n, N)
        for name, verdict in verify_defining_relations(rep):
            if not verdict:
                failures.append((rep.label, name, verdict.witness))
    conclude(1, "defining relations on vector reps and tensor powers",
             t0, 60, failures)


def test_criterion_02_rmatrix_structure():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3):
        v = check_yang_baxter(n)
        if not v:
            failures.append(("ybe", n, v.witness))
    for n in (1, 2, 3, 4):
        res = crossing_scalar(n)
        if not res.proportional:
            failures.append(("crossing proportional", n,
                             res.proportional.witness))
        if not res.matches_predicted:
            failures.append(("crossing predicted", n,
                             res.matches_predicted.witness))
    for n in (2, 3):
        v = f_series_residual(f_series(n, 8))
        if not v:
            failures.append(("f-series", n, v.witness))
    conclude(2, "Yang-Baxter, crossing scalar, f-series residual",
             t0, 60, failures)


def test_criterion_03_antisymmetrizer_fusion():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 5):
        for k in range(1, n + 1):
            got = antisymmetrizer(k, n).rank()
            if got != math.comb(n, k):
                failures.append(("rank", (k, n), got))
    if antisymmetrizer(3, 2):
        failures.append(("vanishing", (3, 2), "A^(3) != 0 at n=2"))
    for k, n in ((3, 2), (3, 3), (4, 2)):
        v = reduced_word_independence(k, n)
        if not v:
            failures.append(("reduced words", (k, n), v.witness))
    for k in (2, 3):
        for n in (2, 3):
            v = pq_action_check(k, n)
            if not v:
                failures.append(("action formula", (k, n), v.witness))
    for n in (2, 3):
        for sign in "+-":
            v = check_fusion(vector_rep(n), 2, sign)
            if not v:
                failures.append(("fusion", (n, sign), v.witness))
    conclude(3, "antisymmetrizer ranks, word independence, action, fusion",
             t0, 120, failures)


def test_criterion_04_comatrix_identities():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3):
        for N in (1, 2):
            rep = rep_for(n, N)
            for sign in "+-":
                v = inv.comatrix_identity_check(rep, sign)
                if not v:
                    failures.append(("comatrix", (rep.label, sign), v.witness))
                v = inv.comatrix_transposed_check(rep, sign)
                if not v:
                    failures.append(("transposed comatrix", (rep.label, sign),
                                     v.witness))
    conclude(4, "comatrix operator identities, n=2,3, N<=2",
             t0, 120, failures)


def test_criterion_05_centrality():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3):
        for N in (1, 2, 3):
            rep = rep_for(n, N)
            for m in range(1, 5):
                v = inv.centrality_check(rep, inv.gelfand_invariant(rep, m),
                                         f"tr_q M^{m}")
                if not v:
                    failures.append((rep.label, m, v.witness))
            for m in range(5):
                v = inv.centrality_check(rep, inv.z_series_coefficient(rep, m),
                                         f"z coefficient {m}")
                if not v:
                    failures.append((rep.label, f"z^{m}", v.witness))
    conclude(5, "centrality of tr_q M^m and z coefficients, n=2,3, N<=3",
             t0, 300, failures)


def test_criterion_06_eigenvalue_formula():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        for lam in lam_set(n):
            rep = rep_for(n, sum(lam))
            for m in range(5):
                v = inv.eigenvalue_check(rep, lam, m)
                if not v:
                    failures.append((n, lam, m, v.witness))
    conclude(6, "tr_q M^m eigenvalue equals the closed form, full sweep",
             t0, 600, failures)


def test_criterion_07_liouville():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        for lam in lam_set(n):
            rep = rep_for(n, sum(lam))
            for name, v in inv.liouville_scalar_check(rep, lam):
                if not v:
                    failures.append((n, lam, name, v.witness))
            v = inv.series_expansion_check(rep, lam, 4)
            if not v:
                failures.append((n, lam, "series", v.witness))
            v = inv.partial_fraction_check(rep, lam)
            if not v:
                failures.append((n, lam, "partial fractions", v.witness))
    conclude(7, "Liouville ratio, qdet closed form, series, partial fractions",
             t0, 600, failures)


def test_criterion_08_classical_limit():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3, 4):
        for lam in lam_set(n):
            for m in range(5):
                v = formulas.classical_limit_check(n, lam, m)
                if not v:
                    failures.append((n, lam, m, v.witness))
    # independently derived spot values: trace and Casimir of gl_2 on (1,0)
    if formulas.classical_limit_value(2, (1, 0), 1) != 1:
        failures.append(("spot", "m=1", "expected 1"))
    if formulas.classical_limit_value(2, (1, 0), 2) != 2:
        failures.append(("spot", "m=2", "expected 2"))
    conclude(8, "classical limit matches Perelomov-Popov values",
             t0, 60, failures)


def test_criterion_09_alternate_families():
    t0 = time.monotonic()
    failures = []
    for n in (2, 3):
        for N in (1, 2, 3):
            rep = rep_for(n, N)
            for m in range(4):
                for name, v in inv.alternate_family_checks(rep, m):
                    if not v:
                        failures.append((rep.label, m, name, v.witness))
            for lam in dominant_partitions(N, n):
                for m in range(1, 4):
                    v = inv.alternate_eigenvalue_check(rep, lam, m)
                    if not v:
                        failures.append((rep.label, lam, m, v.witness))
    conclude(9, "alternate central families (a), (b), (c)",
             t0, 300, failures)


def test_criterion_10_soundness_probes(tmp_path):
    t0 = time.monotonic()
    failures = []
    # a single perturbation of R, of a generator image, or of a q-number
    # must make its dependent categories fail loudly (exit 1, witnesses)
    expected = {
        "rmatrix": {"ybe", "crossing", "antisymmetrizer"},
        "rep": {"defining-relations", "fusion", "comatrix", "z-identities",
                "centrality", "liouville", "series-expansion",
                "eigenvalue-match", "partial-fractions", "alternate-families",
                "shift-covariance"},
        "qnum": {"f-series", "classical-limit"},
    }
    union = set()
    for kind, minimum in expected.items():
        out = tmp_path / f"{kind}.json"
        res = run_cli("verify", "--n", "2", "--N-max", "1", "--m-max", "2",
                      "--order", "2", "--inject-fault", kind,
                      "--format", "json", "--out", str(out))
        if res.returncode != 1:
            failures.append((kind, "exit code", res.returncode))
            continue
        report = json.loads(out.read_text())
        failing = {r["name"] for r in report["checks"]
                   if r["verdict"] == "fail"}
        union |= failing
        missing = minimum - failing
        if missing:
            failures.append((kind, "categories silently passed", missing))
        for row in report["checks"]:
            if row["verdict"] == "fail" and not row.get("witness"):
                failures.append((kind, row["name"], "failure without witness"))
                break
    if union != set(CHECK_NAMES):
        failures.append(("union", "uncovered categories",
                         set(CHECK_NAMES) - union))
    conclude(10, "every category fails under its injected perturbation",
             t0, 60, failures)


def test_criterion_11_cli_contract():
    t0 = time.monotonic()
    failures = []
    small = ("--n", "2", "--N-max", "1", "--m-max", "2", "--order", "2")
    reports = []
    for jobs in ("1", "4"):
        res = run_cli("verify", *small, "--jobs", jobs, "--format", "json")
        if res.returncode != 0:
            failures.append(("exit 0", jobs, res.returncode))
            continue
        report = json.loads(res.stdout)
        # JSON round-trip is lossless
        if json.loads(json.dumps(report)) != report:
            failures.append(("round-trip", jobs, "unstable"))
        report.pop("runtime_ms")
        report["config"].pop("jobs")
        reports.append(report)
    if len(reports) == 2 and reports[0] != reports[1]:
        failures.append(("determinism", "--jobs", "reports differ"))
    res = run_cli("verify", *small, "--checks", "ybe",
                  "--inject-fault", "rmatrix")
    if res.returncode != 1:
        failures.append(("exit 1", "faulted ybe", res.returncode))
    res = run_cli("verify", "--n", "0")
    if res.returncode != 2:
        failures.append(("exit 2", "bad config", res.returncode))
    conclude(11, "CLI exit codes, determinism across --jobs, JSON round-trip",
             t0, 30, failures)
