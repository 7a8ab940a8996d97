"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys

import pytest

from qgelfand import cli
from qgelfand.formulas import shifted_weights
from qgelfand.suite import CHECK_NAMES, SuiteConfig, ConfigError


def run_cli(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "qgelfand", *args],
                          capture_output=True, text=True, timeout=timeout)


SMALL = ("--n", "2", "--N-max", "1", "--m-max", "2", "--order", "2")


# ---------------------------------------------------------------------------
# eigenvalue / limit verbs
# ---------------------------------------------------------------------------

def test_eigenvalue_output():
    res = run_cli("eigenvalue", "--n", "2", "--lambda", "1,0", "--m-max", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "E_0(1,0) = q + q^-1"
    assert lines[1] == "E_1(1,0) = q^3 + q^-1"


def test_eigenvalue_single_degree_and_rational_point():
    res = run_cli("eigenvalue", "--n", "2", "--lambda", "1,0",
                  "--m", "1", "--eval-q", "2")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["E_1(1,0) = q^3 + q^-1   [q=2: 17/2]"]
    res = run_cli("eigenvalue", "--n", "2", "--lambda", "1,0",
                  "--m", "1", "--eval-q", "3/2")
    assert res.stdout.splitlines() == ["E_1(1,0) = q^3 + q^-1   [q=3/2: 97/24]"]


def test_eigenvalue_rejects_bad_weight():
    res = run_cli("eigenvalue", "--n", "2", "--lambda", "0,1", "--m", "1")
    assert res.returncode == 2
    assert "not dominant" in res.stderr
    res = run_cli("eigenvalue", "--n", "3", "--lambda", "1,0", "--m", "1")
    assert res.returncode == 2
    res = run_cli("eigenvalue", "--n", "2", "--lambda", "1,x", "--m", "1")
    assert res.returncode == 2


def test_eval_q_zero_rejected():
    res = run_cli("eigenvalue", "--n", "2", "--lambda", "1,0",
                  "--m", "1", "--eval-q", "0")
    assert res.returncode == 2


def test_limit_output():
    res = run_cli("limit", "--n", "3", "--lambda", "0,0,0", "--m-max", "2")
    assert res.returncode == 0
    assert res.stdout.splitlines() == ["m=0: 3", "m=1: 0", "m=2: 0"]
    res = run_cli("limit", "--n", "2", "--lambda", "1,0", "--m-max", "2")
    assert res.stdout.splitlines() == ["m=0: 2", "m=1: 1", "m=2: 2"]


def test_negative_arguments_use_the_equals_form():
    # "--lambda -1,-3" reads as an option; "--lambda=-1,-3" is a value
    res = run_cli("eigenvalue", "--n", "2", "--lambda=-1,-3", "--m-max", "2",
                  "--eval-q=-3/2")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "E_0(-1,-3) = q + q^-1   [q=-3/2: -13/6]",
        "E_1(-1,-3) = q^-1 + q^-7   [q=-3/2: -1586/2187]",
        "E_2(-1,-3) = q^-1 - q^-5 + q^-7 + q^-13   [q=-3/2: -954434/1594323]"]
    res = run_cli("limit", "--n", "2", "--lambda=-1,-3", "--m-max", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["m=0: 2", "m=1: -4", "m=2: 12",
                                       "m=3: -36"]


def test_eigen_queries_refuse_large_q_spans():
    # refused before anything is built, so each run exits at once
    for args, span in (
            (("eigenvalue", "--n", "2", "--lambda", "1,0",
              "--m", "1000000000"), "6000000012"),
            (("eigenvalue", "--n", "2", "--lambda", "1,0",
              "--m-max", "1000000000"), "6000000012"),
            (("limit", "--n", "3", "--lambda", "3000,0,0", "--m", "1"),
             "36036")):
        res = run_cli(*args, timeout=30)
        assert res.returncode == 2, args
        assert f"q-exponent span {span}" in res.stderr and not res.stdout


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    # main builds its parser on the first call and keeps it; one query's
    # flags and errors do not reach the next
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    query = ["eigenvalue", "--n", "2", "--lambda", "1,0", "--m", "1"]
    assert cli.main(query + ["--eval-q", "3/2"]) == 0
    assert capsys.readouterr().out == \
        "E_1(1,0) = q^3 + q^-1   [q=3/2: 97/24]\n"
    assert cli.main(query) == 0
    assert capsys.readouterr().out == "E_1(1,0) = q^3 + q^-1\n"
    assert cli.main(["eigenvalue", "--n", "2", "--lambda", "0,1"]) == 2
    with pytest.raises(SystemExit) as exit_:
        cli.main(["limit", "--n", "2", "--lambda", "1,x"])
    assert exit_.value.code == 2
    capsys.readouterr()
    assert cli.main(["limit", "--n", "2", "--lambda", "1,0",
                     "--m-max", "2"]) == 0
    assert capsys.readouterr().out == "m=0: 2\nm=1: 1\nm=2: 2\n"
    assert len(built) == 1


def test_import_builds_no_parser():
    res = subprocess.run(
        [sys.executable, "-c", "from qgelfand import cli; "
         "print(cli._parser is None)"],
        capture_output=True, text=True, timeout=60)
    assert res.stdout == "True\n", res.stderr


def dominant_weights(n, budget, cap=None):
    """Weakly decreasing integer weights with sum |lambda_i| <= budget."""
    if n == 0:
        yield ()
        return
    top = budget if cap is None else min(cap, budget)
    for x in range(top, -budget - 1, -1):
        for rest in dominant_weights(n - 1, budget - abs(x), x):
            yield (x,) + rest


def test_q_span_bounds_the_built_polynomials():
    # every numerator, the common denominator and q^0 fit in the span
    from qgelfand import formulas
    for n, lam in ((1, (0,)), (1, (-4,)), (2, (5, -5)), (3, (2, 2, -1)),
                   (4, (6, 1, -2, -5)), (6, (16, 0, 0, 0, 0, 0))):
        ell = shifted_weights(n, lam)
        lcd, nums = formulas._eigen_numerators(n, lam, range(7))
        for m, num in enumerate(nums):
            polys = [p for p in (num, lcd) if p]
            low = min(0, *(p.low for p in polys))
            high = max(0, *(p.degree for p in polys))
            assert high - low <= cli._q_span(n, ell, m), (n, lam, m)


def test_q_span_admits_every_small_query():
    # n <= 6, m <= 6, |lambda| <= 16: the tests' and the benchmark's range
    worst = max(cli._q_span(n, shifted_weights(n, lam), 6)
                for n in range(1, 7) for lam in dominant_weights(n, 16))
    assert worst == 1144 <= cli.MAX_Q_SPAN
    assert cli.main(["limit", "--n", "6", "--lambda", "16,0,0,0,0,0",
                     "--m-max", "6"]) == 0
    assert cli.main(["eigenvalue", "--n", "6", "--lambda", "16,0,0,0,0,0",
                     "--m", "6"]) == 0


# ---------------------------------------------------------------------------
# verify verb
# ---------------------------------------------------------------------------

def test_verify_small_passes():
    res = run_cli("verify", *SMALL)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "FAIL" not in res.stdout
    summary = res.stdout.strip().splitlines()[-1]
    assert "0 failed" in summary


def test_verify_json_round_trip(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("verify", *SMALL, "--format", "json", "--out", str(out))
    assert res.returncode == 0
    report = json.loads(out.read_text())
    assert set(report) == {"version", "config", "checks", "summary",
                           "runtime_ms"}
    rows = report["checks"]
    assert rows and all(set(r) >= {"name", "context", "verdict"} for r in rows)
    tally = sum(1 for r in rows if r["verdict"] == "pass")
    assert report["summary"]["pass"] == tally
    assert report["summary"]["fail"] == len(rows) - tally == 0
    # rows arrive sorted by (name, context)
    keys = [(r["name"], r["context"]) for r in rows]
    assert keys == sorted(keys)
    assert report["config"]["ns"] == [2]


def test_verify_check_selection():
    res = run_cli("verify", *SMALL, "--checks", "ybe,crossing",
                  "--format", "json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert {r["name"] for r in report["checks"]} == {"ybe", "crossing"}
    res = run_cli("verify", *SMALL, "--checks", "no-such-check")
    assert res.returncode == 2


def test_verify_deterministic_across_jobs():
    reports = []
    for jobs in ("1", "3"):
        res = run_cli("verify", *SMALL, "--jobs", jobs, "--format", "json")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        report.pop("runtime_ms")
        report["config"].pop("jobs")
        reports.append(report)
    assert reports[0] == reports[1]


def test_verify_report_is_the_same_under_optimize():
    # python -O strips assert statements; the package's checks raise
    # explicitly, so the rows and witnesses of a fault probe stay the same
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    reports = []
    for flags in ((), ("-O",)):
        res = subprocess.run(
            [sys.executable, *flags, "-m", "qgelfand", "verify", "--n", "2",
             "--N-max", "1", "--inject-fault", "rep", "--format", "json"],
            capture_output=True, text=True, timeout=120, env=env)
        assert res.returncode == 1, res.stderr
        report = json.loads(res.stdout)
        report.pop("runtime_ms")
        reports.append(report)
    assert reports[0]["summary"]["fail"] > 0
    assert reports[0] == reports[1]


SHAPE_MISMATCHES = """
from qgelfand import SCALARS, UFIELD, TMatrix, matrix_verdict
from qgelfand.invariants import quantum_minor
from qgelfand.reps import (Representation, tensor_power, tensor_product,
                           vector_rep)
from qgelfand.scalars import ONE
from qgelfand.tmatrix import embed, kron
a, b = TMatrix.identity(SCALARS, 2), TMatrix.identity(SCALARS, 3)
wide, four = TMatrix(SCALARS, 2, 3, [ONE] * 6), TMatrix.identity(SCALARS, 4)
v2 = vector_rep(2)
for op in (lambda: matrix_verdict(a, b), lambda: a + b, lambda: a - b,
           lambda: a * b, lambda: TMatrix(SCALARS, 2, 2, [ONE] * 3),
           lambda: TMatrix.from_rows(SCALARS, [[ONE, ONE], [ONE]]),
           lambda: wide.trace(), lambda: wide.det(),
           lambda: wide.solve(TMatrix.column(SCALARS, [ONE, ONE])),
           lambda: kron(a, TMatrix.identity(UFIELD, 2)),
           lambda: embed(a, (3,), (2, 2)), lambda: embed(a, (1,), (3, 2)),
           lambda: embed(four, (1, 1), (2, 2)),
           lambda: four.partial_trace(1, (2, 3)),
           lambda: four.partial_transpose(3, (2, 2)),
           lambda: Representation(2, 2, b, b, "bad"),
           lambda: tensor_product(v2, vector_rep(3)),
           lambda: tensor_power(v2, -1),
           lambda: quantum_minor(v2, "+", UFIELD.gen, (1, 2), (1,)),
           lambda: a * ONE):
    try:
        print(op())
    except Exception as exc:
        print(type(exc).__name__)
"""


def test_shape_mismatches_raise_under_optimize():
    # python -O strips assert statements: a check written as one lets
    # matrix_verdict pass two unequal matrices, lets +, -, * and the
    # constructors build truncated or padded matrices, lets trace, det,
    # solve and the site calculus read a wrong factorisation, and lets a
    # module be built from operators of the wrong size; each must raise
    # instead
    res = subprocess.run([sys.executable, "-O", "-c", SHAPE_MISMATCHES],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["ValueError"] * 19 + ["TypeError"]


def test_verify_fault_injection_fails():
    res = run_cli("verify", *SMALL, "--inject-fault", "rmatrix")
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_rep_fault_fails_derived_z_coefficient_rows():
    # the z coefficient rows m >= 1 come from tr_q M^m; a broken
    # generator image must still fail each of them with a witness
    res = run_cli("verify", "--n", "2", "--N-max", "2", "--checks",
                  "centrality", "--inject-fault", "rep", "--format", "json")
    assert res.returncode == 1
    rows = [r for r in json.loads(res.stdout)["checks"]
            if " z coefficient " in r["context"]
            and not r["context"].endswith(" 0")]
    assert len(rows) == 6
    for r in rows:
        assert r["verdict"] == "fail", r["context"]
        assert r["witness"].startswith(r["context"].split(" ", 2)[2]
                                       + " does not commute with ")


# witnesses of `verify --n 2 --N-max 1 --inject-fault rep`, taken from the
# code that stored every Q(q)(u) entry as a reduced fraction; the
# cross-multiplied comparison of numerators over a common denominator
# must name the same entry and render it the same way
REP_FAULT_WITNESSES = {
    ("comatrix", "n=2 N=1 sign=+ direct"):
        "comatrix identity sign=+ vector(2)^(x)1: entry (0,0): "
        "1 + (-q^3 - q^2 + q - q^-1)*u + q^3*u^2 != 1 + (-q^3 - 1)*u + q^3*u^2",
    ("comatrix", "n=2 N=1 sign=+ transposed"):
        "transposed comatrix sign=+ vector(2)^(x)1: entry (2,1): "
        "-q + 1 + q^-1 - q^-2 != 0",
    ("comatrix", "n=2 N=1 sign=- direct"):
        "comatrix identity sign=- vector(2)^(x)1: entry (0,0): "
        "(q^-2 + (-q - 1 + q^-1 - q^-3)*u + q*u^2)/(u^2) != "
        "(q^-2 + (-q - q^-2)*u + q*u^2)/(u^2)",
    ("comatrix", "n=2 N=1 sign=- transposed"):
        "transposed comatrix sign=- vector(2)^(x)1: entry (2,1): "
        "(-q^-1 + q^-2 + q^-3 - q^-4)/(u^2) != 0",
    ("liouville", "n=2 N=1 sign=+ operator"):
        "Liouville operator sign=+ vector(2)^(x)1: entry (0,0): "
        "(1 + (-q^5 - q^3 - 2*q^2 + q - q^-1)*u "
        "+ (q^8 + q^7 + 3*q^5 - q^3 + q^2 + q)*u^2 "
        "+ (-q^10 - q^8 - 2*q^7 + q^6 - q^4)*u^3 + q^10*u^4)"
        "/(1 + (-q^3 - q^2 + q - q^-1)*u + q^3*u^2) != "
        "1 + (-q^5 - q^2)*u + q^7*u^2",
    ("liouville", "n=2 N=1 sign=- operator"):
        "Liouville operator sign=- vector(2)^(x)1: entry (0,0): "
        "(q^-6 + (-q^-1 - q^-3 - 2*q^-4 + q^-5 - q^-7)*u "
        "+ (q^2 + q + 3*q^-1 - q^-3 + q^-4 + q^-5)*u^2 "
        "+ (-q^4 - q^2 - 2*q + 1 - q^-2)*u^3 + q^4*u^4)"
        "/(u^2 + (-q^3 - q^2 + q - q^-1)*u^3 + q^3*u^4) != "
        "(q^-6 + (-q^-1 - q^-4)*u + q*u^2)/(u^2)",
    ("z-identities", "n=2 N=1 opposite transposed product"):
        "z opposite sign=+: entry (0,0): "
        "(q^-1 + (-q^4 - q)*u + q^6*u^2)"
        "/(1 + (-q^3 - q^2 + q - q^-1)*u + q^3*u^2) != "
        "(q^-1 + (-q^4 - 2*q + 1 - q^-2)*u "
        "+ (q^6 + q^4 + q^3 - q^2 + 1)*u^2 - q^6*u^3)"
        "/(1 + (-q^3 - q^2 + q - 1 - q^-1)*u "
        "+ (2*q^3 + q^2 - q + q^-1)*u^2 - q^3*u^3)",
    ("z-identities", "n=2 N=1 qdet sign transport"): None,
    ("z-identities", "n=2 N=1 trace forms agree"):
        "z trace forms sign=+: entry (0,0): "
        "(1 + (-q^5 - 2*q^2 + q - q^-1)*u "
        "+ (q^7 + q^5 + q^4 - q^3 + q)*u^2 - q^7*u^3)"
        "/(1 + (-q^3 - q^2 + q - 1 - q^-1)*u "
        "+ (2*q^3 + q^2 - q + q^-1)*u^2 - q^3*u^3) != "
        "(1 + (-q^5 - q^4 + q^3 - q - 1)*u "
        "+ (q^7 + q^6 - q^4 + q^3 + q^2)*u^2 - q^7*u^3)"
        "/(1 + (-q^3 - q^2 + q - 1 - q^-1)*u "
        "+ (2*q^3 + q^2 - q + q^-1)*u^2 - q^3*u^3)",
    ("z-identities", "n=2 N=1 transposed product"):
        "z transposed sign=+: entry (0,0): "
        "(q + (-q^6 - q^3)*u + q^8*u^2)"
        "/(1 + (-q^3 - q^2 + q - q^-1)*u + q^3*u^2) != "
        "(q + (-q^6 - 2*q^3 + q^2 - 1)*u "
        "+ (q^8 + q^6 + q^5 - q^4 + q^2)*u^2 - q^8*u^3)"
        "/(1 + (-q^3 - q^2 + q - 1 - q^-1)*u "
        "+ (2*q^3 + q^2 - q + q^-1)*u^2 - q^3*u^3)",
    ("z-identities", "n=2 N=1 z sign transport"): None,
}


def test_rep_fault_witnesses_are_pinned():
    res = run_cli("verify", "--n", "2", "--N-max", "1", "--checks",
                  "comatrix,z-identities,liouville", "--inject-fault", "rep",
                  "--format", "json")
    assert res.returncode == 1
    got = {(r["name"], r["context"]): r.get("witness")
           for r in json.loads(res.stdout)["checks"]
           if r["name"] != "liouville" or r["context"].endswith(" operator")}
    assert got == REP_FAULT_WITNESSES


def test_version_and_usage():
    res = run_cli("--version")
    assert res.returncode == 0 and res.stdout.strip()
    res = run_cli()
    assert res.returncode == 2
    res = run_cli("verify", "--n", "0")
    assert res.returncode == 2


def test_verify_refuses_oversized_configuration():
    # the guard runs when the configuration is made, before anything is
    # built, so a refused run exits at once
    for ns, N_max in (((2, 3), 3), ((2, 3), 4), ((3,), 5), ((4,), 3)):
        SuiteConfig(ns=ns, N_max=N_max)
    with pytest.raises(ConfigError, match="6561"):
        SuiteConfig(ns=(2, 3), N_max=6)
    with pytest.raises(ConfigError, match=r"3\^1000000002"):
        SuiteConfig(ns=(3,), N_max=10 ** 9)
    res = run_cli("verify", "--n", "3", "--N-max", "6", timeout=30)
    assert res.returncode == 2
    assert "6561" in res.stderr and not res.stdout


def test_verify_refuses_oversized_antisymmetrizer():
    # the antisymmetrizer category builds operators on (C^n)^(x)n, which
    # n^2*n^N-max = 216 does not count for n=6
    res = run_cli("verify", "--n", "6", "--N-max", "1", timeout=30)
    assert res.returncode == 2
    assert "46656" in res.stderr and not res.stdout
    with pytest.raises(ConfigError, match="46656"):
        SuiteConfig(ns=(2, 6), N_max=1)
    SuiteConfig(ns=(6,), N_max=1, exclude=("antisymmetrizer",))
    SuiteConfig(ns=(6,), N_max=1, include=("ybe", "crossing"))
    SuiteConfig(ns=(5,), N_max=1)  # 5^5 = 3125


def test_verify_refuses_a_repeated_size():
    # a repeated size would run every task twice and report duplicate
    # (name, context) rows
    with pytest.raises(ConfigError, match="matrix size 2 is repeated"):
        SuiteConfig(ns=(2, 3, 2))
    res = run_cli("verify", "--n", "2,2", "--N-max", "1", timeout=30)
    assert res.returncode == 2
    assert "repeated" in res.stderr and not res.stdout


def test_verify_refuses_an_unwritable_out_path(tmp_path):
    # the path is checked before the suite runs, and refused with exit 2
    # (exit 1 is kept for a failed verification), without a traceback
    for path in (tmp_path / "missing" / "r.txt", tmp_path):
        res = run_cli("verify", "--n", "2", "--N-max", "1", "--out",
                      str(path), timeout=30)
        assert res.returncode == 2 and not res.stdout
        assert res.stderr.startswith("error: cannot write the report to ")
        assert "Traceback" not in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_verify_refuses_a_selection_without_rows():
    # the operator categories cover n = 2, 3 only, so at n = 4 these two
    # would report "0 passed, 0 failed" and exit 0 having checked nothing
    res = run_cli("verify", "--n", "4", "--N-max", "1", "--checks",
                  "comatrix,liouville", timeout=30)
    assert res.returncode == 2 and not res.stdout
    assert "comatrix, liouville cover no context" in res.stderr
    assert "n=4" in res.stderr
    with pytest.raises(ConfigError, match="every category is excluded"):
        SuiteConfig(exclude=CHECK_NAMES)
    with pytest.raises(ConfigError, match="n=4,5 N-max 2: centrality"):
        SuiteConfig(ns=(4, 5), N_max=2, include=("centrality",))
    # one size or one category with a context is enough
    SuiteConfig(ns=(3, 4), N_max=1, include=("comatrix", "liouville"))
    SuiteConfig(ns=(4,), N_max=1, include=("comatrix", "shift-covariance"))
