"""Suite configuration and report assembly."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from qgelfand import faults, formulas, invariants, reps, suite, tmatrix
from qgelfand.scalars import ONE, FracField
from qgelfand.suite import (SuiteConfig, ConfigError, CHECK_NAMES,
                            dominant_partitions, render_json, run_suite)


def test_dominant_partitions():
    assert dominant_partitions(0, 2) == [(0, 0)]
    assert dominant_partitions(4, 2) == [(4, 0), (3, 1), (2, 2)]
    assert dominant_partitions(3, 3) == [(3, 0, 0), (2, 1, 0), (1, 1, 1)]
    # every result is dominant and sums correctly
    for lam in dominant_partitions(5, 3):
        assert sum(lam) == 5
        assert all(lam[i] >= lam[i + 1] for i in range(2))


def test_config_validation():
    SuiteConfig(ns=(2,), N_max=1)  # fine
    with pytest.raises(ConfigError):
        SuiteConfig(ns=())
    with pytest.raises(ConfigError):
        SuiteConfig(ns=(0,))
    with pytest.raises(ConfigError):
        SuiteConfig(N_max=0)
    with pytest.raises(ConfigError):
        SuiteConfig(order=-1)
    with pytest.raises(ConfigError):
        SuiteConfig(include=("no-such-check",))
    with pytest.raises(ConfigError):
        SuiteConfig(fault="bogus")
    with pytest.raises(ConfigError):
        SuiteConfig(jobs=0)


def test_config_selection():
    cfg = SuiteConfig(include=("ybe", "crossing", "f-series"),
                      exclude=("f-series",))
    assert cfg.selected() == ("ybe", "crossing")
    assert SuiteConfig().selected() == CHECK_NAMES


def test_run_suite_report_shape():
    cfg = SuiteConfig(ns=(2,), N_max=1, m_max=1, order=1,
                      include=("ybe", "f-series", "classical-limit"))
    report = run_suite(cfg)
    assert report["summary"]["fail"] == 0
    assert report["summary"]["pass"] == len(report["checks"])
    names = {r["name"] for r in report["checks"]}
    assert names == {"ybe", "f-series", "classical-limit"}
    keys = [(r["name"], r["context"]) for r in report["checks"]]
    assert keys == sorted(keys)
    # passing rows carry no witness
    assert all("witness" not in r for r in report["checks"])


def test_run_suite_fault_reports_witness():
    cfg = SuiteConfig(ns=(2,), N_max=1, m_max=1, order=1,
                      include=("f-series",), fault="qnum")
    report = run_suite(cfg)
    assert report["summary"]["fail"] > 0
    bad = [r for r in report["checks"] if r["verdict"] == "fail"]
    assert bad and all(r.get("witness") for r in bad)


# the categories criterion 10 expects a broken representation to fail
REP_CATEGORIES = {"defining-relations", "fusion", "comatrix", "z-identities",
                  "centrality", "liouville", "series-expansion",
                  "eigenvalue-match", "partial-fractions",
                  "alternate-families", "shift-covariance"}


def test_fault_probe_at_n2_N2_finishes():
    # verify --n 2 --N-max 2 --inject-fault rep: the faulty module's
    # Q(q)(u) fractions must not stall the gcd
    start = time.monotonic()
    report = run_suite(SuiteConfig(ns=(2,), N_max=2, fault="rep"))
    elapsed = time.monotonic() - start
    bad = [r for r in report["checks"] if r["verdict"] == "fail"]
    assert all(r.get("witness") for r in bad)
    assert {r["name"] for r in bad} >= REP_CATEGORIES
    assert elapsed < 60, elapsed


def test_fault_run_after_clean_run_fails_rep_categories():
    # representations and their memos are per run: a clean run first
    # must not leave values that hide the injected fault
    cfg = dict(ns=(2,), N_max=1, m_max=2, order=2)
    assert run_suite(SuiteConfig(**cfg))["summary"]["fail"] == 0
    report = run_suite(SuiteConfig(**cfg, fault="rep"))
    failing = {r["name"] for r in report["checks"] if r["verdict"] == "fail"}
    assert failing >= REP_CATEGORIES


def test_rmatrix_fault_between_clean_runs_keeps_the_sets_apart():
    # the R-matrix sets are shared across runs, one per (n, probe): the
    # probe must fail every n it runs at, and must leave nothing that a
    # later clean run reads
    cfg = dict(ns=(2, 3), N_max=1,
               include=("ybe", "crossing", "antisymmetrizer"))
    clean = run_suite(SuiteConfig(**cfg))
    assert clean["summary"]["fail"] == 0
    report = run_suite(SuiteConfig(**cfg, fault="rmatrix"))
    failing = {(r["name"], r["context"].split()[0])
               for r in report["checks"] if r["verdict"] == "fail"}
    assert failing == {(name, f"n={n}") for name in cfg["include"]
                       for n in cfg["ns"]}
    again = run_suite(SuiteConfig(**cfg))
    for r in (clean, again):
        r.pop("runtime_ms")
    assert again == clean


def test_centrality_rows_at_n2_3_N2():
    # the z coefficient rows m >= 1 read (q^{n-1} - q^{n+1}) tr_q M^m
    # and keep the names, order and verdicts of the K-power route
    report = run_suite(SuiteConfig(ns=(2, 3), N_max=2,
                                   include=("centrality",)))
    assert [(r["name"], r["context"]) for r in report["checks"]] == [
        ("centrality", context) for context in (
            "n=2 N=1 tr_q M^1", "n=2 N=1 tr_q M^2", "n=2 N=1 tr_q M^3",
            "n=2 N=1 z coefficient 0", "n=2 N=1 z coefficient 1",
            "n=2 N=1 z coefficient 2", "n=2 N=1 z coefficient 3",
            "n=2 N=2 tr_q M^1", "n=2 N=2 tr_q M^2", "n=2 N=2 tr_q M^3",
            "n=2 N=2 z coefficient 0", "n=2 N=2 z coefficient 1",
            "n=2 N=2 z coefficient 2", "n=2 N=2 z coefficient 3",
            "n=3 N=1 tr_q M^1", "n=3 N=1 tr_q M^2", "n=3 N=1 tr_q M^3",
            "n=3 N=1 z coefficient 0", "n=3 N=1 z coefficient 1",
            "n=3 N=1 z coefficient 2", "n=3 N=1 z coefficient 3",
            "n=3 N=2 tr_q M^1", "n=3 N=2 tr_q M^2", "n=3 N=2 tr_q M^3",
            "n=3 N=2 z coefficient 0", "n=3 N=2 z coefficient 1",
            "n=3 N=2 z coefficient 2", "n=3 N=2 z coefficient 3")]
    assert all(r["verdict"] == "pass" for r in report["checks"])


def test_derived_z_rows_match_the_full_check():
    # under the rep probe, each z coefficient row derived from tr_q M^m
    # has the verdict and witness of the full check on the scaled matrix
    report = run_suite(SuiteConfig(ns=(2,), N_max=2, include=("centrality",),
                                   fault="rep"))
    rows = {r["context"]: r for r in report["checks"]}
    with faults.inject("rep"):
        rep = reps.tensor_power(reps.vector_rep(2), 2)
        factor = formulas.series_factor(2)
        for m in range(1, 4):
            label = f"z coefficient {m}"
            full = invariants.centrality_check(
                rep, invariants.gelfand_invariant(rep, m).scaled(factor),
                label)
            row = rows[f"n=2 N=2 {label}"]
            assert not full
            assert row["verdict"] == "fail"
            assert row["witness"] == full.witness


def test_derived_z_rows_run_no_commute_test(monkeypatch):
    # at m-max 2 and order 4: tr_q M^1 and M^2, then z rows 0, 3 and 4;
    # z rows 1 and 2 reuse the tr_q answers
    tested = []
    full = invariants.noncommuting_generator
    monkeypatch.setattr(invariants, "noncommuting_generator",
                        lambda rep, mat: tested.append(mat) or full(rep, mat))
    report = run_suite(SuiteConfig(ns=(2,), N_max=1, m_max=2, order=4,
                                   include=("centrality",)))
    assert report["summary"] == {"pass": 7, "fail": 0}
    assert len(tested) == 5


def test_crashing_check_becomes_failed_rows(monkeypatch):
    # the table reads each check from its module when the run starts, so
    # a patched check is the one the run calls; every task it crashes
    # fails alone, in one row named by its context, with the exception as
    # witness, and the tasks it does not crash keep their rows
    real = invariants.transport_checks

    def boom(rep):
        if rep.n == 3:
            raise RuntimeError("boom")
        return real(rep)

    monkeypatch.setattr(invariants, "transport_checks", boom)
    report = run_suite(SuiteConfig(ns=(2, 3), N_max=2,
                                   include=("z-identities",)))
    raised = [r for r in report["checks"]
              if r["context"].endswith(" (raised)")]
    assert [r["context"] for r in raised] == [
        "n=3 N=1 (raised)", "n=3 N=2 (raised)"]
    assert all(r["name"] == "z-identities" and r["verdict"] == "fail"
               and r["witness"] == "RuntimeError: boom" for r in raised)
    rest = [r for r in report["checks"] if r not in raised]
    assert [r["context"] for r in rest] == [
        f"n=2 N={N} {name}" for N in (1, 2)
        for name in ("opposite transposed product", "qdet sign transport",
                     "trace forms agree", "transposed product",
                     "z sign transport")]
    assert all(r["verdict"] == "pass" for r in rest)


def test_z_identity_crashes_give_one_row_per_module(monkeypatch):
    # both z-identity checks name their rows "n=<n> N=<N> ..."; they run
    # as one task per module, so crashing both gives one row per module
    def boom(rep, *args):
        raise RuntimeError("boom")

    monkeypatch.setattr(invariants, "z_identity_checks", boom)
    monkeypatch.setattr(invariants, "transport_checks", boom)
    report = run_suite(SuiteConfig(ns=(2, 3), N_max=2,
                                   include=("z-identities",)))
    keys = [(r["name"], r["context"]) for r in report["checks"]]
    assert len(keys) == len(set(keys)) == 4
    assert all(context.endswith(" (raised)") for _, context in keys)


def test_no_category_repeats_a_task_context():
    # a context names the row a crashing task leaves, so within one
    # category no two tasks share one
    def power(n, N):
        raise AssertionError("building the task list builds no rep")

    keys = [(category, fn.args[2]) for category, fn in suite._tasks(
        SuiteConfig(ns=(2, 3, 4), N_max=3), power)]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("kind", faults.KINDS)
def test_report_keys_are_unique_under_faults(kind):
    # a crashing task names its row by its own context, so no two rows
    # of a report share (name, context), crashed or not
    report = run_suite(SuiteConfig(ns=(2,), N_max=2, fault=kind))
    keys = [(r["name"], r["context"]) for r in report["checks"]]
    assert len(keys) == len(set(keys))
    assert report["summary"]["fail"]


# failing scalar rows of `verify --n 2 --N-max 1 --m-max 1 --order 2
# --inject-fault qnum`, one per check that builds its verdict with
# `equal_verdict`, as (witness, lhs, rhs): the witness is the label
# alone or the label with both sides, and both sides render with str
QNUM_FAULT_SCALAR_ROWS = {
    ("alternate-families", "n=2 lambda=(1,0) m=1 inverted q"): (
        "q->1/q family on lambda=(1, 0) m=1 vector(2)^(x)1", "q + q^-3",
        "(q^5 + q^3 + q + 2*q^-1 + q^-3)/(q^4 + q^2 + 1)"),
    ("classical-limit", "n=2 lambda=(1,0) m=1"): (
        "classical limit n=2 lambda=(1, 0) m=1: 4/3 != 1", "4/3", "1"),
    ("eigenvalue-match", "n=2 lambda=(1,0) m=1"): (
        "tr_q M^1 on lambda=(1, 0) of vector(2)^(x)1: q^3 + q^-1 != "
        "(q^7 + 2*q^5 + q^3 + q + q^-1)/(q^4 + q^2 + 1)", "q^3 + q^-1",
        "(q^7 + 2*q^5 + q^3 + q + q^-1)/(q^4 + q^2 + 1)"),
    ("f-series", "n=2 first coefficient"): (
        "f_1 mismatch n=2: (q^3 - q)/(q^4 + q^2 + 1) != "
        "(q^4 - 1)/(q^4 + q^2 + 1)", "(q^3 - q)/(q^4 + q^2 + 1)",
        "(q^4 - 1)/(q^4 + q^2 + 1)"),
    ("liouville", "n=2 lambda=(1,0) z equals qdet ratio"): (
        "Liouville scalar lambda=(1, 0) vector(2)^(x)1",
        "((q^3 + q)/(q^4 + q^2 + 1) + ((-q^9 - q^7 - q^5 - q^3)/"
        "(q^4 + q^2 + 1))*u + ((q^11 + q^9)/(q^4 + q^2 + 1))*u^2)/"
        "(1 + (-q^4 - 1)*u + q^4*u^2)",
        "(1 + (-q^6 - q^2)*u + q^8*u^2)/(1 + (-q^4 - 1)*u + q^4*u^2)"),
    ("shift-covariance", "n=2 lambda=(0,-1) s=1 m=1 operator"): (
        "shift covariance lambda=(0, -1)+1 m=1 on vector(2)^(x)1",
        "q^3 + q^-1", "(q^7 + 2*q^5 + q^3 + q + q^-1)/(q^4 + q^2 + 1)"),
}


def test_scalar_rows_keep_their_witness_formats():
    report = run_suite(SuiteConfig(
        ns=(2,), N_max=1, m_max=1, order=2, fault="qnum",
        include=tuple({name for name, _ in QNUM_FAULT_SCALAR_ROWS})))
    rows = {(r["name"], r["context"]): r for r in report["checks"]}
    for key, (witness, lhs, rhs) in QNUM_FAULT_SCALAR_ROWS.items():
        row = rows[key]
        assert row["verdict"] == "fail", key
        assert (row["witness"], row["lhs"], row["rhs"]) == (witness, lhs, rhs)


def test_task_partition_at_default_config():
    # one task per context: the unit a crash fails, counted per category
    def power(n, N):
        raise AssertionError("building the task list builds no rep")

    counts = {}
    for category, _ in suite._tasks(SuiteConfig(), power):
        counts[category] = counts.get(category, 0) + 1
    assert counts == {
        "ybe": 2, "crossing": 2, "f-series": 2, "antisymmetrizer": 11,
        "fusion": 4, "defining-relations": 6, "comatrix": 8,
        "z-identities": 4, "centrality": 6, "liouville": 15,
        "series-expansion": 17, "eigenvalue-match": 11,
        "partial-fractions": 11, "classical-limit": 13,
        "alternate-families": 17, "shift-covariance": 7}
    assert ({category for category, _, _ in suite._check_table()}
            == set(CHECK_NAMES))


def test_no_elimination_over_a_function_field(monkeypatch):
    # every inverse over Q(q)(u) or Q(q)(x) goes through the pencil kernel:
    # the one elimination step never sees a function-field entry, in the
    # row or in the combination it carries
    fields = []
    real = tmatrix._insert

    def counting(basis, vec, carry):
        fields.extend(x.field for x in (*vec.values(), *carry.values()))
        return real(basis, vec, carry)

    monkeypatch.setattr(tmatrix, "_insert", counting)
    report = run_suite(SuiteConfig(ns=(2, 3), N_max=2))
    assert report["summary"]["fail"] == 0
    assert fields
    assert not [f for f in fields if isinstance(f, FracField)]


def test_wrong_annihilator_gives_failed_rows(monkeypatch):
    # an annihilator that does not annihilate K must raise, so every row
    # built on a pencil inverse fails with a witness
    real = tmatrix._annihilator

    def wrong(power, field):
        a = real(power, field)
        return a[:-1] + [a[-1] + ONE]

    monkeypatch.setattr(tmatrix, "_annihilator", wrong)
    report = run_suite(SuiteConfig(ns=(2,), N_max=2,
                                   include=("crossing", "z-identities")))
    rows = report["checks"]
    assert {r["name"] for r in rows} == {"crossing", "z-identities"}
    for row in rows:
        assert row["verdict"] == "fail", row
        assert row["witness"].startswith("ArithmeticError: pencil inverse"), row


# the configurations of the benchmark's verify workloads, whose reference
# reports bench/reference/ keeps
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
BENCH_CONFIGS = {
    "verify-default": SuiteConfig(),
    "verify-large": SuiteConfig(ns=(2, 3), N_max=4,
                                include=("defining-relations", "centrality")),
}


@pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
def test_reports_match_the_benchmark_references(name):
    """Every row, keyed by (name, context), has the verdict and the
    renderings of the reference report, and no row is missing, extra or
    repeated."""
    with open(REFERENCE / f"{name}.json") as fh:
        reference = json.load(fh)
    report = run_suite(BENCH_CONFIGS[name])
    want = {(r[0], r[1]): tuple(r[2:]) for r in reference["rows"]}
    got = {(c["name"], c["context"]): (c["verdict"], c["lhs"], c["rhs"])
           for c in report["checks"]}
    assert len(got) == len(report["checks"]) == len(reference["rows"])
    assert got == want
    assert (report["summary"]["fail"] > 0) == (reference["exit_code"] != 0)


# sha256 of ``render_json`` of `verify --n 2,3 --N-max 2 --inject-fault K`
# with runtime_ms removed, recorded at commit 2246a14, where the quantum
# minors and the q-antisymmetrizer were still the sums over S_k that the
# tests keep as oracles.  Every witness of a probe run is pinned, not
# only its set of failing categories
PROBE_REPORT_DIGESTS = {
    "rep": "0441f26982a21b913df22952006cf09fa3417a95978dc374b6b59855e42aada0",
    "rmatrix":
        "c5c41565360449655feb2242b815c9efe59fee3b93d4a76535fe37488b99da57",
    "qnum": "c9b36338dbded147eed6310e0ee9af9a1c6900f6bdc8d8bb725bed239bc411bf",
}


@pytest.mark.parametrize("kind", faults.KINDS)
def test_probe_reports_match_their_recorded_digests(kind):
    report = run_suite(SuiteConfig(ns=(2, 3), N_max=2, fault=kind))
    del report["runtime_ms"]
    digest = hashlib.sha256(render_json(report).encode()).hexdigest()
    assert digest == PROBE_REPORT_DIGESTS[kind]


# ---------------------------------------------------------------------------
# operator checks beyond gl_2 and gl_3
# ---------------------------------------------------------------------------
# ``suite._small`` keeps the operator categories at n in {2, 3} in every
# report.  With it widened here alone, the same checks run on gl_4 and
# gl_5 modules, the largest function-field operands the code reaches.

def _every_n(monkeypatch):
    monkeypatch.setattr(suite, "_small", lambda c: list(c.ns))


@pytest.mark.parametrize("n, N_max, rows", [(4, 3, 194), (5, 2, 137)])
def test_operator_checks_pass_at_n4_and_n5(monkeypatch, n, N_max, rows):
    _every_n(monkeypatch)
    report = run_suite(SuiteConfig(ns=(n,), N_max=N_max))
    assert len(report["checks"]) == rows
    assert [r["context"] for r in report["checks"]
            if r["verdict"] != "pass"] == []


def _failing_categories(config):
    return {r["name"] for r in run_suite(config)["checks"]
            if r["verdict"] != "pass"}


@pytest.mark.parametrize("kind, count", [("rep", 11), ("rmatrix", 4),
                                         ("qnum", 9)])
def test_faults_fail_the_same_categories_at_n4(monkeypatch, kind, count):
    _every_n(monkeypatch)
    at_n4 = _failing_categories(SuiteConfig(ns=(4,), N_max=2, fault=kind))
    assert at_n4 == _failing_categories(
        SuiteConfig(ns=(2, 3), N_max=2, fault=kind))
    assert len(at_n4) == count
