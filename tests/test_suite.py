"""Suite configuration and report assembly."""

import time

import pytest

from qgelfand import invariants, suite
from qgelfand.suite import (SuiteConfig, ConfigError, CHECK_NAMES,
                            dominant_partitions, run_suite)


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


def test_crashing_check_becomes_failed_rows(monkeypatch):
    # the table reads each check from its module when the run starts, so
    # a patched check is the one the run calls; every task it serves
    # fails alone with the exception as witness
    def boom(rep):
        raise RuntimeError("boom")

    monkeypatch.setattr(invariants, "transport_checks", boom)
    report = run_suite(SuiteConfig(ns=(2, 3), N_max=2,
                                   include=("z-identities",)))
    raised = [r for r in report["checks"] if r["context"] == "(raised)"]
    assert len(raised) == 4
    assert all(r["name"] == "z-identities" and r["verdict"] == "fail"
               and r["witness"] == "RuntimeError: boom" for r in raised)
    rest = [r for r in report["checks"] if r["context"] != "(raised)"]
    assert rest and all(r["verdict"] == "pass" for r in rest)


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
        "z-identities": 8, "centrality": 6, "liouville": 15,
        "series-expansion": 17, "eigenvalue-match": 11,
        "partial-fractions": 11, "classical-limit": 13,
        "alternate-families": 12, "shift-covariance": 7}
    assert ({category for category, _, _ in suite._check_table()}
            == set(CHECK_NAMES))
