"""Tests for the benchmark's own code: python3 -m pytest bench -q"""

import contextlib
import io
import itertools
import json
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import oracle  # noqa: E402
import tracer  # noqa: E402


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

WEIGHTS = [(0, 0), (1, 0), (3, 1), (2, 1, 0), (4, 4, 0), (2, 1, 1, 0),
           (5, 3, 2, 0, 0, 0)]


def test_fraction_oracle_matches_closed_form():
    from qgelfand.invariants import closed_form_eigenvalue
    for lam in WEIGHTS:
        for m in range(4):
            want = closed_form_eigenvalue(len(lam), lam, m).eval_at(oracle.Q0)
            assert oracle.eigenvalue_at(lam, m) == want, (lam, m)


def test_classical_oracle_matches_program():
    from qgelfand.invariants import classical_limit_value
    for lam in WEIGHTS:
        for m in range(4):
            assert oracle.classical_value(lam, m) == \
                classical_limit_value(len(lam), lam, m), (lam, m)


def _ask(argv):
    from qgelfand import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_check_answer_accepts_program_and_rejects_alterations():
    for query in next(oracle.query_blocks(7))[:12]:
        code, text = _ask(query)
        assert oracle.check_answer(query, code, text), query
        assert not oracle.check_answer(query, 1, text)
        lines = text.splitlines()
        assert not oracle.check_answer(query, code, "\n".join(lines[:-1]))
        head, _, value = lines[-1].rpartition(" ")
        if query[0] == "eigenvalue":
            wrong = f"{head} {Fraction(value[:-1]) + 1}]"
        else:
            wrong = f"{head} {Fraction(value) + 1}"
        assert not oracle.check_answer(query, code,
                                       "\n".join(lines[:-1] + [wrong]))


def _blocks(seed, count):
    return list(itertools.islice(oracle.query_blocks(seed), count))


def test_query_blocks_are_deterministic_per_seed():
    first = _blocks(5, 3)
    assert first == _blocks(5, 3)
    assert first != _blocks(6, 3)
    assert first[0] != first[1]
    for verb, lam, m_max in map(oracle.parse_query, sum(first, [])):
        assert 2 <= len(lam) <= 6 and 0 <= sum(lam) <= 16 and 1 <= m_max <= 6
        assert list(lam) == sorted(lam, reverse=True) and min(lam) >= 0


def test_query_blocks_share_their_cells():
    def cells(block):
        return Counter((verb, len(lam), m_max, sum(lam)) for verb, lam, m_max
                       in map(oracle.parse_query, block))
    design = Counter(oracle.block_cells())
    assert all(cells(block) == design for block in _blocks(9, 3) + _blocks(10, 1))
    per_cell = Counter(cell[:3] for cell in design)
    assert len(per_cell) == 2 * 5 * 6
    assert set(per_cell.values()) == {oracle.BLOCK // 60}
    sizes = Counter(cell[3] for cell in design.elements())
    assert sorted(sizes) == list(range(17))
    assert max(sizes.values()) - min(sizes.values()) <= 2


def test_dominant_weights():
    assert oracle.dominant_weights(3, 2) == ((3, 0), (2, 1))
    assert oracle.dominant_weights(0, 3) == ((0, 0, 0),)
    assert len(oracle.dominant_weights(6, 6)) == 11   # partitions of 6


# ---------------------------------------------------------------------------
# report comparison
# ---------------------------------------------------------------------------

REFERENCE = [["ybe", "n=2", "pass", "2x2 matrix", "2x2 matrix"],
             ["crossing", "n=2 proportional", "pass", "x", "x"],
             ["liouville", "n=2 lambda=(1,0)", "pass", "q", "q"]]


def test_identical_report_has_no_failures():
    assert oracle.compare_rows(REFERENCE, [tuple(r) for r in REFERENCE]) \
        == (3, 0)


def test_altered_reference_row_fails():
    report = [tuple(r) for r in REFERENCE]
    for field in (2, 3, 4):
        altered = [list(r) for r in REFERENCE]
        altered[1][field] = "fail" if field == 2 else "y"
        for reference, rows in ((altered, report), (REFERENCE, altered)):
            attempted, failed = oracle.compare_rows(reference, rows)
            assert (attempted, failed) == (3, 1)
            assert failed / attempted > 0


def test_missing_extra_and_repeated_rows_fail():
    assert oracle.compare_rows(REFERENCE, REFERENCE[:2]) == (3, 1)
    extra = REFERENCE + [["ybe", "n=3", "pass", "", ""]]
    assert oracle.compare_rows(REFERENCE, extra) == (4, 1)
    assert oracle.compare_rows(REFERENCE, REFERENCE + REFERENCE[:1]) == (4, 1)


def test_reference_reports_are_passing_and_unique():
    for path in (BENCH / "reference").glob("*.json"):
        ref = json.loads(path.read_text())
        keys = [tuple(r[:2]) for r in ref["rows"]]
        assert len(keys) == len(set(keys)), path
        assert ref["exit_code"] == 0
        assert all(r[2] == "pass" for r in ref["rows"])


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_on_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e is a
    # root span of another thread overlapping a
    names = ["a", "b", "c", "d", "e"]
    spans = [(2, 1, 1, 1.0, 4.0), (4, 3, 3, 6.0, 8.0), (3, 1, 2, 5.0, 9.0),
             (1, 0, 0, 0.0, 10.0), (5, 0, 4, 2.0, 7.0)]
    out = tracer.aggregate(spans, names)
    assert {k: v["self_s"] for k, v in out.items()} == \
        {"a": 3.0, "b": 3.0, "c": 2.0, "d": 2.0, "e": 5.0}
    assert out["c"]["total_s"] == 4.0 and out["a"]["calls"] == 1


def test_wrapped_calls_nest_per_thread():
    t = tracer.Tracer()
    inner = t.wrap(lambda: None, "inner")
    outer = t.wrap(lambda: inner(), "outer")
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait()
        outer()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    by_id = {sid: (parent, t.names[nid]) for sid, parent, nid, _, _ in t.spans}
    for sid, (parent, name) in by_id.items():
        if name == "inner":
            assert by_id[parent][1] == "outer"
        else:
            assert parent == 0
    out = tracer.aggregate(t.spans, t.names)
    assert out["outer"]["calls"] == out["inner"]["calls"] == 2


REBOUND = """
import tracer
t = tracer.Tracer()
tracer.install(t)
import qgelfand
from qgelfand import invariants, reps, rmatrix, tmatrix
assert hasattr(tmatrix.embed, "__wrapped__")
for mod in (qgelfand, reps, rmatrix, invariants):
    assert mod.embed is tmatrix.embed, mod
reps.tensor_product(reps.vector_rep(2), reps.vector_rep(2))
layers = t.summary()["layers"]
print(layers["tmatrix.tensor_ops"]["calls"], layers["tmatrix.mul"]["calls"])
"""


def _child_env():
    return {"PYTHONPATH": f"{BENCH}:{SRC}", "PATH": "/usr/bin:/bin"}


def test_install_rebinds_imported_names():
    # in a child, so the wrapped package never leaks into this process
    res = subprocess.run([sys.executable, "-c", REBOUND], env=_child_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    # tensor_product embeds L+ and L- of both factors through reps' own
    # name for embed, then multiplies the pairs
    assert res.stdout.split() == ["4", "2"]


def test_traced_verify_run(tmp_path):
    summary, spans = tmp_path / "summary.json", tmp_path / "spans.json"
    report = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(summary), str(spans),
         "--", "verify", "--n", "2", "--N-max", "2", "--m-max", "1",
         "--order", "1", "--checks", "defining-relations,fusion",
         "--format", "json", "--out", str(report)],
        check=True, timeout=300, env=_child_env())
    data = json.loads(summary.read_text())
    layers = data["layers"]
    assert data["exit_code"] == 0
    assert layers["suite.category.fusion"]["calls"] == 2
    assert layers["suite.category.defining-relations"]["calls"] == 2
    assert layers["cli.main"]["calls"] == 1
    assert layers["reps.tensor_power"]["calls"] > 0
    assert "scalars.render_laurent" not in layers
    assert 0 < data["mul_out_density"] <= 1
    raw = json.loads(spans.read_text())
    assert len(raw["spans"]) == sum(v["calls"] for v in layers.values())
