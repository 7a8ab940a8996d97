"""The lazy package root, and what the closed-form queries load.

``import qgelfand`` loads no submodule, and the ``eigenvalue`` and
``limit`` commands load the closed forms of ``formulas`` without any
matrix or representation code.  Names that moved into ``formulas`` are
still the same objects in the modules that exported them before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgelfand
from qgelfand import formulas, invariants, reps, suite, tmatrix

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of the package root
PUBLIC = (
    "IntLaurent", "Scalar", "SCALARS", "UFIELD", "XFIELD", "USeries",
    "expand", "limit_q1", "qnum", "DivergentLimitError", "NoSeriesError",
    "TMatrix", "SingularMatrixError", "kron", "embed", "lift",
    "Verdict", "matrix_verdict", "RMatrixSet", "build_rmatrix_set",
    "Representation", "WeightError", "NotEigenvectorError", "vector_rep",
    "trivial_rep", "tensor_product", "tensor_power", "evaluated_L",
    "highest_weight_vector", "closed_form_eigenvalue",
    "closed_form_eigenvalues", "classical_eigenvalue",
    "classical_eigenvalues", "gelfand_invariant", "qdet_scalar",
    "z_scalar", "SuiteConfig", "ConfigError", "CHECK_NAMES", "run_suite",
)

QUERIES = """
import contextlib, io, sys
import qgelfand
print(" ".join(sorted(m for m in sys.modules if m.startswith("qgelfand"))))
from qgelfand import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [cli.main(["eigenvalue", "--n", "3", "--lambda", "2,1,0",
                       "--m-max", "2", "--eval-q", "3/2"]),
             cli.main(["limit", "--n", "3", "--lambda", "2,1,0"])]
print(codes, len(out.getvalue().splitlines()))
print(" ".join(sorted(m for m in sys.modules if m.startswith("qgelfand"))))
"""


def test_queries_load_only_the_closed_forms():
    # a fresh interpreter: this process has imported every module
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", QUERIES], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    root, answered, loaded = res.stdout.splitlines()
    assert root == "qgelfand"
    assert answered == "[0, 0] 7"
    loaded = set(loaded.split())
    assert not loaded & {f"qgelfand.{m}" for m in (
        "tmatrix", "reps", "rmatrix", "invariants", "suite")}
    assert loaded == {"qgelfand", "qgelfand.cli", "qgelfand.faults",
                      "qgelfand.formulas", "qgelfand.scalars",
                      "qgelfand.verdict"}


NO_DATACLASSES = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from qgelfand import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["eigenvalue", "--n", "2", "--lambda", "1,0"])
print("dataclasses" in sys.modules)
from qgelfand import suite
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["verify", "--n", "2", "--N-max", "1", "--checks", "ybe"])
print("dataclasses" in sys.modules)
"""


def test_no_verb_loads_dataclasses():
    # ``-S``: no site hook may import it first
    res = subprocess.run([sys.executable, "-S", "-c", NO_DATACLASSES,
                          str(SRC)], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False"]


def test_every_public_name_resolves_and_is_listed():
    assert sorted(qgelfand.__all__) == sorted(PUBLIC)
    listed = dir(qgelfand)
    homes = {"scalars", "tmatrix", "verdict", "rmatrix", "reps",
             "formulas", "invariants", "suite"}
    for name in PUBLIC:
        assert name in listed, name
        obj = getattr(qgelfand, name)
        assert any(getattr(sys.modules[f"qgelfand.{m}"], name, None) is obj
                   for m in homes), name
    star = {}
    exec("from qgelfand import *", star)
    assert set(PUBLIC) <= set(star)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qgelfand.no_such_name
    assert getattr(qgelfand, "shifted_weights", None) is None


def test_moved_names_keep_their_old_homes():
    assert reps.WeightError is formulas.WeightError
    assert suite.ConfigError is formulas.ConfigError
    assert suite.CHECK_NAMES is formulas.CHECK_NAMES
    assert qgelfand.ConfigError is formulas.ConfigError
    # ``bench/`` reads these three as ``invariants`` names
    assert invariants.closed_form_eigenvalue is formulas.closed_form_eigenvalue
    assert invariants.classical_limit_value is formulas.classical_limit_value
    assert invariants.embed is tmatrix.embed
