"""Exact verification of quantum Gelfand invariants for U_q(gl_n).

The package constructs the R-matrix presentation of the quantised
enveloping algebra on concrete tensor-power representations, evaluates
the central elements built from quantum traces and quantum determinants,
and checks their eigenvalues on highest weight vectors against closed
q-analogues of the Perelomov-Popov formula -- all over exact
rational-function fields, with no numerical tolerances.

``import qgelfand`` loads no submodule.  Each public name below is
imported from its module on first use (PEP 562), so a process that
only asks for the closed forms never compiles the matrix code.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "scalars": ("IntLaurent", "Scalar", "SCALARS", "UFIELD", "XFIELD",
                "USeries", "expand", "limit_q1", "qnum",
                "DivergentLimitError", "NoSeriesError"),
    "tmatrix": ("TMatrix", "SingularMatrixError", "kron", "embed", "lift"),
    "verdict": ("Verdict", "matrix_verdict"),
    "rmatrix": ("RMatrixSet", "build_rmatrix_set"),
    "reps": ("Representation", "NotEigenvectorError", "vector_rep",
             "trivial_rep", "tensor_product", "tensor_power", "evaluated_L",
             "highest_weight_vector"),
    "formulas": ("WeightError", "ConfigError", "CHECK_NAMES",
                 "closed_form_eigenvalue", "closed_form_eigenvalues",
                 "classical_eigenvalue", "classical_eigenvalues"),
    "invariants": ("gelfand_invariant", "qdet_scalar", "z_scalar"),
    "suite": ("SuiteConfig", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})
