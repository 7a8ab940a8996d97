"""Exact verification of quantum Gelfand invariants for U_q(gl_n).

The package constructs the R-matrix presentation of the quantised
enveloping algebra on concrete tensor-power representations, evaluates
the central elements built from quantum traces and quantum determinants,
and checks their eigenvalues on highest weight vectors against closed
q-analogues of the Perelomov-Popov formula -- all over exact
rational-function fields, with no numerical tolerances.
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    IntLaurent,
    Scalar,
    SCALARS,
    UFIELD,
    XFIELD,
    USeries,
    expand,
    limit_q1,
    qnum,
    DivergentLimitError,
    NoSeriesError,
)
from .tmatrix import TMatrix, SingularMatrixError, kron, embed, lift  # noqa: F401
from .verdict import Verdict, matrix_verdict  # noqa: F401
from .rmatrix import RMatrixSet, build_rmatrix_set  # noqa: F401
from .reps import (  # noqa: F401
    Representation,
    WeightError,
    NotEigenvectorError,
    vector_rep,
    trivial_rep,
    tensor_product,
    tensor_power,
    evaluated_L,
    highest_weight_vector,
)
from .invariants import (  # noqa: F401
    closed_form_eigenvalue,
    closed_form_eigenvalues,
    classical_eigenvalue,
    classical_eigenvalues,
    gelfand_invariant,
    qdet_scalar,
    z_scalar,
)
from .suite import SuiteConfig, ConfigError, CHECK_NAMES, run_suite  # noqa: F401
