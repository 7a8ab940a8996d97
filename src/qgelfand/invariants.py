"""Quantum determinants, central series and Gelfand invariants.

Everything here acts on a concrete :class:`~qgelfand.reps.Representation`
through the evaluated L-operators.  The module computes quantum minors,
the quantum determinant and comatrix, the central series z(u), the
quantum Gelfand invariants tr_q M^m with M = L^-(L^+)^-1, and checks the
structural identities between them: the comatrix identities, centrality,
the Liouville formula z(u) = qdet(uq^2)/qdet(u), the eigenvalue formula
on highest weight vectors, its partial-fraction form, the q -> 1
classical limit and the alternate central families.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .scalars import (SCALARS, IntLaurent, Scalar, UFIELD, qnum, limit_q1,
                      expand, ONE, Q_MINUS_QINV)
from .tmatrix import TMatrix, embed, kron, lift
from .verdict import Verdict, matrix_verdict
from .reps import (WeightError, highest_weight_vector, scalar_on_vector,
                   lift_vector, evaluated_L, memo, _image_scalar)
from .rmatrix import build_rmatrix_set, perm_length


# ---------------------------------------------------------------------------
# eigenvalue formulas (no representation needed)
# ---------------------------------------------------------------------------

def shifted_weights(n, lam):
    """l_i = lambda_i + n - i; strictly decreasing iff lambda is dominant."""
    lam = tuple(lam)
    if len(lam) != n:
        raise WeightError(f"weight length {len(lam)} != n = {n}")
    return tuple(lam[i] + n - 1 - i for i in range(n))


def require_dominant(n, lam):
    """Shifted weights of a dominant lambda; raises WeightError naming a
    repeated shifted weight otherwise."""
    ell = shifted_weights(n, lam)
    for i in range(n):
        for j in range(i + 1, n):
            if ell[i] == ell[j]:
                raise WeightError(
                    f"weight {tuple(lam)} is not dominant: repeated shifted "
                    f"weight l_{i + 1} = l_{j + 1} = {ell[i]}")
    if any(ell[i] < ell[i + 1] for i in range(n - 1)):
        raise WeightError(f"weight {tuple(lam)} is not dominant "
                          "(entries must be weakly decreasing)")
    return ell


def _pp_weights(n, lam):
    """(l, [c_1..c_n]) with the Perelomov-Popov weights

        c_k = prod_{i != k} [l_i - l_k + 1]_q / [l_i - l_k]_q,

    each formed as one product of q-integers (Laurent polynomials) over
    another and normalised once.  c_k = 0 when l_k - l_i = 1 for some
    i > k."""
    ell = require_dominant(n, lam)
    weights = []
    for k in range(n):
        num = den = IntLaurent.from_int(1)
        for i in range(n):
            if i != k:
                num = num * qnum(ell[i] - ell[k] + 1).num
                den = den * qnum(ell[i] - ell[k]).num
        weights.append(Scalar(num, den))
    return ell, weights


def _eigen_numerators(n, lam, ms):
    """(L, [numerator of E_m for m in ms]): the weights c_k = N_k / L over
    their lcm L, and E_m = sum_k q^{2 l_k m} N_k / L."""
    ell, weights = _pp_weights(n, lam)
    lcd = IntLaurent.from_int(1)
    for c in weights:
        if not c.den.is_one():
            lcd = lcd * c.den.divexact(IntLaurent.gcd(lcd, c.den))
    parts = [(2 * l, c.num * lcd.divexact(c.den))
             for l, c in zip(ell, weights) if c]
    zero = IntLaurent.from_int(0)
    return lcd, [sum((part.shifted(step * m) for step, part in parts), zero)
                 for m in ms]


def closed_form_eigenvalues(n, lam, ms):
    """Eigenvalues of tr_q M^m on the highest weight module L_q(lambda),
    one per degree m in ``ms``:

        E_m = sum_k q^{2 l_k m} prod_{i != k} [l_i - l_k + 1]_q / [l_i - l_k]_q.

    The weights are formed once and put over one common denominator, so
    each E_m costs one normalisation."""
    lcd, nums = _eigen_numerators(n, lam, ms)
    return [Scalar(num, lcd) for num in nums]


def closed_form_eigenvalue(n, lam, m):
    """The single eigenvalue E_m of ``closed_form_eigenvalues``."""
    return closed_form_eigenvalues(n, lam, (m,))[0]


def classical_eigenvalue(n, lam, m):
    """Perelomov-Popov eigenvalue of tr E^m, directly over Q:

        sum_k l_k^m prod_{i != k} (l_i - l_k + 1) / (l_i - l_k).
    """
    ell = require_dominant(n, lam)
    acc = Fraction(0)
    for k in range(n):
        term = Fraction(ell[k]) ** m
        for i in range(n):
            if i != k:
                term *= Fraction(ell[i] - ell[k] + 1, ell[i] - ell[k])
        acc += term
    return acc


def classical_limit_values(n, lam, ms):
    """q -> 1 limits of (q - q^-1)^-m sum_r C(m,r) (-1)^(m-r) E_r, one per
    degree m in ``ms``; E_0..E_max(ms) come from one batch over their
    common denominator L, so each limit costs one normalisation."""
    ms = tuple(ms)
    top = max(ms, default=-1)
    lcd, nums = _eigen_numerators(n, lam, range(top + 1))
    dens = [lcd]   # L (q - q^-1)^m, one two-term product per degree
    for _ in range(top):
        dens.append(dens[-1] * Q_MINUS_QINV.num)
    out = []
    for m in ms:
        acc = sum((nums[r].scale(math.comb(m, r) * (-1) ** (m - r))
                   for r in range(m + 1)), IntLaurent.from_int(0))
        out.append(limit_q1(Scalar(acc, dens[m])))
    return out


def classical_limit_value(n, lam, m):
    """The single limit of ``classical_limit_values``."""
    return classical_limit_values(n, lam, (m,))[0]


def classical_limit_checks(n, lam, ms):
    """("m=<m>", verdict) per degree m in ``ms``: the q -> 1 limit of the
    closed form against the direct classical eigenvalue."""
    ms = tuple(ms)
    out = []
    for m, got in zip(ms, classical_limit_values(n, lam, ms)):
        expect = classical_eigenvalue(n, lam, m)
        out.append((f"m={m}",
                    Verdict(got == expect, lhs=str(got), rhs=str(expect),
                            witness=None if got == expect else
                            f"classical limit n={n} lambda={tuple(lam)} "
                            f"m={m}: {got} != {expect}")))
    return out


def classical_limit_check(n, lam, m):
    """The single verdict of ``classical_limit_checks``; API for tests."""
    return classical_limit_checks(n, lam, (m,))[0][1]


def qdet_scalar_closed_form(n, lam):
    """Highest-weight eigenvalue of qdet L+(u):
    q^{n(n-1)/2} prod_i (q^{-l_i} - q^{l_i} u)."""
    ell = require_dominant(n, lam)
    u = UFIELD.gen
    out = UFIELD.from_coeff(Scalar.q_power(n * (n - 1) // 2))
    for l in ell:
        out = out * (UFIELD.from_coeff(Scalar.q_power(-l))
                     - UFIELD.from_coeff(Scalar.q_power(l)) * u)
    return out


def series_factor(n):
    """q^{n-1} - q^{n+1}, the factor in front of the E_m in z+(u)."""
    return Scalar.q_power(n - 1) - Scalar.q_power(n + 1)


def partial_fraction_constants(n, lam):
    """(C, [a_1..a_n]) with z-eigenvalue = C + sum a_k / (1 - q^{2 l_k} u);
    a_k = (q^{n-1} - q^{n+1}) prod_{i != k} [l_i - l_k + 1]/[l_i - l_k]."""
    a = [series_factor(n) * c for c in _pp_weights(n, lam)[1]]
    c = ONE
    for ak in a:
        c = c - ak
    return c, a


def shift_covariance_formula_check(n, lam, m, s):
    """E_m(lambda + s(1,..,1)) = q^{2sm} E_m(lambda) on the formula side."""
    shifted = tuple(x + s for x in lam)
    got = closed_form_eigenvalue(n, shifted, m)
    expect = Scalar.q_power(2 * s * m) * closed_form_eigenvalue(n, lam, m)
    return Verdict(got == expect, lhs=got.render(), rhs=expect.render(),
                   witness=None if got == expect else
                   f"shift covariance n={n} lambda={tuple(lam)} m={m} s={s}")


# ---------------------------------------------------------------------------
# shared operator machinery (cached per representation)
# ---------------------------------------------------------------------------

def _neg_q_power(l):
    """(-q)^l as a Scalar."""
    s = Scalar.q_power(l)
    return s if l % 2 == 0 else -s


@memo
def _aux_diag(rep, field=SCALARS, inverse=False):
    """D (x) 1_W, or D^-1 (x) 1_W, over ``field``."""
    d = build_rmatrix_set(rep.n).D
    if inverse:
        d = TMatrix.diag(SCALARS, [d[i, i].inverse() for i in range(rep.n)])
    eye = TMatrix.identity(SCALARS, rep.d)
    if field is not SCALARS:
        d, eye = lift(d, field), lift(eye, field)
    return kron(d, eye)


@memo
def _op_lift(rep, sign, i, j, field):
    return lift(rep.op(sign, i, j), field)


@memo
def _l_inverse(rep, sign):
    """(L+)^-1 or (L-)^-1 over the coefficient field."""
    return (rep.Lp if sign == "+" else rep.Lm).inverse()


def _xblock(rep, sign, a, b, w):
    """pi of the evaluated entry: l+_ab - w l-_ab or l-_ab - w^-1 l+_ab."""
    field = w.field
    if sign == "+":
        return (_op_lift(rep, "+", a, b, field)
                - _op_lift(rep, "-", a, b, field).scaled(w))
    return (_op_lift(rep, "-", a, b, field)
            - _op_lift(rep, "+", a, b, field).scaled(w.inverse()))


def _minor_terms(k, u):
    """(permutation, (-q)^{-l}, shifts) for the k x k quantum minor at u:
    column t carries the parameter u q^{2(k-t)}."""
    field = u.field
    shifts = [u * field.from_coeff(Scalar.q_power(2 * (k - t)))
              for t in range(1, k + 1)]
    for perm in itertools.permutations(range(1, k + 1)):
        coeff = field.from_coeff(_neg_q_power(-perm_length(perm)))
        yield perm, coeff, shifts


def quantum_minor(rep, sign, u, rows, cols):
    """The quantum minor with the given row/column index lists, as an
    operator on W:

        sum_sigma (-q)^{-l(sigma)} X_{rows[sigma(1)] cols[1]}(u q^{2k-2})
                  ... X_{rows[sigma(k)] cols[k]}(u).
    """
    return minor_on_vector(rep, sign, u, rows, cols,
                           TMatrix.identity(u.field, rep.d))


def minor_on_vector(rep, sign, u, rows, cols, vec):
    """quantum_minor applied to ``vec`` (d x c), never forming the full
    operator when ``vec`` is a column: each term is a chain of products
    taken right to left."""
    k = len(rows)
    assert k == len(cols) and k >= 1
    acc = TMatrix.zeros(u.field, rep.d, vec.cols)
    for perm, coeff, shifts in _minor_terms(k, u):
        w = vec
        for t in range(k - 1, -1, -1):
            w = _xblock(rep, sign, rows[perm[t] - 1], cols[t], shifts[t]) * w
        acc = acc + w.scaled(coeff)
    return acc


@memo
def qdet_matrix(rep, sign):
    """qdet L(u) as an operator on W (u the generator of ``UFIELD``)."""
    idx = tuple(range(1, rep.n + 1))
    return quantum_minor(rep, sign, UFIELD.gen, idx, idx)


def _qdet_image(rep, sign, lam, u):
    """qdet L(u) applied to the lambda vector lifted into u's field."""
    vec = lift_vector(highest_weight_vector(rep, lam), u.field)
    idx = tuple(range(1, rep.n + 1))
    return minor_on_vector(rep, sign, u, idx, idx, vec), vec


@memo
def qdet_scalar(rep, sign, lam):
    """Highest-weight eigenvalue of qdet L(u) on the lambda vector;
    exactness of the eigen-relation is verified."""
    image, vec = _qdet_image(rep, sign, lam, UFIELD.gen)
    return _image_scalar(image, vec,
                         f"qdet on the {tuple(lam)} vector of {rep.label}")


def column_rule_check(rep, sign, rows, cols, tau):
    """Permuting minor columns by tau multiplies it by (-q)^{-l(tau)}.
    API for the tests; no suite row calls it."""
    u = UFIELD.gen
    permuted = tuple(cols[tau[t] - 1] for t in range(len(cols)))
    got = quantum_minor(rep, sign, u, rows, permuted)
    expect = quantum_minor(rep, sign, u, rows, cols).scaled(
        UFIELD.from_coeff(_neg_q_power(-perm_length(tau))))
    return matrix_verdict(got, expect,
                          label=f"column rule tau={tau} sign={sign} {rep.label}")


# ---------------------------------------------------------------------------
# comatrix
# ---------------------------------------------------------------------------

def comatrix(rep, sign, u):
    """The quantum comatrix on C^n (x) W: entry (i,j) is
    (-q)^{j-i} times the minor with row set {1..n}\\{j} and column set
    {1..n}\\{i}, all at parameter u."""
    n, d = rep.n, rep.d
    field = u.field
    big = TMatrix.zeros(field, n * d, n * d, shape=(n, d))
    full = tuple(range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rows = tuple(a for a in full if a != j)
            cols = tuple(b for b in full if b != i)
            if rows:
                blk = quantum_minor(rep, sign, u, rows, cols).scaled(
                    field.from_coeff(_neg_q_power(j - i)))
            else:
                blk = lift(TMatrix.identity(SCALARS, d), field)
            big = big + kron(TMatrix.unit(field, n, i, j), blk)
    return big


def comatrix_identity_check(rep, sign):
    """Comatrix identity  Lhat(uq^2) L(u) = qdet L(u) . 1."""
    field = UFIELD
    u = field.gen
    uq2 = u * field.from_coeff(Scalar.q_power(2))
    lhs = comatrix(rep, sign, uq2) * evaluated_L(rep, sign, u)
    rhs = kron(lift(TMatrix.identity(SCALARS, rep.n), field),
               qdet_matrix(rep, sign))
    return matrix_verdict(lhs, rhs,
                          label=f"comatrix identity sign={sign} {rep.label}")


def comatrix_transposed_check(rep, sign):
    """Transposed comatrix identity
    D Lhat(u)^t D^-1 L(uq^{2n-2})^t = qdet L(u) . 1
    (transposes on the C^n factor)."""
    field = UFIELD
    u = field.gen
    shift = u * field.from_coeff(Scalar.q_power(2 * rep.n - 2))
    lhs = (_aux_diag(rep, field)
           * comatrix(rep, sign, u).partial_transpose(1)
           * _aux_diag(rep, field, inverse=True)
           * evaluated_L(rep, sign, shift).partial_transpose(1))
    rhs = kron(lift(TMatrix.identity(SCALARS, rep.n), field),
               qdet_matrix(rep, sign))
    return matrix_verdict(lhs, rhs,
                          label=f"transposed comatrix sign={sign} {rep.label}")


# ---------------------------------------------------------------------------
# the central series z(u)
# ---------------------------------------------------------------------------

@memo
def _lu_eval(rep, sign):
    """(L(u), L(uq^{2n})) at the generator u."""
    u = UFIELD.gen
    shift = u * UFIELD.from_coeff(Scalar.q_power(2 * rep.n))
    return evaluated_L(rep, sign, u), evaluated_L(rep, sign, shift)


@memo
def _lu_inverse(rep, sign):
    """Full L(u)^-1 over the rational-function field, by Gauss-Jordan on
    the polynomial entries of L(u).  The result is stored as numerators
    over the lcm of its entry denominators, which stays small (u-degree
    3 at n=3, N=2, where the 87 entries have 3 distinct denominators,
    each dividing the next), so the products through it in ``z_matrix``
    and the z-identities are polynomial.  The elimination itself still
    normalises every fraction; the highest weight paths go through the
    comatrix instead of this inverse."""
    return _lu_eval(rep, sign)[0].inverse()


@memo
def z_matrix(rep, sign):
    """z(u) as an operator on W:
    (1/[n]_q) tr_1 ( D_1 L(uq^{2n}) L(u)^-1 )."""
    lu, lshift = _lu_eval(rep, sign)
    prod = _aux_diag(rep, UFIELD) * lshift * _lu_inverse(rep, sign)
    return prod.partial_trace(1).scaled(
        UFIELD.from_coeff(qnum(rep.n).inverse()))


@memo
def z_scalar(rep, sign, lam):
    """Highest-weight eigenvalue of z(u).  Inverting L(u) on the vector
    goes through the comatrix, L(u)^-1 = qdet^-1 Lhat(uq^2), so only
    chains of matrix-vector products and one scalar division occur; the
    eigen-relation is verified exactly."""
    field = UFIELD
    n, d = rep.n, rep.d
    lam = tuple(lam)
    vec = lift_vector(highest_weight_vector(rep, lam), field)
    u = field.gen
    uq2 = u * field.from_coeff(Scalar.q_power(2))
    ushift = u * field.from_coeff(Scalar.q_power(2 * n))
    qs = qdet_scalar(rep, sign, lam)
    dmat = build_rmatrix_set(n).D
    all_idx = tuple(range(1, n + 1))
    image = TMatrix.zeros(field, d, 1)
    for a in all_idx:
        da = field.from_coeff(dmat[a - 1, a - 1])
        rows = tuple(i for i in all_idx if i != a)
        for c in all_idx:
            cols = tuple(i for i in all_idx if i != c)
            w = minor_on_vector(rep, sign, uq2, rows, cols, vec)
            if not w:
                continue
            w = _xblock(rep, sign, a, c, ushift) * w
            image = image + w.scaled(da * field.from_coeff(_neg_q_power(a - c)))
    image = image.scaled((field.from_coeff(qnum(n)) * qs).inverse())
    return _image_scalar(image, vec,
                         f"z(u) on the {lam} vector of {rep.label}")


def z_identity_checks(rep, sign):
    """The defining identities of z(u), as (name, verdict) pairs:

      trace forms   (1/[n]) tr_1 D L(uq^2n) L(u)^-1
                    = (1/[n]) tr_1 D^-1 L(u)^-1 L(uq^2n)
      transposed    L(uq^2n)^t D (L(u)^-1)^t = D (x) z(u)
      opposite      (L(u)^-1)^t D^-1 L(uq^2n)^t = D^-1 (x) z(u)
    """
    field = UFIELD
    lu, lshift = _lu_eval(rep, sign)
    linv = _lu_inverse(rep, sign)
    z = z_matrix(rep, sign)
    inv_n = field.from_coeff(qnum(rep.n).inverse())
    out = []

    alt = (_aux_diag(rep, field, inverse=True) * linv
           * lshift).partial_trace(1).scaled(inv_n)
    out.append(("trace forms agree",
                matrix_verdict(z, alt, label=f"z trace forms sign={sign}")))

    dmat = build_rmatrix_set(rep.n).D
    lhs = (lshift.partial_transpose(1) * _aux_diag(rep, field)
           * linv.partial_transpose(1))
    rhs = kron(lift(dmat, field), z)
    out.append(("transposed product",
                matrix_verdict(lhs, rhs, label=f"z transposed sign={sign}")))

    dinv = TMatrix.diag(SCALARS, [dmat[i, i].inverse() for i in range(rep.n)])
    lhs = (linv.partial_transpose(1) * _aux_diag(rep, field, inverse=True)
           * lshift.partial_transpose(1))
    rhs = kron(lift(dinv, field), z)
    out.append(("opposite transposed product",
                matrix_verdict(lhs, rhs, label=f"z opposite sign={sign}")))
    return out


def transport_checks(rep):
    """Evaluated sign relations: L-(u) = -u^-1 L+(u) gives

        qdet L-(u) = (-1)^n u^-n q^{-n(n-1)} qdet L+(u),
        z-(u) = q^{-2n} z+(u).
    """
    field = UFIELD
    n = rep.n
    u = field.gen
    out = []
    # (-1)^n u^-n q^{-n(n-1)}
    factor = field.from_coeff(Scalar.q_power(-n * (n - 1)))
    if n % 2 == 1:
        factor = -factor
    factor = factor * u.inverse() ** n
    got = qdet_matrix(rep, "-")
    expect = qdet_matrix(rep, "+").scaled(factor)
    out.append(("qdet sign transport",
                matrix_verdict(got, expect, label=f"qdet transport {rep.label}")))
    got = z_matrix(rep, "-")
    expect = z_matrix(rep, "+").scaled(
        field.from_coeff(Scalar.q_power(-2 * n)))
    out.append(("z sign transport",
                matrix_verdict(got, expect, label=f"z transport {rep.label}")))
    return out


# ---------------------------------------------------------------------------
# Gelfand invariants and centrality
# ---------------------------------------------------------------------------

@memo
def _family_power(rep, which, m):
    """Powers of M = L- (L+)^-1 ("M"), (L+)^-1 L- ("pm"), (L-)^-1 L+
    ("mp") and L+ (L-)^-1 ("rev")."""
    if m == 0:
        return TMatrix.identity(SCALARS, rep.n * rep.d, shape=(rep.n, rep.d))
    if m == 1:
        if which == "M":
            return rep.Lm * _l_inverse(rep, "+")
        if which == "pm":
            return _l_inverse(rep, "+") * rep.Lm
        if which == "mp":
            return _l_inverse(rep, "-") * rep.Lp
        return rep.Lp * _l_inverse(rep, "-")
    return _family_power(rep, which, m - 1) * _family_power(rep, which, 1)


@memo
def gelfand_invariant(rep, m):
    """tr_q M^m = tr_1 (D_1 M^m) with M = L^- (L^+)^-1, on W."""
    return (_aux_diag(rep) * _family_power(rep, "M", m)).partial_trace(1)


def generator_images(rep):
    """All 2n^2 generator images [(label, matrix)], including the ones
    that are identically zero by triangularity."""
    out = []
    for sign in "+-":
        for i in range(1, rep.n + 1):
            for j in range(1, rep.n + 1):
                out.append((f"l{sign}_{i}{j}", rep.op(sign, i, j)))
    return out


def centrality_check(rep, mat, label):
    """mat commutes with every generator image."""
    for gen_label, g in generator_images(rep):
        if mat * g != g * mat:
            return Verdict(False,
                           witness=f"{label} does not commute with "
                                   f"{gen_label} on {rep.label}")
    return Verdict(True, lhs=f"[{label}, all generators]", rhs="0")


def z_coefficient_matrices(rep, sign, order):
    """u-expansion coefficients of z(u) by expanding the rational entries
    of the full z operator.  z(u) is formed from numerators over one
    common denominator, so its products cost polynomial arithmetic; the
    time goes to the inverse of L(u) (see ``_lu_inverse``) and to the
    reduction of each entry read here.  Used by the tests only; the
    series route below avoids the rational-function inverse."""
    z = z_matrix(rep, sign)
    d = rep.d
    series = [(i, j, expand(x, order)) for i, j, x in z.nonzero()]
    out = []
    for m in range(order + 1):
        cm = TMatrix.zeros(SCALARS, d, d)
        for i, j, s in series:
            cm.set(i, j, s.coeff(m))
        out.append(cm)
    return out


@memo
def z_series_coefficient(rep, m):
    """u^m coefficient of z+(u) on W by the K-power route: expanding
    (L+ - uL-)^-1 as a geometric series in K = (L+)^-1 L- gives
    L+ K^m (L+)^-1 - q^2n L- K^m-1 (L+)^-1.  The cross-check side of
    series_operator_check, also used by centrality row m = 0 and tests;
    the suite's other z coefficients are derived from tr_q M^m."""
    d1 = _aux_diag(rep)
    inv_n = qnum(rep.n).inverse()
    if m == 0:
        return d1.partial_trace(1).scaled(inv_n)
    lpinv = _l_inverse(rep, "+")
    term = rep.Lp * (_family_power(rep, "pm", m) * lpinv) \
        - (rep.Lm * (_family_power(rep, "pm", m - 1) * lpinv)).scaled(
            Scalar.q_power(2 * rep.n))
    return (d1 * term).partial_trace(1).scaled(inv_n)


# ---------------------------------------------------------------------------
# Liouville formula and the eigenvalue checks
# ---------------------------------------------------------------------------

def liouville_operator_check(rep, sign):
    """z(u) qdet L(u) = qdet L(uq^2) as operators on W."""
    field = UFIELD
    uq2 = field.gen * field.from_coeff(Scalar.q_power(2))
    idx = tuple(range(1, rep.n + 1))
    lhs = z_matrix(rep, sign) * qdet_matrix(rep, sign)
    rhs = quantum_minor(rep, sign, uq2, idx, idx)
    return matrix_verdict(lhs, rhs,
                          label=f"Liouville operator sign={sign} {rep.label}")


def liouville_scalar_check(rep, lam):
    """On the lambda highest weight vector: the z(u) eigenvalue equals
    the reduced ratio qdet(uq^2)/qdet(u), and the qdet eigenvalue equals
    its closed form q^{n(n-1)/2} prod (q^{-l_i} - q^{l_i} u)."""
    field = UFIELD
    n = rep.n
    zs = z_scalar(rep, "+", lam)
    qs = qdet_scalar(rep, "+", lam)
    uq2 = field.gen * field.from_coeff(Scalar.q_power(2))
    image, vec = _qdet_image(rep, "+", lam, uq2)
    qs_shift = _image_scalar(
        image, vec, f"qdet(uq^2) on the {tuple(lam)} vector of {rep.label}")
    out = []
    ratio = qs_shift / qs
    out.append(("z equals qdet ratio",
                Verdict(zs == ratio, lhs=field.render(zs),
                        rhs=field.render(ratio),
                        witness=None if zs == ratio else
                        f"Liouville scalar lambda={tuple(lam)} {rep.label}")))
    closed = qdet_scalar_closed_form(n, lam)
    out.append(("qdet closed form",
                Verdict(qs == closed, lhs=field.render(qs),
                        rhs=field.render(closed),
                        witness=None if qs == closed else
                        f"qdet closed form lambda={tuple(lam)} {rep.label}")))
    return out


def series_expansion_check(rep, lam, order):
    """u-expansion of the z(u) eigenvalue:
    1 + (q^{n-1} - q^{n+1}) sum_m E_m(lambda) u^m."""
    zs = z_scalar(rep, "+", lam)
    series = expand(zs, order)
    if series.coeff(0) != ONE:
        return Verdict(False,
                       witness=f"z series constant term is "
                               f"{series.coeff(0).render()}, not 1"
                               f" (lambda={tuple(lam)})")
    factor = series_factor(rep.n)
    eigenvalues = closed_form_eigenvalues(rep.n, lam, range(1, order + 1))
    for m, eigenvalue in enumerate(eigenvalues, 1):
        expect = factor * eigenvalue
        if series.coeff(m) != expect:
            return Verdict(False,
                           witness=f"z series u^{m} coefficient: "
                                   f"{series.coeff(m).render()} != "
                                   f"{expect.render()} (lambda={tuple(lam)})")
    return Verdict(True, lhs=f"z series to order {order}",
                   rhs="(q^{n-1}-q^{n+1}) E_m")


def series_operator_check(rep, order):
    """Operator-level expansion: the u^m coefficient of z+(u) equals
    (q^{n-1} - q^{n+1}) tr_q M^m for m >= 1 and the identity at m = 0.
    Left: the K-power route of ``z_series_coefficient``; right: the
    M-powers of ``gelfand_invariant``.  Independent products, so this is
    not a tautology; it is the one row comparing the two routes."""
    cs = [z_series_coefficient(rep, m) for m in range(order + 1)]
    if cs[0] != TMatrix.identity(SCALARS, rep.d):
        return Verdict(False, witness=f"constant z coefficient is not the "
                                      f"identity on {rep.label}")
    factor = series_factor(rep.n)
    for m in range(1, order + 1):
        expect = gelfand_invariant(rep, m).scaled(factor)
        v = matrix_verdict(cs[m], expect,
                           label=f"z coefficient {m} vs scaled tr_q M^{m} "
                                 f"on {rep.label}")
        if not v:
            return v
    return Verdict(True, lhs=f"z coefficients to order {order}",
                   rhs="(q^{n-1}-q^{n+1}) tr_q M^m")


def partial_fraction_check(rep, lam):
    """Reconstruct the z(u) eigenvalue from its partial fractions:
    C + sum_k a_k / (1 - q^{2 l_k} u), and C = q^{2n}."""
    field = UFIELD
    n = rep.n
    u = field.gen
    zs = z_scalar(rep, "+", lam)
    c, a = partial_fraction_constants(n, lam)
    ell = shifted_weights(n, lam)
    rhs = field.from_coeff(c)
    for k in range(n):
        den = field.one - field.from_coeff(Scalar.q_power(2 * ell[k])) * u
        rhs = rhs + field.from_coeff(a[k]) / den
    ok = zs == rhs
    if not ok:
        return Verdict(False, lhs=field.render(zs), rhs=field.render(rhs),
                       witness=f"partial fractions lambda={tuple(lam)} "
                               f"{rep.label}")
    if c != Scalar.q_power(2 * n):
        return Verdict(False,
                       witness=f"constant term {c.render()} != q^{2 * n} "
                               f"(lambda={tuple(lam)})")
    return Verdict(True, lhs=field.render(zs), rhs="C + sum a_k/(1-q^2l u)")


def eigenvalue_check(rep, lam, m):
    """Main identity: hwv scalar of tr_q M^m equals the closed form."""
    vec = highest_weight_vector(rep, lam)
    got = scalar_on_vector(gelfand_invariant(rep, m), vec)
    expect = closed_form_eigenvalue(rep.n, lam, m)
    return Verdict(got == expect, lhs=got.render(), rhs=expect.render(),
                   witness=None if got == expect else
                   f"tr_q M^{m} on lambda={tuple(lam)} of {rep.label}: "
                   f"{got.render()} != {expect.render()}")


def shift_covariance_rep_check(rep, lam, m, s):
    """Shifting the weight by s(1,..,1) multiplies the eigenvalue by
    q^{2sm}; the shifted side is the operator eigenvalue on ``rep``
    (which must contain the weight lambda + s(1,..,1)), the unshifted
    side the closed form."""
    shifted = tuple(x + s for x in lam)
    vec = highest_weight_vector(rep, shifted)
    got = scalar_on_vector(gelfand_invariant(rep, m), vec)
    expect = Scalar.q_power(2 * s * m) * closed_form_eigenvalue(rep.n, lam, m)
    return Verdict(got == expect, lhs=got.render(), rhs=expect.render(),
                   witness=None if got == expect else
                   f"shift covariance lambda={tuple(lam)}+{s} m={m} "
                   f"on {rep.label}")


# ---------------------------------------------------------------------------
# alternate central families
# ---------------------------------------------------------------------------

def alternate_family_checks(rep, m):
    """Operator identities among the central families:

      (a)  tr_1 D^-1 ((L+)^-1 L-)^m = tr_q M^m
      (b)  tr_1 D^-1 ((L-)^-1 L+)^m = tr_1 D (L+ (L-)^-1)^m
    """
    dinv = _aux_diag(rep, inverse=True)
    dmat = _aux_diag(rep)
    out = []
    got = (dinv * _family_power(rep, "pm", m)).partial_trace(1)
    out.append(("family (a)",
                matrix_verdict(got, gelfand_invariant(rep, m),
                               label=f"family (a) m={m} {rep.label}")))
    lhs = (dinv * _family_power(rep, "mp", m)).partial_trace(1)
    rhs = (dmat * _family_power(rep, "rev", m)).partial_trace(1)
    out.append(("family (b)",
                matrix_verdict(lhs, rhs,
                               label=f"family (b) m={m} {rep.label}")))
    return out


def alternate_eigenvalue_check(rep, lam, m):
    """(c): the hwv scalar of tr_1 D (L+ (L-)^-1)^m is the q -> q^-1
    image of the tr_q M^m eigenvalue."""
    op = (_aux_diag(rep) * _family_power(rep, "rev", m)).partial_trace(1)
    got = scalar_on_vector(op, highest_weight_vector(rep, lam))
    expect = closed_form_eigenvalue(rep.n, lam, m).subs_qinv()
    return Verdict(got == expect, lhs=got.render(), rhs=expect.render(),
                   witness=None if got == expect else
                   f"q->1/q family on lambda={tuple(lam)} m={m} {rep.label}")
