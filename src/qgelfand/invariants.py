"""Quantum determinants, central series and Gelfand invariants.

Everything here acts on a concrete :class:`~qgelfand.reps.Representation`
through the evaluated L-operators.  The module computes quantum minors,
the quantum determinant and comatrix, the central series z(u), the
quantum Gelfand invariants tr_q M^m with M = L^-(L^+)^-1, and checks the
structural identities between them: the comatrix identities, centrality,
the Liouville formula z(u) = qdet(uq^2)/qdet(u), the eigenvalue formula
on highest weight vectors, its partial-fraction form and the alternate
central families.  A quantum minor is expanded along its first column,
and every quantum trace tr_1 (D^{+-1} (x) 1_W) A B is ``_qtrace``, which
forms only the n diagonal blocks of A B: the top power M^(m-1) M of
tr_q M^m, the product in z(u) and its trace form, and both terms of a
z-series coefficient are traced, never formed.  (L+-)^-1 of a tensor
product is the reverse product of its factors' inverses, so no
elimination runs on a matrix larger than that of a module built
directly.

The closed forms these checks compare against need no representation
and live in :mod:`.formulas`, which the ``eigenvalue`` and ``limit``
commands load without this module.
"""

from __future__ import annotations

import functools

from .scalars import SCALARS, Scalar, UFIELD, qnum, expand, ONE
from .tmatrix import (TMatrix, embed, kron, lift, pencil_inverse,
                      traced_product)
from .verdict import Verdict, equal_verdict, matrix_verdict
# ``classical_limit_value`` is not called here; ``bench/`` reads it as a
# name of this module
from .formulas import (classical_limit_value,  # noqa: F401
                       closed_form_eigenvalue, closed_form_eigenvalues,
                       partial_fraction_constants, qdet_scalar_closed_form,
                       series_factor, shifted_weights)
from .reps import (highest_weight_vector, scalar_on_vector, evaluated_L, memo,
                   _image_scalar)
from .rmatrix import build_rmatrix_set, perm_length


# ---------------------------------------------------------------------------
# shared operator machinery (cached per representation)
# ---------------------------------------------------------------------------

def _neg_q_power(l):
    """(-q)^l as a Scalar."""
    s = Scalar.q_power(l)
    return s if l % 2 == 0 else -s


@memo
def _aux_diag(rep, field, inverse):
    """D (x) 1_W, or D^-1 (x) 1_W, over ``field``."""
    rset = build_rmatrix_set(rep.n)
    d = rset.Dinv if inverse else rset.D
    eye = TMatrix.identity(SCALARS, rep.d)
    if field is not SCALARS:
        d, eye = lift(d, field), lift(eye, field)
    return kron(d, eye)


def _qtrace(rep, a, b, inverse=False):
    """tr_1 (D (x) 1_W) a b, or tr_1 (D^-1 (x) 1_W) a b, on W: the product
    a b is only traced, so only its diagonal blocks are formed
    (``traced_product``).  A matrix formed anyway is ``b``, with the
    identity as ``a``."""
    return traced_product(_aux_diag(rep, a.field, inverse) * a, b,
                          (rep.n, rep.d))


@memo
def _l_inverse(rep, sign):
    """(L+)^-1 or (L-)^-1 over Q(q).  A tensor product W_a (x) W_b has
    L = (L_a)_12 (L_b)_13 by the coproduct, so its inverse is
    (L_b^-1)_13 (L_a^-1)_12, from the factors' memoised inverses, down
    to modules built directly, which ``inverse`` eliminates (n^2 x n^2
    for the vector module).  The product's record is loose, so it is
    taken as a whole-matrix ``block``, which measures one of its own,
    as in ``pencil_inverse``."""
    if rep.factors is None:
        return (rep.Lp if sign == "+" else rep.Lm).inverse()
    a, b = rep.factors
    dims = (rep.n, a.d, b.d)
    size = rep.n * rep.d
    return (embed(_l_inverse(b, sign), (1, 3), dims)
            * embed(_l_inverse(a, sign), (1, 2), dims)).block(0, 0, size, size)


def _xblock(rep, sign, a, b, w):
    """pi of the evaluated entry: l+_ab - w l-_ab or l-_ab - w^-1 l+_ab,
    the (a, b) block of the memoised L(w)."""
    d = rep.d
    return evaluated_L(rep, sign, w).block((a - 1) * d, (b - 1) * d, d, d)


def quantum_minor(rep, sign, u, rows, cols):
    """The quantum minor with the given row/column index lists, as an
    operator on W:

        sum_sigma (-q)^{-l(sigma)} X_{rows[sigma(1)] cols[1]}(u q^{2k-2})
                  ... X_{rows[sigma(k)] cols[k]}(u).
    """
    return minor_on_vector(rep, sign, u, rows, cols,
                           TMatrix.identity(u.field, rep.d))


def minor_on_vector(rep, sign, u, rows, cols, vec):
    """quantum_minor applied to ``vec`` (d x c), expanded along the first
    column: sum_p (-q)^{-p} X_{rows[p] cols[1]}(u q^{2k-2}) times the
    minor without rows[p] and cols[1] on ``vec``.  The sigma with
    sigma(1) = p + 1 have l(sigma) = p + l(sigma') and columns 2..k at
    the parameters of that (k-1)-minor, so this only regroups the sum
    over S_k.  No full operator is formed when ``vec`` is a column.  The
    empty minor (as the (n-1)-minors of gl_1) is 1: it returns ``vec``."""
    k = len(rows)
    if k != len(cols):
        raise ValueError(f"quantum minor on rows {tuple(rows)} and "
                         f"columns {tuple(cols)}")
    if not k:
        return vec
    w = u * u.field.from_coeff(Scalar.q_power(2 * k - 2))
    acc = None
    for p in range(k):
        term = _xblock(rep, sign, rows[p], cols[0], w) * minor_on_vector(
            rep, sign, u, rows[:p] + rows[p + 1:], cols[1:], vec)
        if p:
            term = term.scaled(u.field.from_coeff(_neg_q_power(-p)))
        acc = term if acc is None else acc + term
    return acc


@memo
def qdet_matrix(rep, sign):
    """qdet L(u) as an operator on W (u the generator of ``UFIELD``)."""
    idx = tuple(range(1, rep.n + 1))
    return quantum_minor(rep, sign, UFIELD.gen, idx, idx)


def _qdet_image(rep, sign, lam, u):
    """qdet L(u) applied to the lambda vector lifted into u's field."""
    vec = lift(highest_weight_vector(rep, lam), u.field)
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
    big = TMatrix.zeros(field, n * d, n * d)
    full = tuple(range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rows = tuple(a for a in full if a != j)
            cols = tuple(b for b in full if b != i)
            blk = quantum_minor(rep, sign, u, rows, cols).scaled(
                field.from_coeff(_neg_q_power(j - i)))
            big = big + kron(TMatrix.unit(field, n, i, j), blk)
    return big


def comatrix_identity_check(rep, sign):
    """Comatrix identity  Lhat(uq^2) L(u) = qdet L(u) . 1."""
    field = UFIELD
    u = field.gen
    uq2 = u * field.from_coeff(Scalar.q_power(2))
    lhs = comatrix(rep, sign, uq2) * evaluated_L(rep, sign, u)
    rhs = kron(TMatrix.identity(field, rep.n), qdet_matrix(rep, sign))
    return matrix_verdict(lhs, rhs,
                          label=f"comatrix identity sign={sign} {rep.label}")


def comatrix_transposed_check(rep, sign):
    """Transposed comatrix identity
    D Lhat(u)^t D^-1 L(uq^{2n-2})^t = qdet L(u) . 1
    (transposes on the C^n factor)."""
    field = UFIELD
    u = field.gen
    shift = u * field.from_coeff(Scalar.q_power(2 * rep.n - 2))
    dims = (rep.n, rep.d)
    lhs = (_aux_diag(rep, field, False)
           * comatrix(rep, sign, u).partial_transpose(1, dims)
           * _aux_diag(rep, field, True)
           * evaluated_L(rep, sign, shift).partial_transpose(1, dims))
    rhs = kron(TMatrix.identity(field, rep.n), qdet_matrix(rep, sign))
    return matrix_verdict(lhs, rhs,
                          label=f"transposed comatrix sign={sign} {rep.label}")


# ---------------------------------------------------------------------------
# the central series z(u)
# ---------------------------------------------------------------------------

def _l_shifted(rep, sign):
    """L(uq^{2n}) at the generator u: the memoised ``evaluated_L`` entry
    that the last factor of ``z_scalar`` also reads."""
    shift = UFIELD.gen * UFIELD.from_coeff(Scalar.q_power(2 * rep.n))
    return evaluated_L(rep, sign, shift)


@memo
def _lu_inverse(rep, sign):
    """L(u)^-1 over Q(q)(u), by ``pencil_inverse`` over Q(q): L+(u) =
    L+ - uL- is the pencil with K = (L+)^-1 L-, and L-(u) = L- - u^-1 L+
    the reversed one with K = (L-)^-1 L+, their powers the memoised
    ``_family_power``.  The result is numerators over one denominator
    in Z[q, q^-1][u] whose u-degree is that of the minimal polynomial of K
    (3 at n=3, N=2), so the products through it in ``z_matrix`` and the
    z-identities are polynomial.  The two signs
    are inverted on their own, not one from the other through
    L-(u) = -u^-1 L+(u), so the "z sign transport" row compares two
    computations."""
    which = "pm" if sign == "+" else "mp"
    return pencil_inverse(_l_inverse(rep, sign),
                          functools.partial(_family_power, rep, which),
                          UFIELD, reverse=sign == "-")


@memo
def z_matrix(rep, sign):
    """z(u) as an operator on W:
    (1/[n]_q) tr_1 ( D_1 L(uq^{2n}) L(u)^-1 )."""
    return _qtrace(rep, _l_shifted(rep, sign), _lu_inverse(rep, sign)).scaled(
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
    vec = lift(highest_weight_vector(rep, lam), field)
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
    lshift = _l_shifted(rep, sign)
    linv = _lu_inverse(rep, sign)
    z = z_matrix(rep, sign)
    inv_n = field.from_coeff(qnum(rep.n).inverse())
    dims = (rep.n, rep.d)
    out = []

    alt = _qtrace(rep, linv, lshift, True).scaled(inv_n)
    out.append(("trace forms agree",
                matrix_verdict(z, alt, label=f"z trace forms sign={sign}")))

    rset = build_rmatrix_set(rep.n)
    lhs = (lshift.partial_transpose(1, dims) * _aux_diag(rep, field, False)
           * linv.partial_transpose(1, dims))
    rhs = kron(lift(rset.D, field), z)
    out.append(("transposed product",
                matrix_verdict(lhs, rhs, label=f"z transposed sign={sign}")))

    lhs = (linv.partial_transpose(1, dims) * _aux_diag(rep, field, True)
           * lshift.partial_transpose(1, dims))
    rhs = kron(lift(rset.Dinv, field), z)
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
        return TMatrix.identity(SCALARS, rep.n * rep.d)
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
    """tr_q M^m = tr_1 (D_1 M^m) with M = L^- (L^+)^-1, on W, traced from
    M^(m-1) and M: M^m itself is neither formed nor memoised."""
    return _qtrace(rep, _family_power(rep, "M", max(m - 1, 0)),
                   _family_power(rep, "M", min(m, 1)))


def generator_images(rep):
    """All 2n^2 generator images [(label, matrix)], including the ones
    that are identically zero by triangularity.  The matrices are the
    memoised blocks of ``rep.op``, so every call shares them."""
    out = []
    for sign in "+-":
        for i in range(1, rep.n + 1):
            for j in range(1, rep.n + 1):
                out.append((f"l{sign}_{i}{j}", rep.op(sign, i, j)))
    return out


def noncommuting_generator(rep, mat):
    """The label of the first generator image, in ``generator_images``
    order, that ``mat`` does not commute with, or None.  Each test is
    ``TMatrix.commutes``: entrywise for the diagonal l+-_ii and the
    generators that vanish, by both products for the rest."""
    for gen_label, g in generator_images(rep):
        if not mat.commutes(g):
            return gen_label
    return None


def centrality_verdict(rep, label, gen_label):
    """The row of ``centrality_check`` for the first noncommuting
    generator ``gen_label`` (None when ``label`` commutes with all)."""
    if gen_label is not None:
        return Verdict(False, witness=f"{label} does not commute with "
                                      f"{gen_label} on {rep.label}")
    return Verdict(True, lhs=f"[{label}, all generators]", rhs="0")


def centrality_check(rep, mat, label):
    """mat commutes with every generator image; the witness names the
    first generator it does not commute with."""
    return centrality_verdict(rep, label, noncommuting_generator(rep, mat))


@memo
def z_series_coefficient(rep, m):
    """u^m coefficient of z+(u) on W by the K-power route: expanding
    (L+ - uL-)^-1 as a geometric series in K = (L+)^-1 L- gives
    L+ K^m (L+)^-1 - q^2n L- K^m-1 (L+)^-1.  The one K-power route in
    the package: it is the side ``series_operator_check`` cross-checks
    against the M-power route of ``gelfand_invariant``, and it also
    serves centrality row m = 0.  The suite's other z coefficients are
    derived from tr_q M^m."""
    inv_n = qnum(rep.n).inverse()
    one = _family_power(rep, "pm", 0)
    if m == 0:
        return _qtrace(rep, one, one).scaled(inv_n)
    lpinv = _l_inverse(rep, "+")
    upper = _qtrace(rep, rep.Lp, _family_power(rep, "pm", m) * lpinv)
    lower = _qtrace(rep, rep.Lm, _family_power(rep, "pm", m - 1) * lpinv)
    return (upper - lower.scaled(Scalar.q_power(2 * rep.n))).scaled(inv_n)


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
    out.append(("z equals qdet ratio", equal_verdict(
        zs, ratio, f"Liouville scalar lambda={tuple(lam)} {rep.label}")))
    closed = qdet_scalar_closed_form(n, lam)
    out.append(("qdet closed form", equal_verdict(
        qs, closed, f"qdet closed form lambda={tuple(lam)} {rep.label}")))
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
    Left, the cross-check: the K-power route of ``z_series_coefficient``,
    with K = (L+)^-1 L-.  Right: the M-powers of ``gelfand_invariant``,
    with M = L- (L+)^-1.  Independent products, so this is not a
    tautology; it is the one row comparing the two routes.  (Expanding
    the entries of ``z_matrix`` would not be a third route: its inverse
    is built from the same powers of K.)"""
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
        return Verdict(False, lhs=zs.render(), rhs=rhs.render(),
                       witness=f"partial fractions lambda={tuple(lam)} "
                               f"{rep.label}")
    if c != Scalar.q_power(2 * n):
        return Verdict(False,
                       witness=f"constant term {c.render()} != q^{2 * n} "
                               f"(lambda={tuple(lam)})")
    return Verdict(True, lhs=zs.render(), rhs="C + sum a_k/(1-q^2l u)")


def eigenvalue_check(rep, lam, m):
    """Main identity: hwv scalar of tr_q M^m equals the closed form."""
    vec = highest_weight_vector(rep, lam)
    got = scalar_on_vector(gelfand_invariant(rep, m), vec)
    expect = closed_form_eigenvalue(rep.n, lam, m)
    return equal_verdict(got, expect,
                         f"tr_q M^{m} on lambda={tuple(lam)} of {rep.label}",
                         show_values=True)


def shift_covariance_rep_check(rep, lam, m, s):
    """Shifting the weight by s(1,..,1) multiplies the eigenvalue by
    q^{2sm}; the shifted side is the operator eigenvalue on ``rep``
    (which must contain the weight lambda + s(1,..,1)), the unshifted
    side the closed form."""
    shifted = tuple(x + s for x in lam)
    vec = highest_weight_vector(rep, shifted)
    got = scalar_on_vector(gelfand_invariant(rep, m), vec)
    expect = Scalar.q_power(2 * s * m) * closed_form_eigenvalue(rep.n, lam, m)
    return equal_verdict(got, expect,
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
    out = []
    one = _family_power(rep, "pm", 0)
    got = _qtrace(rep, one, _family_power(rep, "pm", m), True)
    out.append(("family (a)",
                matrix_verdict(got, gelfand_invariant(rep, m),
                               label=f"family (a) m={m} {rep.label}")))
    lhs = _qtrace(rep, one, _family_power(rep, "mp", m), True)
    rhs = _qtrace(rep, one, _family_power(rep, "rev", m))
    out.append(("family (b)",
                matrix_verdict(lhs, rhs,
                               label=f"family (b) m={m} {rep.label}")))
    return out


def alternate_eigenvalue_check(rep, lam, m):
    """(c): the hwv scalar of tr_1 D (L+ (L-)^-1)^m is the q -> q^-1
    image of the tr_q M^m eigenvalue."""
    got = scalar_on_vector(_qtrace(rep, _family_power(rep, "rev", 0),
                                   _family_power(rep, "rev", m)),
                           highest_weight_vector(rep, lam))
    expect = closed_form_eigenvalue(rep.n, lam, m).subs_qinv()
    return equal_verdict(
        got, expect, f"q->1/q family on lambda={tuple(lam)} m={m} {rep.label}")
