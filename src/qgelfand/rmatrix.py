"""The type-A R-matrix family and its structural identities.

Constructs, over exact fields, the standard R-matrix on C^n ⊗ C^n, its
lower-triangular counterpart, the spectral combination R0(x) = R - xR~,
the permutation and q-permutation operators, the diagonal quantum-trace
twist D, and the q-antisymmetrizers.  The check functions verify the
Yang-Baxter equation over Q(q)(x) at y = x^3, crossing symmetry with its
predicted proportionality scalar, the normalising series f(x), the
q-permutation action combinatorics, and the fusion relation against
evaluated L-operators.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import faults
from .scalars import (SCALARS, Scalar, UFIELD, XFIELD, qnum,
                      Q, QINV, ONE, Q_MINUS_QINV)
from .tmatrix import TMatrix, embed, kron, lift, pencil_inverse
from .verdict import Verdict, equal_verdict, matrix_verdict


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RMatrixSet:
    """The constant operators on C^n (x) C^n plus the diagonal twist D."""

    n: int
    R: TMatrix        # upper solution: q on e_ii(x)e_ii, weights (q-q^-1)
    Rtilde: TMatrix   # lower counterpart with q^-1 and negated weights
    P: TMatrix        # flip
    Pq: TMatrix       # q-weighted flip generating the symmetric group action
    Q: TMatrix        # partial transpose of the flip: sum e_ij (x) e_ij
    D: TMatrix        # diag(q^{n-1}, q^{n-3}, ..., q^{-n+1})
    Dinv: TMatrix     # D^-1


def _two_site(n, entries):
    """n^2 x n^2 matrix from {((a,b),(c,d)): scalar} with 1-based indices."""
    flat = [SCALARS.zero] * n ** 4
    for ((a, b), (c, d)), x in entries.items():
        flat[((a - 1) * n + b - 1) * n * n + (c - 1) * n + d - 1] = x
    return TMatrix(SCALARS, n * n, n * n, flat)


def build_rmatrix_set(n):
    """All constant R-matrix-family operators for gl_n: one set per n
    and ``rmatrix`` probe setting, built once in a process and shared by
    every caller (the cache rule is in :mod:`.faults`)."""
    return _rmatrix_set(n, faults.active("rmatrix"))


@functools.cache
def _rmatrix_set(n, faulty):
    a = Q_MINUS_QINV
    r = {}
    rt = {}
    p = {}
    pq = {}
    qmat = {}
    for i in range(1, n + 1):
        r[((i, i), (i, i))] = Q
        rt[((i, i), (i, i))] = QINV
        pq[((i, i), (i, i))] = ONE
        for j in range(1, n + 1):
            if j != i:
                r[((i, j), (i, j))] = ONE
                rt[((i, j), (i, j))] = ONE
            p[((i, j), (j, i))] = ONE
            qmat[((i, i), (j, j))] = ONE
            if i < j:
                r[((i, j), (j, i))] = a
                pq[((i, j), (j, i))] = QINV
            elif i > j:
                rt[((i, j), (j, i))] = -a
                pq[((i, j), (j, i))] = Q
    if faulty:
        # test hook: scale the top diagonal entry of R by q
        r[((1, 1), (1, 1))] = Q * Q
    weights = [n - 2 * i + 1 for i in range(1, n + 1)]
    return RMatrixSet(n, _two_site(n, r), _two_site(n, rt), _two_site(n, p),
                      _two_site(n, pq), _two_site(n, qmat),
                      TMatrix.diag(SCALARS, [Scalar.q_power(w)
                                             for w in weights]),
                      TMatrix.diag(SCALARS, [Scalar.q_power(-w)
                                             for w in weights]))


def r0(n, x):
    """The spectral combination R - x*R~ over the field of ``x``."""
    rset = build_rmatrix_set(n)
    field = x.field
    return lift(rset.R, field) - lift(rset.Rtilde, field).scaled(x)


def predicted_crossing_scalar(n, x):
    """Proportionality scalar in the crossing identity for R0.

    (q - q^-1 x q^{2n})/(q - q^-1 x) * (1-x)(1-x q^{2n})
    / ((1-x q^2)(1-x q^{2n-2})).
    """
    field = x.field
    one = field.one

    def qp(k):
        return field.from_coeff(Scalar.q_power(k))

    num = (qp(1) - qp(2 * n - 1) * x) * (one - x) * (one - qp(2 * n) * x)
    den = (qp(1) - qp(-1) * x) * (one - qp(2) * x) * (one - qp(2 * n - 2) * x)
    return num / den


# ---------------------------------------------------------------------------
# Yang-Baxter and crossing checks
# ---------------------------------------------------------------------------

def check_yang_baxter(n):
    """R0_12(x) R0_13(xy) R0_23(y) = R0_23(y) R0_13(xy) R0_12(x) over
    Q(q)(x) at y = x^3.

    R0(t) is linear in t, so every entry of either side is a Q(q)-linear
    combination of x^i y^j with 0 <= i, j <= 2.  Substituting y = x^3
    sends these nine monomials to the distinct powers x^(i+3j), so the
    identity holds over Q(q)[x, y] exactly when it holds at y = x^3.
    Every entry stays a polynomial in x, so no gcd runs.
    """
    x = XFIELD.gen
    y = x ** 3
    dims = (n, n, n)
    r12 = embed(r0(n, x), (1, 2), dims)
    r13 = embed(r0(n, x * y), (1, 3), dims)
    r23 = embed(r0(n, y), (2, 3), dims)
    return matrix_verdict(r12 * (r13 * r23), (r23 * r13) * r12,
                          label=f"Yang-Baxter n={n} at y=x^3")


@dataclass(frozen=True)
class CrossingResult:
    proportional: Verdict
    scalar: object          # the observed proportionality scalar in Q(q)(x)
    matches_predicted: Verdict


def r0_inverse(n):
    """R0(x)^-1 over Q(q)(x), x the generator of ``XFIELD``: the pencil
    R - xR~ inverted by ``pencil_inverse`` over Q(q), with K = R^-1 R~.
    For n >= 2, (t - q^2)(t - q^-2) annihilates K, so the result is
    (R^-1 - xR~^-1) over (1 - q^2 x)(1 - q^-2 x)."""
    rset = build_rmatrix_set(n)
    rinv = rset.R.inverse()
    k = rinv * rset.Rtilde

    @functools.cache
    def power(j):
        return TMatrix.identity(SCALARS, n * n) if j == 0 else power(j - 1) * k

    return pencil_inverse(rinv, power, XFIELD)


def crossing_scalar(n):
    """Check ((R0(x)^-1)^t2) D_2 (R0(x q^{2n})^t2) = c(x) D_2 and compare
    the observed c(x) with its predicted closed form.  R0(x)^-1 comes
    from ``r0_inverse``, so no elimination runs over Q(q)(x)."""
    rset = build_rmatrix_set(n)
    x = XFIELD.gen
    q2n = XFIELD.from_coeff(Scalar.q_power(2 * n))
    d2 = kron(TMatrix.identity(XFIELD, n), lift(rset.D, XFIELD))
    lhs = (r0_inverse(n).partial_transpose(2, (n, n))
           * d2
           * r0(n, x * q2n).partial_transpose(2, (n, n)))
    # observed scalar from the first nonzero diagonal position of D_2
    c = lhs[0, 0] / d2[0, 0]
    prop = matrix_verdict(lhs, d2.scaled(c), label=f"crossing n={n}")
    pred = predicted_crossing_scalar(n, x)
    match = equal_verdict(c, pred, f"crossing scalar n={n}", show_values=True)
    return CrossingResult(prop, c, match)


# ---------------------------------------------------------------------------
# the normalising series f(x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FSeries:
    """Truncated solution of f(x q^{2n}) (1-x)(1-x q^{2n})
    = f(x) (1-x q^2)(1-x q^{2n-2}) with f_0 = 1."""

    n: int
    order: int
    coeffs: tuple


def _fseries_sides(n):
    a = (ONE, -(ONE + Scalar.q_power(2 * n)), Scalar.q_power(2 * n))
    b = (ONE, -(Scalar.q_power(2) + Scalar.q_power(2 * n - 2)),
         Scalar.q_power(2 * n))
    return a, b


def f_series(n, order):
    """Solve the functional equation coefficientwise.

    The x^k coefficient divides by q^{2nk} - 1 = q^{nk}(q - q^-1)[nk]_q,
    nonzero for every k >= 1.
    """
    a, b = _fseries_sides(n)
    coeffs = [ONE]
    for k in range(1, order + 1):
        rhs = SCALARS.zero
        for j in range(max(0, k - 2), k):
            rhs = rhs + coeffs[j] * (b[k - j] - Scalar.q_power(2 * n * j) * a[k - j])
        denom = Scalar.q_power(n * k) * Q_MINUS_QINV * qnum(n * k)
        coeffs.append(rhs / denom)
    return FSeries(n, order, tuple(coeffs))


def f_series_residual(fs):
    """Substitute the truncated series back into the functional equation;
    every residual coefficient up to the stored order must vanish."""
    a, b = _fseries_sides(fs.n)
    for k in range(fs.order + 1):
        acc = SCALARS.zero
        for j in range(max(0, k - 2), k + 1):
            acc = acc + fs.coeffs[j] * (Scalar.q_power(2 * fs.n * j) * a[k - j]
                                        - b[k - j])
        if acc:
            return Verdict(False,
                           witness=f"f-series n={fs.n}: residual at x^{k} "
                                   f"is {acc.render()}")
    return Verdict(True, lhs=f"residual to order {fs.order}", rhs="0")


def f1_closed_form_check(n):
    """First coefficient: f_1 = (q - q^-1)[n-1]_q / [n]_q."""
    got = f_series(n, 1).coeffs[1]
    expect = Q_MINUS_QINV * qnum(n - 1) / qnum(n)
    return equal_verdict(got, expect, f"f_1 mismatch n={n}", show_values=True)


# ---------------------------------------------------------------------------
# symmetric group action by q-permutation operators
# ---------------------------------------------------------------------------

def perm_compose(p, s):
    """(p o s)(i) = p(s(i)); permutations as 1-based image tuples."""
    return tuple(p[s[i] - 1] for i in range(len(p)))

def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)

def perm_length(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def reduced_word(perm, from_right=False):
    """Reduced word (s_{a_1} ... s_{a_m} = perm, composition order) via
    bubble sort, scanning left to right, or right to left when
    ``from_right``; length equals the inversion number.  The two scans
    can give different words for the same permutation."""
    p = list(perm)
    scan = range(len(p) - 1)
    if from_right:
        scan = scan[::-1]
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in scan:
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                swaps.append(i + 1)
                changed = True
    return tuple(reversed(swaps))


def q_perm(perm, n, word=None):
    """Operator of a permutation on (C^n)^(x)k via q-weighted flips.

    Any reduced word may be supplied; all give the same operator since
    the elementary flips square to one and satisfy the braid relations.
    """
    k = len(perm)
    pq = build_rmatrix_set(n).Pq
    if word is None:
        word = reduced_word(perm)
    dims = (n,) * k
    total = n ** k
    out = TMatrix.identity(SCALARS, total)
    for a in word:
        out = out * embed(pq, (a, a + 1), dims)
    return out


def antisymmetrizer(k, n):
    """q-antisymmetrizer sum_sigma (-1)^{l(sigma)} P_sigma over S_k, coset
    by coset: A = T_1 = 1, then T_{m+1} = 1 - P_m T_m, the signed sum of
    P_c over the minimal coset representatives c = s_m ... s_j of S_m in
    S_{m+1}, and A <- A T_{m+1}.  Each sigma is one sigma' c with lengths
    adding, and P_{sigma' c} = P_{sigma'} P_c since the flips P_a satisfy
    the Coxeter relations (the "reduced words" rows check them)."""
    dims, pq = (n,) * k, build_rmatrix_set(n).Pq
    one = TMatrix.identity(SCALARS, n ** k)
    acc = t = one
    for m in range(1, k):
        t = one - embed(pq, (m, m + 1), dims) * t
        acc = acc * t
    return acc


def antisymmetrizer_r0_check(n):
    """A^(2) interpolates the R-matrices: R - q^2 R~ = (1 - q^2) A^(2)."""
    rset = build_rmatrix_set(n)
    lhs = rset.R - rset.Rtilde.scaled(Scalar.q_power(2))
    rhs = antisymmetrizer(2, n).scaled(ONE - Scalar.q_power(2))
    return matrix_verdict(lhs, rhs,
                          label=f"R - q^2 R~ vs (1-q^2) A^(2) at n={n}")


def pq_action_check(k, n):
    """Action formula on ordered coordinate tensors:

    P_sigma (e_{a_tau(1)} (x) ... (x) e_{a_tau(k)})
      = q^{l(sigma tau^-1) - l(tau)} e_{a_{tau sigma^-1(1)}} (x) ...
    for every sigma, tau in S_k and every a_1 < ... < a_k.
    """
    perms = list(itertools.permutations(range(1, k + 1)))
    ops = {p: q_perm(p, n) for p in perms}
    total = n ** k

    def flat(letters):
        pos = 0
        for a in letters:
            pos = pos * n + (a - 1)
        return pos

    for a_tuple in itertools.combinations(range(1, n + 1), k):
        for tau in perms:
            src = flat([a_tuple[tau[i] - 1] for i in range(k)])
            for sigma in perms:
                exp = (perm_length(perm_compose(sigma, perm_inverse(tau)))
                       - perm_length(tau))
                ts = perm_compose(tau, perm_inverse(sigma))
                dst = flat([a_tuple[ts[i] - 1] for i in range(k)])
                col = [ops[sigma][r, src] for r in range(total)]
                expect = [SCALARS.zero] * total
                expect[dst] = Scalar.q_power(exp)
                if col != expect:
                    return Verdict(False,
                                   witness=f"action formula k={k} n={n}: "
                                           f"sigma={sigma} tau={tau} a={a_tuple}")
    return Verdict(True, lhs=f"all sigma,tau in S_{k}", rhs="action formula")


def reduced_word_independence(k, n):
    """Rebuild every element of S_k from a second reduced word (obtained
    by sorting from the right) and compare operators."""
    for perm in itertools.permutations(range(1, k + 1)):
        w1 = reduced_word(perm)
        w2 = reduced_word(perm, from_right=True)
        if not len(w1) == len(w2) == perm_length(perm):
            raise AssertionError
        if q_perm(perm, n, w1) != q_perm(perm, n, w2):
            return Verdict(False, witness=f"reduced words disagree for {perm}: "
                                          f"{w1} vs {w2}")
    return Verdict(True, lhs=f"S_{k} words", rhs="operator-independent")


# ---------------------------------------------------------------------------
# fusion of evaluated L-operators through the antisymmetrizer
# ---------------------------------------------------------------------------

def check_fusion(rep, k, sign):
    """A^(k) L_1(u q^{2k-2}) ... L_k(u) = L_k(u) ... L_1(u q^{2k-2}) A^(k)
    on (C^n)^(x)k (x) W for the evaluated L-operators of ``rep``."""
    from .reps import evaluated_L

    n, d = rep.n, rep.d
    dims = (n,) * k + (d,)
    asym = embed(lift(antisymmetrizer(k, n), UFIELD),
                 tuple(range(1, k + 1)), dims)
    factors = []
    for a in range(1, k + 1):
        u_shift = UFIELD.gen * UFIELD.from_coeff(Scalar.q_power(2 * (k - a)))
        factors.append(embed(evaluated_L(rep, sign, u_shift), (a, k + 1), dims))
    lhs = asym
    for f in factors:
        lhs = lhs * f
    rhs = TMatrix.identity(UFIELD, n ** k * d)
    for f in reversed(factors):
        rhs = rhs * f
    rhs = rhs * asym
    return matrix_verdict(lhs, rhs, label=f"fusion k={k} sign={sign} n={n} d={d}")
