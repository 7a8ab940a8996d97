"""Concrete representations of the R-matrix presentation of U_q(gl_n).

A representation is stored through its two generating matrices on
C^n (x) W: the upper operator L+ = sum e_ij (x) pi(l+_ij) and the lower
operator L- = sum e_ij (x) pi(l-_ij).  The vector representation is
built explicitly; tensor products come from the coproduct, realised as
the ordered product of the big L-operators acting through a common
auxiliary space.  Highest weight vectors are found exactly as joint
kernels of the raising operators inside a weight subspace.

Everything derived from a representation (generator blocks, weights,
lifted and evaluated operators, inverses, highest weight vectors and
eigenvalues) is cached by one mechanism, :func:`memo`, in that
representation's own ``_cache``.  Nothing is cached across
representations, so a freshly built module never sees a value computed
under another fault-probe setting.  Memoised matrices and vectors are
returned to every caller as is; a ``TMatrix`` is immutable, so sharing
them is safe.  The evaluated operator L(w) is one such entry per
(sign, w): quantum minors read their d x d blocks from it rather than
forming l+-_ab - w l-+_ab.
"""

from __future__ import annotations

import functools

from . import faults
from .scalars import SCALARS, Scalar, ONE, Q, QINV, Q_MINUS_QINV
from .tmatrix import TMatrix, embed, lift
from .verdict import Verdict, matrix_verdict
from .formulas import WeightError


class NotEigenvectorError(ArithmeticError):
    """An operator expected to act as a scalar failed to do so."""


def memo(fn):
    """Cache ``fn(rep, *args)`` in ``rep._cache``.

    The arguments are positional, and the key is ``(fn, *args)`` with
    list arguments as tuples, so a memoised function takes no defaults:
    each call names every argument, and one value has one key.  A call
    that raises caches nothing.  The cached value is returned to every
    later caller as is.
    """
    @functools.wraps(fn)
    def cached(rep, *args):
        key = (fn,) + tuple(tuple(a) if isinstance(a, list) else a
                            for a in args)
        try:
            return rep._cache[key]
        except KeyError:
            value = rep._cache[key] = fn(rep, *args)
            return value

    return cached


class Representation:
    """A finite-dimensional module, presented by its big L-operators."""

    def __init__(self, n, d, Lp, Lm, label):
        for big in (Lp, Lm):
            if not big.rows == big.cols == n * d:
                raise ValueError(f"L-operator of {label} is {big.rows}x"
                                 f"{big.cols}, not {n * d}x{n * d}")
        self.n = n
        self.d = d
        self.Lp = Lp
        self.Lm = Lm
        self.label = label
        self._cache = {}

    def __repr__(self):
        return f"Representation({self.label}, n={self.n}, d={self.d})"

    @memo
    def op(self, sign, i, j):
        """The d x d matrix of pi(l+_ij) or pi(l-_ij), 1-based indices.
        Memoised: the block and its packing record are built once per
        generator, and every caller (centrality, the defining relations,
        ``weights`` and ``highest_weight_vector``) shares them."""
        big = self.Lp if sign == "+" else self.Lm
        d = self.d
        return big.block((i - 1) * d, (j - 1) * d, d, d)

    @memo
    def weights(self):
        """Weight of each basis vector, read from the diagonal action of
        the l-_ii; every basis vector must be a joint eigenvector with
        eigenvalues integral powers of q."""
        diag = []
        for i in range(1, self.n + 1):
            blk = self.op("-", i, i)
            if any(r != c for r, c, _ in blk.nonzero()):
                raise AssertionError(
                    f"l-_{i}{i} is not diagonal on {self.label}")
            diag.append([blk[r, r] for r in range(self.d)])
        out = []
        for b in range(self.d):
            wt = []
            for i in range(self.n):
                e = _q_exponent(diag[i][b])
                if e is None:
                    raise AssertionError(
                        f"non-monomial weight entry on {self.label}")
                wt.append(e)
            out.append(tuple(wt))
        return tuple(out)


def _q_exponent(s):
    """k when s = q^k exactly, else None."""
    if s.den.is_one() and s.num.c == (1,):
        return s.num.low
    return None


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def vector_rep(n):
    """The vector representation on C^n, highest weight (1, 0, ..., 0).

    pi(l+_ii) = q^-1 e_ii + sum_{j != i} e_jj,
    pi(l+_ij) = -(q - q^-1) e_ij        (i < j),
    pi(l-_ii) = q e_ii + sum_{j != i} e_jj,
    pi(l-_ij) = (q - q^-1) e_ij         (i > j).
    """
    a = Q_MINUS_QINV
    lp = [SCALARS.zero] * n ** 4
    lm = [SCALARS.zero] * n ** 4

    def put(entries, i, j, r, c, x):
        entries[((i - 1) * n + r - 1) * n * n + (j - 1) * n + c - 1] = x

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            put(lp, i, i, j, j, QINV if j == i else ONE)
            put(lm, i, i, j, j, Q if j == i else ONE)
            if i < j:
                put(lp, i, j, i, j, -a)
            elif i > j:
                put(lm, i, j, i, j, a)
    if faults.active("rep"):
        # test hook: drop the q^-1 twist in pi(l+_11)
        put(lp, 1, 1, 1, 1, ONE)
    return Representation(n, n, TMatrix(SCALARS, n * n, n * n, lp),
                          TMatrix(SCALARS, n * n, n * n, lm), f"vector({n})")


def trivial_rep(n):
    """The one-dimensional module where every l+-_ii acts as 1."""
    eye = TMatrix.identity(SCALARS, n)
    return Representation(n, 1, eye, eye, f"trivial({n})")


def tensor_product(a, b):
    """Module on W_a (x) W_b via the coproduct
    l+-_ij |-> sum_k l+-_ik (x) l+-_kj (first slot to first factor)."""
    if a.n != b.n:
        raise ValueError(f"tensor product of gl_{a.n} and gl_{b.n} modules")
    n, d = a.n, a.d * b.d
    dims = (n, a.d, b.d)
    lp = embed(a.Lp, (1, 2), dims) * embed(b.Lp, (1, 3), dims)
    lm = embed(a.Lm, (1, 2), dims) * embed(b.Lm, (1, 3), dims)
    return Representation(n, d, lp, lm, f"{a.label}(x){b.label}")


def tensor_power(rep, N):
    """N-fold tensor power; N = 0 gives the trivial module."""
    if N < 0:
        raise ValueError(f"negative tensor power {N}")
    if N == 0:
        return trivial_rep(rep.n)
    out = rep
    for _ in range(N - 1):
        out = tensor_product(out, rep)
    return Representation(rep.n, out.d, out.Lp, out.Lm, f"{rep.label}^(x){N}")


@memo
def _lifted_L(rep, field):
    """(L+, L-) lifted into ``field``."""
    return lift(rep.Lp, field), lift(rep.Lm, field)


@memo
def evaluated_L(rep, sign, u):
    """The evaluated operator on C^n (x) W over the field of ``u``:
    L+(u) = L+ - u L-  or  L-(u) = L- - u^-1 L+.  The one place either
    is formed; quantum minors read their d x d blocks from it.  The
    result is memoised per (sign, u) and shared by every caller."""
    lp, lm = _lifted_L(rep, u.field)
    if sign == "+":
        return lp - lm.scaled(u)
    if sign == "-":
        return lm - lp.scaled(u.inverse())
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def verify_defining_relations(rep):
    """All defining relations of the presentation, checked on
    C^n (x) C^n (x) W: the three exchange relations

        R L1+- L2+- = L2+- L1+- R   and   R L1+ L2- = L2- L1+ R,

    triangularity of L+ (lower blocks vanish) and of L- (upper blocks
    vanish), and l-_ii l+_ii = 1.  Returns (name, verdict) pairs.
    """
    from .rmatrix import build_rmatrix_set

    n, d = rep.n, rep.d
    dims = (n, n, d)
    r12 = embed(build_rmatrix_set(n).R, (1, 2), dims)
    l1 = {s: embed((rep.Lp if s == "+" else rep.Lm), (1, 3), dims)
          for s in "+-"}
    l2 = {s: embed((rep.Lp if s == "+" else rep.Lm), (2, 3), dims)
          for s in "+-"}
    out = []
    for s1, s2 in (("+", "+"), ("-", "-"), ("+", "-")):
        v = matrix_verdict(r12 * (l1[s1] * l2[s2]), l2[s2] * (l1[s1] * r12),
                           label=f"exchange {s1}{s2} {rep.label}")
        out.append((f"exchange {s1}{s2}", v))

    tri_ok, tri_wit = True, None
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i > j and bool(rep.op("+", i, j)):
                tri_ok, tri_wit = False, f"pi(l+_{i}{j}) != 0 on {rep.label}"
            if i < j and bool(rep.op("-", i, j)):
                tri_ok, tri_wit = False, f"pi(l-_{i}{j}) != 0 on {rep.label}"
    out.append(("triangularity", Verdict(tri_ok, witness=tri_wit)))

    eye = TMatrix.identity(SCALARS, d)
    diag_ok, diag_wit = True, None
    for i in range(1, n + 1):
        if rep.op("-", i, i) * rep.op("+", i, i) != eye:
            diag_ok, diag_wit = False, f"l-_{i}{i} l+_{i}{i} != 1 on {rep.label}"
    out.append(("diagonal inverses", Verdict(diag_ok, witness=diag_wit)))
    return out


# ---------------------------------------------------------------------------
# weights and highest weight vectors
# ---------------------------------------------------------------------------

def dominant(lam):
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def weight_subspace(rep, lam):
    """Indices of the basis vectors of weight ``lam``."""
    lam = tuple(lam)
    if len(lam) != rep.n:
        raise WeightError(f"weight length {len(lam)} != n = {rep.n}")
    return tuple(b for b, wt in enumerate(rep.weights()) if wt == lam)


@memo
def highest_weight_vector(rep, lam):
    """A nonzero vector of weight ``lam`` killed by every raising
    operator pi(l+_ij), i < j, normalised so its first nonzero
    coordinate is 1.  Raises WeightError when none exists."""
    lam = tuple(lam)
    if not dominant(lam):
        raise WeightError(f"weight {lam} is not dominant "
                          "(entries must be weakly decreasing)")
    cols = weight_subspace(rep, lam)
    if not cols:
        raise WeightError(f"weight {lam} does not occur in {rep.label}")
    n, d = rep.n, rep.d
    raisers = [rep.op("+", i, j)
               for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rows = []
    for op in raisers:
        for r in range(d):
            row = [op[r, c] for c in cols]
            if any(row):
                rows.append(row)
    if not rows:
        rows = [[SCALARS.zero] * len(cols)]
    stacked = TMatrix.from_rows(SCALARS, rows)
    basis = stacked.nullspace()
    if not basis:
        raise WeightError(f"no highest weight vector of weight {lam} "
                          f"in {rep.label}")
    coords = basis[0]
    entries = [SCALARS.zero] * d
    for k, c in enumerate(cols):
        entries[c] = coords[k, 0]
    vec = TMatrix.column(SCALARS, entries)
    for i in range(1, n + 1):
        # pi(l+_ii) acts on the vector as q^-lambda_i
        if rep.op("+", i, i) * vec != vec.scaled(Scalar.q_power(-lam[i - 1])):
            raise AssertionError(
                "highest weight vector fails the diagonal eigenvalue test")
    return vec


def scalar_on_vector(mat, vec):
    """The scalar by which ``mat`` acts on ``vec``; exact check."""
    return _image_scalar(mat * vec, vec)


def _image_scalar(image, vec, what="operator"):
    """The scalar c with ``image`` = c ``vec``, read at the first nonzero
    coordinate of ``vec`` and then checked on every coordinate; raises
    NotEigenvectorError naming ``what`` when no such scalar exists."""
    stored = vec.nonzero()
    if not stored:
        raise ValueError("zero vector has no eigenvalue")
    pivot, _, x = stored[0]
    c = image[pivot, 0] / x
    if image != vec.scaled(c):
        raise NotEigenvectorError(
            f"{what} does not act as a scalar "
            f"(candidate {c.render()})")
    return c
