"""Sparse exact matrices: arithmetic, elimination, tensor-leg operations,
checked against dense entrywise oracles over ``.e``, over Q(q) and over
Q(q)(u), each with trivial and nontrivial common denominators."""

import copy
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qgelfand import scalars, tmatrix
from qgelfand.scalars import (IntLaurent, Scalar, SCALARS, UFIELD, XFIELD,
                              ONE, ZERO, Q, qnum, Poly, Frac)
from qgelfand.tmatrix import (TMatrix, SingularMatrixError, kron, embed, lift,
                              first_difference, pencil_inverse,
                              traced_product)
from qgelfand.verdict import matrix_verdict
from test_scalars import ORACLE


def rand_entry(rng):
    # small Laurent binomials keep elimination cheap but nontrivial
    s = Scalar.q_power(rng.randint(-3, 3)) * Scalar.from_int(rng.randint(-3, 3))
    if rng.random() < 0.4:
        s = s + Scalar.from_int(rng.randint(-2, 2))
    return s

def rand_matrix(rng, rows, cols):
    return TMatrix(SCALARS, rows, cols,
                   [rand_entry(rng) for _ in range(rows * cols)])


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_mul_matches_naive_random():
    rng = random.Random(10)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = rand_matrix(rng, a.cols, rng.randint(1, 5))
        assert a * b == oracle_mul(a, b)


def test_mul_shape_mismatch():
    # a ValueError, not an assert, so that python -O raises it too
    # (tests/test_cli.py runs these under -O)
    a = TMatrix.identity(SCALARS, 2)
    b = TMatrix.identity(SCALARS, 3)
    for op in (lambda: a * b, lambda: a + b, lambda: a - b,
               lambda: first_difference(a, b), lambda: matrix_verdict(a, b)):
        with pytest.raises(ValueError):
            op()
    assert a != b


def test_add_sub_scale():
    rng = random.Random(11)
    a = rand_matrix(rng, 3, 4)
    b = rand_matrix(rng, 3, 4)
    assert (a + b) - b == a
    assert a.scaled(ZERO) == TMatrix.zeros(SCALARS, 3, 4)
    assert a.scaled(Scalar.from_int(2)) == a + a
    assert -a + a == TMatrix.zeros(SCALARS, 3, 4)


def test_transpose_and_trace():
    rng = random.Random(12)
    a = rand_matrix(rng, 4, 4)
    b = rand_matrix(rng, 4, 4)
    assert a.transpose().transpose() == a
    assert (a * b).transpose() == b.transpose() * a.transpose()
    assert (a * b).trace() == (b * a).trace()


# ---------------------------------------------------------------------------
# elimination: inverse / solve / det / rank / nullspace
# ---------------------------------------------------------------------------

def test_inverse_round_trip_random():
    rng = random.Random(13)
    done = 0
    while done < 15:
        a = rand_matrix(rng, 3, 3)
        try:
            inv = a.inverse()
        except SingularMatrixError:
            continue
        assert a * inv == TMatrix.identity(SCALARS, 3)
        assert inv * a == TMatrix.identity(SCALARS, 3)
        done += 1


def test_inverse_singular_raises():
    a = TMatrix(SCALARS, 2, 2, [ONE, ONE, ONE, ONE])
    with pytest.raises(SingularMatrixError):
        a.inverse()
    assert a.rank() == 1
    assert a.det() == ZERO


def test_solve_matches_inverse():
    rng = random.Random(14)
    done = 0
    while done < 10:
        a = rand_matrix(rng, 3, 3)
        try:
            inv = a.inverse()
        except SingularMatrixError:
            continue
        rhs = rand_matrix(rng, 3, 2)
        assert a.solve(rhs) == inv * rhs
        done += 1


def test_det_sign_under_row_swaps():
    a, b = Scalar.q_power(1), qnum(3)
    z = ZERO
    assert TMatrix(SCALARS, 2, 2, [z, a, b, z]).det() == -(a * b)
    # (1 2 3) -> (2 3 1) is even, a single transposition is odd
    cycle = TMatrix(SCALARS, 3, 3, [z, ONE, z, z, z, ONE, ONE, z, z])
    swap = TMatrix(SCALARS, 3, 3, [z, ONE, z, ONE, z, z, z, z, ONE])
    assert cycle.det() == ONE
    assert swap.det() == -ONE


def test_det_zero_after_nonzero_pivots():
    # rows 1 and 2 pivot, row 3 = row 1 + row 2 leaves no third pivot
    r1 = [ONE, Scalar.q_power(1), qnum(2)]
    r2 = [ZERO, qnum(3), ONE]
    r3 = [x + y for x, y in zip(r1, r2)]
    a = TMatrix.from_rows(SCALARS, [r1, r2, r3])
    assert a.det() == ZERO
    assert a.rank() == 2


def test_solve_singular_raises():
    a = TMatrix(SCALARS, 2, 2, [ONE, Q, ONE, Q])
    with pytest.raises(SingularMatrixError):
        a.solve(TMatrix.column(SCALARS, [ONE, ZERO]))


def test_inverse_keeps_shape():
    rng = random.Random(23)
    while True:
        a = kron(rand_matrix(rng, 2, 2), rand_matrix(rng, 2, 2))
        try:
            inv = a.inverse()
        except SingularMatrixError:
            continue
        break
    assert inv.rows == inv.cols == 4
    assert a * inv == TMatrix.identity(SCALARS, 4)


def test_det_multiplicative():
    rng = random.Random(15)
    for _ in range(10):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        assert (a * b).det() == a.det() * b.det()
    assert TMatrix.identity(SCALARS, 4).det() == ONE


def test_det_diag_and_unit():
    d = TMatrix.diag(SCALARS, [Scalar.q_power(1), Scalar.q_power(-1), qnum(2)])
    assert d.det() == qnum(2)
    assert d.trace() == qnum(2) + qnum(2)


def test_nullspace_random():
    rng = random.Random(16)
    for _ in range(10):
        a = rand_matrix(rng, 3, 5)
        basis = a.nullspace()
        assert len(basis) == 5 - a.rank()
        for v in basis:
            assert not (a * v)


def test_rank_of_outer_product():
    rng = random.Random(17)
    u = rand_matrix(rng, 4, 1)
    v = rand_matrix(rng, 1, 4)
    if u.nonzero() and v.nonzero():
        assert (u * v).rank() == 1


def test_elimination_over_function_field():
    u = UFIELD.gen
    a = TMatrix(UFIELD, 2, 2,
                [UFIELD.one, u, u, UFIELD.one])
    inv = a.inverse()
    assert a * inv == TMatrix.identity(UFIELD, 2)
    det = a.det()
    assert det == UFIELD.one - u * u


# ---------------------------------------------------------------------------
# tensor legs
# ---------------------------------------------------------------------------

def test_kron_mixed_product():
    rng = random.Random(18)
    a, b = rand_matrix(rng, 2, 2), rand_matrix(rng, 3, 3)
    c, d = rand_matrix(rng, 2, 2), rand_matrix(rng, 3, 3)
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)
    assert kron(a, b).trace() == a.trace() * b.trace()


def test_kron_entry_layout():
    # (e_ab (x) e_cd) row index is (a, c), column (b, d), row-major;
    # unit() takes 1-based indices
    e12 = TMatrix.unit(SCALARS, 2, 1, 2)
    e21 = TMatrix.unit(SCALARS, 2, 2, 1)
    k = kron(e12, e21)
    assert k[0 * 2 + 1, 1 * 2 + 0] == ONE
    assert sum(1 for x in k.e if x) == 1


def test_embed_agrees_with_kron():
    # embed uses 1-based site indices
    rng = random.Random(19)
    a = rand_matrix(rng, 2, 2)
    b = rand_matrix(rng, 2, 2)
    eye = TMatrix.identity(SCALARS, 2)
    ab = kron(a, b)
    assert embed(a, (1,), (2, 2)) == kron(a, eye)
    assert embed(b, (2,), (2, 2)) == kron(eye, b)
    assert embed(ab, (1, 2), (2, 2)) == ab
    # acting on the outer pair of three legs
    a13 = embed(ab, (1, 3), (2, 2, 2))
    direct = kron(kron(a, eye), b)
    assert a13 == direct


def test_partial_trace_and_transpose():
    rng = random.Random(20)
    a, b = rand_matrix(rng, 2, 2), rand_matrix(rng, 3, 3)
    k = kron(a, b)
    assert k.partial_trace(1, (2, 3)) == b.scaled(a.trace())
    assert k.partial_trace(2, (2, 3)) == a.scaled(b.trace())
    assert k.partial_transpose(1, (2, 3)) == kron(a.transpose(), b)
    assert k.partial_transpose(2, (2, 3)) == kron(a, b.transpose())


def test_site_calculus_refuses_inconsistent_dims():
    # ValueErrors, not asserts, so that python -O raises them too
    # (tests/test_cli.py runs them under -O)
    four = TMatrix.identity(SCALARS, 4)
    wide = TMatrix(SCALARS, 2, 8, [ONE] * 16)
    for kernel in (four.partial_trace, four.partial_transpose):
        for site, dims in ((1, (2, 3)), (1, (4, 2)), (0, (2, 2)),
                           (3, (2, 2)), (1, (2,))):
            with pytest.raises(ValueError):
                kernel(site, dims)
    with pytest.raises(ValueError):
        wide.partial_trace(1, (4,))
    for sites, dims in (((1,), (2, 2)), ((1, 2), (2, 3)), ((1, 1), (2, 2)),
                        ((3, 1), (2, 2)), ((0, 1), (2, 2))):
        with pytest.raises(ValueError):
            embed(four, sites, dims)
    # the factors of the sites, in site order, are the operator's
    rng = random.Random(24)
    a, b = rand_matrix(rng, 2, 2), rand_matrix(rng, 3, 3)
    assert embed(kron(a, b), (2, 1), (3, 2)) == kron(b, a)


def test_q_operator_transpose_identity():
    # Q = sum e_ab (x) e_ab satisfies Q (X (x) 1) = Q (1 (x) X^t)
    from qgelfand.rmatrix import build_rmatrix_set
    rng = random.Random(21)
    for n in (2, 3):
        q_op = build_rmatrix_set(n).Q
        x = rand_matrix(rng, n, n)
        eye = TMatrix.identity(SCALARS, n)
        lhs = q_op * kron(x, eye)
        rhs = q_op * kron(eye, x.transpose())
        assert lhs == rhs


def test_lift_and_first_difference():
    rng = random.Random(22)
    a = rand_matrix(rng, 2, 3)
    la = lift(a, UFIELD)
    assert la.field is UFIELD
    assert la[1, 2] == UFIELD.from_coeff(a[1, 2])
    b = TMatrix(SCALARS, 2, 3, a.e)
    assert first_difference(a, b) is None
    e = list(b.e)
    e[4] = e[4] + ONE
    b = TMatrix(SCALARS, 2, 3, e)
    diff = first_difference(a, b)
    assert diff is not None and diff[:2] == (1, 1)


# ---------------------------------------------------------------------------
# sparse kernels against dense oracles
# ---------------------------------------------------------------------------
# Each oracle works on the flat row-major list ``.e`` with the entrywise
# formula, so it shares no code with the sparse kernels.

def rand_field_entry(rng, field):
    if field is SCALARS:
        return rand_entry(rng)
    return (field.from_coeff(rand_entry(rng))
            + field.gen * field.from_coeff(rand_entry(rng)))


def rand_sparse(rng, field, rows, cols, density=0.3):
    return TMatrix(field, rows, cols,
                   [rand_field_entry(rng, field) if rng.random() < density
                    else field.zero for _ in range(rows * cols)])


def assert_sparse(m):
    """No stored zero, and the stored entries are exactly the nonzeros of
    the dense view."""
    stored = m.nonzero()
    assert all(x for _, _, x in stored)
    dense = m.e
    assert len(dense) == m.rows * m.cols
    assert [(i, j) for i, j, _ in stored] == [
        divmod(k, m.cols) for k, x in enumerate(dense) if x]
    for i, j, x in stored:
        assert dense[i * m.cols + j] == x
    return m


def oracle_mul(a, b):
    ae, be, z = a.e, b.e, a.field.zero
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = z
            for k in range(a.cols):
                acc = acc + ae[i * a.cols + k] * be[k * b.cols + j]
            out.append(acc)
    return TMatrix(a.field, a.rows, b.cols, out)


def oracle_kron(a, b):
    ae, be = a.e, b.e
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                for l in range(b.cols):
                    out.append(ae[i * a.cols + j] * be[k * b.cols + l])
    return TMatrix(a.field, a.rows * b.rows, a.cols * b.cols, out)


def digits(pos, dims):
    out = []
    for d in reversed(dims):
        pos, t = divmod(pos, d)
        out.append(t)
    return out[::-1]


def flat(idx, dims):
    pos = 0
    for t, d in zip(idx, dims):
        pos = pos * d + t
    return pos


def oracle_embed(op, sites, dims):
    total = 1
    for d in dims:
        total *= d
    op_dims = [dims[s - 1] for s in sites]
    oe, z = op.e, op.field.zero
    out = []
    for r in range(total):
        rd = digits(r, dims)
        for c in range(total):
            cd = digits(c, dims)
            if any(rd[t] != cd[t] for t in range(len(dims))
                   if t + 1 not in sites):
                out.append(z)
                continue
            i = flat([rd[s - 1] for s in sites], op_dims)
            j = flat([cd[s - 1] for s in sites], op_dims)
            out.append(oe[i * op.cols + j])
    return TMatrix(op.field, total, total, out)


def oracle_partial_trace(m, site, dims):
    a = site - 1
    rest = dims[:a] + dims[a + 1:]
    size = 1
    for d in rest:
        size *= d
    me, z = m.e, m.field.zero
    out = []
    for r in range(size):
        rd = digits(r, rest)
        for c in range(size):
            cd = digits(c, rest)
            acc = z
            for t in range(dims[a]):
                rr = flat(rd[:a] + [t] + rd[a:], dims)
                cc = flat(cd[:a] + [t] + cd[a:], dims)
                acc = acc + me[rr * m.cols + cc]
            out.append(acc)
    return TMatrix(m.field, size, size, out)


def oracle_partial_transpose(m, site, dims):
    a, n = site - 1, m.rows
    me = m.e
    out = [None] * (n * n)
    for r in range(n):
        for c in range(n):
            rd, cd = digits(r, dims), digits(c, dims)
            rd[a], cd[a] = cd[a], rd[a]
            out[flat(rd, dims) * n + flat(cd, dims)] = me[r * n + c]
    return TMatrix(m.field, n, n, out)


def cancelling_pair(rng, field, rows, inner, cols):
    """(B, C) where columns 0 and 1 of B are equal and row 1 of C is
    minus row 0, so those two terms of every product entry cancel; the
    other terms are sparse, so many entries of B C cancel to zero."""
    b = rand_sparse(rng, field, rows, inner, density=0.2).e
    c = rand_sparse(rng, field, inner, cols, density=0.2).e
    for k in range(0, rows * inner, inner):
        b[k + 1] = b[k] if rng.random() < 0.8 else field.one
        if not b[k]:
            b[k] = b[k + 1] = field.one
    for j in range(cols):
        x = c[j] or rand_field_entry(rng, field)
        c[j], c[cols + j] = x, -x
    return TMatrix(field, rows, inner, b), TMatrix(field, inner, cols, c)


FIELDS = [pytest.param(SCALARS, id="Qq"), pytest.param(UFIELD, id="Qq(u)")]


@pytest.mark.parametrize("field", FIELDS)
def test_ring_ops_match_dense_oracle(field):
    rng = random.Random(30 if field is SCALARS else 31)
    rounds = 12 if field is SCALARS else 4
    for _ in range(rounds):
        r, k, c = rng.randint(1, 5), rng.randint(2, 5), rng.randint(1, 5)
        a = rand_sparse(rng, field, r, k)
        a2 = rand_sparse(rng, field, r, k)
        b = rand_sparse(rng, field, k, c)
        assert assert_sparse(a * b) == oracle_mul(a, b)
        add = [x + y for x, y in zip(a.e, a2.e)]
        sub = [x - y for x, y in zip(a.e, a2.e)]
        assert assert_sparse(a + a2) == TMatrix(field, r, k, add)
        assert assert_sparse(a - a2) == TMatrix(field, r, k, sub)
        s = rand_field_entry(rng, field)
        assert assert_sparse(a.scaled(s)) == TMatrix(
            field, r, k, [s * x for x in a.e])
        assert assert_sparse(a.scaled(field.zero)) == TMatrix.zeros(field, r, k)
        assert assert_sparse(-a) == TMatrix(field, r, k, [-x for x in a.e])
        t = a.transpose()
        assert assert_sparse(t) == TMatrix(
            field, k, r, [a.e[i * k + j] for j in range(k) for i in range(r)])


@pytest.mark.parametrize("field", FIELDS)
def test_cancellation_stores_no_zero(field):
    rng = random.Random(32 if field is SCALARS else 33)
    for _ in range(6 if field is SCALARS else 3):
        a = rand_sparse(rng, field, 3, 4, density=0.5)
        for zero in (a - a, a + (-a), a.scaled(field.zero)):
            assert_sparse(zero)
            assert not zero
            assert zero == TMatrix.zeros(field, 3, 4)
        b, c = cancelling_pair(rng, field, 4, 4, 3)
        prod = assert_sparse(b * c)
        assert prod == oracle_mul(b, c)
    # a product whose every entry cancels
    b, c = cancelling_pair(rng, field, 3, 2, 3)
    assert not assert_sparse(b * c)


@pytest.mark.parametrize("field", FIELDS)
def test_tensor_ops_match_dense_oracle(field):
    rng = random.Random(34 if field is SCALARS else 35)
    for _ in range(4 if field is SCALARS else 2):
        a = rand_sparse(rng, field, 2, 3, density=0.5)
        b = rand_sparse(rng, field, 3, 2, density=0.5)
        assert assert_sparse(kron(a, b)) == oracle_kron(a, b)
        op = rand_sparse(rng, field, 4, 4, density=0.4)
        for sites, dims in (((1, 2), (2, 2)), ((1, 3), (2, 3, 2)),
                            ((3, 1), (2, 2, 2))):
            assert assert_sparse(embed(op, sites, dims)) == oracle_embed(
                op, sites, dims)
        m = rand_sparse(rng, field, 12, 12, density=0.3)
        dims = (2, 3, 2)
        for site in (1, 2, 3):
            assert assert_sparse(m.partial_trace(site, dims)) == \
                oracle_partial_trace(m, site, dims)
            assert assert_sparse(m.partial_transpose(site, dims)) == \
                oracle_partial_transpose(m, site, dims)
        # a partial trace whose sum cancels: diagonal blocks x and -x
        x = rand_field_entry(rng, field)
        c = TMatrix.diag(field, [x, x, -x, -x])
        assert not assert_sparse(c.partial_trace(1, (2, 2)))


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_and_solve_match_dense_oracle(field):
    rng = random.Random(36 if field is SCALARS else 37)
    n = 4 if field is SCALARS else 3
    eye = TMatrix.identity(field, n)
    done = 0
    while done < 4:
        a = rand_sparse(rng, field, n, n, density=0.4) + TMatrix.diag(
            field, [rand_field_entry(rng, field) for _ in range(n)])
        try:
            inv = a.inverse()
        except SingularMatrixError:
            assert a.rank() < n
            continue
        assert_sparse(inv)
        assert oracle_mul(a, inv) == eye
        assert oracle_mul(inv, a) == eye
        rhs = rand_sparse(rng, field, n, 2, density=0.5)
        x = assert_sparse(a.solve(rhs))
        assert oracle_mul(a, x) == rhs
        done += 1


def test_dense_view_is_a_copy():
    rng = random.Random(38)
    a = rand_sparse(rng, SCALARS, 3, 3, density=0.5)
    before = TMatrix(SCALARS, 3, 3, a.e)
    view = a.e
    view[0] = view[0] + ONE
    view[4] = ZERO
    assert a == before
    with pytest.raises(AttributeError):
        a.e = view


def test_getitem_reads_stored_and_absent_entries():
    m = TMatrix(SCALARS, 2, 3, [ZERO] * 5 + [Q])
    assert m[1, 2] == Q and m[0, 0] == ZERO
    assert m.nonzero() == [(1, 2, Q)]


def test_first_difference_is_row_major_with_absent_entries():
    # in row 1, column 3 differs in value and was stored first; column 1
    # is stored on one side only and comes first in row-major order
    O = ZERO
    picked = TMatrix.from_rows(SCALARS, [[O, O, O, O, ONE], [O, O, O, Q, O],
                                         [O, ONE, O, O, O], [Q, O, O, O, O]])
    # row 1 of a = row 1 + row 2 of picked: column 3 arrives first
    a = TMatrix.from_rows(SCALARS, [[ONE, O, O, O], [O, ONE, ONE, O],
                                    [O, O, O, ONE]]) * picked
    assert list(a._data[1]) == [3, 1]
    b = TMatrix.from_rows(SCALARS, [[O, O, O, O, ONE], [O, O, O, qnum(2), O],
                                    [O, O, O, O, O]])
    assert first_difference(a, b) == (1, 1, ONE, ZERO)
    assert first_difference(b, a) == (1, 1, ZERO, ONE)
    v = matrix_verdict(a, b, label="probe")
    assert not v and v.witness == "probe: entry (1,1): 1 != 0"
    assert matrix_verdict(b, a).witness == "entry (1,1): 0 != 1"
    a = a - TMatrix.from_rows(SCALARS, [[O] * 5, [O, ONE, O, O, O], [O] * 5])
    assert first_difference(a, b) == (1, 3, Q, qnum(2))


def test_map_entries_contract():
    rng = random.Random(39)
    a = rand_sparse(rng, SCALARS, 3, 4, density=0.5)
    seen = []

    def spy(x):
        seen.append(x)
        return ZERO if x == a.nonzero()[0][2] else x * Q

    out = assert_sparse(a.map_entries(spy))
    # one probe of zero, then each stored entry once
    assert len(seen) == 1 + len(a.nonzero())
    assert out == TMatrix(SCALARS, 3, 4, [spy(x) for x in a.e])
    with pytest.raises(ValueError):
        a.map_entries(lambda x: x + ONE)


# ---------------------------------------------------------------------------
# matrices over a nontrivial common denominator
# ---------------------------------------------------------------------------
# Over Q(q) the denominator is a Laurent polynomial, over Q(q)(u) a
# polynomial in u.  Built by scaling with 1/p, by inverse() and by sums
# over different denominators; the oracles read the normalised entries
# through ``.e``.

def gen(field):
    """q over Q(q), the variable over a function field."""
    return Q if field is SCALARS else field.gen


def rand_den(rng, field):
    """A nonunit of the field's ring: over Q(q) a Laurent polynomial of
    two or more terms, else a nonconstant polynomial with a nonzero
    coefficient of the variable."""
    if field is SCALARS:
        if rng.random() < 0.3:
            return qnum(rng.randint(2, 3))
        k, c1, c0 = (rng.choice((-2, -1, 1, 2)) for _ in range(3))
        return Scalar.q_power(k) * Scalar.from_int(c1) + Scalar.from_int(c0)
    u = field.gen
    c1 = rand_entry(rng) or ONE
    p = field.from_coeff(rand_entry(rng)) + u * field.from_coeff(c1)
    return p * u if rng.random() < 0.3 else p


def den_of(m):
    """The common denominator of ``m``, read through its packing record."""
    return m.den.den


def rand_invertible(rng, field, n):
    while True:
        a = rand_sparse(rng, field, n, n, density=0.4) + TMatrix.diag(
            field, [rand_field_entry(rng, field) for _ in range(n)])
        if a.rank() == n:
            return a


def rand_fraction_matrix(rng, field, rows, cols, density=0.4):
    """A sparse matrix over ``field`` whose ``den`` is not 1."""
    while True:
        # inverses only of small blocks: elimination over Q(q)(u) is slow
        kind = rng.randrange(3 if cols <= 3 else 2)
        m = rand_sparse(rng, field, rows, cols, density)
        if kind == 0:
            m = m.scaled(rand_den(rng, field).inverse())
        elif kind == 1:
            m = m.scaled(rand_den(rng, field).inverse()) + rand_sparse(
                rng, field, rows, cols, density).scaled(
                    rand_den(rng, field).inverse())
        else:
            m = m * rand_invertible(rng, field, cols).inverse()
        if m and not den_of(m).is_one():
            return m


DEN_FIELDS = (SCALARS, UFIELD)


def test_fraction_ring_ops_match_dense_oracle():
    for field in DEN_FIELDS:
        rng = random.Random(40 if field is UFIELD else 140)
        for _ in range(2):
            r, k, c = rng.randint(1, 3), rng.randint(2, 3), rng.randint(1, 3)
            a = rand_fraction_matrix(rng, field, r, k)
            a2 = rand_fraction_matrix(rng, field, r, k)
            b = rand_fraction_matrix(rng, field, k, c)
            expect = oracle_mul(a, b)
            assert assert_sparse(a * b) == expect and (a * b).e == expect.e
            add = [x + y for x, y in zip(a.e, a2.e)]
            sub = [x - y for x, y in zip(a.e, a2.e)]
            assert assert_sparse(a + a2).e == add
            assert assert_sparse(a - a2).e == sub
            assert assert_sparse(a - a) == TMatrix.zeros(field, r, k)
            s = rand_den(rng, field).inverse() * rand_field_entry(rng, field)
            assert assert_sparse(a.scaled(s)).e == [s * x for x in a.e]
            assert assert_sparse(-a).e == [-x for x in a.e]
            assert assert_sparse(a.transpose()).e == [
                a.e[i * k + j] for j in range(k) for i in range(r)]
            sq = rand_fraction_matrix(rng, field, k, k)
            assert sq.trace() == sum((sq[i, i] for i in range(k)), field.zero)


def test_commutes_matches_both_products():
    # diagonal right operands, with repeated and absent diagonal entries,
    # over a den that is 1 or not, take the entrywise route; the left
    # operand half the time stores entries only between equal diagonal
    # entries, so both answers occur; dense right operands take products
    rng = random.Random(31)
    answers = set()
    for field in DEN_FIELDS:
        for _ in range(15):
            n = rng.randint(1, 5)
            pool = [field.zero] + [rand_field_entry(rng, field)
                                   for _ in range(2)]
            d = [rng.choice(pool) for _ in range(n)]
            diag = TMatrix.diag(field, d)
            if rng.random() < 0.5:
                diag = diag.scaled(rand_den(rng, field).inverse())
            a = rand_sparse(rng, field, n, n, density=0.5)
            if rng.random() < 0.5:
                a = TMatrix(field, n, n, [
                    x if d[k // n] == d[k % n] else field.zero
                    for k, x in enumerate(a.e)])
            for other in (diag, rand_sparse(rng, field, n, n, density=0.5)):
                got = a.commutes(other)
                assert got == (a * other == other * a)
                answers.add(got)
    assert answers == {True, False}
    with pytest.raises(ValueError, match="commutator"):
        TMatrix.identity(SCALARS, 2).commutes(TMatrix.identity(SCALARS, 3))


def test_fraction_tensor_ops_match_dense_oracle():
    for field in DEN_FIELDS:
        rng = random.Random(41 if field is UFIELD else 141)
        a = rand_fraction_matrix(rng, field, 2, 3, density=0.5)
        b = rand_fraction_matrix(rng, field, 3, 2, density=0.5)
        assert assert_sparse(kron(a, b)).e == oracle_kron(a, b).e
        op = rand_fraction_matrix(rng, field, 4, 4, density=0.4)
        for sites, dims in (((1, 3), (2, 3, 2)), ((3, 1), (2, 2, 2))):
            assert assert_sparse(embed(op, sites, dims)).e == oracle_embed(
                op, sites, dims).e
        m = rand_fraction_matrix(rng, field, 8, 8, density=0.3)
        dims = (2, 2, 2)
        for site in (1, 2, 3):
            assert assert_sparse(m.partial_trace(site, dims)).e == \
                oracle_partial_trace(m, site, dims).e
            assert assert_sparse(m.partial_transpose(site, dims)).e == \
                oracle_partial_transpose(m, site, dims).e


def test_fraction_inverse_and_solve_match_dense_oracle():
    rng = random.Random(42)
    eye = TMatrix.identity(UFIELD, 2)
    for _ in range(2):
        a = rand_invertible(rng, UFIELD, 2).scaled(
            rand_den(rng, UFIELD).inverse())
        assert a.den.den.degree > 0
        inv = assert_sparse(a.inverse())
        assert oracle_mul(a, inv) == eye and oracle_mul(inv, a) == eye
        rhs = rand_fraction_matrix(rng, UFIELD, 2, 2, density=0.5)
        x = assert_sparse(a.solve(rhs))
        assert oracle_mul(a, x).e == rhs.e


def test_equality_across_denominators():
    for field in DEN_FIELDS:
        rng = random.Random(43 if field is UFIELD else 143)
        a = rand_fraction_matrix(rng, field, 3, 3, density=0.6)
        p = rand_den(rng, field)
        b = a.scaled(p).scaled(p.inverse())
        assert den_of(b) != den_of(a)
        assert a == b and b == a
        assert first_difference(a, b) is None
        assert a.e == b.e
        # change one entry: the same entry is named, with the same rendering
        i, j, x = a.nonzero()[-1]
        one_at = [field.zero] * 9
        one_at[i * 3 + j] = field.one
        c = b + TMatrix(field, 3, 3, one_at)
        assert den_of(c) == den_of(b) and c != a
        assert first_difference(a, c) == (i, j, x, x + field.one)
        assert (matrix_verdict(a, c).witness
                == f"entry ({i},{j}): {x.render()} != "
                   f"{(x + field.one).render()}")
        # an entry stored on one side only comes first in row-major order
        d = b - TMatrix(field, 3, 3, [a[0, 0] or -field.one] + [field.zero] * 8)
        assert bool(d[0, 0]) != bool(a[0, 0])
        assert first_difference(a, d)[:2] == (0, 0)


def test_constructor_packs_over_the_lcm():
    for field in DEN_FIELDS:
        g, one = gen(field), field.one
        a, b = g - one, g + one
        entries = [a.inverse(), (a * b).inverse(), g, field.zero]
        m = TMatrix(field, 2, 2, entries)
        assert den_of(m) == (a * b).num
        assert m.e == entries
        assert m[0, 0] == a.inverse() and m[1, 1] == field.zero
        d = TMatrix.diag(field, [a.inverse(), b.inverse()])
        assert den_of(d) == (a * b).num and d.e == [a.inverse(), field.zero,
                                                    field.zero, b.inverse()]
        # polynomial entries keep the denominator 1
        assert den_of(TMatrix(field, 1, 2, [g, one])).is_one()
        assert den_of(TMatrix.identity(SCALARS, 2)).is_one()


def test_kernels_run_no_gcd(monkeypatch):
    """Products, sums, scaling, tensor-site operations and equality on
    matrices with nontrivial denominators are ring arithmetic: they run
    no gcd of the numerator ring, ``IntLaurent`` over Q(q) and ``Poly``
    over Q(q)(u)."""
    for field, ring in ((SCALARS, IntLaurent), (UFIELD, Poly)):
        rng = random.Random(45 if field is UFIELD else 145)
        a = rand_fraction_matrix(rng, field, 4, 4, density=0.5)
        b = rand_fraction_matrix(rng, field, 4, 4, density=0.5)
        p = rand_den(rng, field)
        s = p.inverse() * rand_field_entry(rng, field)
        twin = a.scaled(p).scaled(p.inverse())
        assert den_of(a) != den_of(b) and den_of(twin) != den_of(a)
        calls = []
        real = ring.gcd

        def counting(x, y):
            calls.append(1)
            return real(x, y)

        with monkeypatch.context() as patch:
            patch.setattr(ring, "gcd", staticmethod(counting))
            a * b
            a + b
            a - b
            a - a
            a.scaled(s)
            kron(a, b)
            embed(a, (3, 1), (2, 3, 2))
            a.partial_trace(1, (2, 2))
            a.partial_transpose(2, (2, 2))
            assert a == twin and a != b and not first_difference(a, twin)
            assert not calls
            a.nonzero()  # reads normalise, so the counter does see gcd calls
            assert calls


small_scalars = st.builds(lambda k, c: Scalar.q_power(k) * Scalar.from_int(c),
                          st.integers(-2, 2), st.integers(-3, 3))


@st.composite
def u_fractions(draw):
    """(a + b u) / (c + u), or zero."""
    if draw(st.integers(0, 3)) == 0:
        return UFIELD.zero
    num = UFIELD.poly([draw(small_scalars), draw(small_scalars)])
    return num / UFIELD.poly([draw(small_scalars), ONE])


def u_matrices(rows, cols):
    return st.lists(u_fractions(), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda e: TMatrix(UFIELD, rows, cols, e))


@settings(ORACLE, max_examples=10)
@given(u_matrices(2, 2), u_matrices(2, 2), u_matrices(2, 2),
       u_matrices(4, 4))
def test_kernels_match_entrywise_frac_arithmetic(a, a2, b, m):
    assert (a * b).e == oracle_mul(a, b).e
    assert (a + a2).e == [x + y for x, y in zip(a.e, a2.e)]
    assert kron(a, b).e == oracle_kron(a, b).e
    for site in (1, 2):
        assert (m.partial_trace(site, (2, 2)).e
                == oracle_partial_trace(m, site, (2, 2)).e)


def test_packed_kernels_run_no_laurent_arithmetic(monkeypatch):
    """Over Q(q) the kernels multiply and add packed integers: they make
    no ``IntLaurent`` product or sum, not even for the denominators.
    Reads decode entries, and entrywise arithmetic on them does count."""
    rng = random.Random(146)
    a = rand_fraction_matrix(rng, SCALARS, 4, 4, density=0.5)
    b = rand_fraction_matrix(rng, SCALARS, 4, 4, density=0.5)
    p = rand_den(rng, SCALARS)
    s = p.inverse() * rand_field_entry(rng, SCALARS)
    twin = a.scaled(p).scaled(p.inverse())
    assert den_of(a) != den_of(b) and den_of(twin) != den_of(a)
    calls = []
    with monkeypatch.context() as patch:
        for name in ("__mul__", "__add__"):
            real = getattr(IntLaurent, name)

            def counting(x, y, real=real, name=name):
                calls.append(name)
                return real(x, y)

            patch.setattr(IntLaurent, name, counting)
        a * b
        a + b
        a - b
        a - a
        a.scaled(s)
        kron(a, b)
        embed(a, (3, 1), (2, 3, 2))
        a.partial_trace(1, (2, 2))
        a.partial_transpose(2, (2, 2))
        assert a == twin and a != b and not first_difference(a, twin)
        assert not calls
        a.nonzero()  # reads may make some
        a[1, 1]
        oracle_mul(a, b)  # entrywise Scalar arithmetic does
        assert calls


# ---------------------------------------------------------------------------
# packed Q(q) numerators
# ---------------------------------------------------------------------------
# A Q(q) matrix stores each numerator as one integer P(2^B).  These
# oracles use coefficients next to 2^(B-1), where a kernel must re-measure
# or widen, negative q-powers, q-denominators and cancellations.

HALF = 1 << (scalars.BITS - 1)
EDGE = (HALF - 1, HALF, HALF + 1, 2 * HALF - 1)
Q_DENS = (IntLaurent(0, (1,)), IntLaurent(0, (1, 1)), IntLaurent(0, (1, 0, 1)),
          IntLaurent(0, (3, -1, 2)))

coefficients = st.one_of(st.integers(-3, 3), st.sampled_from(EDGE),
                         st.sampled_from(EDGE).map(lambda c: -c))


@st.composite
def packed_entries(draw):
    """Zero, or num/den with num a Laurent polynomial whose coefficients
    may sit next to 2^(B-1) and den a polynomial in q."""
    if draw(st.integers(0, 3)) == 0:
        return ZERO
    num = IntLaurent(draw(st.integers(-3, 2)),
                     draw(st.lists(coefficients, min_size=1, max_size=3)))
    return Scalar(num, draw(st.sampled_from(Q_DENS))) if num else ZERO


def q_matrices(rows, cols):
    return st.lists(packed_entries(), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda e: TMatrix(SCALARS, rows, cols, e))


def first_differing(x, y, cols):
    """Row-major (row, col, left, right) of the first differing entry."""
    for k, (u, v) in enumerate(zip(x, y)):
        if u != v:
            return (*divmod(k, cols), u, v)
    return None


@settings(ORACLE, max_examples=20)
@given(q_matrices(2, 3), q_matrices(2, 3), q_matrices(3, 2),
       q_matrices(4, 4), packed_entries())
def test_packed_kernels_match_entrywise_scalar_arithmetic(a, a2, b, m, s):
    ae, a2e = a.e, a2.e
    assert TMatrix(SCALARS, 2, 3, ae).e == ae
    assert assert_sparse(a * b).e == oracle_mul(a, b).e
    assert assert_sparse(a + a2).e == [x + y for x, y in zip(ae, a2e)]
    assert assert_sparse(a - a2).e == [x - y for x, y in zip(ae, a2e)]
    assert not assert_sparse(a - a)
    assert assert_sparse(a.scaled(s)).e == [s * x for x in ae]
    assert assert_sparse(kron(a, b)).e == oracle_kron(a, b).e
    assert assert_sparse(embed(m, (3, 1), (2, 3, 2))).e == oracle_embed(
        m, (3, 1), (2, 3, 2)).e
    for site in (1, 2):
        assert assert_sparse(m.partial_trace(site, (2, 2))).e == \
            oracle_partial_trace(m, site, (2, 2)).e
        assert assert_sparse(m.partial_transpose(site, (2, 2))).e == \
            oracle_partial_transpose(m, site, (2, 2)).e
    assert m.trace() == sum((m[i, i] for i in range(4)), ZERO)
    c = a + TMatrix(SCALARS, 2, 3, [ZERO] * 5 + [s - ae[5]])
    assert assert_sparse(c).e == ae[:5] + [s]
    assert (a == a2) == (ae == a2e) and (a == c) == (ae == c.e)
    assert first_difference(a, a2) == first_differing(ae, a2e, 3)
    assert first_difference(c, a) == first_differing(c.e, ae, 3)


def test_loose_bound_is_re_measured_not_widened(monkeypatch):
    """A cancelling sum leaves a record whose bound is near 2^(B-2) over
    monomial entries.  Squaring it re-measures that record and does not
    widen; the record is then tight, and no later product measures it
    again."""
    measured = []
    real = scalars._measure
    monkeypatch.setattr(scalars, "_measure",
                        lambda f, rows: measured.append(f) or real(f, rows))
    n = 4
    entries = [ZERO] * (n * n)
    for i in range(n):
        entries[i * n + (i + 1) % n] = Scalar.q_power(7 * i - 1)
    loose = TMatrix(SCALARS, n, n, [Scalar.from_int(HALF // 4)] * (n * n))
    perm = (TMatrix(SCALARS, n, n, entries) + loose) - loose
    assert not measured and perm.den.bound > HALF // 4
    acc = perm
    for _ in range(20):
        acc = acc * perm
    assert measured and acc.den.bits == scalars.BITS
    # measured: sound, at most twice the true bound 1, one digit per entry
    assert decoded_record(perm.den, perm._data) == (1, 1, None, 1)
    assert perm.den.tight and 1 <= perm.den.bound == perm.den.l1 <= 2
    assert [f is perm.den for f in measured] == [True]
    # perm^4 = q^38 I, the product of the four monomials
    assert acc == perm.scaled(Scalar.q_power(5 * 38))
    # a record that still widens once measured is not measured again
    one = TMatrix(SCALARS, 1, 1, [ONE])
    root = TMatrix(SCALARS, 1, 1, [Scalar.from_int(1 << scalars.BITS // 2)])
    wide = (root + one) - one
    measured.clear()
    for _ in range(3):
        assert (wide * wide).den.bits > scalars.BITS
    assert [f is wide.den for f in measured] == [True]


def test_measured_records_without_copying_a_block(monkeypatch):
    """``measured`` puts a matrix whose record is loose under one measured
    from its entries, and shares its rows unless, over Q(q), it shifts
    out low zero digits that they all share; ``pencil_inverse`` measures
    its sums so, and copies no matrix as a block to do it."""
    for field in (SCALARS, UFIELD):
        q = Q if field is SCALARS else field.from_coeff(Q)
        m = TMatrix(field, 2, 2, [q, field.one, field.zero, -q * q])
        pad = TMatrix(field, 2, 2, [q.inverse() + field.one] * 4)
        loose = (m + pad) - pad
        got = loose.measured()
        assert got == m and got.den.tight and not loose.den.tight
        bound, l1, deg, _ = decoded_record(got.den, got._data)
        assert bound <= got.den.bound <= 2 * bound and l1 <= got.den.l1
        assert deg == got.den.deg
        assert (got._data is loose._data) == (field is UFIELD)
        assert m.measured()._data is m._data
    # 1 = (1 + q^-4) - q^-4 is stored as q^4 at shift 4, shifted out here
    low = TMatrix(SCALARS, 1, 1, [Scalar.q_power(-4)])
    one = (TMatrix.identity(SCALARS, 1) + low) - low
    got = one.measured()
    assert one.den.shift == 4 and one._data == [{0: 1 << 4 * scalars.BITS}]
    assert got.den.shift == 0 and got._data == [{0: 1}]
    assert got == TMatrix.identity(SCALARS, 1)

    def no_block(*args):
        raise AssertionError("block")

    monkeypatch.setattr(TMatrix, "block", no_block)
    a = TMatrix(SCALARS, 2, 2, [Q, ONE, ZERO, qnum(2)])
    check_pencil(a, TMatrix(SCALARS, 2, 2, [ONE, ZERO, Q, ONE]), False)


def test_each_bound_rule_widens_at_the_edge():
    """Operands below 2^(B-1) whose exact results reach it, one case per
    bound rule; a kernel that kept width B would decode them wrongly."""
    root = Scalar.from_int(1 << (scalars.BITS // 2 - 1))  # root^2 = HALF / 2
    h, edge = Scalar.from_int(HALF // 2), Scalar.from_int(HALF)
    # product: two inner terms, and two coefficients per operand
    row, col = TMatrix(SCALARS, 1, 2, [root, root]), TMatrix(
        SCALARS, 2, 1, [root, root])
    assert (row * col)[0, 0] == edge
    binomial = TMatrix(SCALARS, 1, 1, [root + root * Q])
    assert (binomial * binomial)[0, 0] == (root + root * Q) * (root + root * Q)
    assert binomial.scaled(root + root * Q) == binomial * binomial
    assert kron(binomial, binomial) == binomial * binomial
    # sums over one denominator, and over two
    one = TMatrix(SCALARS, 1, 1, [h])
    assert (one + one)[0, 0] == edge and one - one.scaled(-ONE) == one + one
    other = TMatrix(SCALARS, 1, 1, [(Q + Scalar.from_int(2)).inverse()])
    assert (one + other)[0, 0] == h + (Q + Scalar.from_int(2)).inverse()
    assert one != other and first_difference(other, one)[2:] == (
        (Q + Scalar.from_int(2)).inverse(), h)
    # trace and partial trace: two terms
    diag = TMatrix.diag(SCALARS, [h, ZERO, h, ZERO])
    assert diag.trace() == edge
    assert diag.partial_trace(1, (2, 2))[0, 0] == edge


def test_widening_keeps_products_exact():
    big = Scalar.from_int(HALF - 1)
    a = TMatrix(SCALARS, 2, 2, [big, Q, -big, ONE])
    assert a.den.bits == scalars.BITS
    sq = assert_sparse(a * a)
    assert sq.den.bits > scalars.BITS
    assert sq.e == oracle_mul(a, a).e
    assert (sq - sq) == TMatrix.zeros(SCALARS, 2, 2) and sq == oracle_mul(a, a)


def test_operands_at_different_widths_and_shifts():
    wide = TMatrix(SCALARS, 2, 2, [Scalar.from_int(HALF), ZERO,
                                   Q, Scalar.from_int(-HALF - 1)])
    low = TMatrix(SCALARS, 2, 2, [Scalar.q_power(-3), qnum(2).inverse(),
                                  ZERO, Scalar.q_power(-1) + ONE])
    assert wide.den.bits > low.den.bits and wide.den.shift != low.den.shift
    for x, y in ((wide, low), (low, wide)):
        assert assert_sparse(x * y).e == oracle_mul(x, y).e
        assert assert_sparse(x + y).e == [u + v for u, v in zip(x.e, y.e)]
        assert assert_sparse(kron(x, y)).e == oracle_kron(x, y).e
        assert x != y and first_difference(x, y)[:2] == (0, 0)
    assert low == low.scaled(Q).scaled(Scalar.q_power(-1))


def laurent_matmul(x, y):
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), IntLaurent(0, ()))
             for j in range(n)] for i in range(n)]


def test_power_chain_matches_laurent_products():
    """A^k for k up to 40, whose coefficients pass 2^(B-1) on the way,
    against the same powers taken with ``IntLaurent`` entries."""
    ref = [[IntLaurent(-1, (1, 2, 1)), IntLaurent(0, (3,))],
           [IntLaurent(-2, (-1, 0, 1)), IntLaurent(1, (2, -1))]]
    a = TMatrix.from_rows(SCALARS, [[Scalar(x) for x in row] for row in ref])
    acc, want = a, ref
    for k in range(2, 41):
        acc, want = acc * a, laurent_matmul(want, ref)
        assert acc.e == [Scalar(x) for row in want for x in row], k
    assert max(abs(c) for row in want for x in row for c in x.c) >= HALF
    assert acc.den.bits > scalars.BITS


def decoded_record(frame, rows):
    """(bound, l1, deg, span) of ``rows`` in ``frame``, read off every
    decoded digit: the largest |coefficient|, the largest sum of one
    entry's |coefficients|, over a function field the largest q-degree of
    a u-coefficient (None over Q(q)), and the most digits of one entry
    from the lowest to the highest nonzero one, counted per u-slot of E
    digits over a function field.  The oracle of ``scalars._measure``."""
    bits, slot = frame.bits, frame.slot
    bound = l1 = span = deg = 0
    for row in rows:
        for x in row.values():
            c = scalars._decode(x, bits)
            bound = max(bound, max(map(abs, c)))
            l1 = max(l1, sum(map(abs, c)))
            width = slot or len(c)
            digits = 0
            for k in range(0, len(c), width):
                nonzero = [i for i, d in enumerate(c[k:k + width]) if d]
                if nonzero:
                    digits += nonzero[-1] - nonzero[0] + 1
                    deg = max(deg, nonzero[-1])
            span = max(span, digits)
    return bound, l1, None if slot is None else deg, span


def assert_record_sound(frame, *rows):
    """The digits of ``rows`` hold no |coefficient|, no sum of one entry's
    |coefficients| and, over a function field, no q-degree larger than
    ``frame`` claims."""
    for r in rows:
        bound, l1, deg, _ = decoded_record(frame, r)
        assert bound <= frame.bound and l1 <= frame.l1
        assert deg == frame.deg is None or deg <= frame.deg


@st.composite
def digit_rows(draw):
    """(B, E, rows): a digit width B, a slot width E (None over Q(q)) and
    rows {column: entry}, each entry a list over its u-slots of (number
    of low zero digits, digits) or None for an empty slot.  The digits
    take both signs, reach +-(2^(B-1) - 1) and sit next to powers of 2;
    an entry's top digit is nonzero and may be negative, and rows may be
    empty."""
    bits = draw(st.sampled_from((8, 16, 32, 64)))
    slot = draw(st.sampled_from((None, 1, 3, 8)))
    top = (1 << bits - 1) - 1
    digit = st.one_of(
        st.integers(-3, 3), st.sampled_from((top, -top)),
        st.builds(lambda k, e, sign: sign * ((1 << k) + e),
                  st.integers(0, bits - 2), st.sampled_from((-1, 0, 1)),
                  st.sampled_from((1, -1))))
    width = slot or 6

    def poly():
        low = draw(st.integers(0, min(3, width - 1)))
        return low, draw(st.lists(digit, max_size=width - low - 1)) + [
            draw(digit.filter(bool))]

    def entry():
        slots = [draw(st.one_of(st.none(), st.builds(poly)))
                 for _ in range(draw(st.integers(0, 2) if slot else
                                     st.just(0)))]
        return slots + [poly()]

    rows = [{j: entry() for j in range(draw(st.integers(0, 3)))}
            for _ in range(draw(st.integers(0, 3)))]
    return bits, slot, rows


@settings(ORACLE, max_examples=200)
@given(digit_rows())
@example((8, None, [{0: [(0, [-127])], 1: [(2, [1])]}, {}]))
@example((16, None, [{0: [(0, [5, -3])]}]))
@example((8, 3, [{0: [(1, [2, -1]), None, (0, [-126, 3, -1])]}]))
def test_measure_is_sound_and_within_twice_the_decoded_record(case):
    """The SWAR measure against the decoded digits: its bound is a power
    of two (or 2^(B-1) - 1) from the largest |coefficient| to twice it,
    its l1 that bound times the entries' longest digit span, which bounds
    every sum of |coefficients|, and its q-degree exact."""
    bits, slot, rows = case
    packed = [{j: sum(scalars._encode(IntLaurent(*p), bits, 0)
                      << bits * (slot or 0) * k
                      for k, p in enumerate(e) if p is not None)
               for j, e in row.items()} for row in rows]
    frame = scalars.Packed(None, bits, 0, 0, 0, slot=slot)
    scalars._measure(frame, packed)
    bound, l1, deg, span = decoded_record(frame, packed)
    assert frame.tight and frame.deg == deg
    top = (1 << bits - 1) - 1
    if not bound:
        assert frame.bound == frame.l1 == 0
        return
    assert bound <= frame.bound <= 2 * bound
    assert frame.bound & (frame.bound - 1) == 0 or frame.bound == top
    assert l1 <= frame.l1 == frame.bound * span


def assert_pack_one_sound(field, s):
    """``pack_one`` (the packing of ``scaled``) stores a nonzero element
    as one numerator that decodes back to it, under a tight record that
    bounds its digits."""
    if s:
        (row,), frame = field.pack_one(s)
        assert field.join(row[0], frame) == s and frame.tight
        assert_record_sound(frame, [row])


def entrywise_sums(x, y):
    return [{j: rx.get(j, 0) + ry.get(j, 0) for j in rx.keys() | ry.keys()
             if rx.get(j, 0) + ry.get(j, 0)} for rx, ry in zip(x, y)]


@settings(ORACLE, max_examples=20)
@given(q_matrices(2, 3), q_matrices(2, 3), q_matrices(3, 2),
       q_matrices(4, 4), packed_entries())
def test_every_kernel_record_bounds_its_digits(a, a2, b, m, s):
    """The records the Q(q) kernels build are sound: no bound or l1
    below what the digits they describe hold, also after a cancelling
    sum has left an operand's record loose."""
    loose = (a + a2) - a2
    assert_pack_one_sound(SCALARS, s)
    results = [a * b, a + a2, a - a2, loose * b, a.scaled(s), kron(a, b),
               kron(loose, b), embed(m, (3, 1), (2, 3, 2)),
               m.block(1, 1, 2, 3), loose.block(0, 1, 2, 2),
               ((m + m) - m).block(1, 0, 3, 3), traced_product(m, m, (2, 2)),
               traced_product((m + m) - m, m, (2, 2))]
    results += [m.partial_trace(site, (2, 2)) for site in (1, 2)]
    for r in results:
        assert_record_sound(r.den, r._data)
    # trace: the sum of the diagonal in the frame ``summed`` returns
    rows, frame = m.den.summed(m._data, m.rows)
    diagonal = sum(row.get(i, 0) for i, row in enumerate(rows))
    assert_record_sound(frame, [{0: diagonal}] if diagonal else [{}])
    # equality and sums: both sides and their sums in the common frame
    for x, y in ((a, a2), (loose, a), (a, a.scaled(s))):
        xr, yr, frame = x.den.common(y.den, x._data, y._data)
        assert_record_sound(frame, xr, yr, entrywise_sums(xr, yr))


@settings(ORACLE, max_examples=30)
@given(st.sampled_from((16, 32, 64)), st.data())
def test_decode_matches_the_byte_slice_path(bits, data):
    """``_decode`` reads machine words at 16, 32 and 64 bits; on a
    big-endian byte order it takes the byte slices, and both give the
    coefficients that were packed."""
    top = (1 << (bits - 1)) - 1
    c = data.draw(st.lists(st.one_of(st.integers(-top, top),
                                     st.sampled_from((top, -top, 0))),
                           min_size=1, max_size=6))
    p = IntLaurent(0, c)
    x = scalars._encode(p, bits, 0)
    words = scalars._decode(x, bits)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "byteorder", "big")
        assert scalars._decode(x, bits) == words
    assert IntLaurent(0, words) == p


# ---------------------------------------------------------------------------
# packed function-field numerators
# ---------------------------------------------------------------------------
# A Q(q)(u) or Q(q)(x) matrix stores each numerator sum_j N_j u^j as one
# integer, the image under u -> q^E at q = 2^B.  The hypothesis oracle
# uses negative q-powers, u-degrees up to 4 and denominators that differ;
# the cases after it reach the slot width E and the digit width 2^(B-1).

FFIELDS = (UFIELD, XFIELD)
# unit-normal denominators in Z[q, q^-1][u]: 1, 1 + u, 2 + q u, 1 - q^2 u^2
F_DENS = tuple(Poly(IntLaurent(0, c) for c in p) for p in (
    ((1,),), ((1,), (1,)), ((2,), (0, 1)), ((1,), (), (0, 0, -1))))
f_laurents = st.builds(IntLaurent, st.integers(-4, 3),
                       st.lists(st.integers(-3, 3), min_size=1, max_size=2))


@st.composite
def f_entries(draw, field):
    """Zero, or N/D with N of u-degree up to 4 over Laurent coefficients
    with negative q-powers, and D one of ``F_DENS``.  The entries stay
    small: the oracle normalises every sum and product by a gcd."""
    if draw(st.integers(0, 1)) == 0:
        return field.zero
    coeffs = draw(st.lists(st.one_of(st.just(IntLaurent(0, ())), f_laurents),
                           min_size=1, max_size=5))
    if not coeffs[-1]:
        return field.zero
    return Frac(field, Poly(coeffs), draw(st.sampled_from(F_DENS)))


def f_matrices(field, rows, cols):
    return st.lists(f_entries(field), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda e: TMatrix(field, rows, cols, e))


def assert_packed(m):
    """Every stored numerator is one integer, and the matrix is sparse."""
    assert all(type(x) is int for row in m._data for x in row.values())
    return assert_sparse(m)


@ORACLE
@given(st.sampled_from(FFIELDS), st.data())
def test_packed_function_field_kernels_match_entrywise_frac(field, data):
    a, a2 = (data.draw(f_matrices(field, 2, 3)) for _ in range(2))
    b = data.draw(f_matrices(field, 3, 2))
    m, m2 = (data.draw(f_matrices(field, 4, 4)) for _ in range(2))
    s = data.draw(f_entries(field))
    ae, a2e, me = a.e, a2.e, m.e
    loose = (a + a2) - a2
    assert_pack_one_sound(field, s)
    for r in (a * b, a + a2, loose * b, a.scaled(s), kron(loose, b),
              m.partial_trace(1, (2, 2)), m.block(1, 1, 2, 3),
              traced_product(m, m2, (2, 2))):
        assert_record_sound(r.den, r._data)
    xr, yr, frame = loose.den.common(a.den, loose._data, a._data)
    assert_record_sound(frame, xr, yr, entrywise_sums(xr, yr))
    assert assert_packed(a * b).e == oracle_mul(a, b).e
    assert assert_packed(a + a2).e == [x + y for x, y in zip(ae, a2e)]
    assert assert_packed(a - a2).e == [x - y for x, y in zip(ae, a2e)]
    assert not assert_packed(a - a)
    assert assert_packed(a.scaled(s)).e == [s * x for x in ae]
    assert assert_packed(kron(a, b)).e == oracle_kron(a, b).e
    for site in (1, 2):
        assert assert_packed(m.partial_trace(site, (2, 2))).e == \
            oracle_partial_trace(m, site, (2, 2)).e
    assert m.trace() == sum((m[i, i] for i in range(4)), field.zero)
    # a block keeps a record of its own, and its entries multiply exactly;
    # one of m * u has no u^0 coefficient in any entry
    for big in (m, m.scaled(field.gen)):
        blk = assert_packed(big.block(1, 1, 2, 3))
        assert blk.e == [big[i, j] for i in (1, 2) for j in (1, 2, 3)]
        assert assert_packed(blk * b).e == oracle_mul(blk, b).e
    diag = TMatrix.diag(field, [me[0], me[5], me[0], field.zero])
    for other in (diag, m2):
        assert m.commutes(other) == (oracle_mul(m, other)
                                     == oracle_mul(other, m))
    c = a + TMatrix(field, 2, 3, [field.zero] * 5 + [s - ae[5]])
    assert assert_packed(c).e == ae[:5] + [s]
    assert (a == a2) == (ae == a2e) and (a == c) == (ae == c.e)
    assert first_difference(a, a2) == first_differing(ae, a2e, 3)
    assert first_difference(c, a) == first_differing(c.e, ae, 3)


@settings(ORACLE, max_examples=15)
@given(st.sampled_from(((2, 2), (2, 3), (3, 2))), st.data())
def test_traced_product_is_the_partial_trace_of_the_product(dims, data):
    """tr_1 (a b) from the diagonal blocks of a b alone equals the partial
    trace of the whole product, over Q(q) and over Q(q)(u), with
    denominators that differ, and its record bounds its digits."""
    size = dims[0] * dims[1]
    for strategy in (q_matrices(size, size), f_matrices(UFIELD, size, size)):
        a, b = data.draw(strategy), data.draw(strategy)
        got = assert_packed(traced_product(a, b, dims))
        assert (got.rows, got.cols) == (dims[1], dims[1])
        assert got.e == (a * b).partial_trace(1, dims).e
        assert_record_sound(got.den, got._data)


@pytest.mark.parametrize("field", (SCALARS, UFIELD))
def test_traced_product_of_vanishing_blocks_and_over_a_denominator(field):
    """The diagonal blocks of a b vanish while a b does not, a b vanishes
    while a and b do not, the blocks' terms cancel (and leave no stored
    zero), a and b stand over denominators other than 1,
    and each output entry sums one product per diagonal block, so the
    record counts n terms where a row of a holds one entry."""
    q = Q if field is SCALARS else field.from_coeff(Q)
    x = TMatrix(field, 3, 3, [q, field.one] + [field.zero] * 6 + [field.one])
    e11, e12, e21, e22 = (kron(TMatrix.unit(field, 2, i, j), x)
                          for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)))
    dims = (2, 3)
    off = traced_product(e12, e22, dims)
    assert e12 * e22 and not off and (off.rows, off.cols) == (3, 3)
    assert not e11 * e21 and not traced_product(e11, e21, dims)
    flip = kron(TMatrix.diag(field, [field.one, -field.one]), x)
    assert flip and not traced_product(TMatrix.identity(field, 6), flip, dims)
    rng = random.Random(281)
    a = rand_fraction_matrix(rng, field, 6, 6)
    b = rand_fraction_matrix(rng, field, 6, 6)
    assert not den_of(a).is_one() and not den_of(b).is_one()
    got = traced_product(a, b, dims)
    assert got == (a * b).partial_trace(1, dims)
    assert got.e == oracle_partial_trace(oracle_mul(a, b), 1, dims).e
    assert_record_sound(got.den, got._data)
    ones = TMatrix(field, 6, 6, [field.one] * 36)
    got = traced_product(TMatrix.identity(field, 6), ones, dims)
    assert got.e == [field.one + field.one] * 9
    assert_record_sound(got.den, got._data)
    with pytest.raises(ValueError):
        traced_product(a, b, (4, 2))
    with pytest.raises(ValueError):
        traced_product(a.block(0, 0, 4, 4), b, (2, 2))


def f_poly(field, *terms):
    """The polynomial sum c q^k u^j over the (c, k, j) in ``terms``."""
    u = field.gen
    return sum((field.from_coeff(Scalar.q_power(k) * Scalar.from_int(c))
                * u ** j for c, k, j in terms), field.zero)


def test_function_field_product_chain_widens_the_slot():
    """A^k over a denominator, with q-exponents from -20 to 21, against
    the same powers taken entrywise: the q-degree bound grows by 41 per
    factor, so the chain widens E twice, and every decode after that
    reads the wider slots."""
    for field in FFIELDS:
        a = TMatrix.from_rows(field, [
            [f_poly(field, (1, -20, 0), (1, 21, 1)) / (field.one + field.gen),
             f_poly(field, (1, 3, 2))],
            [f_poly(field, (1, 0, 0), (1, 1, 1)), f_poly(field, (-3, -2, 0))]])
        acc, want = a, a.e
        slots = [a.den.slot]
        for _ in range(3):
            acc = assert_packed(acc * a)
            want = oracle_mul(TMatrix(field, 2, 2, want), a).e
            assert acc.e == want
            slots.append(acc.den.slot)
        assert slots == [scalars.SLOT, 2 * scalars.SLOT, 2 * scalars.SLOT,
                         4 * scalars.SLOT]


def test_a_shifted_sum_widens_the_slot():
    """q^50 + u plus q^-20 u: the sum's frame shifts the left side up by
    q^20, so its u^0 coefficient reaches q-degree 70, beyond E; the degree
    rule must count that shift and widen."""
    for field in FFIELDS:
        left = TMatrix(field, 1, 1, [f_poly(field, (1, 50, 0), (1, 0, 1))])
        right = TMatrix(field, 1, 1, [f_poly(field, (1, -20, 1))])
        for x, y in ((left, right), (right, left)):
            total = assert_packed(x + y)
            assert total.den.slot > scalars.SLOT
            assert total[0, 0] == left[0, 0] + right[0, 0]
            assert x != y and first_difference(x, y)[2:] == (x[0, 0],
                                                            y[0, 0])
        assert left - left.scaled(field.one) == TMatrix.zeros(field, 1, 1)


def test_a_re_measured_record_widens_the_slot_at_the_edge():
    """A cancelling sum leaves q^40 u + 1 with a loose record; times
    q^24 + u its degree need is exactly E, so the record is re-measured
    and, at its true q-degree 40, the slot still widens: the product has
    a u-coefficient of q-degree 64."""
    for field in FFIELDS:
        x = TMatrix(field, 1, 1, [f_poly(field, (1, 40, 1), (1, 0, 0))])
        pad = TMatrix(field, 1, 1, [f_poly(field, (1, 40, 0))])
        loose = (x + pad) - pad
        y = TMatrix(field, 1, 1, [f_poly(field, (1, 24, 0), (1, 0, 1))])
        assert not loose.den.tight and loose.den.deg + y.den.deg == 64
        product = assert_packed(loose * y)
        assert loose.den.tight and loose.den.deg == 40
        assert product.den.slot > scalars.SLOT
        assert product[0, 0] == x[0, 0] * y[0, 0]


def test_function_field_product_widens_the_digits():
    for field in FFIELDS:
        big = f_poly(field, (HALF - 1, 0, 0), (1, 1, 1))
        a = TMatrix(field, 2, 2, [big, field.gen, -big, field.one])
        assert a.den.bits == scalars.BITS
        sq = assert_packed(a * a)
        assert sq.den.bits > scalars.BITS
        assert sq.e == oracle_mul(a, a).e
        assert kron(a, a).e == oracle_kron(a, a).e


def test_lift_reads_the_packed_integers_as_one_slot():
    rng = random.Random(46)
    for field in FFIELDS:
        m = rand_fraction_matrix(rng, SCALARS, 3, 3, density=0.6)
        lifted = lift(m, field)
        assert lifted._data is m._data and lifted.den.den == Poly((m.den.den,))
        assert lifted.e == [field.from_coeff(x) for x in m.e]
        s = field.gen + field.from_coeff(Q)
        assert (lifted.scaled(s) * lifted).e == oracle_mul(
            TMatrix(field, 3, 3, [x * s for x in lifted.e]), lifted).e


# ---------------------------------------------------------------------------
# pencil inverses
# ---------------------------------------------------------------------------
# ``pencil_inverse`` inverts A - tB through the annihilator of
# K = A^-1 B over Q(q); Gauss-Jordan over Q(q)(u) is the oracle.

def powers_of(k):
    """j -> K^j, each power taken once."""
    out = [TMatrix.identity(k.field, k.rows)]

    def power(j):
        while len(out) <= j:
            out.append(out[-1] * k)
        return out[j]

    return power


def check_pencil(a, b, reverse):
    """The kernel against Gauss-Jordan for A - uB, or A - u^-1 B."""
    ainv = a.inverse()
    got = pencil_inverse(ainv, powers_of(ainv * b), UFIELD, reverse)
    u = UFIELD.gen
    t = u.inverse() if reverse else u
    assert got == (lift(a, UFIELD) - lift(b, UFIELD).scaled(t)).inverse()
    # the denominator is in normal form: lowest q-exponent 0, positive
    # leading integer
    den = got.den.den
    assert min(c.low for c in den.c if c) == 0 and den.c[-1].c[-1] > 0


@st.composite
def pencil_entries(draw):
    """Zero, or a Laurent polynomial with a negative q-power allowed, over
    a polynomial in q."""
    if draw(st.integers(0, 2)) == 0:
        return ZERO
    num = IntLaurent(draw(st.integers(-2, 1)),
                     draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2)))
    return Scalar(num, draw(st.sampled_from(Q_DENS))) if num else ZERO


@st.composite
def pencils(draw):
    """(A, B) over Q(q), 2 x 2, A invertible (the oracle's elimination
    over Q(q)(u) can take seconds on 3 x 3 ones)."""
    entries = st.lists(pencil_entries(), min_size=4, max_size=4)
    a, b = (TMatrix(SCALARS, 2, 2, draw(entries)) for _ in range(2))
    assume(a.rank() == 2)
    return a, b


@settings(ORACLE, max_examples=20)
@given(pencils(), st.booleans())
def test_pencil_inverse_matches_gauss_jordan(pencil, reverse):
    check_pencil(*pencil, reverse)


def test_pencil_inverse_of_constant_and_nilpotent_pencils():
    # K = 0 gives p(t) = t; K nilpotent of order 2 gives p(t) = t^2
    a = TMatrix.diag(SCALARS, [Q, qnum(2)])
    for b in (TMatrix.zeros(SCALARS, 2, 2), TMatrix.unit(SCALARS, 2, 1, 2)):
        for reverse in (False, True):
            check_pencil(a, b, reverse)


def test_pencil_inverse_matches_gauss_jordan_3x3():
    rng = random.Random(1013)
    for _ in range(2):
        a = rand_invertible(rng, SCALARS, 3)
        b = rand_matrix(rng, 3, 3)
        for reverse in (False, True):
            check_pencil(a, b, reverse)


def test_pencil_inverse_is_linear_in_the_annihilator(monkeypatch):
    # the annihilator is integral and need not be monic: its coefficients
    # times the non-unit 1 + q^2 give the same inverse, since
    # (I - tK) sum_j t^j B_j = p~(t) I - t^r p(K) is linear in them
    rng = random.Random(1019)
    pencils = [(rand_invertible(rng, SCALARS, 3), rand_matrix(rng, 3, 3))
               for _ in range(2)]
    pencils.append((TMatrix.diag(SCALARS, [Q, qnum(2)]),
                    TMatrix.unit(SCALARS, 2, 1, 2)))
    expected = {}
    for k, (a, b) in enumerate(pencils):
        ainv = a.inverse()
        power = powers_of(ainv * b)
        coeffs = tmatrix._annihilator(power, UFIELD)
        assert all(c.den.is_one() for c in coeffs)
        for reverse in (False, True):
            expected[k, reverse] = pencil_inverse(ainv, power, UFIELD, reverse)
    real = tmatrix._annihilator
    factor = ONE + Q * Q
    monkeypatch.setattr(tmatrix, "_annihilator", lambda power, field: [
        c * factor for c in real(power, field)])
    for k, (a, b) in enumerate(pencils):
        ainv = a.inverse()
        for reverse in (False, True):
            got = pencil_inverse(ainv, powers_of(ainv * b), UFIELD, reverse)
            assert got == expected[k, reverse]


# ---------------------------------------------------------------------------
# the one elimination step
# ---------------------------------------------------------------------------
# Every elimination inserts rows in order with leftmost pivots
# (``tmatrix._insert``), which gives the reduced row echelon form: unique,
# so no result may depend on the order of the rows.

def permutation_sign(perm):
    """The sign of a permutation, from its cycle lengths."""
    sign, seen = 1, set()
    for i in range(len(perm)):
        length = 0
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


@st.composite
def permuted_systems(draw):
    """(A, P, sign of P, rhs): A square over Q(q) with small entries,
    singular or not, P a permutation matrix and rhs two columns."""
    n = draw(st.integers(1, 3))
    entries = st.lists(pencil_entries(), min_size=n * n, max_size=n * n)
    a = TMatrix(SCALARS, n, n, draw(entries))
    perm = draw(st.permutations(range(n)))
    p = TMatrix(SCALARS, n, n, [ONE if j == perm[i] else ZERO
                                for i in range(n) for j in range(n)])
    rhs = TMatrix(SCALARS, n, 2, draw(st.lists(pencil_entries(),
                                               min_size=2 * n,
                                               max_size=2 * n)))
    return a, p, permutation_sign(perm), rhs


@settings(ORACLE, max_examples=40)
@given(permuted_systems())
def test_row_order_leaves_elimination_unchanged(system):
    a, p, sign, rhs = system
    pa = p * a
    assert pa.rank() == a.rank()
    assert pa.nullspace() == a.nullspace()
    assert pa.det() == (a.det() if sign > 0 else -a.det())
    if a.rank() < a.rows:
        with pytest.raises(SingularMatrixError):
            pa.inverse()
        return
    # (PA)^-1 P = A^-1, and PA X = P rhs has the solution of A X = rhs
    assert pa.inverse() * p == a.inverse()
    assert pa.solve(p * rhs) == a.solve(rhs)


def test_nullspace_is_read_from_leftmost_pivots():
    # [1 q 1] pivots on column 0, so columns 1 and 2 are free: the basis
    # is (-q, 1, 0), (-1, 0, 1), each scaled to first coordinate 1; a
    # pivot on another column would free column 0
    a = TMatrix(SCALARS, 1, 3, [ONE, Q, ONE])
    assert a.nullspace() == [
        TMatrix.column(SCALARS, [ONE, -Q.inverse(), ZERO]),
        TMatrix.column(SCALARS, [ONE, ZERO, -ONE])]


# ---------------------------------------------------------------------------
# matrices are immutable
# ---------------------------------------------------------------------------
# Kernels share rows and packing records with their operands, so none
# may write to one: each case snapshots every operand's dense view and
# compares it after each kernel.

def assert_operands_unchanged(a, a2, b, m, s):
    """Run every kernel on a, a2 of size 2x3, b of size 3x2, m of size 4x4
    (factored as (2, 2)) and a field element s, comparing each operand's
    dense view with its snapshot after each kernel."""
    zero = TMatrix.zeros(a.field, a.rows, a.cols)
    kernels = [
        ("*", lambda: a * b),
        ("+", lambda: a + a2),
        ("+ zero", lambda: a + zero),
        ("zero -", lambda: zero - a),
        ("-", lambda: a - a2),
        ("scaled", lambda: a.scaled(s)),
        ("kron", lambda: kron(a, b)),
        ("embed", lambda: embed(m, (3, 1), (2, 3, 2))),
        ("partial_trace", lambda: m.partial_trace(1, (2, 2))),
        ("partial_transpose", lambda: m.partial_transpose(2, (2, 2))),
        ("block", lambda: m.block(1, 1, 2, 3)),
        ("negated twin", lambda: -m * m),
        ("==", lambda: a == a2),
        ("first_difference", lambda: first_difference(a, a2)),
    ]
    operands = (a, a2, b, m)
    before = [x.e for x in operands]
    for name, run in kernels:
        run()
        assert [x.e for x in operands] == before, name


@settings(ORACLE, max_examples=15)
@given(q_matrices(2, 3), q_matrices(2, 3), q_matrices(3, 2),
       q_matrices(4, 4), packed_entries())
def test_kernels_leave_packed_operands_unchanged(a, a2, b, m, s):
    assert_operands_unchanged(a, a2, b, m, s)


def fraction_u_matrices(rows, cols):
    return u_matrices(rows, cols).filter(lambda x: not x.den.den.is_one())


@settings(ORACLE, max_examples=10)
@given(fraction_u_matrices(2, 3), fraction_u_matrices(2, 3),
       fraction_u_matrices(3, 2), fraction_u_matrices(4, 4),
       u_fractions())
def test_kernels_leave_fraction_operands_unchanged(a, a2, b, m, s):
    assert_operands_unchanged(a, a2, b, m, s)


def test_measuring_a_shared_record_keeps_both_matrices_exact():
    """A negated twin shares its packing record.  A cancelling sum leaves
    a loose bound, so squaring the twin re-measures the shared record in
    place; the original still reads the same values and multiplies
    exactly."""
    h = Scalar.from_int(HALF // 4)
    m = TMatrix(SCALARS, 2, 2, [h, Q, ZERO, h]) - TMatrix(
        SCALARS, 2, 2, [h - ONE, ZERO, ZERO, h + Q])
    twin = -m
    assert twin.den is m.den
    before, loose = m.e, m.den.bound
    square = twin * twin
    assert m.den.bound < loose and square.den.bits == scalars.BITS
    assert m.e == before == [ONE, Q, ZERO, -Q]
    assert square.e == oracle_mul(m, m).e and m * m == square


def test_matrices_have_no_writer():
    for cls in (TMatrix, scalars.Packed, Poly):
        for name in ("set", "put", "copy"):
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
