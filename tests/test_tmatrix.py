"""Dense exact matrices: arithmetic, elimination, tensor-leg operations."""

import random

import pytest

from qgelfand.scalars import Scalar, SCALARS, UFIELD, ONE, ZERO, Q, qnum
from qgelfand.tmatrix import (TMatrix, SingularMatrixError, kron, embed, lift,
                              first_difference)


def rand_entry(rng):
    # small Laurent binomials keep elimination cheap but nontrivial
    s = Scalar.q_power(rng.randint(-3, 3)) * Scalar.from_int(rng.randint(-3, 3))
    if rng.random() < 0.4:
        s = s + Scalar.from_int(rng.randint(-2, 2))
    return s

def rand_matrix(rng, rows, cols):
    return TMatrix(SCALARS, rows, cols,
                   [rand_entry(rng) for _ in range(rows * cols)])


def naive_mul(a, b):
    out = TMatrix.zeros(a.field, a.rows, b.cols)
    e = list(out.e)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = a.field.zero
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            e[i * b.cols + j] = acc
    return TMatrix(a.field, a.rows, b.cols, e)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_mul_matches_naive_random():
    rng = random.Random(10)
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = rand_matrix(rng, a.cols, rng.randint(1, 5))
        assert a * b == naive_mul(a, b)


def test_mul_shape_mismatch():
    a = TMatrix.identity(SCALARS, 2)
    b = TMatrix.identity(SCALARS, 3)
    with pytest.raises(AssertionError):
        a * b


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
    assert a.shape == inv.shape == (2, 2)
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
    ab = kron(a, b).with_shape((2, 2))
    assert embed(a, (1,), (2, 2)) == kron(a, eye).with_shape((2, 2))
    assert embed(b, (2,), (2, 2)) == kron(eye, b).with_shape((2, 2))
    assert embed(ab, (1, 2), (2, 2)) == ab
    # acting on the outer pair of three legs
    a13 = embed(ab, (1, 3), (2, 2, 2))
    direct = kron(kron(a, eye), b).with_shape((2, 2, 2))
    assert a13 == direct


def test_partial_trace_and_transpose():
    rng = random.Random(20)
    a, b = rand_matrix(rng, 2, 2), rand_matrix(rng, 3, 3)
    k = kron(a, b).with_shape((2, 3))
    assert k.partial_trace(1) == b.scaled(a.trace())
    assert k.partial_trace(2) == a.scaled(b.trace())
    assert k.partial_transpose(1) == kron(a.transpose(), b).with_shape((2, 3))
    assert k.partial_transpose(2) == kron(a, b.transpose()).with_shape((2, 3))


def test_q_operator_transpose_identity():
    # Q = sum e_ab (x) e_ab satisfies Q (X (x) 1) = Q (1 (x) X^t)
    from qgelfand.rmatrix import build_rmatrix_set
    rng = random.Random(21)
    for n in (2, 3):
        q_op = build_rmatrix_set(n).Q
        x = rand_matrix(rng, n, n)
        eye = TMatrix.identity(SCALARS, n)
        lhs = q_op * kron(x, eye).with_shape((n, n))
        rhs = q_op * kron(eye, x.transpose()).with_shape((n, n))
        assert lhs == rhs


def test_lift_and_first_difference():
    rng = random.Random(22)
    a = rand_matrix(rng, 2, 3)
    la = lift(a, UFIELD)
    assert la.field is UFIELD
    assert la[1, 2] == UFIELD.from_coeff(a[1, 2])
    b = a.copy()
    assert first_difference(a, b) is None
    e = list(b.e)
    e[4] = e[4] + ONE
    b = TMatrix(SCALARS, 2, 3, e)
    diff = first_difference(a, b)
    assert diff is not None and diff[:2] == (1, 1)
