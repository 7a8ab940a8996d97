"""Constant R-matrices, braid/Hecke relations, q-antisymmetrizers."""

import itertools
import math
import random

from qgelfand import faults, rmatrix
from qgelfand.scalars import (Scalar, SCALARS, UFIELD, XFIELD, qnum, ONE,
                              ZERO, Q, QINV, Q_MINUS_QINV)
from qgelfand.tmatrix import TMatrix, embed, lift
from qgelfand.rmatrix import (build_rmatrix_set, r0, r0_inverse,
                              check_yang_baxter,
                              crossing_scalar, predicted_crossing_scalar,
                              f_series, f_series_residual, f1_closed_form_check,
                              antisymmetrizer, antisymmetrizer_r0_check,
                              pq_action_check, reduced_word_independence,
                              perm_compose, perm_inverse, perm_length,
                              reduced_word, q_perm)


def flat(n, a, b):
    return (a - 1) * n + (b - 1)


# ---------------------------------------------------------------------------
# entries and algebraic relations of the constant operators
# ---------------------------------------------------------------------------

def test_r_matrix_entries_n2():
    rset = build_rmatrix_set(2)
    r = rset.R
    assert r[flat(2, 1, 1), flat(2, 1, 1)] == Q
    assert r[flat(2, 2, 2), flat(2, 2, 2)] == Q
    assert r[flat(2, 1, 2), flat(2, 1, 2)] == ONE
    assert r[flat(2, 1, 2), flat(2, 2, 1)] == Q_MINUS_QINV
    assert r[flat(2, 2, 1), flat(2, 1, 2)] == SCALARS.zero
    rt = rset.Rtilde
    assert rt[flat(2, 1, 1), flat(2, 1, 1)] == QINV
    assert rt[flat(2, 2, 1), flat(2, 1, 2)] == -Q_MINUS_QINV
    assert rt[flat(2, 1, 2), flat(2, 2, 1)] == SCALARS.zero


def test_rtilde_is_inverse_transform():
    # R~ = R^-1 with q -> q^-1 entrywise: equivalently R R|_{q->q^-1}... the
    # robust statement is P R P = (R~ with q -> q^-1), checked entrywise
    for n in (2, 3):
        rset = build_rmatrix_set(n)
        got = rset.P * rset.R * rset.P
        expect = rset.Rtilde.map_entries(lambda s: s.subs_qinv())
        assert got == expect


def test_hecke_relation():
    # PR satisfies (PR - q)(PR + q^-1) = 0
    for n in (2, 3):
        rset = build_rmatrix_set(n)
        pr = rset.P * rset.R
        eye = TMatrix.identity(SCALARS, n * n)
        prod = (pr - eye.scaled(Q)) * (pr + eye.scaled(QINV))
        assert not prod


def test_flip_and_q_flip_squares():
    for n in (2, 3):
        rset = build_rmatrix_set(n)
        eye = TMatrix.identity(SCALARS, n * n)
        assert rset.P * rset.P == eye
        assert rset.Pq * rset.Pq == eye


def test_d_trace_is_quantum_dimension():
    for n in range(1, 5):
        d = build_rmatrix_set(n).D
        assert d.trace() == qnum(n)
        assert d[0, 0] == Scalar.q_power(n - 1)
        assert d[n - 1, n - 1] == Scalar.q_power(1 - n)


def test_d_inverse_is_the_inverse_of_d():
    for n in range(1, 5):
        rset = build_rmatrix_set(n)
        assert rset.Dinv * rset.D == TMatrix.identity(SCALARS, n)


def test_rmatrix_set_is_built_once_per_n_and_probe():
    # one shared set per (n, rmatrix probe); the probe gets a set of its
    # own, and leaving it gives back the clean set
    rmatrix._rmatrix_set.cache_clear()
    clean = build_rmatrix_set(2)
    assert build_rmatrix_set(2) is clean
    assert build_rmatrix_set(3) is not clean
    with faults.inject("rmatrix"):
        faulty = build_rmatrix_set(2)
        assert build_rmatrix_set(2) is faulty
    assert faulty is not clean
    assert faulty.R != clean.R
    assert faulty.Rtilde == clean.Rtilde
    assert build_rmatrix_set(2) is clean
    for kind in ("rep", "qnum"):
        with faults.inject(kind):
            assert build_rmatrix_set(2) is clean
    assert rmatrix._rmatrix_set.cache_info().misses == 3


def test_r0_specialisations():
    # R - x R~ at x=1 is (q - q^-1) P, at x=q^2 it is (1-q^2) A^(2)
    for n in (2, 3):
        rset = build_rmatrix_set(n)
        u = UFIELD
        at_one = r0(n, u.one)
        expect = lift(rset.P, u).scaled(u.from_coeff(Q_MINUS_QINV))
        assert at_one == expect
        assert antisymmetrizer_r0_check(n)


def test_q_operator_is_partial_transpose_of_flip():
    for n in (2, 3):
        rset = build_rmatrix_set(n)
        assert rset.Q == rset.P.partial_transpose(1, (n, n))
        assert rset.Q * rset.Q == rset.Q.scaled(Scalar.from_int(n))


# ---------------------------------------------------------------------------
# Yang-Baxter, crossing, f-series
# ---------------------------------------------------------------------------

def test_yang_baxter_n2():
    v = check_yang_baxter(2)
    assert v, v.witness


def ybe_coefficients(n, reverse):
    """{(i, j): c_ij} over Q(q) with R0_12(x) R0_13(xy) R0_23(y)
    = sum c_ij x^i y^j, or the reversed product when ``reverse``.

    Each of the 8 products picks R or -R~ at every site; -R~ at sites
    12 and 13 adds one to the x degree, at sites 13 and 23 to the y
    degree."""
    rset = build_rmatrix_set(n)
    dims = (n, n, n)
    sites = ((1, 2), (1, 3), (2, 3))
    ops = {s: (embed(rset.R, s, dims), -embed(rset.Rtilde, s, dims))
           for s in sites}
    out = {}
    for a, b, c in itertools.product((0, 1), repeat=3):
        factors = [ops[(1, 2)][a], ops[(1, 3)][b], ops[(2, 3)][c]]
        if reverse:
            factors.reverse()
        prod = factors[0] * factors[1] * factors[2]
        key = (a + b, b + c)
        out[key] = out[key] + prod if key in out else prod
    return out


def test_yang_baxter_at_x_cubed_matches_coefficient_oracle():
    # the sides over Q(q)(x) at y = x^3, built as check_yang_baxter does,
    # carry c_ij at x^(i+3j) and nothing else, and c_ij agree side by side
    for n in (2, 3):
        dims = (n, n, n)
        x = XFIELD.gen
        y = x ** 3
        r12 = embed(r0(n, x), (1, 2), dims)
        r13 = embed(r0(n, x * y), (1, 3), dims)
        r23 = embed(r0(n, y), (2, 3), dims)
        sides = {False: r12 * (r13 * r23), True: (r23 * r13) * r12}
        oracle = {rev: ybe_coefficients(n, rev) for rev in sides}
        assert oracle[False] == oracle[True]
        for rev, side in sides.items():
            for r in range(n ** 3):
                for col in range(n ** 3):
                    expect = [ZERO] * 9
                    for (i, j), c in oracle[rev].items():
                        expect[i + 3 * j] = c[r, col]
                    entry = side[r, col]
                    assert entry.den.is_one()
                    assert entry == XFIELD.poly(expect), (n, rev, r, col)


def test_yang_baxter_fault_witness_n2():
    with faults.inject("rmatrix"):
        v = check_yang_baxter(2)
    assert not v
    assert v.witness.startswith("Yang-Baxter n=2 at y=x^3: entry (1,2): ")


def test_crossing_n1_n2():
    for n in (1, 2):
        res = crossing_scalar(n)
        assert res.proportional, res.proportional.witness
        assert res.matches_predicted, res.matches_predicted.witness


def test_r0_inverse_matches_gauss_jordan():
    # the pencil kernel against elimination over Q(q)(x), clean and
    # under every fault kind (the rmatrix fault raises the degree to 3)
    for kind in (None,) + faults.KINDS:
        with faults.inject(kind):
            for n in (2, 3, 4):
                got = r0_inverse(n)
                assert got == r0(n, XFIELD.gen).inverse(), (kind, n)
    # clean, R^-1 R~ is annihilated by (t - q^2)(t - q^-2)
    x, qf = XFIELD.gen, XFIELD.from_coeff
    den = (XFIELD.one - qf(Q * Q) * x) * (XFIELD.one - qf(QINV * QINV) * x)
    for n in (2, 3, 4):
        # the matrix denominator is the normal-form denominator of 1/den
        assert r0_inverse(n).den.den == den.inverse().den


def test_crossing_predicted_scalar_at_n1():
    # for n=1 both sides are scalars and c(x) = (q - qx)(1-x)(1-q^2 x)
    # / ((q - q^-1 x)(1-q^2 x)(1-x)) = q(1-x)/(q - q^-1 x)
    x = UFIELD.gen
    got = predicted_crossing_scalar(1, x)
    qf = UFIELD.from_coeff
    expect = qf(Q) * (UFIELD.one - x) / (qf(Q) - qf(QINV) * x)
    assert got == expect


def test_f_series_residual_and_f1():
    for n in (2, 3):
        fs = f_series(n, 6)
        assert f_series_residual(fs), f_series_residual(fs).witness
        assert f1_closed_form_check(n)
    f1 = f_series(2, 1).coeffs[1]
    assert f1 == (Scalar.q_power(2) - ONE) / (Scalar.q_power(2) + ONE)


# ---------------------------------------------------------------------------
# symmetric group machinery
# ---------------------------------------------------------------------------

def test_perm_helpers_random():
    rng = random.Random(30)
    for _ in range(60):
        k = rng.randint(1, 6)
        p = list(range(1, k + 1))
        rng.shuffle(p)
        p = tuple(p)
        inv = perm_inverse(p)
        assert perm_compose(p, inv) == tuple(range(1, k + 1))
        # length counts inversions and matches the reduced word
        inversions = sum(1 for i in range(k) for j in range(i + 1, k)
                         if p[i] > p[j])
        for from_right in (False, True):
            word = reduced_word(p, from_right)
            assert perm_length(p) == inversions == len(word)
            # rebuild from the word: s_a swaps positions a, a+1 acting
            # on the left
            q = tuple(range(1, k + 1))
            for a in word:
                s = tuple(a + 1 if x == a else a if x == a + 1 else x
                          for x in range(1, k + 1))
                q = perm_compose(q, s)
            assert q == p


def test_q_perm_word_independence_longest_element():
    # the two standard words for the longest element of S_3
    w0 = (3, 2, 1)
    op1 = q_perm(w0, 2, word=(1, 2, 1))
    op2 = q_perm(w0, 2, word=(2, 1, 2))
    assert op1 == op2


def test_reduced_word_independence_s3():
    # the check compares two different words, at least on w0
    assert reduced_word((3, 2, 1)) == (1, 2, 1)
    assert reduced_word((3, 2, 1), from_right=True) == (2, 1, 2)
    assert reduced_word_independence(3, 2)


def test_pq_action_formula():
    for k, n in ((2, 2), (2, 3), (3, 3)):
        assert pq_action_check(k, n)


def test_antisymmetrizer_ranks():
    for n in (2, 3):
        for k in range(1, n + 1):
            a = antisymmetrizer(k, n)
            assert a.rank() == math.comb(n, k), (k, n)
    # vanishing beyond the exterior power
    assert not antisymmetrizer(3, 2)


def test_antisymmetrizer_is_the_signed_sum_over_s_k():
    # the coset recursion against the k!-term sum it regroups
    for n in (1, 2, 3):
        for k in range(1, 5):
            total = n ** k
            expect = TMatrix.zeros(SCALARS, total, total)
            for perm in itertools.permutations(range(1, k + 1)):
                term = q_perm(perm, n)
                expect = expect + (-term if perm_length(perm) % 2 else term)
            assert antisymmetrizer(k, n) == expect, (k, n)


def test_antisymmetrizer_quasi_idempotent():
    # A^(2) P_q = -A^(2) = P_q A^(2): top-degree antisymmetry
    rset = build_rmatrix_set(2)
    a2 = antisymmetrizer(2, 2)
    assert a2 * rset.Pq == -a2
    assert rset.Pq * a2 == -a2
