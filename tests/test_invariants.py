"""Gelfand invariants, quantum determinants and the central series z(u)."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qgelfand.scalars import (IntLaurent, Scalar, SCALARS, UFIELD, qnum,
                              expand, ONE, Q, QINV)
from qgelfand.tmatrix import TMatrix, lift
from qgelfand.reps import (WeightError, vector_rep, tensor_power,
                           highest_weight_vector, scalar_on_vector,
                           evaluated_L)
from qgelfand import faults, formulas, invariants as inv


def v(n):
    return vector_rep(n)


def vv(n, N):
    return tensor_power(vector_rep(n), N)


# ---------------------------------------------------------------------------
# closed forms over Q(q)
# ---------------------------------------------------------------------------

def test_shifted_weights():
    assert formulas.shifted_weights(3, (2, 1, 0)) == (4, 2, 0)
    assert formulas.shifted_weights(2, (0, 0)) == (1, 0)
    with pytest.raises(WeightError, match="length"):
        formulas.shifted_weights(2, (1, 0, 0))


def test_require_dominant_message():
    with pytest.raises(WeightError) as err:
        formulas.require_dominant(2, (0, 1))
    assert str(err.value) == ("weight (0, 1) is not dominant: "
                              "repeated shifted weight l_1 = l_2 = 1")


def test_closed_form_goldens():
    e = formulas.closed_form_eigenvalue
    assert e(2, (1, 0), 0).render() == "q + q^-1"
    assert e(2, (1, 0), 1).render() == "q^3 + q^-1"
    assert e(2, (2, 0), 1).render() == "q^5 + q^-1"
    assert e(1, (5,), 3) == Scalar.q_power(30)


def test_closed_form_m0_is_quantum_dimension_sum():
    # E_0 telescopes to [n] for every dominant weight
    for n, lam in ((2, (1, 0)), (2, (3, 1)), (3, (2, 1, 0)), (4, (1, 1, 0, 0))):
        assert formulas.closed_form_eigenvalue(n, lam, 0) == qnum(n)


def test_closed_form_eval_at_rational_q():
    e = formulas.closed_form_eigenvalue(2, (1, 0), 1)
    assert e.eval_at(Fraction(2)) == Fraction(17, 2)
    assert e.eval_at(Fraction(3, 2)) == Fraction(97, 24)
    e = formulas.closed_form_eigenvalue(2, (2, 0), 1)
    assert e.eval_at(Fraction(1)) == 2


def test_classical_spots():
    assert formulas.classical_eigenvalue(2, (1, 0), 1) == 1
    assert formulas.classical_eigenvalue(2, (1, 0), 2) == 2
    assert formulas.classical_limit_value(2, (1, 0), 1) == 1
    assert formulas.classical_limit_value(2, (1, 0), 2) == 2
    assert formulas.classical_limit_value(2, (1, 0), 0) == 2
    assert formulas.classical_limit_value(3, (0, 0, 0), 1) == 0


def test_classical_limit_sweep():
    for n, lam in ((1, (4,)), (2, (2, 1)), (2, (3, 0)), (3, (2, 1, 0)),
                   (3, (1, 1, 1)), (4, (1, 0, 0, 0))):
        for m in range(1, 5):
            assert formulas.classical_limit_check(n, lam, m), (n, lam, m)


def test_series_factor_forms():
    for n in range(1, 5):
        f = formulas.series_factor(n)
        assert f == Scalar.q_power(n - 1) - Scalar.q_power(n + 1)
        assert f == (ONE - Scalar.q_power(2 * n)) / qnum(n)


def test_partial_fraction_constants():
    for n, lam in ((2, (1, 0)), (3, (1, 0, 0)), (3, (2, 1, 0))):
        c, a = formulas.partial_fraction_constants(n, lam)
        assert c == Scalar.q_power(2 * n)
        # z(0) = 1 pins the residue sum
        total = SCALARS.zero
        for ak in a:
            total = total + ak
        assert total == ONE - Scalar.q_power(2 * n)


# ---------------------------------------------------------------------------
# the batch eigenvalue path against term-by-term and Fraction oracles
# ---------------------------------------------------------------------------

def per_m_eigenvalue(n, lam, m):
    """E_m term by term, every product and sum normalised on its own."""
    ell = formulas.shifted_weights(n, lam)
    acc = SCALARS.zero
    for k in range(n):
        term = Scalar.q_power(2 * ell[k] * m)
        for i in range(n):
            if i != k:
                term = term * qnum(ell[i] - ell[k] + 1) / qnum(ell[i] - ell[k])
        acc = acc + term
    return acc


def per_k_partial_fractions(n, lam):
    ell = formulas.shifted_weights(n, lam)
    a = []
    for k in range(n):
        term = formulas.series_factor(n)
        for i in range(n):
            if i != k:
                term = term * qnum(ell[i] - ell[k] + 1) / qnum(ell[i] - ell[k])
        a.append(term)
    c = ONE
    for ak in a:
        c = c - ak
    return c, a


def fraction_eigenvalue(n, lam, m, q):
    ell = [lam[i] + n - 1 - i for i in range(n)]

    def qint(k):
        return (q ** k - q ** -k) / (q - 1 / q)

    total = Fraction(0)
    for k in range(n):
        term = q ** (2 * ell[k] * m)
        for i in range(n):
            if i != k:
                term *= qint(ell[i] - ell[k] + 1) / qint(ell[i] - ell[k])
        total += term
    return total


def classical_oracle(n, lam, m):
    """The classical eigenvalue term by term, one ``Fraction`` per k."""
    ell = [lam[i] + n - 1 - i for i in range(n)]
    total = Fraction(0)
    for k in range(n):
        num, den = ell[k] ** m, 1
        for i in range(n):
            if i != k:
                num *= ell[i] - ell[k] + 1
                den *= ell[i] - ell[k]
        total += Fraction(num, den)
    return total


def random_dominant_weights(seed, count):
    """Seeded dominant weights with n = 1..6 and sum |lambda_i| <= 16,
    negative entries included, plus weights with a zero weight c_k
    (equal neighbours lambda_k = lambda_k+1, so l_k - l_k+1 = 1)."""
    rng = random.Random(seed)
    out = [(1, (0,)), (1, (-7,)), (2, (0, 0)), (3, (2, 2, -1)),
           (4, (3, 0, 0, -3)), (6, (0,) * 6), (6, (16, 0, 0, 0, 0, 0)),
           (6, (0, 0, 0, 0, 0, -16))]
    while len(out) < count:
        n = rng.randint(1, 6)
        bound = 16 // n + 1
        lam = sorted((rng.randint(-bound, bound) for _ in range(n)),
                     reverse=True)
        if n > 1 and rng.random() < 0.5:
            i = rng.randrange(n - 1)
            lam[i + 1] = lam[i]
            lam.sort(reverse=True)
        if sum(map(abs, lam)) <= 16:
            out.append((n, tuple(lam)))
    return out


BATCH_WEIGHTS = random_dominant_weights(5, 40)


def test_batch_weights_cover_zero_weights_and_negatives():
    zero_weight = [lam for n, lam in BATCH_WEIGHTS
                   if not all(formulas._pp_weights(n, lam)[1])]
    assert len(zero_weight) >= 10
    assert any(min(lam) < 0 for _, lam in BATCH_WEIGHTS)
    assert {n for n, _ in BATCH_WEIGHTS} == set(range(1, 7))


@pytest.mark.parametrize("n,lam", BATCH_WEIGHTS)
def test_closed_form_batch_matches_oracles(n, lam):
    batch = formulas.closed_form_eigenvalues(n, lam, range(7))
    q0 = Fraction(3, 2)
    for m, e in enumerate(batch):
        ref = per_m_eigenvalue(n, lam, m)
        assert (e.num, e.den) == (ref.num, ref.den), m
        assert e.render() == ref.render()
        assert e.eval_at(q0) == fraction_eigenvalue(n, lam, m, q0)
        assert formulas.closed_form_eigenvalue(n, lam, m) == e
    assert formulas.closed_form_eigenvalues(n, lam, (5, 0, 5)) == [
        batch[5], batch[0], batch[5]]
    limits = formulas.classical_limit_values(n, lam, range(7))
    direct = formulas.classical_eigenvalues(n, lam, range(7))
    assert limits == direct == [classical_oracle(n, lam, m) for m in range(7)]
    assert formulas.classical_eigenvalues(n, lam, (5, 0, 5)) == [
        direct[5], direct[0], direct[5]]
    assert formulas.classical_eigenvalue(n, lam, 3) == direct[3]
    assert formulas.classical_limit_values(n, lam, (4,)) == [limits[4]]
    assert formulas.partial_fraction_constants(n, lam) == \
        per_k_partial_fractions(n, lam)


def coefficient_qint(k):
    """[k]_q as q^(k-1) + q^(k-3) + ... + q^(1-k) for k > 0, 0 for
    k = 0 and -[-k]_q for k < 0, with the qnum probe's off-by-one in
    every nonzero |k|."""
    if not k:
        return IntLaurent(0, ())
    sign = -1 if k < 0 else 1
    k = abs(k) + faults.active("qnum")
    return IntLaurent(1 - k, [sign * (1 - i % 2) for i in range(2 * k - 1)])


def gcd_route_weights(n, lam):
    """The Perelomov-Popov weights by the gcd route: each c_k one product
    of q-integers over another, put in lowest terms by ``Scalar``, whose
    normalisation divides by the PRS gcd."""
    ell = formulas.shifted_weights(n, lam)
    out = []
    for k in range(n):
        num = den = IntLaurent.from_int(1)
        for i in range(n):
            if i != k:
                num = num * coefficient_qint(ell[i] - ell[k] + 1)
                den = den * coefficient_qint(ell[i] - ell[k])
        out.append(Scalar(num, den))
    return out


def gcd_route_eigenvalues(n, lam, ms):
    """E_m by the gcd route: the weights over the lcm of their
    denominators, each E_m one gcd normalisation."""
    ell = formulas.shifted_weights(n, lam)
    weights = gcd_route_weights(n, lam)
    lcd = IntLaurent.from_int(1)
    for c in weights:
        lcd = lcd.lcm(c.den)
    parts = [(2 * l, c.num * lcd.divexact(c.den))
             for l, c in zip(ell, weights) if c]
    out = []
    for m in ms:
        num = IntLaurent(0, ())
        for step, part in parts:
            num = num + part.shifted(step * m)
        out.append(Scalar(num, lcd))
    return out


@st.composite
def small_dominant_weights(draw):
    """(n, lambda) with n <= 6 and sum |lambda_i| <= 16."""
    n = draw(st.integers(1, 6))
    budget = 16
    lam = []
    for _ in range(n):
        x = draw(st.integers(-budget, budget))
        lam.append(x)
        budget -= abs(x)
    return n, tuple(sorted(lam, reverse=True))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(small_dominant_weights())
@example((6, (16, 0, 0, 0, 0, 0)))
@example((6, (0, 0, 0, 0, 0, -16)))
@example((5, (3, 3, 2, 0, -8)))
@example((1, (-7,)))
def test_cyclotomic_route_matches_the_gcd_route(weight):
    # the exponent bookkeeping and trial division give the pairs the gcd
    # gives, for the true q-integers and under the qnum probe
    n, lam = weight
    for fault in (None, "qnum"):
        with faults.inject(fault):
            got = formulas._pp_weights(n, lam)[1]
            expect = gcd_route_weights(n, lam)
            assert [(c.num, c.den) for c in got] == \
                [(c.num, c.den) for c in expect], fault
            got = formulas.closed_form_eigenvalues(n, lam, range(7))
            expect = gcd_route_eigenvalues(n, lam, range(7))
            assert [(e.num, e.den) for e in got] == \
                [(e.num, e.den) for e in expect], fault


def test_batch_empty_degrees():
    assert formulas.closed_form_eigenvalues(2, (1, 0), ()) == []
    assert formulas.classical_limit_values(2, (1, 0), ()) == []


def test_classical_limit_checks_rows():
    rows = formulas.classical_limit_checks(3, (2, 1, 0), range(1, 4))
    assert [name for name, _ in rows] == ["m=1", "m=2", "m=3"]
    assert all(v for _, v in rows)
    with faults.inject("qnum"):
        rows = formulas.classical_limit_checks(2, (1, 0), range(1, 4))
    assert not all(v for _, v in rows)


def test_shift_covariance_formula():
    for n, lam, m, s in ((2, (1, 0), 2, 1), (3, (2, 1, 0), 3, 2),
                         (2, (0, 0), 1, 3)):
        assert formulas.shift_covariance_formula_check(n, lam, m, s)


# ---------------------------------------------------------------------------
# quantum minors, qdet, comatrix
# ---------------------------------------------------------------------------

def test_qdet_scalar_matches_closed_form():
    for rep, lam in ((v(2), (1, 0)), (vv(2, 2), (1, 1)), (vv(2, 2), (2, 0)),
                     (v(3), (1, 0, 0))):
        got = inv.qdet_scalar(rep, "+", lam)
        assert got == formulas.qdet_scalar_closed_form(rep.n, lam)


def test_qdet_n1_is_l11():
    rep = v(1)
    got = inv.qdet_matrix(rep, "+")
    assert got == inv._xblock(rep, "+", 1, 1, UFIELD.gen)


def xblock_oracle(rep, sign, a, b, w):
    """The evaluated entry formed from two lifted generator blocks:
    l+_ab - w l-_ab or l-_ab - w^-1 l+_ab."""
    lp, lm = (lift(rep.op(s, a, b), w.field) for s in "+-")
    if sign == "+":
        return lp - lm.scaled(w)
    return lm - lp.scaled(w.inverse())


@pytest.mark.parametrize("kind", (None,) + faults.KINDS)
def test_xblock_reads_the_evaluated_operator(kind):
    # every (a, b) block of L(w) against the two-block formula, at the
    # parameters the minors, comatrices and z(u) use
    u = UFIELD.gen
    with faults.inject(kind):
        for rep in (v(1), v(2), vv(2, 2), v(3), vv(3, 2)):
            n = rep.n
            ws = [u * UFIELD.from_coeff(Scalar.q_power(k)) for k in (0, 2, 2 * n)]
            for w, sign in itertools.product(ws, "+-"):
                for a, b in itertools.product(range(1, n + 1), repeat=2):
                    assert inv._xblock(rep, sign, a, b, w) == \
                        xblock_oracle(rep, sign, a, b, w), \
                        (rep.label, sign, a, b, w)


def test_evaluated_l_is_one_entry_per_argument():
    rep = v(2)
    u = UFIELD.gen
    q4 = UFIELD.from_coeff(Scalar.q_power(4))
    w1, w2 = u * q4, q4 * u
    assert w1 is not w2 and w1 == w2
    assert evaluated_L(rep, "+", w1) is evaluated_L(rep, "+", w2)
    # L(uq^2n) of z_matrix is the entry z_scalar's last factor reads
    assert inv._l_shifted(rep, "-") is evaluated_L(rep, "-", w2)


def test_qdet_matrix_forms_each_evaluated_operator_once(monkeypatch):
    # at n = 3: one scaling in each of L(u), L(uq^2) and L(uq^4), and
    # one coefficient (-q)^-p for each of the 2 + 3 first-column terms
    # with p > 0
    calls = []
    scaled = TMatrix.scaled

    def counting(self, s):
        calls.append(s)
        return scaled(self, s)

    monkeypatch.setattr(TMatrix, "scaled", counting)
    rep = vv(3, 2)
    for sign in "+-":
        calls.clear()
        inv.qdet_matrix(rep, sign)
        assert len(calls) <= 9, (sign, len(calls))


def minor_oracle(rep, sign, u, rows, cols, vec):
    """The quantum minor on ``vec`` as the sum over S_k of
    (-q)^{-l(sigma)} X_{rows[sigma(1)] cols[1]}(u q^{2k-2}) ...
    X_{rows[sigma(k)] cols[k]}(u) vec, each chain taken right to left."""
    k = len(rows)
    acc = TMatrix.zeros(UFIELD, rep.d, vec.cols)
    for perm in itertools.permutations(range(k)):
        w = vec
        for t in reversed(range(k)):
            shift = u * UFIELD.from_coeff(Scalar.q_power(2 * (k - 1 - t)))
            w = inv._xblock(rep, sign, rows[perm[t]], cols[t], shift) * w
        length = sum(1 for i in range(k) for j in range(i + 1, k)
                     if perm[i] > perm[j])
        coeff = Scalar.q_power(-length)
        acc = acc + w.scaled(UFIELD.from_coeff(-coeff if length % 2
                                               else coeff))
    return acc


def minor_index_tuples(n, k):
    """Ordered, permuted and repeated (rows, cols) pairs of length k."""
    ordered = tuple(range(1, k + 1))
    top = tuple(range(n - k + 1, n + 1))
    out = [(ordered, ordered), (top, ordered), (ordered[::-1], top),
           (ordered[1:] + ordered[:1], top[::-1])]
    if k >= 2:
        out += [((1,) * k, ordered), (top, (n,) * k),
                ((n,) + ordered[1:], (2,) + top[1:])]
    return out


@pytest.mark.parametrize("n,N", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_minors_match_the_sum_over_s_k(n, N):
    # the first-column expansion against the k!-term sum it regroups,
    # as operators and on the (N, 0, ..) highest weight vector
    rep = vv(n, N)
    u = UFIELD.gen
    vec = lift(highest_weight_vector(rep, (N,) + (0,) * (n - 1)), UFIELD)
    eye = TMatrix.identity(UFIELD, rep.d)
    for w in (u, u * UFIELD.from_coeff(Scalar.q_power(2))):
        for sign in "+-":
            for k in range(1, n + 1):
                for rows, cols in minor_index_tuples(n, k):
                    where = (sign, k, rows, cols)
                    assert inv.quantum_minor(rep, sign, w, rows, cols) == \
                        minor_oracle(rep, sign, w, rows, cols, eye), where
                    assert inv.minor_on_vector(rep, sign, w, rows, cols,
                                               vec) == \
                        minor_oracle(rep, sign, w, rows, cols, vec), where


def test_column_rule():
    rep = v(2)
    assert inv.column_rule_check(rep, "+", (1, 2), (1, 2), (2, 1))
    rep3 = v(3)
    assert inv.column_rule_check(rep3, "+", (1, 2, 3), (1, 2, 3), (2, 3, 1))


def test_comatrix_identities():
    for rep in (v(1), v(2), vv(2, 2)):
        for sign in "+-":
            assert inv.comatrix_identity_check(rep, sign)
            assert inv.comatrix_transposed_check(rep, sign)


# ---------------------------------------------------------------------------
# the central series and its eigenvalues
# ---------------------------------------------------------------------------

def test_z_scalar_against_full_operator():
    # independent paths: full rational-function inverse vs comatrix route
    for rep, lam in ((v(2), (1, 0)), (vv(2, 2), (2, 0)), (vv(2, 2), (1, 1))):
        z = inv.z_matrix(rep, "+")
        vec = lift(highest_weight_vector(rep, lam), UFIELD)
        assert scalar_on_vector(z, vec) == inv.z_scalar(rep, "+", lam)


def test_memoised_z_shares_defaults_and_list_weights():
    rep = v(2)
    assert inv._aux_diag(rep, SCALARS, False) is inv._aux_diag(
        rep, SCALARS, False)
    zs = inv.z_scalar(rep, "+", (1, 0))
    assert inv.z_scalar(rep, "+", [1, 0]) is zs


def test_z_identity_rows():
    for name, verdict in inv.z_identity_checks(v(2), "+"):
        assert verdict, (name, verdict.witness)


def test_transport_rows():
    for name, verdict in inv.transport_checks(v(2)):
        assert verdict, (name, verdict.witness)
    for name, verdict in inv.transport_checks(v(3)):
        assert verdict, (name, verdict.witness)


@pytest.mark.parametrize("n,N", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_lu_inverse_matches_gauss_jordan(n, N):
    # the pencil kernel against elimination over Q(q)(u), both signs
    rep = vv(n, N)
    for sign in "+-":
        got = inv._lu_inverse(rep, sign)
        assert got == evaluated_L(rep, sign, UFIELD.gen).inverse(), sign


@pytest.mark.parametrize("kind", faults.KINDS)
def test_lu_inverse_matches_gauss_jordan_under_faults(kind):
    # a perturbed representation may raise the degree of the annihilator
    with faults.inject(kind):
        for n, N in ((2, 2), (3, 2)):
            rep = vv(n, N)
            for sign in "+-":
                assert inv._lu_inverse(rep, sign) == \
                    evaluated_L(rep, sign, UFIELD.gen).inverse(), (n, N, sign)


def test_liouville_operator():
    for sign in "+-":
        assert inv.liouville_operator_check(v(2), sign)


def test_liouville_scalar_rows():
    for rep, lam in ((v(2), (1, 0)), (vv(2, 2), (1, 1)), (v(3), (1, 0, 0))):
        for name, verdict in inv.liouville_scalar_check(rep, lam):
            assert verdict, (name, verdict.witness)


def test_series_expansion_scalar():
    assert inv.series_expansion_check(v(2), (1, 0), 4)
    assert inv.series_expansion_check(vv(2, 2), (1, 1), 3)


def z_coefficient_matrices(rep, sign, order):
    """The u^m coefficients of z(u), m <= order, by expanding each
    rational entry of the full z operator: this test's own route."""
    series = [(i, j, expand(x, order))
              for i, j, x in inv.z_matrix(rep, sign).nonzero()]
    out = []
    for m in range(order + 1):
        entries = [SCALARS.zero] * (rep.d * rep.d)
        for i, j, s in series:
            entries[i * rep.d + j] = s.coeff(m)
        out.append(TMatrix(SCALARS, rep.d, rep.d, entries))
    return out


def test_series_coefficients_two_routes_agree():
    # geometric-series route vs expansion of the rational entries
    for rep in (v(2), vv(2, 2)):
        via_expand = z_coefficient_matrices(rep, "+", 3)
        for m in range(4):
            assert inv.z_series_coefficient(rep, m) == via_expand[m], m


def test_series_operator_check():
    assert inv.series_operator_check(vv(2, 2), 3)
    assert inv.series_operator_check(v(3), 3)


def test_z_coefficients_are_scaled_gelfand_invariants():
    # the identity behind the suite's centrality rows: for m >= 1 the
    # K-power route gives (q^{n-1} - q^{n+1}) tr_q M^m
    for n, N in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        rep = vv(n, N)
        factor = formulas.series_factor(n)
        for m in range(1, 4):
            assert inv.z_series_coefficient(rep, m) == \
                inv.gelfand_invariant(rep, m).scaled(factor), (n, N, m)


def test_partial_fractions_on_modules():
    assert inv.partial_fraction_check(v(2), (1, 0))
    assert inv.partial_fraction_check(vv(2, 2), (1, 1))


# ---------------------------------------------------------------------------
# Gelfand invariants
# ---------------------------------------------------------------------------

def test_gelfand_invariant_m0():
    for rep in (v(2), vv(2, 2), v(3)):
        assert inv.gelfand_invariant(rep, 0) == \
            TMatrix.identity(SCALARS, rep.d).scaled(qnum(rep.n))


def test_centrality():
    rep = vv(2, 2)
    assert inv.centrality_check(rep, inv.gelfand_invariant(rep, 2), "tr_q M^2")
    assert inv.centrality_check(rep, inv.z_series_coefficient(rep, 1),
                                "z coefficient 1")
    assert len(inv.generator_images(rep)) == 2 * rep.n * rep.n


def test_centrality_detects_noncentral():
    rep = v(2)
    bad = TMatrix.unit(SCALARS, 2, 1, 2)
    verdict = inv.centrality_check(rep, bad, "e_12")
    assert not verdict and "does not commute" in verdict.witness


@pytest.mark.parametrize("kind", (None,) + faults.KINDS)
def test_commute_test_matches_both_products(kind):
    # ``TMatrix.commutes`` against mat g == g mat for every generator image:
    # a central mat (tr_q M^m), a generator image, and a matrix unit between
    # two basis vectors of different weights, which the diagonal
    # generators reject entrywise
    with faults.inject(kind):
        for n, N in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            rep = vv(n, N)
            wts = rep.weights()
            b = next(b for b in range(rep.d) if wts[b] != wts[0])
            unit = TMatrix(SCALARS, rep.d, rep.d,
                           [ONE if k == b else SCALARS.zero
                            for k in range(rep.d * rep.d)])
            mats = [inv.gelfand_invariant(rep, m) for m in (1, 2)]
            mats += [rep.op("+", 1, 2), unit]
            rejected = 0
            for mat in mats:
                for label, g in inv.generator_images(rep):
                    got = mat.commutes(g)
                    assert got == (mat * g == g * mat), (kind, n, N, label)
                    if mat is unit and label[-2] == label[-1] and not got:
                        rejected += 1
            assert rejected, (kind, n, N)


def test_diagonal_generators_take_no_product(monkeypatch):
    # the l+-_ii and the generators that vanish are tested entrywise
    rep = vv(2, 2)
    mat = inv.gelfand_invariant(rep, 2)
    gens = [g for label, g in inv.generator_images(rep)
            if label[-2] == label[-1] or not g]
    assert len(gens) == 6

    def no_product(self, other):
        raise AssertionError("product taken")

    monkeypatch.setattr(TMatrix, "__mul__", no_product)
    assert all(mat.commutes(g) for g in gens)


def test_empty_quantum_minor_is_one():
    u = UFIELD.gen
    rep = vv(1, 2)
    vec = lift(highest_weight_vector(rep, (2,)), UFIELD)
    assert inv.minor_on_vector(rep, "+", u, (), (), vec) is vec
    assert inv.quantum_minor(rep, "-", u, (), ()) == \
        TMatrix.identity(UFIELD, rep.d)
    with pytest.raises(ValueError, match="quantum minor"):
        inv.minor_on_vector(rep, "+", u, (1,), (), vec)


def test_gl1_checks_through_the_empty_minor():
    # the (n-1)-minors of gl_1 are empty: z(u) on V^(x)N, weight (N,)
    for N in range(1, 4):
        rep, lam = vv(1, N), (N,)
        assert all(v for _, v in inv.liouville_scalar_check(rep, lam)), N
        assert inv.partial_fraction_check(rep, lam), N
        assert inv.series_expansion_check(rep, lam, 3), N
        assert inv.series_operator_check(rep, 3), N
        with faults.inject("qnum"):
            rep = vv(1, N)
            assert not all(v for _, v in inv.liouville_scalar_check(rep, lam))
            assert not inv.partial_fraction_check(rep, lam)
            assert not inv.series_expansion_check(rep, lam, 3)


def test_eigenvalue_check_small():
    for rep, lam in ((v(2), (1, 0)), (vv(2, 2), (2, 0)), (vv(2, 2), (1, 1)),
                     (v(3), (1, 0, 0)), (vv(3, 2), (1, 1, 0))):
        for m in range(4):
            assert inv.eigenvalue_check(rep, lam, m), (rep.label, lam, m)


def test_shift_covariance_on_module():
    # base (0,-1) shifted by 1 is the vector highest weight (1, 0)
    assert inv.shift_covariance_rep_check(v(2), (0, -1), 2, 1)
    assert inv.shift_covariance_rep_check(vv(2, 2), (0, 0), 2, 1)
    assert inv.shift_covariance_rep_check(v(3), (0, -1, -1), 1, 1)


def test_alternate_families():
    rep = vv(2, 2)
    for m in range(3):
        for name, verdict in inv.alternate_family_checks(rep, m):
            assert verdict, (name, m, verdict.witness)
    assert inv.alternate_eigenvalue_check(rep, (1, 1), 2)
    assert inv.alternate_eigenvalue_check(v(2), (1, 0), 3)


def test_eigenvalues_are_laurent_polynomials():
    # denominators all cancel, so eigenvalues specialise at any q != 0
    for n, lam in ((2, (2, 1)), (3, (2, 1, 0))):
        for m in range(4):
            e = formulas.closed_form_eigenvalue(n, lam, m)
            assert e.den.is_one()
            assert e.eval_at(Fraction(-1)) is not None
