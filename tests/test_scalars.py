"""Exact arithmetic in Z[q,q^-1], Q(q) and the function fields Q(q)(u)
and Q(q)(x)."""

import random

import pytest
import sympy
from hypothesis import Phase, example, given, settings, strategies as st

from qgelfand import faults, scalars as scalars_module
from qgelfand.scalars import (IntLaurent, Scalar, Poly, Frac, UFIELD,
                              qnum, limit_q1, expand,
                              DivergentLimitError, NoSeriesError,
                              ONE, ZERO, Q, QINV, Q_MINUS_QINV)
from fractions import Fraction


def rand_laurent(rng, terms=4, span=6):
    c = [rng.randint(-9, 9) for _ in range(rng.randint(1, terms))]
    if not any(c):
        c[0] = 1
    return IntLaurent(rng.randint(-span, span), tuple(c))


def rand_scalar(rng):
    den = rand_laurent(rng)
    while not den:
        den = rand_laurent(rng)
    return Scalar(rand_laurent(rng), den)


# ---------------------------------------------------------------------------
# integer Laurent polynomials
# ---------------------------------------------------------------------------

def test_laurent_normalised_on_construction():
    # trailing/leading zeros are trimmed and low adjusted
    p = IntLaurent(-2, (0, 1, 2, 0))
    assert p.low == -1 and p.c == (1, 2)
    assert not IntLaurent(5, (0, 0))


def test_laurent_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - b) + b == a


def test_laurent_gcd_divides_both_normalised():
    import math
    rng = random.Random(2)
    for _ in range(150):
        a, b = rand_laurent(rng), rand_laurent(rng)
        g = IntLaurent.gcd(a, b)
        assert a.divexact(g) * g == a
        assert b.divexact(g) * g == b
        assert g.low == 0 and g.c[-1] > 0
        assert g.content() == math.gcd(a.content(), b.content())


def test_laurent_gcd_recovers_common_factor():
    rng = random.Random(3)
    for _ in range(100):
        f = rand_laurent(rng)
        fp = f.divexact(IntLaurent.from_int(f.content()))
        a, b = rand_laurent(rng) * f, rand_laurent(rng) * f
        g = IntLaurent.gcd(a, b)
        # primitive part of f divides the gcd (up to a power of q)
        assert g.divexact(fp) * fp == g


def test_laurent_divexact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        IntLaurent(0, (1, 1)).divexact(IntLaurent(0, (2,)))


# ---------------------------------------------------------------------------
# Q(q) scalars
# ---------------------------------------------------------------------------

def from_fraction(f):
    """The rational number ``f`` as an element of Q(q)."""
    f = Fraction(f)
    return Scalar(IntLaurent.from_int(f.numerator),
                  IntLaurent.from_int(f.denominator))


def test_scalar_canonical_form():
    # denominator starts at q^0 with positive leading coefficient
    s = Scalar(IntLaurent(0, (2,)), IntLaurent(-3, (-4,)))
    assert s.den.low == 0 and s.den.c[-1] > 0
    assert s == Scalar.q_power(3) * from_fraction(Fraction(-1, 2))


def test_scalar_field_axioms_random():
    rng = random.Random(4)
    for _ in range(120):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert a - a == ZERO
        assert a * b == b * a
        if b != ZERO:
            assert (a / b) * b == a
            assert b * b.inverse() == ONE


def test_qnum_values_and_symmetry():
    assert qnum(0) == ZERO
    assert qnum(1) == ONE
    assert qnum(2) == Q + QINV
    assert qnum(2).render() == "q + q^-1"
    for k in range(-6, 7):
        assert qnum(-k) == -qnum(k)
        assert qnum(k).subs_qinv() == qnum(k)
        # defining property against the explicit fraction
        assert qnum(k) * Q_MINUS_QINV == Scalar.q_power(k) - Scalar.q_power(-k)


def test_qnum_addition_rule():
    # [a+b] = q^b [a] + q^-a [b]
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert qnum(a + b) == (Scalar.q_power(b) * qnum(a)
                                   + Scalar.q_power(-a) * qnum(b))


def test_scalar_render_golden():
    assert (Scalar.q_power(3) + QINV).render() == "q^3 + q^-1"
    assert Scalar.q_power(30).render() == "q^30"
    assert ((Q + QINV).inverse()).render() == "(q)/(q^2 + 1)"
    assert ZERO.render() == "0"


def test_scalar_eval_at_rational():
    s = (Scalar.q_power(2) + ONE) / (Q - QINV)
    q0 = Fraction(3, 2)
    expect = (q0 ** 2 + 1) / (q0 - 1 / q0)
    assert s.eval_at(q0) == expect
    with pytest.raises(ZeroDivisionError):
        s.eval_at(Fraction(1))


def test_limit_q1():
    assert limit_q1(qnum(7)) == 7
    assert limit_q1(qnum(5) / qnum(3)) == Fraction(5, 3)
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randint(1, 12)
        j = rng.randint(1, 12)
        assert limit_q1(qnum(k) / qnum(j)) == Fraction(k, j)
    with pytest.raises(DivergentLimitError):
        limit_q1(Q_MINUS_QINV.inverse())
    # unreduced forms with a high power of (q - 1) on both sides
    q_minus_one = IntLaurent(0, (-1, 1))
    power = {0: IntLaurent.from_int(1)}
    for k in range(1, 67):
        power[k] = power[k - 1] * q_minus_one
    x = Scalar(IntLaurent(0, (3, 1)) * power[65],
               IntLaurent(0, (1, 1)) * power[65], _reduced=True)
    assert limit_q1(x) == 2
    assert limit_q1(Scalar(power[66], power[65], _reduced=True)) == 0
    with pytest.raises(DivergentLimitError):
        limit_q1(Scalar(power[64], power[65], _reduced=True))


# ---------------------------------------------------------------------------
# rational function towers
# ---------------------------------------------------------------------------

def test_from_coeff_lifts_through_towers():
    s = qnum(3)
    u = UFIELD.from_coeff(s)
    assert u * UFIELD.one == u


def test_field_axioms_over_u_random():
    rng = random.Random(6)
    u = UFIELD.gen
    for _ in range(40):
        a = UFIELD.from_coeff(rand_scalar(rng)) + u * UFIELD.from_coeff(
            rand_scalar(rng))
        b = UFIELD.from_coeff(rand_scalar(rng)) * u + UFIELD.one
        assert (a + b) - b == a
        if a != UFIELD.zero:
            assert a * a.inverse() == UFIELD.one


def test_expand_geometric_series():
    u = UFIELD.gen
    s = (UFIELD.one - u).inverse()
    ser = expand(s, 6)
    for m in range(7):
        assert ser.coeff(m) == ONE
    # 1/(1 - q^2 u): coefficients are even q powers
    s = (UFIELD.one - UFIELD.from_coeff(Scalar.q_power(2)) * u).inverse()
    ser = expand(s, 4)
    for m in range(5):
        assert ser.coeff(m) == Scalar.q_power(2 * m)


def test_expand_rejects_pole_at_zero():
    u = UFIELD.gen
    with pytest.raises(NoSeriesError):
        expand(u.inverse(), 3)


def test_render_over_u():
    u = UFIELD.gen
    val = UFIELD.from_coeff(qnum(2)) * u + UFIELD.one
    assert UFIELD.render(val) == "1 + (q + q^-1)*u"


# ---------------------------------------------------------------------------
# gcd and normal-form oracles over Q(q)(u)
# ---------------------------------------------------------------------------

SQ, SU = sympy.symbols("q u")
SYMPY_QQ_Q = sympy.QQ.frac_field(SQ)
# no explain phase: it traces every line of a failing example's reruns,
# which takes minutes on this arithmetic
ORACLE = settings(max_examples=25, derandomize=True, deadline=None,
                  database=None,
                  phases=(Phase.explicit, Phase.generate, Phase.shrink))

laurents = st.builds(IntLaurent, st.integers(-3, 3),
                     st.lists(st.integers(-4, 4), min_size=1, max_size=3))
nonzero_laurents = laurents.filter(bool)
# Q(q) elements with denominators and negative q-powers
scalars = st.builds(Scalar, laurents, nonzero_laurents)


@st.composite
def upolys(draw, degree):
    """A polynomial of exactly the given degree in Z[q, q^-1][u], with
    negative q-powers and contents other than 1."""
    if degree < 0:
        return Poly(())
    coeffs = [draw(laurents) for _ in range(degree)]
    return Poly(coeffs + [draw(nonzero_laurents)])


def any_upolys(max_degree):
    return st.integers(0, max_degree).flatmap(upolys)


@st.composite
def gcd_pairs(draw):
    """Two polynomials with a planted common factor of degree 0-3, and
    the factor; the first cofactor may be zero, either may be constant."""
    common = draw(st.integers(0, 3).flatmap(upolys))
    a = draw(st.integers(-1, 2).flatmap(upolys))
    b = draw(st.integers(0, 2).flatmap(upolys))
    return a * common, b * common, common


def laurent_expr(p):
    return sum((a * SQ ** (p.low + i) for i, a in enumerate(p.c)),
               sympy.Integer(0))


def poly_expr(p):
    return sum((laurent_expr(c) * SU ** i for i, c in enumerate(p.c)),
               sympy.Integer(0))


def sympy_upoly(p):
    return sympy.Poly(poly_expr(p), SU, domain=SYMPY_QQ_Q)


def sympy_zpoly(p):
    """``p`` over ZZ[q, u], shifted to lowest q-exponent 0."""
    low = min((c.low for c in p.c if c), default=0)
    return sympy.Poly(sympy.expand(poly_expr(p) * SQ ** -low), SQ, SU,
                      domain=sympy.ZZ)


def over_qq(p):
    """The coefficients of ``p`` as elements of Q(q)."""
    return [Scalar(c) for c in p.c]


def monic(p):
    """The coefficients of ``p`` over Q(q), divided by the leading one."""
    return [Scalar(c, p.c[-1]) for c in p.c]


def _trimmed(c):
    while c and not c[-1]:
        c.pop()
    return c


def _euclid_gcd(a, b):
    """Monic gcd of two coefficient lists over Q(q), lowest power first,
    by the Euclidean algorithm: the reference ``Poly.gcd`` is checked
    against, up to a unit of Q(q)."""
    a, b = _trimmed(list(a)), _trimmed(list(b))
    while b:
        r, inv = list(a), ONE / b[-1]
        while len(r) >= len(b):
            f, k = r[-1] * inv, len(r) - len(b)
            for i, y in enumerate(b):
                r[i + k] = r[i + k] - f * y
            _trimmed(r)
        a, b = b, r
    return [x / a[-1] for x in a]


def assert_unit_normal(p):
    """Lowest q-exponent 0 and a positive leading integer."""
    assert min(c.low for c in p.c if c) == 0 and p.c[-1].c[-1] > 0


def unit_normal(p):
    """The associate +-q^k p with lowest q-exponent 0 and a positive
    leading integer, or 0."""
    if not p:
        return p
    return p.scale(IntLaurent.q_power(-min(c.low for c in p.c if c),
                                      1 if p.c[-1].c[-1] > 0 else -1))


@ORACLE
@given(gcd_pairs())
def test_poly_gcd_matches_euclid_and_divides(pair):
    a, b, common = pair
    g = Poly.gcd(a, b)
    assert_unit_normal(g)
    assert monic(g) == _euclid_gcd(over_qq(a), over_qq(b))
    # a gcd in Z[q, q^-1][u]: it divides both sides, with quotients of
    # joint content 1, and the planted factor divides it
    qa, qb = a.divexact(g), b.divexact(g)
    assert qa * g == a and qb * g == b
    content = IntLaurent.from_int(0)
    for c in qa.c + qb.c:
        content = IntLaurent.gcd(content, c)
    assert content.is_one()
    assert g.divexact(common) * common == g
    assert Poly.gcd(b, a) == g
    # lcm * gcd is a * b up to a unit of Z[q, q^-1]
    if a:
        assert unit_normal(Poly.lcm(a, b) * g) == unit_normal(a * b)
    # divexact raises when a remainder is planted
    if b.degree > 0:
        with pytest.raises(ArithmeticError):
            (a * b + Poly((IntLaurent.from_int(1),))).divexact(b)


@settings(ORACLE, max_examples=10)
@given(gcd_pairs())
def test_poly_gcd_matches_sympy(pair):
    a, b, _ = pair
    g = Poly.gcd(a, b)
    # up to a unit of Q(q), sympy's gcd over Q(q)[u] ...
    expect = sympy.gcd(sympy_upoly(a), sympy_upoly(b)).monic()
    assert g.degree == expect.degree()
    assert sympy_upoly(g).monic() == expect
    # ... and up to sign, its gcd over Z[q, u], content included
    zg = sympy.gcd(sympy_zpoly(a), sympy_zpoly(b))
    assert sympy_zpoly(g) in (zg, -zg)


def test_poly_gcd_edge_cases():
    L = IntLaurent
    zero, one = Poly(()), Poly((L.from_int(1),))
    u = Poly((L(0, ()), L.from_int(1)))
    two = Poly((L.from_int(2),))
    # a = (2q^-1 + 2q) u - 4 u^2, content 2
    a = Poly((L(-1, (2, 0, 2)), L.from_int(-4))) * u
    normal_a = Poly((L(0, ()), L(0, (-2, 0, -2)), L(1, (4,))))
    assert Poly.gcd(zero, zero) == zero
    assert Poly.gcd(a, zero) == Poly.gcd(zero, a) == normal_a
    assert Poly.gcd(a, a) == normal_a
    assert Poly.gcd(a, two) == two
    assert Poly.gcd(a, Poly((L.from_int(3),))) == one
    # a common content with no power of u
    assert (Poly.gcd(Poly((L(0, ()), L(0, (2, 2)))), Poly((L(3, (4, 4)),)))
            == Poly((L(0, (2, 2)),)))
    # coprime: u and u - q
    assert Poly.gcd(u, u - Poly((L.q_power(1),))) == one
    # one division loop: an inexact coefficient quotient raises too
    with pytest.raises(ArithmeticError):
        (u * two).divexact(Poly((L.from_int(4),)))


def assert_frac_normal_form(x):
    """den unit-normal, and num and den of joint content 1."""
    assert_unit_normal(x.den)
    content = IntLaurent.from_int(0)
    for c in x.num.c + x.den.c:
        content = IntLaurent.gcd(content, c)
    assert content.is_one()


@settings(ORACLE, max_examples=10)
@given(gcd_pairs())
def test_frac_normal_form_matches_sympy_cancel(pair):
    num, den, _ = pair
    x = Frac(UFIELD, num, den)
    assert_frac_normal_form(x)
    # same value, and as reduced in u as sympy's cancellation over Z[q, u]
    assert x.num * den == num * x.den
    top, bottom = sympy.fraction(
        sympy.cancel(poly_expr(num) / poly_expr(den)))
    assert x.num.degree == (sympy.degree(top, SU) if num else -1)
    assert x.den.degree == (sympy.degree(bottom, SU) if num else 0)


@ORACLE
@given(any_upolys(2), any_upolys(2), any_upolys(1), st.integers(-3, 3),
       st.integers(-6, 6).filter(bool))
def test_frac_normal_form_unique(a, b, h, k, n):
    # one value reached by six routes gives one (num, den) and rendering
    x = Frac(UFIELD, a, b)
    hf = Frac(UFIELD, h)
    unit = IntLaurent.q_power(k, n)
    routes = [Frac(UFIELD, a * h, b * h),
              Frac(UFIELD, a.scale(unit), b.scale(unit)),
              UFIELD.poly(over_qq(a)) / UFIELD.poly(over_qq(b)),
              (x + hf) - hf,
              (x * hf) / hf,
              x.inverse().inverse() if x else x]
    assert_frac_normal_form(x)
    for y in routes:
        assert_frac_normal_form(y)
        assert (y.num, y.den) == (x.num, x.den)
        assert y.render() == x.render()
        assert hash(y) == hash(x)


@ORACLE
@given(st.lists(scalars, max_size=4))
def test_poly_from_scalar_coefficients(coeffs):
    # ``FracField.poly`` stores its cleared pair without a gcd; it is the
    # normal form all the same, and the value is sum c_i u^i
    x = UFIELD.poly(coeffs)
    assert_frac_normal_form(x)
    expect = UFIELD.zero
    for i, c in enumerate(coeffs):
        expect = expect + UFIELD.from_coeff(c) * UFIELD.gen ** i
    assert (x.num, x.den) == (expect.num, expect.den)
    if x:
        assert UFIELD.monic(x.num) == _euclid_gcd(_trimmed(list(coeffs)), [])


def test_frac_normal_form_edge_cases():
    u = UFIELD.gen
    q = UFIELD.from_coeff(Q)
    zero = Frac(UFIELD, Poly(()), Poly((QINV.num, ONE.num)))
    assert zero == UFIELD.zero and zero.render() == "0"
    const = Frac(UFIELD, Poly((qnum(3).num,)), Poly((qnum(2).num,)))
    assert const == UFIELD.from_coeff(qnum(3) / qnum(2))
    # already coprime: nothing cancels, and the pair is scaled by q so the
    # denominator is unit-normal: (q u - q^2)/(q + (q^2 + 1) u)
    x = (u - q) / (UFIELD.from_coeff(qnum(2)) * u + UFIELD.one)
    assert x.num == Poly((IntLaurent.q_power(2, -1), IntLaurent.q_power(1)))
    assert x.den == Poly((IntLaurent.q_power(1), IntLaurent(0, (1, 0, 1))))
    assert x.render() == "(-q + u)/(1 + (q + q^-1)*u)"
    # a common factor (u - q)^2 cancels completely
    y = (x * (u - q) ** 2) / ((u - q) ** 2)
    assert (y.num, y.den) == (x.num, x.den)
    # contents cancel and the unit -q^-1 moves into the numerator:
    # 2u / (-4q) = -q^-1 u / 2
    z = Frac(UFIELD, Poly((IntLaurent(0, ()), IntLaurent.from_int(2))),
             Poly((IntLaurent.q_power(1, -4),)))
    assert z.num == Poly((IntLaurent(0, ()), IntLaurent.q_power(-1, -1)))
    assert z.den == Poly((IntLaurent.from_int(2),))


fracs = st.builds(lambda a, b: Frac(UFIELD, a) / Frac(UFIELD, b),
                  any_upolys(1), any_upolys(1))


@ORACLE
@given(scalars, scalars.filter(bool), st.integers(-3, 3))
def test_from_coeff_commutes_with_the_arithmetic(a, b, k):
    # Scalar and Frac share one arithmetic and one lowest-terms rule, so
    # a constant of Q(q)(u) stores the very pair of its Scalar
    lift = UFIELD.from_coeff
    for s, x in ((a + b, lift(a) + lift(b)), (a - b, lift(a) - lift(b)),
                 (a * b, lift(a) * lift(b)), (a / b, lift(a) / lift(b)),
                 (b.inverse(), lift(b).inverse()), (b ** k, lift(b) ** k)):
        assert x.num == Poly((s.num,)) and x.den == Poly((s.den,))
        assert x == lift(s) and x.render() == s.render()


def test_both_fraction_types_use_one_lowest_terms_rule(monkeypatch):
    calls = []
    real = scalars_module._lowest_terms

    def counting(num, den):
        calls.append(type(num))
        return real(num, den)

    monkeypatch.setattr(scalars_module, "_lowest_terms", counting)
    two, four = IntLaurent.from_int(2), IntLaurent.q_power(1, -4)
    x = Scalar(two, four)
    y = Frac(UFIELD, Poly((two,)), Poly((four,)))
    assert calls == [IntLaurent, Poly]
    assert x == -QINV / Scalar.from_int(2) and y == UFIELD.from_coeff(x)


@settings(ORACLE, max_examples=15)
@given(fracs, fracs, fracs)
def test_frac_field_axioms_over_u(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + UFIELD.zero == a and a * UFIELD.one == a
    assert a - a == UFIELD.zero
    if a:
        assert a * a.inverse() == UFIELD.one
        assert (b / a) * a == b


# ---------------------------------------------------------------------------
# property tests for Z[q, q^-1] and Q(q)
# ---------------------------------------------------------------------------

@ORACLE
@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    zero, one = IntLaurent.from_int(0), IntLaurent.from_int(1)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    assert a.reverse().reverse() == a
    assert (a * b).reverse() == a.reverse() * b.reverse()
    if b:
        assert (a * b).divexact(b) == a


@ORACLE
@given(scalars, scalars, scalars)
def test_scalar_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a - a == ZERO
    if a:
        assert a * a.inverse() == ONE
        assert (b / a) * a == b


def shifted_expr(p):
    """sympy polynomial of ``p`` over ZZ, shifted to lowest exponent 0."""
    return sympy.Poly(laurent_expr(p.shifted(-p.low)), SQ, domain=sympy.ZZ)


@st.composite
def laurent_gcd_pairs(draw):
    """Two nonzero Laurent polynomials with a planted common factor of
    degree 0-3, content > 1 and negative q-powers."""
    deg = draw(st.integers(0, 3))
    common = IntLaurent(draw(st.integers(-3, 0)),
                        [draw(st.integers(-4, 4)) for _ in range(deg)]
                        + [draw(st.integers(1, 4))])
    common = common.scale(draw(st.integers(2, 6)))
    a, b = draw(nonzero_laurents), draw(nonzero_laurents)
    return a * common, b * common


def assert_associates(x, y):
    """x = +-q^k y in Z[q, q^-1]."""
    assert x.c == y.c or x.c == tuple(-v for v in y.c)


@ORACLE
@given(laurent_gcd_pairs())
def test_laurent_gcd_matches_sympy(pair):
    a, b = pair
    g = IntLaurent.gcd(a, b)
    # sympy's gcd over ZZ[q] carries the content and a positive leading
    # coefficient, the normal form of IntLaurent.gcd
    assert shifted_expr(g) == sympy.gcd(shifted_expr(a), shifted_expr(b))
    assert g.low == 0
    assert IntLaurent.gcd(b, a) == g


@ORACLE
@given(laurent_gcd_pairs())
def test_laurent_lcm_times_gcd(pair):
    a, b = pair
    m = IntLaurent.lcm(a, b)
    assert_associates(m * IntLaurent.gcd(a, b), a * b)
    assert m.divexact(a) * a == m and m.divexact(b) * b == m
    assert IntLaurent.lcm(a, a) == a
    assert IntLaurent.lcm(IntLaurent.from_int(1), b) == b


@ORACLE
@given(nonzero_laurents, nonzero_laurents,
       st.sampled_from(("free", "exact", "remainder")))
@example(IntLaurent(-1, (1, 1, 1)), IntLaurent(2, (1, 1)), "free")
def test_laurent_divexact_matches_sympy(a, b, plant):
    # "exact" plants b as a factor, "remainder" adds a monomial to such a
    # multiple, which leaves a remainder whenever b is not a monomial
    if plant != "free":
        a = a * b
    if plant == "remainder":
        a = a + IntLaurent.q_power(b.low)
    quot, rem = sympy.div(shifted_expr(a), shifted_expr(b))
    if rem.is_zero and all(c.is_integer for c in quot.coeffs()):
        got = a.divexact(b)
        assert got * b == a
        assert shifted_expr(got) == quot
    else:
        with pytest.raises(ArithmeticError):
            a.divexact(b)


def assert_normal_form(x):
    assert x.den.low == 0 and x.den.c[-1] > 0
    assert IntLaurent.gcd(x.num, x.den).is_one()


@ORACLE
@given(laurents, nonzero_laurents, nonzero_laurents, scalars)
def test_scalar_normal_form_unique(a, b, h, y):
    # one value reached by four routes gives one num/den/render
    x = Scalar(a, b)
    assert_normal_form(x)
    routes = [Scalar(a * h, b * h),
              Scalar(a.shifted(3), b.shifted(3)),
              Scalar(a) / Scalar(b),
              (x + y) - y,
              (x * Scalar(h)) / Scalar(h)]
    for z in routes:
        assert_normal_form(z)
        assert (z.num, z.den) == (x.num, x.den)
        assert z.render() == x.render()
        assert hash(z) == hash(x)


@ORACLE
@given(scalars, scalars)
def test_subs_qinv_is_an_involutive_homomorphism(a, b):
    assert a.subs_qinv().subs_qinv() == a
    assert (a + b).subs_qinv() == a.subs_qinv() + b.subs_qinv()
    assert (a * b).subs_qinv() == a.subs_qinv() * b.subs_qinv()
    assert (-a).subs_qinv() == -a.subs_qinv()
    assert Q.subs_qinv() == QINV and ONE.subs_qinv() == ONE
    if b:
        assert (a / b).subs_qinv() == a.subs_qinv() / b.subs_qinv()
    assert_normal_form(a.subs_qinv())


def test_phi2_is_the_cyclotomic_polynomial_at_q_squared():
    for d in range(1, 31):
        expect = sympy.Poly(sympy.cyclotomic_poly(d, SQ ** 2), SQ)
        assert scalars_module._phi2(d) == IntLaurent(
            0, [int(c) for c in reversed(expect.all_coeffs())]), d


@pytest.mark.parametrize("fault", (None, "qnum"))
def test_qnum_is_built_from_the_factorisation_site(fault):
    # [k] = (q^k - q^-k)/(q - q^-1), with every |k| one too large under
    # the probe; the site's sign, q-power and Phi_d(q^2) multiply to it
    with faults.inject(fault):
        for k in range(-25, 26):
            j = k + (k > 0) - (k < 0) if fault and k else k
            assert qnum(k) == ((Scalar.q_power(j) - Scalar.q_power(-j))
                               / Q_MINUS_QINV), k
            site = scalars_module._qint_factors(k)
            if not k:
                assert site is None
                continue
            sign, e, ds = site
            p = IntLaurent.q_power(e, sign)
            for d in ds:
                p = p * scalars_module._phi2(d)
            assert Scalar(p) == qnum(k), k


def test_pair_limit_is_the_limit_of_the_reduced_scalar():
    # the pair limit takes any representative: a common factor, (q - 1)
    # included, leaves the limit of the reduced Scalar
    pair_limit = scalars_module._limit_pair
    q1 = IntLaurent(0, (-1, 1))
    common = IntLaurent(-2, (1, 1)) * q1 * q1 * IntLaurent(0, (1, 1, 1))
    cases = (
        (q1 * q1 * IntLaurent(0, (3, 1)), q1 * IntLaurent(0, (1, 1)), 0),
        (q1 * IntLaurent(-1, (3, 0, 1)), q1 * IntLaurent(0, (1, 2)),
         Fraction(4, 3)),
        (IntLaurent(0, ()), q1 * IntLaurent(0, (1, 2)), 0),
        (q1 * IntLaurent(0, (2, 1)), q1 * q1, None))
    for num, den, expect in cases:
        reduced = Scalar(num, den)
        for f in (IntLaurent.from_int(1), q1, common):
            if expect is None:
                with pytest.raises(DivergentLimitError):
                    pair_limit(num * f, den * f)
                with pytest.raises(DivergentLimitError):
                    limit_q1(reduced)
            else:
                assert pair_limit(num * f, den * f) == limit_q1(reduced) \
                    == expect


@pytest.mark.parametrize("p", (IntLaurent(0, ()), IntLaurent(-3, (2, 0, -1, 5)),
                               IntLaurent(2, (1, -4, 0, 0, 7)),
                               IntLaurent(-1, (-6,))))
@pytest.mark.parametrize("q0", (Fraction(3, 2), Fraction(-3, 2), Fraction(-2),
                                Fraction(1, 5), 2, -1))
def test_horner_evaluation_is_the_termwise_sum(p, q0):
    expect = Fraction(0)
    for i, a in enumerate(p.c):
        expect += a * Fraction(q0) ** (p.low + i)
    got = p.eval_fraction(q0)
    assert type(got) is Fraction and got == expect


Q_MINUS_ONE = IntLaurent(0, (-1, 1))
off_one = nonzero_laurents.filter(lambda p: p.at_one() != 0)


@settings(ORACLE, max_examples=15)
@given(off_one, off_one, st.integers(0, 3), st.sampled_from((0, 0, 1, -1)))
@example(IntLaurent(-1, (3, 0, 1)), IntLaurent(0, (1, 1)), 2, 0)
def test_limit_q1_matches_sympy(a, b, j, d):
    # a (q-1)^k / (b (q-1)^j) with k = j + d: finite iff d >= 0, nonzero
    # iff d = 0; the unreduced form takes limit_q1's (q - 1)-division path
    k = max(j + d, 0)
    num, den = a, b
    for _ in range(k):
        num = num * Q_MINUS_ONE
    for _ in range(j):
        den = den * Q_MINUS_ONE
    expect = sympy.limit(laurent_expr(num) / laurent_expr(den), SQ, 1)
    for x in (Scalar(num, den), Scalar(num, den, _reduced=True)):
        if k < j:
            assert not expect.is_finite
            with pytest.raises(DivergentLimitError):
                limit_q1(x)
        else:
            assert limit_q1(x) == Fraction(int(expect.p), int(expect.q))
