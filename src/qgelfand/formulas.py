"""The closed forms, with no representation: the q-Perelomov-Popov
eigenvalues E_m of tr_q M^m on L_q(lambda), their classical values and
q -> 1 limits, the quantum-determinant eigenvalue, the partial-fraction
constants of z(u) and the shift covariance of E_m.

These are what the ``eigenvalue`` and ``limit`` commands answer, so the
module imports nothing but ``scalars`` and ``verdict``: a query loads
neither matrices nor representations.  It also holds the names the
command line validates its arguments with before any check runs: the
check categories ``CHECK_NAMES``, ``WeightError`` and ``ConfigError``.
:mod:`.invariants` checks the closed forms against the operators.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import (IntLaurent, Scalar, UFIELD, ONE, ZERO, _decode,
                      _over_q_minus_one, _phi2, _phi2_at, _phi2_l1,
                      _phi2_product, _qint_factors, _width)
from .verdict import equal_verdict

CHECK_NAMES = (
    "ybe",
    "crossing",
    "f-series",
    "antisymmetrizer",
    "fusion",
    "defining-relations",
    "comatrix",
    "z-identities",
    "centrality",
    "liouville",
    "series-expansion",
    "eigenvalue-match",
    "partial-fractions",
    "classical-limit",
    "alternate-families",
    "shift-covariance",
)


class WeightError(ValueError):
    """Requested weight is not dominant or not present in the module."""


class ConfigError(ValueError):
    """Rejected suite configuration (unknown names, bad bounds, too large)."""


def _lam_str(lam):
    return "(" + ",".join(str(x) for x in lam) + ")"


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


def _pp_exponents(n, lam):
    """(l, [w_1..w_n]) with each Perelomov-Popov weight

        c_k = prod_{i != k} [l_i - l_k + 1]_q / [l_i - l_k]_q

    as w_k = (e, {d: x_d}), c_k = q^e prod_d Phi_d(q^2)^x_d, from the
    factorisations of ``_qint_factors`` (so under its fault probe): the
    exponents of the numerator factors add, those of the denominator
    factors subtract.  The signs cancel: l_i - l_k + 1 and l_i - l_k
    are both positive for i < k and both negative for i > k.  w_k is
    None when c_k = 0, that is when l_k - l_i = 1 for some i > k."""
    ell = require_dominant(n, lam)
    weights = []
    for k in range(n):
        e, exps = 0, {}
        for i in range(n):
            if i == k:
                continue
            top = _qint_factors(ell[i] - ell[k] + 1)
            if top is None:
                weights.append(None)
                break
            bottom = _qint_factors(ell[i] - ell[k])
            e += top[1] - bottom[1]
            for d in top[2]:
                exps[d] = exps.get(d, 0) + 1
            for d in bottom[2]:
                exps[d] = exps.get(d, 0) - 1
        else:
            weights.append((e, exps))
    return ell, weights


def _pp_weights(n, lam):
    """(l, [c_1..c_n]) with the weights of ``_pp_exponents`` as reduced
    ``Scalar``s: q^e and the positive exponents make the numerator, the
    negative ones the denominator."""
    ell, weights = _pp_exponents(n, lam)
    out = []
    for w in weights:
        if w is None:
            out.append(ZERO)
            continue
        e, exps = w
        num = _phi2_product({d: x for d, x in exps.items() if x > 0}, e)
        den = _phi2_product({d: -x for d, x in exps.items() if x < 0})
        out.append(Scalar(num, den, True))
    return ell, out


def _numerator_frame(n, lam, scale=1):
    """(x, parts, B) for E_m = sum_k q^{2 l_k m} N_k / L over the lcm
    L = prod_d Phi_d(q^2)^x_d of the weights' denominators: a part
    (2 l_k, e_k, y_k) per nonzero weight, N_k = c_k L =
    q^e_k prod_d Phi_d(q^2)^y_k[d], and the least digit width B of the
    one width rule (``scalars._width``: 16 * 2^k, a machine word up to
    64 bits) with scale * sum_k ||N_k||_1 < 2^(B-1), which bounds every
    coefficient of a sum of ``scale`` numerators (``Packed``)."""
    ell, weights = _pp_exponents(n, lam)
    nonzero = [(l, w) for l, w in zip(ell, weights) if w is not None]
    lcd = {}        # the largest denominator exponent of each Phi_d
    for _, (_, exps) in nonzero:
        for d, x in exps.items():
            if -x > lcd.get(d, 0):
                lcd[d] = -x
    parts = []
    for l, (e, exps) in nonzero:
        ys = dict(lcd)
        for d, x in exps.items():
            ys[d] = ys.get(d, 0) + x
        parts.append((2 * l, e, {d: y for d, y in ys.items() if y}))
    l1 = scale * sum(math.prod(_phi2_l1(d) ** y for d, y in ys.items())
                     for _, _, ys in parts)
    return lcd, parts, _width(l1)


def _packed_parts(parts, bits):
    """The parts with y_k replaced by q^-e_k N_k at q = 2^bits, one
    product of the cached Phi_d(q^2) at 2^bits."""
    return [(step, e, math.prod(_phi2_at(d, bits) ** y for d, y in ys.items()))
            for step, e, ys in parts]


def closed_form_eigenvalues(n, lam, ms):
    """Eigenvalues of tr_q M^m on the highest weight module L_q(lambda),
    one per degree m in ``ms``:

        E_m = sum_k q^{2 l_k m} prod_{i != k} [l_i - l_k + 1]_q / [l_i - l_k]_q.

    Over the lcm L = prod_d Phi_d(q^2)^x_d of the weights
    (``_numerator_frame``), each E_m is brought to lowest terms with no
    gcd: its numerator N is divided by each Phi_d(q^2) of L while one
    divides, and those left over make the denominator.  That removes the
    whole common factor.  The Phi_d(q^2) are coprime, and each is
    irreducible or, for odd d, Phi_d(q) Phi_d(-q).  Substituting q -> -q
    multiplies every [j]_q by (-1)^(j-1), so every weight, probed or not,
    by (-1)^(n-1), and leaves L and q^{2 l_k m} alone: N is even or odd
    in q, so Phi_d(q) and Phi_d(-q) divide it equally often.

    The divisions are integer ones at q = 2^B, of N(2^B) by Phi_d(2^B)
    while the remainder is zero.  The quotient, decoded once as Q, is
    accepted only if max|Q| prod ||Phi_d||_1 < 2^(B-1) over the factors P
    divided out; else B doubles, for this and the later degrees.  Q P and
    N then have coefficients below 2^(B-1) and one value at 2^B, so
    Q P = N: every division was exact, and a nonzero remainder proves
    that Phi_d(q^2) does not divide (a quotient in Z[q] is one in Z)."""
    lcd, parts, b = _numerator_frame(n, lam)
    terms = _packed_parts(parts, b)
    dens, out = {}, []      # dens: each distinct leftover denominator
    for m in ms:
        while True:
            low = min((step * m + e for step, e, _ in terms), default=0)
            x = sum(y << b * (step * m + e - low) for step, e, y in terms)
            left, l1 = dict(lcd), 1
            for d in lcd:
                while left[d]:
                    quot, rem = divmod(x, _phi2_at(d, b))
                    if rem:
                        break
                    x, left[d] = quot, left[d] - 1
                    l1 *= _phi2_l1(d)
            try:        # an uncertified quotient may need one digit more
                c = _decode(x, b)
            except OverflowError:
                c = [1 << b]
            if max(map(abs, c)) * l1 < 1 << (b - 1):
                break
            b *= 2
            terms = _packed_parts(parts, b)
        key = tuple(left.values())
        if key not in dens:
            dens[key] = _phi2_product(left)
        out.append(Scalar(IntLaurent(low, c), dens[key], True))
    return out


def closed_form_eigenvalue(n, lam, m):
    """The single eigenvalue E_m of ``closed_form_eigenvalues``."""
    return closed_form_eigenvalues(n, lam, (m,))[0]


def classical_eigenvalues(n, lam, ms):
    """Perelomov-Popov eigenvalues of tr E^m, directly over Q, one per
    degree m in ``ms``:

        sum_k l_k^m prod_{i != k} (l_i - l_k + 1) / (l_i - l_k).

    The weights do not depend on m, so they are formed once, each as one
    ``Fraction`` of two integer products, and put over their lcm L; each
    degree then adds the integers l_k^m L c_k and makes one ``Fraction``."""
    ell = require_dominant(n, lam)
    weights = []
    for k in range(n):
        num = den = 1
        for i in range(n):
            if i != k:
                num *= ell[i] - ell[k] + 1
                den *= ell[i] - ell[k]
        weights.append(Fraction(num, den))
    lcd = math.lcm(*(w.denominator for w in weights))
    parts = [(l, w.numerator * (lcd // w.denominator))
             for l, w in zip(ell, weights)]
    return [Fraction(sum(a * l ** m for l, a in parts), lcd) for m in ms]


def classical_eigenvalue(n, lam, m):
    """The single eigenvalue of ``classical_eigenvalues``."""
    return classical_eigenvalues(n, lam, (m,))[0]


def classical_limit_values(n, lam, ms):
    """q -> 1 limits of (q - q^-1)^-m sum_r C(m,r) (-1)^(m-r) E_r, one per
    degree m in ``ms``.  Over L, the numerator is S_m = sum_r C(m,r)
    (-1)^(m-r) N_r = sum_k N_k (q^{2 l_k} - 1)^m, of l1 norm at most
    2^m sum_k ||N_k||_1: at that width one shift and one subtraction per
    packed term take each degree to the next, and S_m is decoded once.

    Every term of S_m carries (q^{2 l_k} - 1)^m, so S_m is divided by
    (q - 1) exactly m times and read at q = 1.  The denominator is not
    divided: L (q - q^-1)^m = L q^-m (q + 1)^m (q - 1)^m, and with
    (q - 1)^m gone it reads L(1) 2^m at q = 1, where L(1) =
    prod_d Phi_d(1)^x_d is nonzero, since every d of ``_qint_factors``
    exceeds 1 (under its probe too).  ``scalars._limit_pair``, which
    divides both by (q - 1), serves ``limit_q1``; the tests keep it on
    (S_m, L (q - q^-1)^m) as the oracle of this route."""
    ms = tuple(ms)
    top = max(ms, default=-1)
    lcd, parts, bits = _numerator_frame(n, lam, 1 << max(top, 0))
    low = min((e + min(step, 0) * top for step, e, _ in parts), default=0)
    terms = [(bits * step, x << bits * (e - low))
             for step, e, x in _packed_parts(parts, bits)]
    sums = []
    for _ in range(top + 1):
        sums.append(sum(x for _, x in terms))
        terms = [(s, (x << s if s >= 0 else x >> -s) - x) for s, x in terms]
    at_one = math.prod(_phi2(d).at_one() ** x for d, x in lcd.items())
    out = []
    for m in ms:
        num = IntLaurent(low, _decode(sums[m], bits))
        for _ in range(m):
            num = _over_q_minus_one(num)
        out.append(Fraction(num.at_one(), at_one << m))
    return out


def classical_limit_value(n, lam, m):
    """The single limit of ``classical_limit_values``: API for the tests
    and the benchmark (``bench/run.py`` names it as a per-layer metric,
    ``bench/test_bench.py`` checks it), called by no suite row or CLI."""
    return classical_limit_values(n, lam, (m,))[0]


def classical_limit_checks(n, lam, ms):
    """("m=<m>", verdict) per degree m in ``ms``: the q -> 1 limit of the
    closed form against the direct classical eigenvalue."""
    ms = tuple(ms)
    out = []
    for m, got, expect in zip(ms, classical_limit_values(n, lam, ms),
                              classical_eigenvalues(n, lam, ms)):
        out.append((f"m={m}", equal_verdict(
            got, expect, f"classical limit n={n} lambda={tuple(lam)} m={m}",
            show_values=True)))
    return out


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
    return equal_verdict(
        got, expect, f"shift covariance n={n} lambda={tuple(lam)} m={m} s={s}")
