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
from collections import Counter
from fractions import Fraction

from .scalars import (IntLaurent, Scalar, UFIELD, ONE, ZERO, Q_MINUS_QINV,
                      _limit_pair, _phi2, _phi2_product, _qint_factors)
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
        e, exps = 0, Counter()
        for i in range(n):
            if i == k:
                continue
            top = _qint_factors(ell[i] - ell[k] + 1)
            if top is None:
                weights.append(None)
                break
            bottom = _qint_factors(ell[i] - ell[k])
            e += top[1] - bottom[1]
            exps.update(top[2])
            exps.subtract(bottom[2])
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


def _eigen_parts(n, lam, ms):
    """({d: x_d}, [numerator of E_m for m in ms]) with E_m = num_m / L
    for the lcm L = prod_d Phi_d(q^2)^x_d of the weights' denominators:
    x_d is the largest exponent of Phi_d(q^2) in one of them, and each
    N_k = c_k L is one product, over the exponents of c_k plus x_d."""
    ell, weights = _pp_exponents(n, lam)
    lcd = Counter()
    for w in weights:
        if w is not None:
            lcd |= -w[1]        # -w keeps the denominator's exponents
    parts = [(2 * l, _phi2_product(w[1] + lcd, w[0]))
             for l, w in zip(ell, weights) if w is not None]
    return lcd, [_laurent_sum([(part, step * m, 1) for step, part in parts])
                 for m in ms]


def _laurent_sum(terms):
    """sum of f q^s p over the (p, s, f) in ``terms``, for ``IntLaurent``
    p and integers s and f, added in one coefficient list."""
    terms = [t for t in terms if t[0].c and t[2]]
    if not terms:
        return IntLaurent(0, ())
    low = min(p.low + s for p, s, _ in terms)
    high = max(p.low + s + len(p.c) for p, s, _ in terms)
    c = [0] * (high - low)
    for p, s, f in terms:
        for i, a in enumerate(p.c, p.low + s - low):
            c[i] += f * a
    return IntLaurent(low, c)


def _eigen_numerators(n, lam, ms):
    """(L, [numerator of E_m for m in ms]): the weights c_k = N_k / L over
    their lcm L, and E_m = sum_k q^{2 l_k m} N_k / L (``_eigen_parts``)."""
    lcd, nums = _eigen_parts(n, lam, ms)
    return _phi2_product(lcd), nums


def closed_form_eigenvalues(n, lam, ms):
    """Eigenvalues of tr_q M^m on the highest weight module L_q(lambda),
    one per degree m in ``ms``:

        E_m = sum_k q^{2 l_k m} prod_{i != k} [l_i - l_k + 1]_q / [l_i - l_k]_q.

    The weights are put over their lcm L = prod_d Phi_d(q^2)^x_d once
    (``_eigen_parts``).  Each E_m is brought to lowest terms with no gcd:
    its numerator is divided exactly by each Phi_d(q^2) of L while one
    divides, and the Phi_d(q^2) left over make the denominator.  That
    removes the whole common factor.  The Phi_d(q^2) are coprime, and
    each is irreducible or, for odd d, Phi_d(q) Phi_d(-q).  Substituting
    q -> -q multiplies every [j]_q by (-1)^(j-1), so every weight,
    probed or not, by (-1)^(n-1), and leaves L and q^{2 l_k m} alone:
    the numerator is even or odd in q, so Phi_d(q) and Phi_d(-q) divide
    it equally often."""
    lcd, nums = _eigen_parts(n, lam, ms)
    out = []
    for num in nums:
        if not num:
            out.append(ZERO)
            continue
        left = {}
        for d, x in lcd.items():
            phi = _phi2(d)
            while x:
                try:
                    num = num.divexact(phi)
                except ArithmeticError:
                    break
                x -= 1
            if x:
                left[d] = x
        out.append(Scalar(num, _phi2_product(left), True))
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
    degree m in ``ms``.  E_0..E_max(ms) come from one batch over their
    common denominator L, and each limit is taken on the pair
    (sum_r C(m,r) (-1)^(m-r) N_r, L (q - q^-1)^m) as it stands, with no
    reduction (``_limit_pair``)."""
    ms = tuple(ms)
    top = max(ms, default=-1)
    lcd, nums = _eigen_numerators(n, lam, range(top + 1))
    dens = [lcd]   # L (q - q^-1)^m, one two-term product per degree
    for _ in range(top):
        dens.append(dens[-1] * Q_MINUS_QINV.num)
    out = []
    for m in ms:
        acc = _laurent_sum([(nums[r], 0, math.comb(m, r) * (-1) ** (m - r))
                            for r in range(m + 1)])
        out.append(_limit_pair(acc, dens[m]))
    return out


def classical_limit_value(n, lam, m):
    """The single limit of ``classical_limit_values``.  API for the tests
    and the benchmark (``bench/run.py`` names it as a per-layer metric,
    ``bench/test_bench.py`` checks it); no suite row or CLI command calls
    it."""
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
    return equal_verdict(
        got, expect, f"shift covariance n={n} lambda={tuple(lam)} m={m} s={s}")
