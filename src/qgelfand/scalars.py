"""Exact scalar arithmetic for the coefficient tower Q < Q(q) < Q(q)(u).

The deformation parameter q is kept formal: every scalar is an element of
the rational-function field Q(q), stored as a reduced ratio of
integer-coefficient Laurent polynomials.  Identities verified over this
field hold for every generic (non-root-of-unity) value of q, so no
floating-point tolerances enter anywhere.

On top of Q(q) sits the rational-function field ``FracField`` in one
variable, instantiated twice:

* ``UFIELD`` = Q(q)(u) -- spectral-parameter rational functions,
* ``XFIELD`` = Q(q)(x) -- crossing-symmetry and Yang-Baxter checks.

One fraction type, ``_Fraction``, serves all three fields, over two
rings: a ``Scalar`` is a pair num/den in Z[q, q^-1] (``IntLaurent``), a
``Frac`` a pair in Z[q, q^-1][u] (``Poly``) that holds no ``Scalar``.
Their arithmetic is written once, and one rule, ``_lowest_terms``,
brings both to lowest terms: divide num and den by the ring's gcd, then
multiply both by the unit +-q^k that gives den lowest q-exponent 0 and a
positive leading integer.  ``Poly.gcd`` is a primitive PRS (Knuth TAOCP
2, 4.6.1) times the gcd of the contents.  Euclid over Q(q) finds that gcd up to a
unit of Q(q) through ``Scalar`` coefficients of growing size; it
survives only in the tests, as the reference.  ``Scalar`` coefficients
are formed only on the way out.  One loop per job serves both rings:
``_prs`` both gcds, ``_divexact`` both exact divisions.

Every q-integer comes from one factorisation site, ``_qint_factors``:
[k]_q = +-q^(1-k) prod_{d | k, d > 1} Phi_d(q^2), whose cyclotomic
factors are pairwise coprime.  Products and quotients of q-integers are
therefore exponent vectors over the Phi_d(q^2), and :mod:`.formulas`
puts its eigenvalue formulas in lowest terms with no gcd.

Limits at q = 1 are taken exactly: a common factor (q - 1) is divided
out of numerator and denominator until one of them no longer vanishes
there.

Matrices store no field elements: one packed rule serves all three
fields.  ``pack`` puts a matrix's numerators over one denominator and
packs each into one integer by Kronecker substitution (Kronecker 1882;
Schoenhage 1982): P = q^shift * num in Z[q] is stored as P(2^B), B = 32
to start.  Over Q(q)(u) and Q(q)(x) the numerator is first sent to
Z[q] by u -> q^E, the same substitution in the second variable, so each
u-coefficient fills a slot of E digits, E = 64 to start.  The
``Packed`` record that travels
with the matrix holds the denominator, B, E, the shift and bounds on
the coefficients, on their sum of absolute values (l1) and on the
q-degree of a slot.  Matrix products, sums and equality are then
integer products, sums and equality.  One l1 rule and one degree rule
bound every kernel's result; a kernel whose bound would reach 2^(B-1),
or whose q-degree would reach E, first re-measures the loose records of
its operands, once each, and then widens B or E, which keeps every
decode and every zero test exact (the argument is on ``Packed``).
Entries are decoded only when they are read.

Rendering is deterministic: Laurent polynomials in q print in descending
powers ("q^2 + 1 + q^-2"); polynomials in u print in ascending powers
with the denominator display-normalised so its lowest coefficient is 1
("(1 - q^2*u)/(1 - u)").
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import faults


class DivergentLimitError(ArithmeticError):
    """Raised when a scalar has a pole at q = 1."""


class NoSeriesError(ValueError):
    """Raised when a rational function has no power series at u = 0."""


# ---------------------------------------------------------------------------
# Laurent polynomials in q with integer coefficients
# ---------------------------------------------------------------------------

class IntLaurent:
    """Laurent polynomial in q over Z: coefficients plus lowest exponent.

    Normal form: the coefficient tuple is empty for zero, otherwise its
    first and last entries are nonzero.
    """

    __slots__ = ("low", "c")

    def __init__(self, low, coeffs):
        c = list(coeffs)
        i, j = 0, len(c)
        while j > i and c[j - 1] == 0:
            j -= 1
        while i < j and c[i] == 0:
            i += 1
        if i == j:
            self.low = 0
            self.c = ()
        else:
            self.low = low + i
            self.c = tuple(c[i:j])

    @classmethod
    def from_int(cls, n):
        return cls(0, (n,))

    @classmethod
    def q_power(cls, k, coeff=1):
        return cls(k, (coeff,))

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return (isinstance(other, IntLaurent)
                and self.low == other.low and self.c == other.c)

    def __hash__(self):
        return hash((self.low, self.c))

    @property
    def degree(self):
        if not self.c:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.c) - 1

    def is_one(self):
        return self.low == 0 and self.c == (1,)

    def __neg__(self):
        return IntLaurent(self.low, tuple(-a for a in self.c))

    def __add__(self, other):
        if not self.c:
            return other
        if not other.c:
            return self
        low = min(self.low, other.low)
        high = max(self.low + len(self.c), other.low + len(other.c))
        c = [0] * (high - low)
        for i, a in enumerate(self.c):
            c[self.low - low + i] = a
        for i, a in enumerate(other.c):
            c[other.low - low + i] += a
        return IntLaurent(low, c)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.c or not other.c:
            return _L_ZERO
        if len(self.c) == 1:
            a = self.c[0]
            return IntLaurent(self.low + other.low, tuple(a * b for b in other.c))
        if len(other.c) == 1:
            b = other.c[0]
            return IntLaurent(self.low + other.low, tuple(a * b for a in self.c))
        c = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        c[i + j] += a * b
        return IntLaurent(self.low + other.low, c)

    def scale(self, n):
        if n == 0:
            return _L_ZERO
        return IntLaurent(self.low, tuple(n * a for a in self.c))

    def shifted(self, k):
        """Multiply by q^k."""
        if not self.c:
            return self
        return IntLaurent(self.low + k, self.c)

    def reverse(self):
        """Substitute q -> q^-1."""
        if not self.c:
            return self
        return IntLaurent(-(self.low + len(self.c) - 1), tuple(reversed(self.c)))

    def content(self):
        return math.gcd(*self.c)

    def unit(self):
        """The unit +-q^k whose product with this nonzero polynomial has
        lowest exponent 0 and a positive leading coefficient."""
        return IntLaurent.q_power(-self.low, 1 if self.c[-1] > 0 else -1)

    def at_one(self):
        return sum(self.c)

    def eval_fraction(self, q0):
        """Exact evaluation at a nonzero rational q0 = p/r, as one
        ``Fraction``: integer Horner gives sum_i c_i p^i r^(N-i), N the
        top index, and q0^low / r^N is folded in before the one
        normalisation."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ZeroDivisionError("cannot evaluate Laurent polynomial at q=0")
        if not self.c:
            return Fraction(0)
        p, r = q0.numerator, q0.denominator
        acc, rpow = 0, 1
        for a in reversed(self.c):
            acc = acc * p + a * rpow
            rpow *= r
        rpow //= r                      # r^N
        if self.low >= 0:
            return Fraction(acc * p ** self.low, rpow * r ** self.low)
        return Fraction(acc * r ** -self.low, rpow * p ** -self.low)

    def divexact(self, other):
        """The quotient self/other in Z[q, q^-1]; raises ArithmeticError
        when ``other`` does not divide ``self``."""
        if not other.c:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.c:
            return _L_ZERO
        return IntLaurent(self.low - other.low,
                          _divexact(self.c, other.c, _int_quotient))

    @staticmethod
    def gcd(a, b):
        """A gcd in Z[q, q^-1], normalised to lowest exponent 0 and
        positive leading coefficient.

        The integer content is the gcd of the two contents; the primitive
        part is the last remainder of ``_prs`` on the primitive parts,
        the PRS that ``Poly.gcd`` runs over Z[q, q^-1]."""
        if not b.c:
            a, b = b, a
        if not a.c:
            if not b.c:
                return _L_ZERO
            g = IntLaurent(0, b.c)
            return g if g.c[-1] > 0 else -g
        ca, cb = a.content(), b.content()
        n = math.gcd(ca, cb)
        if len(a.c) == 1 or len(b.c) == 1:
            return IntLaurent.from_int(n)
        p = [x // ca for x in a.c]
        r = [x // cb for x in b.c]
        if len(p) < len(r):
            p, r = r, p
        g = _prs(p, r, _int_primitive)
        if len(g) == 1:
            return IntLaurent.from_int(n)
        g = IntLaurent(0, g).scale(n)
        return g if g.c[-1] > 0 else -g

    def lcm(self, other):
        """An lcm of nonzero ``self`` and ``other``: the other side when
        one is 1 or the two are equal, else self * other / gcd."""
        if self.is_one() or self == other:
            return other
        if other.is_one():
            return self
        return self * other.divexact(IntLaurent.gcd(self, other))

    def __repr__(self):
        return f"IntLaurent({render_laurent(self)})"


_L_ZERO = IntLaurent(0, ())
_L_ONE = IntLaurent(0, (1,))


def _int_quotient(a, b):
    """a / b for integers b | a; raises ArithmeticError otherwise."""
    f, m = divmod(a, b)
    if m:
        raise ArithmeticError("inexact division")
    return f


def _divexact(a, b, quotient):
    """a / b for coefficient lists over an integral domain (lowest power
    first), by long division with the exact coefficient division
    ``quotient``: ``_int_quotient`` for ``IntLaurent.divexact``,
    ``IntLaurent.divexact`` for ``Poly.divexact``.  Raises
    ArithmeticError when b does not divide a."""
    db = len(b) - 1
    lb = b[-1]
    monic = lb == 1             # the integer 1: no quotient to take
    low = [(i, x) for i, x in enumerate(b[:db]) if x]
    a = list(a)
    quot = []
    for k in range(len(a) - db - 1, -1, -1):
        f = a[db + k] if monic else quotient(a[db + k], lb)
        quot.append(f)
        if f:
            for i, x in low:
                a[i + k] = a[i + k] - f * x
    if not quot or any(a[:db]):
        raise ArithmeticError("inexact division")
    quot.reverse()
    return quot


def render_laurent(p):
    """Deterministic text form, descending powers: 'q^2 + 1 + q^-2'."""
    if not p.c:
        return "0"
    parts = []
    for i in range(len(p.c) - 1, -1, -1):
        a = p.c[i]
        if not a:
            continue
        e = p.low + i
        if e == 0:
            body = str(abs(a))
        else:
            pow_txt = "q" if e == 1 else f"q^{e}"
            body = pow_txt if abs(a) == 1 else f"{abs(a)}*{pow_txt}"
        if not parts:
            parts.append(body if a > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if a > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Fractions: Q(q) over Z[q, q^-1], Q(q)(u) and Q(q)(x) over Z[q, q^-1][u]
# ---------------------------------------------------------------------------

def _lowest_terms(num, den):
    """The normal form of num/den, for nonzero num and den of one ring
    (``IntLaurent`` or ``Poly``): both divided by the ring's gcd, then
    multiplied by ``den.unit()``, the unit +-q^k that puts den at lowest
    q-exponent 0 with a positive leading integer."""
    g = type(num).gcd(num, den)
    if not g.is_one():
        num, den = num.divexact(g), den.divexact(g)
    unit = den.unit()
    if not unit.is_one():
        num, den = num * unit, den * unit
    return num, den


class _Fraction:
    """An element num/den of a field of fractions, kept in the normal
    form of ``_lowest_terms``: num and den share no factor, and den has
    lowest q-exponent 0 and a positive leading integer.  The ring has
    unique factorisation and its units are +-q^k, so the pair is unique
    and equality is structural.

    The arithmetic is written once for both rings.  A subclass provides
    ``num``, ``den`` and ``field``, makes new elements of its field with
    ``_of(num, den, reduced)`` (``reduced`` skips the normalisation) and
    renders them.  A sum over a shared denominator adds the numerators,
    a product of two unit denominators multiplies the numerators, and a
    quotient is normalised once."""

    __slots__ = ()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (isinstance(other, _Fraction) and self.field is other.field
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return self._of(-self.num, self.den, True)

    def __add__(self, other):
        if self.den == other.den:
            return self._of(self.num + other.num, self.den)
        return self._of(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.den.is_one() and other.den.is_one():
            return self._of(self.num * other.num, self.den)
        return self._of(self.num * other.num, self.den * other.den)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError(f"inverse of zero in {self.field.name}")
        return self._of(self.den, self.num)

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError(f"division by zero in {self.field.name}")
        return self._of(self.num * other.den, self.den * other.num)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class Scalar(_Fraction):
    """Element of Q(q): a ratio of integer Laurent polynomials in lowest
    terms (``_Fraction``)."""

    __slots__ = ("num", "den")

    field = None  # SCALARS, set below

    def __init__(self, num, den=_L_ONE, _reduced=False):
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num:
            num, den = _L_ZERO, _L_ONE
        elif not (_reduced or den.is_one()):
            num, den = _lowest_terms(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _of(num, den, reduced=False):
        return Scalar(num, den, reduced)

    @classmethod
    def from_int(cls, n):
        return cls(IntLaurent.from_int(n))

    @classmethod
    def q_power(cls, k):
        return cls(IntLaurent.q_power(k))

    def subs_qinv(self):
        """Substitute q -> q^-1."""
        return Scalar(self.num.reverse(), self.den.reverse())

    def eval_at(self, q0):
        """Exact rational evaluation at q = q0 (q0 nonzero, denominator
        must not vanish there)."""
        d = self.den.eval_fraction(q0)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q0}")
        return self.num.eval_fraction(q0) / d

    def render(self):
        if self.den.is_one():
            return render_laurent(self.num)
        return f"({render_laurent(self.num)})/({render_laurent(self.den)})"


ZERO = Scalar(_L_ZERO)
ONE = Scalar(_L_ONE)
Q = Scalar.q_power(1)
QINV = Scalar.q_power(-1)
Q_MINUS_QINV = Q - QINV


# ---------------------------------------------------------------------------
# q-integers and their cyclotomic factors
# ---------------------------------------------------------------------------

# the two caches below read no fault probe, so they key on none (the
# cache rule is in :mod:`.faults`)

@functools.cache
def _phi2(d):
    """Phi_d(q^2): q^(2d) - 1 divided by Phi_e(q^2) for each proper
    divisor e of d.  Monic with constant term +-1, so every product of
    them has lowest exponent 0 and leading coefficient 1."""
    p = IntLaurent(0, [-1] + [0] * (2 * d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            p = p.divexact(_phi2(e))
    return p


@functools.cache
def _divisors(k):
    """The divisors d > 1 of k > 0."""
    return tuple(d for d in range(2, k + 1) if k % d == 0)


def _qint_factors(k):
    """(sign, e, ds) with [k]_q = sign q^e prod_{d in ds} Phi_d(q^2) over
    the divisors d > 1 of |k|, or None when k = 0.  The Phi_d(q^2) of
    distinct d are coprime: all divide the squarefree q^(2M) - 1 for a
    common multiple M.  Every q-integer is formed from this one site,
    ``qnum`` and the weights of :mod:`.formulas` alike, so the
    ``qnum`` fault probe (every nonzero |k| one too large) acts here."""
    if k == 0:
        return None
    sign = 1
    if k < 0:
        sign, k = -1, -k
    if faults.active("qnum"):
        # test hook: off-by-one in every nonzero q-integer
        k = k + 1
    return sign, 1 - k, _divisors(k)


def _phi2_product(exps, e=0, sign=1):
    """sign * q^e * prod_d Phi_d(q^2)^exps[d] in Z[q, q^-1], for
    nonnegative exponents, as one product of packed integers: the sum of
    the |coefficients| of a product is at most the product of theirs
    (the l1 rule of ``Packed``), so digits of that width decode it
    exactly."""
    l1 = 1
    for d, x in exps.items():
        l1 *= sum(map(abs, _phi2(d).c)) ** x
    bits = (l1.bit_length() // 8 + 1) * 8
    packed = 1
    for d, x in exps.items():
        packed *= _encode(_phi2(d), bits, 0) ** x
    return IntLaurent(e, [sign * a for a in _decode(packed, bits)])


def qnum(k):
    """The q-integer (q^k - q^-k)/(q - q^-1) as an element of Q(q),
    built from ``_qint_factors`` and so subject to its fault probe."""
    f = _qint_factors(k)
    if f is None:
        return ZERO
    sign, e, ds = f
    return Scalar(_phi2_product(dict.fromkeys(ds, 1), e, sign))


# ---------------------------------------------------------------------------
# Limits at q = 1
# ---------------------------------------------------------------------------

def _over_q_minus_one(p):
    """p / (q - 1) for p vanishing at q = 1: the coefficient of q^j in
    the quotient is the sum of the coefficients of p above q^j."""
    if not p.c:
        return p
    tops = list(itertools.accumulate(reversed(p.c)))
    tops.pop()                  # the sum of them all, p(1) = 0
    tops.reverse()
    return IntLaurent(p.low, tops)


def limit_q1(s):
    """Exact limit of a Scalar as q -> 1, as a Fraction (``_limit_pair``
    on its num and den).  A reduced ``Scalar`` has no common factor
    (q - 1), so it is evaluated at once."""
    return _limit_pair(s.num, s.den)


def _limit_pair(num, den):
    """Exact limit of num/den as q -> 1, for any representative pair
    (den nonzero): while both vanish at q = 1, each is divided by (q - 1)
    exactly; then both are evaluated at q = 1.  Dividing both by a common
    factor leaves the function, so the limit is the same for every
    representative of one element of Q(q)."""
    while den.at_one() == 0 and num.at_one() == 0:
        num = _over_q_minus_one(num)
        den = _over_q_minus_one(den)
    d1 = den.at_one()
    if d1 == 0:
        raise DivergentLimitError("pole at q=1")
    return Fraction(num.at_one(), d1)


# ---------------------------------------------------------------------------
# Matrix storage: numerators over one denominator (see :mod:`.tmatrix`)
# ---------------------------------------------------------------------------

def _over_lcm(rows, one):
    """(numerator rows, den) for rows of field elements: ``den`` is the
    lcm of the entry denominators (``one`` when there is none) and each
    numerator is scaled by the exact quotient lcm / denominator, found
    once per distinct denominator.  The rows must hold no zero."""
    parts = [[(j, x.num, x.den) for j, x in row.items()] for row in rows]
    dens = {d: None for row in parts for _, _, d in row}
    if len(dens) <= 1:
        den = next(iter(dens)) if dens else one
        return [{j: x for j, x, _ in row} for row in parts], den
    it = iter(dens)
    den = next(it)
    for d in it:
        den = den.lcm(d)
    for d in dens:
        dens[d] = den.divexact(d)
    return [{j: x * dens[d] for j, x, d in row} for row in parts], den


def _times(rows, f):
    """Rows with every numerator multiplied by ``f`` (the rows
    themselves when ``f`` is the integer 1)."""
    if f == 1:
        return rows
    return [{j: x * f for j, x in row.items()} for row in rows]


# Matrices pack each numerator into one integer (Kronecker substitution).
# BITS is the width B of a base-2^B digit that a matrix built from field
# elements starts with.  Under the l1 rule on ``Packed`` the bounds stay
# close to the true coefficients, so a narrow B holds every product chain
# of the verify suite's default and large configurations; a kernel whose
# bound would reach 2^(B-1) re-measures, then doubles B.  SLOT is the
# width E, in digits, of one u-slot of a function-field numerator that
# such a matrix starts with; a kernel whose q-degrees would reach E
# re-measures, then doubles E, by the same rule.
BITS = 32
SLOT = 64

# memoryview formats of unsigned machine words, by their size in bytes:
# digits of 2, 4 and 8 bytes are read as such words
_WORDS = {struct.calcsize(f): f for f in "HIQ"}


def _encode(p, bits, shift, slot=None):
    """P(2^bits) for P = q^shift * p, which must lie in Z[q].  A ``Poly``
    p = sum_j p_j u^j is first sent to sum_j p_j q^(slot*j) (u -> q^E),
    so the digits of its u^j coefficient start at digit slot*j."""
    x = 0
    if slot is not None:
        for a in reversed(p.c):
            x = (x << bits * slot) + (_encode(a, bits, shift) if a else 0)
        return x
    for c in reversed(p.c):
        x = (x << bits) + c
    return x << bits * (p.low + shift)


def _decode(x, bits):
    """The coefficients of P, lowest first, from x = P(2^bits), where
    every |coefficient| of P is below 2^(bits-1).

    P has at most n = bitlength(x) // bits + 1 coefficients: when the
    top one sits at q^k, |x| > 2^(bits*k) / 2.  Adding 2^(bits-1) to
    each of the n digits puts them all in [0, 2^bits), so the digits of
    the sum are unsigned: machine words at 16, 32 and 64 bits on a
    little-endian machine, else byte slices."""
    w = bits >> 3
    n = x.bit_length() // bits + 1
    half = 1 << (bits - 1)
    offset = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    raw = (x + offset).to_bytes(w * n, "little")
    word = _WORDS.get(w)
    if word is not None and sys.byteorder == "little":
        return [d - half for d in memoryview(raw).cast(word).tolist()]
    return [int.from_bytes(raw[i:i + w], "little") - half
            for i in range(0, w * n, w)]


def _norms(p):
    """(max |coefficient|, sum of |coefficients|) of a nonzero
    ``IntLaurent``, or of a ``Poly`` over the coefficients of all its
    u-coefficients."""
    if isinstance(p, Poly):
        c = [abs(a) for s in p.c for a in s.c]
    else:
        c = [abs(a) for a in p.c]
    return max(c), sum(c)


def _ell1(x, y, terms=1):
    """The one bound rule (see ``Packed``): (bound, l1) of a sum of at
    most ``terms`` products ab, where x = (bound, l1) bounds a and
    y = (bound, l1) bounds b."""
    (bound_a, l1_a), (bound_b, l1_b) = x, y
    return terms * min(l1_a * bound_b, bound_a * l1_b), terms * l1_a * l1_b


def _lmul(a, b):
    """a * b for two denominators: in Z[q, q^-1] as one product of packed
    integers, in Z[q, q^-1][u] as a ``Poly`` product."""
    if a.is_one():
        return b
    if b.is_one():
        return a
    if isinstance(a, Poly):
        return a * b
    bound = _ell1(_norms(a), _norms(b))[0]
    bits = (bound.bit_length() // 8 + 1) * 8
    x = _encode(a, bits, -a.low) * _encode(b, bits, -b.low)
    return IntLaurent(a.low + b.low, _decode(x, bits))


def _qdeg(p):
    """The largest q-exponent in the nonzero ``Poly`` ``p``."""
    return max(a.low + len(a.c) for a in p.c if a) - 1


def _widths(bound, deg, bits, slot):
    """(B, E): ``bits`` and ``slot`` each doubled until every |coefficient|
    up to ``bound`` is below 2^(B-1) and every q-degree up to ``deg`` is
    below E (both None over Q(q))."""
    while bound.bit_length() >= bits:
        bits *= 2
    while deg is not None and deg >= slot:
        slot *= 2
    return bits, slot


def _fit(rule, den, shift, *ops):
    """(rows, record) of a kernel on (frame, rows) operands: their rows at
    one digit width B and, over a function field, one slot width E, and
    the record of the result, over ``den`` at ``shift``, whose (bound,
    l1, deg) are ``rule(*frames)`` (deg None over Q(q)).

    B and E are the widest operand's unless the rule reaches one of
    them.  Then the frames that are not tight yet are first re-measured
    in place from their actual digits, each once in its life, and the
    rule is applied again; only a width that still does not suffice is
    doubled.  An operand at another B or E is repacked for this kernel
    alone: its own matrix keeps its rows."""
    frames = [f for f, _ in ops]
    bits = max(f.bits for f in frames)
    slot = frames[0].slot
    if slot is not None:
        slot = max(f.slot for f in frames)
    bound, l1, deg = rule(*frames)
    if _widths(bound, deg, bits, slot) != (bits, slot):
        for f, rows in ops:
            if not f.tight:
                _measure(f, rows)
        bound, l1, deg = rule(*frames)
        bits, slot = _widths(bound, deg, bits, slot)
    return ([rows if f.bits == bits and f.slot == slot
             else _repacked(rows, f, bits, slot) for f, rows in ops],
            Packed(den, bits, shift, bound, l1, slot=slot, deg=deg))


def _measure(frame, rows):
    """Tighten ``frame``'s bound, l1 and, over a function field, deg to
    the digits of ``rows``, and mark it tight.  A slot value P_j(2^B) is
    below 2^(B*E-1) in absolute value, so the slot values are the
    balanced base-2^(B*E) digits of a numerator, and each one's bit
    length over B is its q-degree (``FracField.lifted``); the digits are
    read slot by slot, which skips the zero digits above each P_j."""
    bound = l1 = deg = 0
    bits, slot = frame.bits, frame.slot
    for row in rows:
        for x in row.values():
            if slot is None:
                a = list(map(abs, _decode(x, bits)))
                bound, l1 = max(bound, max(a)), max(l1, sum(a))
                continue
            total = 0
            for v in _decode(x, bits * slot):
                a = list(map(abs, _decode(v, bits)))
                bound, total = max(bound, max(a)), total + sum(a)
                deg = max(deg, v.bit_length() // bits)
            l1 = max(l1, total)
    frame.bound, frame.l1, frame.tight = bound, l1, True
    if slot is not None:
        frame.deg = deg


def _repacked(rows, frame, bits, slot):
    """``rows`` packed at digit width ``bits`` and slot width ``slot``
    instead of the frame's: every digit is decoded, and each u-slot of E
    digits is padded with zero digits to the new E."""
    old = frame.slot

    def repack(x):
        c = _decode(x, frame.bits)
        if slot != old:
            pad = [0] * (slot - old)
            c = [v for k in range(0, len(c), old) for v in c[k:k + old] + pad]
        return _encode(IntLaurent(0, c), bits, 0)

    return [{j: repack(x) for j, x in row.items()} for row in rows]


def _pack(data, den, slot=None):
    """(packed rows, tight record) for rows {column: nonzero numerator}
    over ``den`` (by ``pack``, over the lcm ``_over_lcm`` finds), shifted
    so the lowest q-exponent is 0 and packed at the first B that holds
    their coefficients.  Over a function field (``slot`` the first E to
    try) they fill u-slots of the first E above their q-degrees."""
    nums = [p for row in data for p in row.values()]
    coeffs = nums if slot is None else [a for p in nums for a in p.c if a]
    shift = -min((a.low for a in coeffs), default=0)
    norms = [_norms(p) for p in nums]
    bound = max((b for b, _ in norms), default=0)
    l1 = max((n for _, n in norms), default=0)
    deg = None
    if slot is not None:
        deg = max((a.low + len(a.c) for a in coeffs), default=1) - 1 + shift
    bits, slot = _widths(bound, deg, BITS, slot)
    return ([{j: _encode(p, bits, shift, slot) for j, p in row.items()}
             for row in data],
            Packed(den, bits, shift, bound, l1, True, slot, deg))


class Packed:
    """The denominator of a matrix, and how its numerators are packed: one
    record for Q(q), Q(q)(u) and Q(q)(x).

    A Q(q) ``TMatrix`` stores an entry num/den as the integer P(2^B),
    where P = q^shift * num lies in Z[q].  A Q(q)(u) or Q(q)(x) matrix
    stores num = sum_j N_j u^j, with each P_j = q^shift * N_j in Z[q], as
    sum_j P_j(2^B) 2^(B*E*j): P = sum_j P_j q^(E*j), the image of
    q^shift * num under u -> q^E, evaluated at q = 2^B.  The record holds
    ``den`` (an ``IntLaurent`` over Q(q), a ``Poly`` over the function
    fields), the digit width B (``bits``, a multiple of 8), ``shift``,
    and upper bounds over every stored P: ``bound`` on each
    |coefficient| and ``l1`` on the sum of the |coefficients|.  Over a
    function field it also holds the slot width E (``slot``, in digits)
    and ``deg``, a bound on the q-degree of every P_j; both are None over
    Q(q).  Evaluation at 2^B is a ring map Z[q] -> Z, and so is
    u -> q^E, so products, sums and equality of the numerators are
    products, sums and equality of the integers.

    **Exactness.**  While every P_j has q-degree below E, u -> q^E is
    injective on them and P has exactly their coefficients, so the
    argument below applies to P unchanged, and ``bound`` and ``l1`` need
    no factor for the u-length.  While every |coefficient| is below
    2^(B-1), P is recovered from P(2^B) digit by digit (balanced base
    2^B), so decoding is exact.  So is every zero test: if P != 0 but
    P(2^B) = 0, write P = q^k R with R(0) != 0; the integer root 2^B of
    R divides R(0), so |R(0)| >= 2^B.  Every kernel therefore keeps
    ``bound`` below 2^(B-1), by one rule, the l1 rule: each coefficient
    of ab is a sum of products a_i b_j with every a_i and every b_j used
    at most once, so

        ||ab||_inf <= min(||a||_1 ||b||_inf, ||a||_inf ||b||_1),
        ||ab||_1 <= ||a||_1 ||b||_1,

    and a sum of at most t such products gets t times both (``_ell1``):

    * product: t is the most inner terms per output entry; shifts add;
    * ``kron`` and ``scaled``: a product with one inner term;
    * sum and equality: each side is first multiplied by the other's
      ``den`` where the dens differ (a product with one inner term) and
      shifted up to the larger ``shift``; then bounds and l1 add;
    * partial trace and trace: bound and l1 times the number of terms
      summed;
    * transposes, embeddings and negation keep the record;
    * a block gets its own record (``trimmed``).

    ``deg`` follows the same kernels:

    * product: the two bounds add;
    * sum and equality: each side's bound plus the q-degree of the other
      ``den`` it is multiplied by and plus its shift up; the larger;
    * traces, transposes, embeddings and negation keep it.

    A denominator has lowest q-exponent 0 (the ``_Fraction`` normal form,
    kept by lcm and products), so cross-multiplying by one leaves the
    shift alone.  Before a kernel whose bound could reach 2^(B-1), or
    whose q-degree could reach E, ``_fit`` re-measures the operands
    whose records are not ``tight`` and widens B or E only if that does
    not suffice.  A record is tight when its bounds were measured from
    its matrix's digits (by ``_pack`` or ``_measure``), so none is
    measured twice.  A record is shared only by matrices holding the
    same coefficients up to sign (the kernels that move or negate
    entries), and no matrix is written after it is built, so tightening
    a record in place is true of every matrix that holds it.

    ``product``, ``common``, ``summed`` and ``trimmed`` are the frame
    protocol of :mod:`.tmatrix`.
    """

    __slots__ = ("den", "bits", "shift", "bound", "l1", "tight", "slot",
                 "deg")

    def __init__(self, den, bits, shift, bound, l1, tight=False, slot=None,
                 deg=None):
        self.den = den
        self.bits = bits
        self.shift = shift
        self.bound = bound
        self.l1 = l1
        self.tight = tight
        self.slot = slot
        self.deg = deg

    @property
    def norms(self):
        return self.bound, self.l1

    def product(self, other, a, b, terms):
        """(a, b, frame of the products) for rows ``a`` in this frame and
        ``b`` in ``other``, where an output entry sums at most ``terms``
        products."""
        def rule(x, y):
            deg = None if x.deg is None else x.deg + y.deg
            return (*_ell1(x.norms, y.norms, terms), deg)

        (a, b), frame = _fit(rule, _lmul(self.den, other.den),
                             self.shift + other.shift, (self, a), (other, b))
        return a, b, frame

    def common(self, other, a, b):
        """(a, b, frame of their sums): rows ``a`` in this frame and ``b``
        in ``other`` brought into one frame, where entries compare and add
        directly."""
        if self.den == other.den:
            fa = fb = _P_ONE if self.slot else _L_ONE
            den = self.den
        else:
            fa, fb, den = other.den, self.den, _lmul(self.den, other.den)
        shift = max(self.shift, other.shift)

        def rule(x, y):
            (bound_a, l1_a), (bound_b, l1_b) = (_ell1(x.norms, _norms(fa)),
                                                _ell1(y.norms, _norms(fb)))
            deg = None if x.deg is None else max(
                x.deg + _qdeg(fa) + shift - x.shift,
                y.deg + _qdeg(fb) + shift - y.shift)
            return bound_a + bound_b, l1_a + l1_b, deg

        (a, b), frame = _fit(rule, den, shift, (self, a), (other, b))
        bits, slot = frame.bits, frame.slot
        return (_times(a, _encode(fa, bits, shift - self.shift, slot)),
                _times(b, _encode(fb, bits, shift - other.shift, slot)),
                frame)

    def summed(self, rows, k):
        """(rows, frame of sums of up to ``k`` of their entries)."""
        (rows,), frame = _fit(lambda x: (x.bound * k, x.l1 * k, x.deg),
                              self.den, self.shift, (self, rows))
        return rows, frame

    def trimmed(self, rows):
        """(rows, a record of their own) for ``rows``, some of the entries
        of a matrix in this frame.  Over Q(q) the low zero digits that all
        of them share are shifted out (x >> B*k is exact, and divides every
        P by q^k), and the record is measured from these entries alone.
        Over a function field such a shift could cross a u-slot, so the
        record is a fresh, loose copy of this one: this record itself may
        be tightened in place to its own matrix's entries."""
        bits = self.bits
        if self.slot is not None:
            return rows, Packed(self.den, bits, self.shift, self.bound,
                                self.l1, slot=self.slot, deg=self.deg)
        k = min((((x & -x).bit_length() - 1) // bits
                 for row in rows for x in row.values()), default=0)
        if k:
            rows = [{j: x >> bits * k for j, x in row.items()}
                    for row in rows]
        frame = Packed(self.den, bits, self.shift - k, 0, 0)
        _measure(frame, rows)
        return rows, frame


# ---------------------------------------------------------------------------
# Scalar field descriptor (so matrices stay ring-generic)
# ---------------------------------------------------------------------------

class _ScalarField:
    """Field descriptor for Q(q).

    ``pack`` and ``join`` are the matrix storage interface (see
    :mod:`.tmatrix`): ``pack`` turns rows of ``Scalar`` entries into
    packed integer numerators over a ``Packed`` record, and ``join``
    decodes one of them into the reduced ``Scalar``.
    """

    name = "Q(q)"
    zero = None  # filled below
    one = None

    def pack(self, rows):
        """(packed rows, record) for rows {column: nonzero Scalar}."""
        return _pack(*_over_lcm(rows, _L_ONE))

    def pack_one(self, x):
        return _pack([{0: x.num}], x.den)

    @staticmethod
    def join(x, frame):
        return Scalar(IntLaurent(-frame.shift, _decode(x, frame.bits)),
                      frame.den)


SCALARS = _ScalarField()
_ScalarField.zero = ZERO
_ScalarField.one = ONE
Scalar.field = SCALARS


# ---------------------------------------------------------------------------
# Polynomials over Z[q, q^-1] and the function fields Q(q)(u), Q(q)(x)
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial in one variable over Z[q, q^-1] (``IntLaurent``
    coefficients, lowest power first): the numerators and denominators
    of ``Frac``, and the denominator of a function-field matrix's
    ``Packed`` record, whose numerators it packs.  It is *unit-normal*
    when its lowest q-exponent is 0 and its leading integer positive,
    the ``Scalar`` denominator normal form one level up; products and
    exact quotients keep that form."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and not c[-1]:
            c.pop()
        self.c = tuple(c)

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    @property
    def degree(self):
        return len(self.c) - 1

    def is_one(self):
        return len(self.c) == 1 and self.c[0].is_one()

    def __neg__(self):
        return Poly(-a for a in self.c)

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        c = list(a)
        for i, x in enumerate(b):
            c[i] = c[i] + x
        return Poly(c)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.c or not other.c:
            return _P_ZERO
        c = [_L_ZERO] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        c[i + j] = c[i + j] + a * b
        return Poly(c)

    def scale(self, s):
        """Every coefficient times the ``IntLaurent`` ``s``."""
        return Poly(a * s for a in self.c)

    def unit(self):
        """The unit +-q^k of Z[q, q^-1], as a constant polynomial, whose
        product with this nonzero polynomial is unit-normal."""
        low = min(a.low for a in self.c if a)
        return Poly((IntLaurent.q_power(-low, 1 if self.c[-1].c[-1] > 0
                                        else -1),))

    def divexact(self, other):
        """The quotient self/other; raises ArithmeticError when ``other``
        does not divide ``self`` in Z[q, q^-1][u]."""
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.c:
            return self
        return Poly(_divexact(self.c, other.c, IntLaurent.divexact))

    def lcm(self, other):
        """The unit-normal lcm of two unit-normal polynomials."""
        return self * other.divexact(Poly.gcd(self, other))

    @staticmethod
    def gcd(a, b):
        """A unit-normal gcd in Z[q, q^-1][u]: the gcd of the contents
        times the last remainder of ``_prs`` on the primitive parts.
        gcd(0, 0) is 0 and gcd(a, 0) is a made unit-normal."""
        if not b:
            a, b = b, a
        if not a:
            return b * b.unit() if b else b
        if a.degree == 0 or b.degree == 0:
            return Poly((_content(a.c + b.c),))
        ca, cb = _content(a.c), _content(b.c)
        p, r = _primitive(a.c, ca), _primitive(b.c, cb)
        if len(p) < len(r):
            p, r = r, p
        g = Poly(_prs(p, r, _primitive))
        n = IntLaurent.gcd(ca, cb)
        return g.scale(g.unit().c[0] * n) if g.degree else Poly((n,))


_P_ZERO = Poly(())
_P_ONE = Poly((_L_ONE,))


def _content(coeffs):
    """The gcd in Z[q, q^-1] of coefficients not all zero, normalised as
    ``IntLaurent.gcd`` normalises.  The shortest go first, so the gcd is
    soon a monomial, whose gcds with the rest are integer gcds."""
    g = _L_ZERO
    for c in sorted(coeffs, key=lambda c: len(c.c)):
        g = IntLaurent.gcd(g, c)
        if g.is_one():
            break
    return g


def _primitive(coeffs, content=None):
    """Divide by the content in Z[q, q^-1] (``_content`` unless given)
    and shift q-powers so the lowest exponent among the coefficients is
    0."""
    g = _content(coeffs) if content is None else content
    if not g.is_one():
        coeffs = [c.divexact(g) for c in coeffs]
    low = min(c.low for c in coeffs if c)
    return [c.shifted(-low) for c in coeffs] if low else coeffs


def _int_primitive(c):
    """Primitive part of an integer polynomial, q-power unit removed."""
    p = IntLaurent(0, c)
    n = p.content()
    return [x // n for x in p.c]


def _prs(p, r, primitive):
    """Last remainder of the primitive pseudo-remainder sequence of p and
    r (coefficient lists, len(p) >= len(r) >= 2): repeat ``_prem`` and
    keep ``primitive`` of each remainder until one vanishes (Knuth TAOCP
    2, 4.6.1).  The result is the primitive gcd up to a unit, or a
    constant when p and r are coprime.

    Both gcds run it: ``Poly.gcd`` over Z[q, q^-1] with ``_primitive``,
    ``IntLaurent.gcd`` over Z with ``_int_primitive``.
    """
    while True:
        rem = _prem(p, r)
        if len(rem) <= 1:
            return rem or r
        p, r = r, primitive(rem)


def _prem(a, b):
    """Pseudo-remainder of ``a`` by ``b`` (deg a >= deg b), fraction-free.

    Each step replaces a by lc(b)*a - lc(a)*x^k*b, so the result is the
    remainder times a nonzero element of the coefficient ring; only its
    primitive part is used.
    """
    r = a
    db = len(b) - 1
    lb = b[-1]
    while len(r) > db:
        minus_lr = -r[-1]
        k = len(r) - 1 - db
        new = [c * lb for c in r[:-1]]
        for i in range(db):
            if b[i]:
                new[i + k] = new[i + k] + minus_lr * b[i]
        while new and not new[-1]:
            new.pop()
        r = new
    return r


class Frac(_Fraction):
    """Element of Q(q)(u) or Q(q)(x): a ratio of ``Poly`` in lowest
    terms (``_Fraction``), in the Z[q, q^-1][u] that ``field`` names."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=_P_ONE, _reduced=False):
        if not den:
            raise ZeroDivisionError(f"zero denominator in {field.name}")
        if not num:
            num, den = _P_ZERO, _P_ONE
        elif not (_reduced or den.is_one()):
            num, den = _lowest_terms(num, den)
        self.field = field
        self.num = num
        self.den = den

    def _of(self, num, den, reduced=False):
        return Frac(self.field, num, den, reduced)

    def render(self):
        return self.field.render(self)


class FracField:
    """The field Q(q)(var).  ``pack`` and ``join`` are the matrix storage
    interface (see :mod:`.tmatrix`): ``pack`` puts rows of elements over
    one ``Poly`` denominator and packs each numerator into one integer
    in u-slots (``Packed``), ``join`` decodes one into the reduced
    ``Frac``, and ``lifted`` reads a Q(q) matrix's packed numerators as
    constants in var.  ``Scalar`` coefficients come in
    through ``from_coeff`` and ``poly``, which clear their denominators,
    and are formed again only by ``coeffs``, ``render`` and ``expand``."""

    def __init__(self, var):
        self.var = var
        self.name = f"Q(q)({var})"
        self.zero = Frac(self, _P_ZERO, _reduced=True)
        self.one = Frac(self, _P_ONE, _reduced=True)
        self.gen = Frac(self, Poly((_L_ZERO, _L_ONE)), _reduced=True)

    def pack(self, rows):
        """(packed rows, record) for rows {column: nonzero element}."""
        return _pack(*_over_lcm(rows, _P_ONE), SLOT)

    def pack_one(self, x):
        return _pack([{0: x.num}], x.den, SLOT)

    def join(self, x, frame):
        """The normalised element whose packed numerator is ``x``: its
        digits, read E at a time, are the u-coefficients."""
        c, e = _decode(x, frame.bits), frame.slot
        num = Poly(IntLaurent(-frame.shift, c[k:k + e])
                   for k in range(0, len(c), e))
        return Frac(self, num, frame.den)

    @staticmethod
    def lifted(rows, frame):
        """The record of Q(q) ``rows`` packed in ``frame`` when they are
        read as numerators of u-degree 0: each integer fills one u-slot
        unchanged.  A packed P(2^B) with top coefficient at q^k has bit
        length from B*k to B*(k+1) - 1 (``_decode``), so that length
        over B is the q-degree, and the record stays as tight as
        ``frame``."""
        deg = max((x.bit_length() for row in rows for x in row.values()),
                  default=0) // frame.bits
        bits, slot = _widths(frame.bound, deg, frame.bits, SLOT)
        return Packed(Poly((frame.den,)), bits, frame.shift,
                      frame.bound, frame.l1, frame.tight, slot, deg)

    def from_coeff(self, c):
        """The constant ``c`` of Q(q): a reduced ``Scalar`` is a reduced
        pair already."""
        return Frac(self, Poly((c.num,)), Poly((c.den,)), _reduced=True)

    def poly(self, coeffs):
        """The polynomial with these ``Scalar`` coefficients (lowest power
        first), as a field element: the numerators over the lcm of the
        denominators (``_over_lcm``).  That pair is reduced already: a
        prime that divides the lcm e times divides the denominator of some
        coefficient e times, and so not its scaled numerator."""
        (row,), den = _over_lcm([{i: c for i, c in enumerate(coeffs) if c}],
                                _L_ONE)
        num = Poly(row.get(i, _L_ZERO) for i in range(len(coeffs)))
        return Frac(self, num, Poly((den,)), _reduced=True)

    @staticmethod
    def coeffs(p):
        """The coefficients of the numerator ``p``, lowest power first, as
        elements of Q(q)."""
        return [Scalar(a) for a in p.c]

    def render_poly(self, coeffs):
        """Text form of the polynomial with these ``Scalar`` coefficients,
        in ascending powers."""
        if not coeffs:
            return "0"
        parts = []
        for e, a in enumerate(coeffs):
            if not a:
                continue
            if e == 0:
                body = a.render()
                neg = body.startswith("-")
                if neg:
                    body = body[1:]
            else:
                pow_txt = self.var if e == 1 else f"{self.var}^{e}"
                ca = a.render()
                neg = False
                if ca == "1":
                    body = pow_txt
                elif ca == "-1":
                    body, neg = pow_txt, True
                else:
                    if ca.startswith("-") and all(s not in ca[1:] for s in (" + ", " - ")):
                        ca, neg = ca[1:], True
                    if " " in ca:
                        ca = f"({ca})"
                    body = f"{ca}*{pow_txt}"
            if not parts:
                parts.append(body if not neg else f"-{body}")
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")

        return " ".join(parts)

    def render(self, x):
        """Text form with ``Scalar`` coefficients: num and den are divided
        by the lowest nonzero coefficient of den, so that one reads 1, and
        a constant den is left out."""
        den = x.den.c
        pivot = next(a for a in den if a)
        num = self.render_poly([Scalar(a, pivot) for a in x.num.c])
        if len(den) == 1:
            return num
        den = self.render_poly([Scalar(a, pivot) for a in den])
        return f"({num})/({den})"


UFIELD = FracField("u")
XFIELD = FracField("x")


# ---------------------------------------------------------------------------
# Truncated power series in u
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class USeries:
    """Truncated series in u with Scalar coefficients (u^0 .. u^order)."""

    order: int
    coeffs: tuple

    def coeff(self, m):
        return self.coeffs[m]


def expand(r, order):
    """Truncated power-series expansion of a rational function at u = 0.

    Requires the denominator to have a nonzero constant term; the result
    satisfies r * den = num modulo u^(order+1).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not r.den.c[0]:
        raise NoSeriesError("no series at u=0: denominator vanishes there")
    num = [Scalar(a) for a in r.num.c]
    den = [Scalar(a) for a in r.den.c]
    inv0 = ONE / den[0]
    out = []
    for m in range(order + 1):
        acc = num[m] if m < len(num) else ZERO
        for j in range(1, min(m, len(den) - 1) + 1):
            if den[j] and out[m - j]:
                acc = acc - den[j] * out[m - j]
        out.append(acc * inv0)
    return USeries(order, tuple(out))
