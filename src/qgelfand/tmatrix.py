"""Exact sparse matrices over a coefficient field, with a tensor-site calculus.

Every ``TMatrix`` stores each row as a dict ``{column: numerator}``
holding only the nonzero entries, plus one common denominator ``den``:
an entry x is kept as its numerator over ``den``, the lcm of the
entries' ``x.den``.  Over every field each numerator is one integer,
packed by Kronecker substitution, and ``den`` is a packing record
(``scalars.Packed``) that holds the denominator with the digit width,
shift and coefficient bounds the packing needs: over Q(q)
(``SCALARS``) the numerator is a Laurent polynomial in q and the
denominator an ``IntLaurent``; over Q(q)(u) and Q(q)(x)
(``FracField``) the numerator is a polynomial in the variable whose
coefficients fill slots of the integer, and the denominator a ``Poly``.
The record states the bound and degree rules and why decoding and
zero tests are exact.  This module knows no ring.  From the field
descriptor it uses ``zero``, ``one``, ``pack`` (rows of field elements
to numerator rows and ``den``), ``pack_one`` (one element, for
``scaled``), ``join`` (one numerator over ``den``
to the normalised element) and ``name``; the elements render
themselves.  ``lift`` uses ``lifted`` (the record of Q(q) numerators
read as constants of a function field).  ``pencil_inverse`` uses
``gen``, ``poly`` (a polynomial from its Q(q) coefficients, whose
numerator has ``lcm``) and ``coeffs`` (the coefficients over Q(q) of
such a numerator); from a ``den`` it uses the protocol that
brings operands into one frame: ``product`` (products and ``kron``),
``common`` (sums and equality) and ``summed`` (traces), and
``trimmed``, the record of a block.  An exact zero is never stored:
every kernel drops the entries that cancel, so a matrix is falsy
exactly when no row holds an entry.

A matrix is immutable: it is built once, from its entries or by a
kernel, and no method writes an entry.  Kernels therefore share rather
than copy: a sum with a zero operand keeps the operand's rows, and
negation, transposes and embeddings keep its record.  ``block`` alone
builds a record of its own (``den.trimmed``): over Q(q) it shifts out
the low zero digits the block's entries share and measures their
bounds, so a block does not carry the bounds of the whole matrix; over
a function field it takes a fresh, loose copy of the matrix's bounds.
Either way it shares no record that a kernel may tighten in place
(``scalars._fit``) to the entries of one matrix.

The kernels -- products, sums, scaling, ``kron``, ``embed``, transposes,
partial trace and equality -- work on the numerators alone and multiply
the denominators, so they are ring arithmetic and run no gcd; they are
integer arithmetic over every field.  ``commutes`` takes no product
when its right operand is diagonal.  Equality cross-multiplies, comparing
a_ij d_b with b_ij d_a, and names the same row-major first differing
entry as entrywise comparison of the reduced values would.  An entry is
normalised to a canonical field element only when it is read
(``m[i, j]``, ``nonzero()``, ``.e``, ``trace()``, ``map_entries`` and
the values of ``first_difference``), so every rendering is the same as
if each entry had been reduced all along.  Constructors take field
elements and pack them over the lcm of their denominators.
``.e`` is a read-only dense view, a fresh row-major list built on each
access; no kernel uses it.

No matrix records a tensor factorisation of its index space: ``embed``,
``partial_transpose`` and ``partial_trace`` take the factor dimensions
``dims`` and 1-based sites as arguments, and raise ``ValueError`` when
the matrix does not factor so.  They and ``kron``, like the ring
operations, walk only the stored entries.

Inverse, solve, rank, determinant, nullspace and the Krylov
annihilator of ``pencil_inverse`` all run one elimination step,
``_insert``: a sparse row of normalised entries is reduced against the
pivot rows so far, carrying a combination along, and its leftmost
column becomes its pivot.  So every elimination ends in the reduced row
echelon form, which is unique, and touches only stored entries, so
block-decomposable systems (such as weight-graded operators) never mix
their blocks.  Inverse and solve pack their result over the lcm of its
entry denominators.

No check eliminates over a function field.  A pencil A - tB over Q(q)
is inverted over Q(q)(t) by ``pencil_inverse``, from A^-1 and an
annihilator of A^-1 B of least degree, both found over Q(q);
elimination over a function field serves the tests alone, as that
kernel's oracle.
"""

from __future__ import annotations

import math


class SingularMatrixError(ValueError):
    """Raised when inverting or solving against a singular matrix."""


class TMatrix:
    """Sparse-row matrix over an exact field; it records no tensor
    factorisation, so the site calculus takes ``dims`` as an argument.

    ``TMatrix(field, rows, cols, entries)`` takes the entries as
    one flat row-major list of field elements; zeros in it are dropped
    and ``field.pack`` stores the others as numerators over the lcm
    ``den`` of the ``x.den`` (packed integers over a ``Packed``
    record).  Kernels first ask ``den`` to bring their
    operands into one frame, then build their results from numerator
    rows through ``_of``.  No method writes to a built matrix.  Values
    rely on the ring having no zero divisors: a product of two stored
    numerators is never tested for zero, a sum is.  Reads return
    normalised field elements; equality cross-multiplies and runs no
    gcd.
    """

    __slots__ = ("field", "rows", "cols", "_data", "den")

    def __init__(self, field, rows, cols, entries):
        if len(entries) != rows * cols:
            raise ValueError(f"{len(entries)} entries for {rows}x{cols}")
        data, den = field.pack([
            {j: x for j, x in enumerate(entries[i * cols:(i + 1) * cols]) if x}
            for i in range(rows)])
        self._init(field, rows, cols, data, den)

    @classmethod
    def _of(cls, field, rows, cols, data, den):
        """The matrix whose row ``i`` holds the numerators ``data[i]``
        over ``den``, taken over as is: the rows must hold no zero, and
        may be shared with other matrices, since none is written."""
        m = cls.__new__(cls)
        m._init(field, rows, cols, data, den)
        return m

    def _init(self, field, rows, cols, data, den):
        self.field, self.rows, self.cols = field, rows, cols
        self._data, self.den = data, den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        data, den = field.pack([{} for _ in range(rows)])
        return cls._of(field, rows, cols, data, den)

    @classmethod
    def identity(cls, field, n):
        data, den = field.pack([{i: field.one} for i in range(n)])
        return cls._of(field, n, n, data, den)

    @classmethod
    def unit(cls, field, n, i, j, coeff=None):
        """Matrix unit e_ij (1-based indices)."""
        entries = [field.zero] * (n * n)
        entries[(i - 1) * n + j - 1] = coeff if coeff is not None else field.one
        return cls(field, n, n, entries)

    @classmethod
    def diag(cls, field, entries):
        n = len(entries)
        data, den = field.pack([{i: x} if x else {}
                                for i, x in enumerate(entries)])
        return cls._of(field, n, n, data, den)

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError(f"ragged rows: {len(row)} entries, not {c}")
            flat.extend(row)
        return cls(field, r, c, flat)

    @classmethod
    def column(cls, field, entries):
        return cls(field, len(entries), 1, list(entries))

    # -- basics ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        x = self._data[i].get(j)
        return self.field.zero if x is None else self.field.join(x, self.den)

    @property
    def e(self):
        """A fresh dense row-major list of all entries, each normalised;
        writing to it leaves the matrix unchanged."""
        cols = self.cols
        join, den = self.field.join, self.den
        out = [self.field.zero] * (self.rows * cols)
        for i, row in enumerate(self._data):
            base = i * cols
            for j, x in row.items():
                out[base + j] = join(x, den)
        return out

    def block(self, i0, j0, rows, cols):
        """The rows x cols submatrix whose top left entry is (i0, j0).  It
        builds its own ``den`` with ``den.trimmed``: over Q(q) that shifts
        out the low zero digits the block's entries all share and
        measures its record from them, so a block never carries the
        bounds of the whole matrix; over a function field it copies them
        into a fresh, loose record."""
        data = [{j - j0: x for j, x in row.items() if j0 <= j < j0 + cols}
                for row in self._data[i0:i0 + rows]]
        data, den = self.den.trimmed(data)
        return TMatrix._of(self.field, rows, cols, data, den)

    def __bool__(self):
        return any(self._data)

    def __eq__(self, other):
        """Entrywise equality, by cross-multiplying when the denominators
        differ."""
        return (isinstance(other, TMatrix) and self.rows == other.rows
                and self.cols == other.cols and _differing(self, other) is None)

    def __neg__(self):
        return TMatrix._of(self.field, self.rows, self.cols,
                           [{j: -x for j, x in row.items()}
                            for row in self._data], self.den)

    def _merged(self, other, negate):
        """``self + other`` (``self - other`` when ``negate``).  A zero
        operand takes the other's denominator; otherwise ``den.common``
        brings both sides into one frame (cross-multiplying where the
        denominators differ) and the numerators add."""
        _same_shape(self, other)
        if not other:
            return self
        if not self:
            data = [{j: -y if negate else y for j, y in row.items()}
                    for row in other._data]
            return TMatrix._of(self.field, self.rows, self.cols, data,
                               other.den)
        a, b, den = self.den.common(other.den, self._data, other._data)
        out = []
        for ra, rb in zip(a, b):
            row = dict(ra)
            for j, y in rb.items():
                x = row.get(j)
                if x is None:
                    row[j] = -y if negate else y
                else:
                    s = x - y if negate else x + y
                    if s:
                        row[j] = s
                    else:
                        del row[j]
            out.append(row)
        return TMatrix._of(self.field, self.rows, self.cols, out, den)

    def __add__(self, other):
        return self._merged(other, False)

    def __sub__(self, other):
        return self._merged(other, True)

    def scaled(self, s):
        """Every entry times the field element ``s``: a product with the
        1x1 matrix (s), so the numerators take s's numerator and ``den``
        takes its denominator."""
        if not s:
            return TMatrix.zeros(self.field, self.rows, self.cols)
        srows, sden = self.field.pack_one(s)
        data, srows, den = self.den.product(sden, self._data, srows, 1)
        num = srows[0][0]
        return TMatrix._of(self.field, self.rows, self.cols,
                           [{j: num * x for j, x in row.items()}
                            for row in data], den)

    def __mul__(self, other):
        """Matrix product over the stored numerators of both sides; the
        denominators multiply.  An output entry sums at most as many
        products as the longest row of ``self`` holds entries."""
        if not isinstance(other, TMatrix):
            raise TypeError(f"matrix times {type(other).__name__}")
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions differ: {self.rows}x"
                             f"{self.cols} times {other.rows}x{other.cols}")
        rows, cols = self.rows, other.cols
        terms = max(map(len, self._data), default=0)
        arows, brows, den = self.den.product(other.den, self._data,
                                             other._data, terms)
        out = []
        for arow in arows:
            acc = {}
            for k, a in arow.items():
                for j, b in brows[k].items():
                    if j in acc:
                        acc[j] = acc[j] + a * b
                    else:
                        acc[j] = a * b
            out.append({j: x for j, x in acc.items() if x})
        return TMatrix._of(self.field, rows, cols, out, den)

    def commutes(self, other):
        """Whether ``self * other == other * self``, for square matrices of
        one size.  A diagonal ``other`` (every row holds at most its own
        diagonal entry d_i) takes no product: the commutator's (i, j)
        entry is x_ij (d_j - d_i), so it vanishes exactly when no stored
        x_ij of ``self`` sits between d_i != d_j.  The d_i are numerators
        over ``other``'s one ``den``, so they are equal exactly when the
        entries are.  Every other ``other`` takes both products."""
        if not self.rows == self.cols == other.rows == other.cols:
            raise ValueError(f"commutator of {self.rows}x{self.cols} and "
                             f"{other.rows}x{other.cols}")
        diag = [row.get(i) for i, row in enumerate(other._data)]
        if all(len(row) == (d is not None)
               for row, d in zip(other._data, diag)):
            return all(diag[i] == diag[j]
                       for i, row in enumerate(self._data) for j in row)
        return self * other == other * self

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, x in row.items():
                out[j][i] = x
        return TMatrix._of(self.field, self.cols, self.rows, out, self.den)

    def trace(self):
        """The sum of the diagonal numerators, normalised once."""
        if self.rows != self.cols:
            raise ValueError(f"trace of a {self.rows}x{self.cols} matrix")
        data, den = self.den.summed(self._data, self.rows)
        acc = None
        for i, row in enumerate(data):
            x = row.get(i)
            if x is not None:
                acc = x if acc is None else acc + x
        if not acc:
            return self.field.zero
        return self.field.join(acc, den)

    def map_entries(self, func):
        """Apply ``func`` to the normalised stored entries, dropping zero
        results, and pack the results over one denominator.

        ``func`` must send zero to zero, since the entries that are not
        stored are never passed to it; a ``ValueError`` says otherwise.
        """
        field = self.field
        if func(field.zero):
            raise ValueError("map_entries needs a function that sends zero "
                             "to zero")
        join, den = field.join, self.den
        out = []
        for row in self._data:
            mapped = ((j, func(join(x, den))) for j, x in row.items())
            out.append({j: y for j, y in mapped if y})
        data, den = field.pack(out)
        return TMatrix._of(field, self.rows, self.cols, data, den)

    def nonzero(self):
        """(row, col, entry) of every stored entry, normalised, in
        row-major order."""
        join, den = self.field.join, self.den
        return [(i, j, join(row[j], den)) for i, row in enumerate(self._data)
                for j in sorted(row)]

    # -- tensor-site calculus ---------------------------------------------

    def partial_transpose(self, site, dims):
        """Transpose in one tensor factor (1-based site) of ``dims``."""
        dims = _factored(self.rows, self.cols, dims, (site,))
        a = site - 1
        sa, da = _strides(dims)[a], dims[a]
        n = self.rows
        out = [{} for _ in range(n)]
        for r, row in enumerate(self._data):
            ra = (r // sa) % da
            for c, x in row.items():
                shift = ((c // sa) % da - ra) * sa
                out[r + shift][c - shift] = x
        return TMatrix._of(self.field, n, n, out, self.den)

    def partial_trace(self, site, dims):
        """Trace out one tensor factor (1-based site) of ``dims``."""
        dims = _factored(self.rows, self.cols, dims, (site,))
        a = site - 1
        rest = dims[:a] + dims[a + 1:]
        m = math.prod(rest)
        sa, da = _strides(dims)[a], dims[a]
        block = sa * da
        data, den = self.den.summed(self._data, da)
        out = [{} for _ in range(m)]
        for r, row in enumerate(data):
            ra = (r // sa) % da
            target = out[(r // block) * sa + r % sa]
            for c, x in row.items():
                if (c // sa) % da == ra:
                    k = (c // block) * sa + c % sa
                    y = target.get(k)
                    target[k] = x if y is None else y + x
        out = [{k: x for k, x in row.items() if x} for row in out]
        return TMatrix._of(self.field, m, m, out, den)

    # -- elimination -------------------------------------------------------

    def _echelon(self, carries=None):
        """The rows of ``self``, normalised, put through ``_insert`` in
        order, row i carrying ``carries[i]`` (nothing when None).  Returns
        the reduced row echelon basis {pivot column: (row, carry)}, in
        insertion order, whose rows leave out their leading 1, and the
        pivot values before scaling."""
        join, den = self.field.join, self.den
        basis, values = {}, []
        for i, row in enumerate(self._data):
            p = _insert(basis, {j: join(x, den) for j, x in row.items()},
                        {} if carries is None else carries[i])
            if p is not None:
                values.append(p)
        return basis, values

    def _solved(self, aug):
        """The solution X of self @ X = aug for a square ``self``, packed
        over the lcm of its entry denominators: row i of ``aug`` is row
        i's carry, so the pivot row of column c carries row c of X."""
        if not self.rows == self.cols == aug.rows:
            raise ValueError(f"not a square system: {self.rows}x{self.cols}")
        n = self.rows
        join, den = self.field.join, aug.den
        basis, _ = self._echelon([{j: join(x, den) for j, x in row.items()}
                                  for row in aug._data])
        if len(basis) < n:
            raise SingularMatrixError(
                f"singular matrix: rank {len(basis)} < {n}")
        data, den = self.field.pack([basis[c][1] for c in range(n)])
        return TMatrix._of(self.field, n, aug.cols, data, den)

    def inverse(self):
        return self._solved(TMatrix.identity(self.field, self.rows))

    def solve(self, rhs):
        """Solve self @ X = rhs for X (rhs a TMatrix of columns)."""
        return self._solved(rhs)

    def rank(self):
        return len(self._echelon()[0])

    def det(self):
        """The product of the pivot values, times the sign of the pivot
        columns' order: the reduced rows, in insertion order, are the unit
        rows of those columns, a permutation matrix.  The product and the
        sign are taken here, not inside the kernel, so inverse and solve
        never pay for them.
        API for the tests and the benchmark tracer; no check calls it."""
        if self.rows != self.cols:
            raise ValueError(f"det of a {self.rows}x{self.cols} matrix")
        basis, values = self._echelon()
        if len(basis) < self.rows:
            return self.field.zero
        acc = self.field.one
        for p in values:
            acc = acc * p
        cols = list(basis)
        odd = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:]) % 2
        return -acc if odd else acc

    def nullspace(self):
        """Exact kernel basis, deterministic order, first coordinate 1."""
        basis, _ = self._echelon()
        out = []
        zero, one = self.field.zero, self.field.one
        for fc in range(self.cols):
            if fc in basis:
                continue
            v = [zero] * self.cols
            v[fc] = one
            for pc, (row, _) in basis.items():
                x = row.get(fc)
                if x is not None:
                    v[pc] = -x
            # normalise: first nonzero coordinate 1
            first = next(x for x in v if x)
            if not first == one:
                inv = one / first
                v = [x * inv for x in v]
            out.append(TMatrix.column(self.field, v))
        return out

    def __repr__(self):
        return f"TMatrix({self.rows}x{self.cols} over {self.field.name})"


# ---------------------------------------------------------------------------
# pencil inverses
# ---------------------------------------------------------------------------

def pencil_inverse(ainv, power, field, reverse=False):
    """(A - tB)^-1 over ``field``, the rational functions in its generator
    t over the field of ``ainv`` = A^-1, where ``power(j)`` is K^j for
    K = A^-1 B; with ``reverse``, (A - t^-1 B)^-1.

    Let p(t) = a_0 t^r + a_1 t^(r-1) + ... + a_r be the integral
    annihilator of K that ``_annihilator`` finds, p~(t) = t^r p(1/t) =
    a_0 + a_1 t + ... + a_r t^r and B_j = a_0 K^j + a_1 K^(j-1) + ... + a_j.
    Then, since K B_j = B_(j+1) - a_(j+1) I and B_r = p(K),

        (I - tK) (B_0 + t B_1 + ... + t^(r-1) B_(r-1)) = p~(t) I - t^r p(K),

    which is linear in the a_j, so p need not be monic.  Once p(K) = 0 is
    checked exactly, (A - tB)^-1 = (I - tK)^-1 A^-1 is sum_j t^j B_j A^-1
    over p~(t): each B_j A^-1 is formed over Q(q), lifted into ``field``
    with its packed numerators (``lift``) and scaled by t^j.  Reversed,
    B_j A^-1 stands at t^(r-j) over p(t).  The inverse is unique, so this
    is the matrix elimination over ``field`` would give, but the
    elimination and the products run over the coefficient field.
    Raises ``ArithmeticError`` when p(K) is not 0.
    """
    a = _annihilator(power, field)
    r = len(a) - 1
    if _combination([power(r - i) for i in range(r + 1)], a):
        raise ArithmeticError(f"pencil inverse: the degree-{r} annihilator "
                              f"found for K does not annihilate it")
    parts = [ainv] + [power(m) * ainv for m in range(1, r)]
    t, n = field.gen, ainv.rows
    inv = TMatrix.zeros(field, n, n)
    for j in range(r):
        # the whole matrix as a block has a record measured from its
        # entries (``den.trimmed``), so the sums start from tight bounds
        b = lift(_combination(parts[j::-1], a).block(0, 0, n, n), field)
        inv = inv + b.scaled(t ** (r - j if reverse else j))
    return inv.scaled(field.poly(a[::-1] if reverse else a).inverse())


def _combination(mats, coeffs):
    """sum_i coeffs[i] mats[i], as a sum of scaled matrices."""
    acc = mats[0].scaled(coeffs[0])
    for m, c in zip(mats[1:], coeffs[1:]):
        acc = acc + m.scaled(c)
    return acc


def _annihilator(power, field):
    """[a_0, ..., a_r], the coefficients over Q(q) of an annihilator
    p(t) = a_0 t^r + a_1 t^(r-1) + ... + a_r of K = ``power(1)`` of least
    degree: the lcm of integral polynomials in the numerators of
    ``field``, so every a_j is a Laurent polynomial, and a_0 need not
    be 1.

    p(K) = 0 exactly when row i of p(K) is 0 for every i, so p is the lcm
    over the rows i of the least f for which row i of f(K) is 0.  Each f
    comes from a Krylov sequence (A. N. Krylov, 1931): its degree is the
    first j at which row i of K^j is a combination of rows i of K^0, ...,
    K^(j-1).  Each power's row goes through ``_insert`` once, carrying its
    combination of the powers along, and a row that reduces to zero gives
    the polynomial.  Row by row, the eliminations stay as small as the
    rows, and the polynomials of different rows never mix until their
    lcm."""
    scalars = power(0).field
    polys = {}
    for i in range(power(0).rows):
        basis = {}
        j = 0
        while True:
            m = power(j)
            comb = {j: scalars.one}
            if _insert(basis, {c: m[i, c] for c in m._data[i]}, comb) is None:
                break
            j += 1
        polys[field.poly([comb.get(k, scalars.zero)
                          for k in range(j + 1)]).num] = None
    p, *rest = polys
    for q in rest:
        p = p.lcm(q)
    return field.coeffs(p)[::-1]


def _insert(basis, vec, carry):
    """The one elimination step: insert the sparse row ``vec``, carrying
    the sparse row ``carry`` along, into ``basis``, a reduced row echelon
    basis {pivot column: (row, carry)}.  A pivot row is stored without
    its leading 1, so no row operation multiplies by it or cancels it.

    ``vec`` is reduced against the pivot rows of the pivot columns it
    stores, and ``carry`` takes the same row operations; each pivot row is
    0 in every other pivot column, so one pass leaves no pivot column in
    ``vec``.  A row that reduces to zero is not inserted: the step returns
    None, and ``carry`` is its combination.  Otherwise the row's leftmost
    column becomes its pivot: the row and its carry are scaled to a
    leading 1, the column is cleared from the earlier pivot rows, and the
    step returns the pivot value before scaling.  Leftmost pivots keep the
    basis the reduced row echelon form of the rows inserted so far, which
    is unique: no result depends on the order of elimination.  Only stored
    entries are touched, so block-decomposable systems (such as
    weight-graded operators) never mix their blocks."""
    for c in [c for c in vec if c in basis]:
        _subtract((vec, carry), vec.pop(c), basis[c])
    if not vec:
        return None
    c = min(vec)
    p = vec.pop(c)
    inv = p.inverse()
    new = ({k: x * inv for k, x in vec.items()},
           {k: x * inv for k, x in carry.items()})
    for old in basis.values():
        f = old[0].pop(c, None)
        if f is not None:
            _subtract(old, f, new)
    basis[c] = new
    return p


def _subtract(target, f, source):
    """target -= f * source, row and carry alike, for (row, carry) pairs
    of sparse dict vectors, dropping zeros."""
    for vec, other in zip(target, source):
        for k, y in other.items():
            x = vec.get(k)
            x = -(f * y) if x is None else x - f * y
            if x:
                vec[k] = x
            else:
                vec.pop(k, None)


# ---------------------------------------------------------------------------
# the tensor-site calculus
# ---------------------------------------------------------------------------

def _strides(dims):
    s = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        s[i] = s[i + 1] * dims[i + 1]
    return s


def _unflatten(pos, dims, strides):
    return [(pos // strides[i]) % dims[i] for i in range(len(dims))]


def kron(a, b):
    """Kronecker product; the denominators multiply."""
    if a.field is not b.field:
        raise ValueError(f"kron across fields: {a.field.name} and "
                         f"{b.field.name}")
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    bc = b.cols
    adata, bdata, den = a.den.product(b.den, a._data, b._data, 1)
    out = []
    for ra in adata:
        for rb in bdata:
            out.append({j * bc + l: x * y
                        for j, x in ra.items() for l, y in rb.items()})
    return TMatrix._of(a.field, rows, cols, out, den)


def embed(op, sites, dims):
    """Embed ``op`` into the tensor product with factor dimensions ``dims``.

    ``sites`` are distinct 1-based factor indices, and ``op`` acts on
    the factors ``dims[s - 1]`` of its sites ``s``, in that order, so it
    must be square of their product; identity acts elsewhere.
    """
    total = math.prod(dims)
    dims = _factored(total, total, dims, sites)
    op_dims = _factored(op.rows, op.cols, [dims[s - 1] for s in sites], ())
    strides = _strides(dims)
    op_strides = _strides(op_dims)
    site_strides = [strides[s - 1] for s in sites]

    # flat offsets of the embedded operator's row/col indices
    offsets = []
    for flat in range(op.rows):
        parts = _unflatten(flat, op_dims, op_strides)
        offsets.append(sum(p * st for p, st in zip(parts, site_strides)))

    skip = {s - 1 for s in sites}
    rest_dims = [d for i, d in enumerate(dims) if i not in skip]
    rest_strides = [strides[i] for i in range(len(dims)) if i not in skip]
    rest_positions = [0]
    for d, st in zip(rest_dims, rest_strides):
        rest_positions = [p + t * st for p in rest_positions for t in range(d)]

    out = [{} for _ in range(total)]
    for i, row in enumerate(op._data):
        base_r = offsets[i]
        shifted = [(offsets[j], x) for j, x in row.items()]
        for p in rest_positions:
            target = out[base_r + p]
            for base_c, x in shifted:
                target[base_c + p] = x
    return TMatrix._of(op.field, total, total, out, op.den)


def _factored(rows, cols, dims, sites):
    """``dims`` as a tuple; raises ValueError unless a rows x cols matrix
    is square of dimension prod(dims) and ``sites`` are distinct 1-based
    indices of its factors."""
    dims = tuple(dims)
    if not math.prod(dims) == rows == cols:
        raise ValueError(f"a {rows}x{cols} matrix does not factor as {dims}")
    if len(set(sites)) != len(sites) or not all(
            1 <= s <= len(dims) for s in sites):
        raise ValueError(f"sites {sites} not distinct in 1..{len(dims)}")
    return dims


def lift(mat, field):
    """Lift a matrix over Q(q) into the function field ``field``: its
    packed numerators are read as constants in the variable, so only the
    record changes (``field.lifted``)."""
    return TMatrix._of(field, mat.rows, mat.cols, mat._data,
                       field.lifted(mat._data, mat.den))


def _same_shape(a, b):
    """Raise ValueError unless ``a`` and ``b`` have one shape: the
    kernels that walk two matrices row by row would truncate."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(f"shapes differ: {a.rows}x{a.cols} and "
                         f"{b.rows}x{b.cols}")


def _differing(a, b):
    """(row, col) of the first entry, in row-major order, where ``a`` and
    ``b`` differ, or None.  ``den.common`` brings both into one frame,
    comparing a_ij d_b with b_ij d_a where the denominators differ, so no
    gcd runs."""
    x, y, _ = a.den.common(b.den, a._data, b._data)
    for i, (ra, rb) in enumerate(zip(x, y)):
        if ra != rb:
            return i, min(j for j in ra.keys() | rb.keys()
                          if ra.get(j) != rb.get(j))
    return None


def first_difference(a, b):
    """(row, col, left, right) of the first differing entry in row-major
    order, with both values normalised, or None."""
    _same_shape(a, b)
    where = _differing(a, b)
    if where is None:
        return None
    i, j = where
    return i, j, a[i, j], b[i, j]
