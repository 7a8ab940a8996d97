"""Exact dense matrices over a coefficient field, with tensor-factor shape.

A ``TMatrix`` is a dense row-major matrix whose entries live in one of
the exact fields from :mod:`.scalars` (via a field descriptor).  Square
matrices may carry a ``shape`` tuple recording a tensor factorisation of
their index space, which drives the subscript calculus: ``kron``,
``embed`` (place operators at chosen tensor sites), partial transpose
and partial trace over a site.

Inverse, solve, rank, determinant and nullspace all run one kernel,
fraction-field Gauss-Jordan elimination with exact zero tests.  Pivots
are chosen to minimise an entry-size hint, and elimination skips exact
zeros, so block-decomposable systems (such as weight-graded operators)
never mix their blocks.
"""

from __future__ import annotations

import math


class SingularMatrixError(ValueError):
    """Raised when inverting or solving against a singular matrix."""


def _size(x):
    hint = getattr(x, "size_hint", None)
    return hint() if hint is not None else 1


class TMatrix:
    """Dense matrix over an exact field, optionally tensor-shaped."""

    __slots__ = ("field", "rows", "cols", "e", "shape")

    def __init__(self, field, rows, cols, entries, shape=None):
        assert len(entries) == rows * cols
        if shape is not None:
            assert math.prod(shape) == rows == cols
            shape = tuple(shape)
        self.field = field
        self.rows = rows
        self.cols = cols
        self.e = entries
        self.shape = shape

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols, shape=None):
        return cls(field, rows, cols, [field.zero] * (rows * cols), shape)

    @classmethod
    def identity(cls, field, n, shape=None):
        m = cls.zeros(field, n, n, shape)
        one = field.one
        for i in range(n):
            m.e[i * n + i] = one
        return m

    @classmethod
    def unit(cls, field, n, i, j, coeff=None, shape=None):
        """Matrix unit e_ij (1-based indices)."""
        m = cls.zeros(field, n, n, shape)
        m.e[(i - 1) * n + (j - 1)] = coeff if coeff is not None else field.one
        return m

    @classmethod
    def diag(cls, field, entries, shape=None):
        n = len(entries)
        m = cls.zeros(field, n, n, shape)
        for i, x in enumerate(entries):
            m.e[i * n + i] = x
        return m

    @classmethod
    def from_rows(cls, field, rows, shape=None):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            assert len(row) == c
            flat.extend(row)
        return cls(field, r, c, flat, shape)

    @classmethod
    def column(cls, field, entries):
        return cls(field, len(entries), 1, list(entries))

    # -- basics ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.e[i * self.cols + j]

    def with_shape(self, shape):
        return TMatrix(self.field, self.rows, self.cols, self.e, shape)

    def copy(self):
        return TMatrix(self.field, self.rows, self.cols, list(self.e), self.shape)

    def __bool__(self):
        return any(self.e)

    def __eq__(self, other):
        """Entrywise equality; tensor-shape metadata is ignored."""
        return (isinstance(other, TMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.e == other.e)

    def __neg__(self):
        return TMatrix(self.field, self.rows, self.cols,
                       [-x for x in self.e], self.shape)

    def __add__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return TMatrix(self.field, self.rows, self.cols,
                       [a + b for a, b in zip(self.e, other.e)], self.shape)

    def __sub__(self, other):
        assert self.rows == other.rows and self.cols == other.cols
        return TMatrix(self.field, self.rows, self.cols,
                       [a - b for a, b in zip(self.e, other.e)], self.shape)

    def scaled(self, s):
        return TMatrix(self.field, self.rows, self.cols,
                       [s * x for x in self.e], self.shape)

    def __mul__(self, other):
        """Matrix product, skipping exact zeros on both sides."""
        assert isinstance(other, TMatrix)
        assert self.cols == other.rows, "inner dimensions differ"
        rows, cols, inner = self.rows, other.cols, self.cols
        zero = self.field.zero
        out = [zero] * (rows * cols)
        be = other.e
        brows = []
        for k in range(inner):
            base = k * cols
            brows.append([(j, be[base + j]) for j in range(cols) if be[base + j]])
        ae = self.e
        for i in range(rows):
            abase = i * cols
            arow = i * inner
            for k in range(inner):
                a = ae[arow + k]
                if a:
                    for j, b in brows[k]:
                        out[abase + j] = out[abase + j] + a * b
        shape = self.shape if self.shape is not None else other.shape
        if shape is not None and (rows != cols or math.prod(shape) != rows):
            shape = None
        return TMatrix(self.field, rows, cols, out, shape)

    def transpose(self):
        out = [None] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self.e[i * self.cols + j]
        return TMatrix(self.field, self.cols, self.rows, out, self.shape)

    def trace(self):
        assert self.rows == self.cols
        acc = self.field.zero
        for i in range(self.rows):
            acc = acc + self.e[i * self.cols + i]
        return acc

    def map_entries(self, func, field=None):
        return TMatrix(field if field is not None else self.field,
                       self.rows, self.cols,
                       [func(x) for x in self.e], self.shape)

    def nonzero(self):
        c = self.cols
        return [(k // c, k % c, x) for k, x in enumerate(self.e) if x]

    # -- tensor-site calculus ---------------------------------------------

    def _need_shape(self):
        if self.shape is None:
            raise ValueError("matrix carries no tensor-factor shape")
        return self.shape

    def partial_transpose(self, site):
        """Transpose in one tensor factor (1-based site index)."""
        dims = self._need_shape()
        a = site - 1
        strides = _strides(dims)
        n = self.rows
        out = [None] * (n * n)
        for r in range(n):
            ridx = _unflatten(r, dims, strides)
            for c in range(n):
                cidx = _unflatten(c, dims, strides)
                r2 = r + (cidx[a] - ridx[a]) * strides[a]
                c2 = c + (ridx[a] - cidx[a]) * strides[a]
                out[r2 * n + c2] = self.e[r * n + c]
        return TMatrix(self.field, n, n, out, dims)

    def partial_trace(self, site):
        """Trace out one tensor factor (1-based site index)."""
        dims = self._need_shape()
        a = site - 1
        rest = dims[:a] + dims[a + 1:]
        m = math.prod(rest) if rest else 1
        strides = _strides(dims)
        sa, da = strides[a], dims[a]
        zero = self.field.zero
        out = [zero] * (m * m)
        rest_positions = _enumerate_rest(dims, a)
        for ri, r0 in enumerate(rest_positions):
            for ci, c0 in enumerate(rest_positions):
                acc = zero
                for t in range(da):
                    acc = acc + self.e[(r0 + t * sa) * self.rows + (c0 + t * sa)]
                out[ri * m + ci] = acc
        return TMatrix(self.field, m, m, out, rest if rest else None)

    # -- elimination -------------------------------------------------------

    def _gauss_jordan(self, aug=None):
        """The elimination kernel: Gauss-Jordan on a working copy of
        ``self``, augmented on the right by the columns of ``aug``.

        Each column of ``self`` in turn takes as pivot the remaining row
        whose entry there has the smallest size hint; that row is scaled
        to a leading 1 and the column is cleared in every other row,
        skipping exact zeros.  A column with no pivot is passed over, so
        fewer pivots than rows means a rank deficit.  Returns
        (rows, pivot columns, sign of the row permutation, pivot values
        before scaling).
        """
        rows, cols = self.rows, self.cols
        zero, one = self.field.zero, self.field.one
        m = 0 if aug is None else aug.cols
        width = cols + m
        work = [self.e[r * cols:(r + 1) * cols]
                + (aug.e[r * m:(r + 1) * m] if m else []) for r in range(rows)]
        pivots, values = [], []
        sign = 1
        pr = 0
        for c in range(cols):
            if pr == rows:
                break
            best = None
            best_size = None
            for r in range(pr, rows):
                x = work[r][c]
                if x:
                    s = _size(x)
                    if best is None or s < best_size:
                        best, best_size = r, s
            if best is None:
                continue
            if best != pr:
                work[pr], work[best] = work[best], work[pr]
                sign = -sign
            prow = work[pr]
            p = prow[c]
            pinv = one / p
            for j in range(c, width):
                if prow[j]:
                    prow[j] = prow[j] * pinv
            for r in range(rows):
                if r != pr:
                    row = work[r]
                    f = row[c]
                    if f:
                        for j in range(c + 1, width):
                            if prow[j]:
                                row[j] = row[j] - f * prow[j]
                        row[c] = zero
            pivots.append(c)
            values.append(p)
            pr += 1
        return work, pivots, sign, values

    def _solved(self, aug):
        """The augmented block after reducing a square ``self`` to 1."""
        assert self.rows == self.cols == aug.rows, "not a square system"
        n = self.rows
        work, pivots, _, _ = self._gauss_jordan(aug)
        if len(pivots) < n:
            raise SingularMatrixError(
                f"singular matrix: rank {len(pivots)} < {n}")
        return [x for row in work for x in row[n:]]

    def inverse(self):
        n = self.rows
        flat = self._solved(TMatrix.identity(self.field, n))
        return TMatrix(self.field, n, n, flat, self.shape)

    def solve(self, rhs):
        """Solve self @ X = rhs for X (rhs a TMatrix of columns)."""
        return TMatrix(self.field, self.rows, rhs.cols, self._solved(rhs))

    def rank(self):
        return len(self._gauss_jordan()[1])

    def det(self):
        """Signed product of the pivots; the product is taken here, not
        inside the kernel, so inverse and solve never pay for it."""
        assert self.rows == self.cols
        _, pivots, sign, values = self._gauss_jordan()
        if len(pivots) < self.rows:
            return self.field.zero
        acc = self.field.one
        for p in values:
            acc = acc * p
        return acc if sign > 0 else -acc

    def nullspace(self):
        """Exact kernel basis, deterministic order, first coordinate 1."""
        work, pivots, _, _ = self._gauss_jordan()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        zero, one = self.field.zero, self.field.one
        for fc in free:
            v = [zero] * self.cols
            v[fc] = one
            for r, pc in enumerate(pivots):
                x = work[r][fc]
                if x:
                    v[pc] = -x
            # normalise: first nonzero coordinate 1
            first = next(x for x in v if x)
            if not first == one:
                inv = one / first
                v = [x * inv for x in v]
            basis.append(TMatrix.column(self.field, v))
        return basis

    def render_entries(self):
        rf = self.field.render
        return [[rf(self.e[i * self.cols + j]) for j in range(self.cols)]
                for i in range(self.rows)]

    def __repr__(self):
        return f"TMatrix({self.rows}x{self.cols} over {self.field.name})"


# ---------------------------------------------------------------------------
# shape helpers
# ---------------------------------------------------------------------------

def _strides(dims):
    s = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        s[i] = s[i + 1] * dims[i + 1]
    return s


def _unflatten(pos, dims, strides):
    return [(pos // strides[i]) % dims[i] for i in range(len(dims))]


def _enumerate_rest(dims, skip):
    """Flat base positions with index 0 at factor ``skip``, ordered by the
    remaining factors (row-major)."""
    rest = [d for i, d in enumerate(dims) if i != skip]
    strides = _strides(dims)
    rest_strides = [s for i, s in enumerate(strides) if i != skip]
    out = []

    def rec(i, acc):
        if i == len(rest):
            out.append(acc)
            return
        for t in range(rest[i]):
            rec(i + 1, acc + t * rest_strides[i])

    rec(0, 0)
    return out


def kron(a, b):
    """Kronecker product; concatenates tensor-factor shapes when known."""
    assert a.field is b.field
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    zero = a.field.zero
    out = [zero] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.e[i * a.cols + j]
            if x:
                rbase = i * b.rows
                cbase = j * b.cols
                for k in range(b.rows):
                    row = (rbase + k) * cols + cbase
                    bk = k * b.cols
                    for l in range(b.cols):
                        y = b.e[bk + l]
                        if y:
                            out[row + l] = x * y
    sa = a.shape if a.shape is not None else ((a.rows,) if a.rows == a.cols else None)
    sb = b.shape if b.shape is not None else ((b.rows,) if b.rows == b.cols else None)
    shape = sa + sb if (sa is not None and sb is not None) else None
    return TMatrix(a.field, rows, cols, out, shape)


def embed(op, sites, dims):
    """Embed ``op`` into the tensor product with factor dimensions ``dims``.

    ``sites`` are 1-based factor indices, in the order matching the
    tensor factorisation of ``op`` (whose shape must agree with the
    selected dimensions); identity acts elsewhere.
    """
    dims = tuple(dims)
    op_shape = op.shape if op.shape is not None else (op.rows,)
    assert len(op_shape) == len(sites), "site list does not match operator shape"
    for s, d in zip(sites, op_shape):
        assert dims[s - 1] == d, f"dimension mismatch at site {s}"
    assert len(set(sites)) == len(sites)

    total = math.prod(dims)
    strides = _strides(dims)
    op_strides = _strides(op_shape)
    site_strides = [strides[s - 1] for s in sites]

    # flat offsets of the embedded operator's row/col indices
    offsets = []
    for flat in range(op.rows):
        parts = _unflatten(flat, op_shape, op_strides)
        offsets.append(sum(p * st for p, st in zip(parts, site_strides)))

    skip = {s - 1 for s in sites}
    rest_dims = [d for i, d in enumerate(dims) if i not in skip]
    rest_strides = [strides[i] for i in range(len(dims)) if i not in skip]
    rest_positions = [0]
    for d, st in zip(rest_dims, rest_strides):
        rest_positions = [p + t * st for p in rest_positions for t in range(d)]

    zero = op.field.zero
    out = [zero] * (total * total)
    for i in range(op.rows):
        base_r = offsets[i]
        for j in range(op.cols):
            x = op.e[i * op.cols + j]
            if x:
                base_c = offsets[j]
                for p in rest_positions:
                    out[(base_r + p) * total + (base_c + p)] = x
    return TMatrix(op.field, total, total, out, dims)


def lift(mat, field):
    """Lift a matrix over ``field.coeff`` into ``field`` entrywise."""
    return mat.map_entries(field.from_coeff, field)


def first_difference(a, b):
    """(row, col, left, right) of the first differing entry, or None."""
    assert a.rows == b.rows and a.cols == b.cols
    for k, (x, y) in enumerate(zip(a.e, b.e)):
        if not x == y:
            return k // a.cols, k % a.cols, x, y
    return None
