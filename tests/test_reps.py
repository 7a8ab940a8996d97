"""Evaluation modules: defining relations, weights, highest weight vectors."""

import copy

import pytest

from qgelfand import scalars
from qgelfand.scalars import (IntLaurent, Scalar, SCALARS, UFIELD, ONE, QINV, Q,
                              Q_MINUS_QINV)
from qgelfand.tmatrix import TMatrix, lift
from qgelfand.reps import (Representation, WeightError, NotEigenvectorError,
                           vector_rep, trivial_rep, tensor_product,
                           tensor_power, evaluated_L, verify_defining_relations,
                           weight_subspace, highest_weight_vector,
                           scalar_on_vector, _image_scalar)


def all_pass(rows):
    bad = [(name, v.witness) for name, v in rows if not v]
    assert not bad, bad


# ---------------------------------------------------------------------------
# the vector representation
# ---------------------------------------------------------------------------

def test_vector_rep_generator_images():
    rep = vector_rep(3)
    assert rep.op("+", 1, 1) == TMatrix.diag(SCALARS, [QINV, ONE, ONE])
    assert rep.op("-", 1, 1) == TMatrix.diag(SCALARS, [Q, ONE, ONE])
    assert rep.op("+", 1, 2) == TMatrix.unit(SCALARS, 3, 1, 2,
                                             coeff=-Q_MINUS_QINV)
    assert rep.op("-", 2, 1) == TMatrix.unit(SCALARS, 3, 2, 1,
                                             coeff=Q_MINUS_QINV)
    # triangularity of the blocks themselves
    assert not rep.op("+", 3, 1)
    assert not rep.op("-", 1, 3)


def test_generator_blocks_are_built_once(monkeypatch):
    # one block per generator, shared by every caller
    from qgelfand import invariants
    rep = tensor_power(vector_rep(2), 2)
    calls = []
    block = TMatrix.block
    monkeypatch.setattr(TMatrix, "block",
                        lambda *args: calls.append(args) or block(*args))
    first = invariants.generator_images(rep)
    verify_defining_relations(rep)
    highest_weight_vector(rep, (2, 0))
    again = invariants.generator_images(rep)
    assert len(calls) == 8
    assert all(a[1] is b[1] for a, b in zip(first, again))


def scanned_block(rep, sign, i, j):
    """pi(l_ij) by scanning every entry of L+ or L- and keeping the ones
    inside the block."""
    big = rep.Lp if sign == "+" else rep.Lm
    d = rep.d
    r0, c0 = (i - 1) * d, (j - 1) * d
    entries = [SCALARS.zero] * (d * d)
    for r, c, x in big.nonzero():
        if r0 <= r < r0 + d and c0 <= c < c0 + d:
            entries[(r - r0) * d + c - c0] = x
    return TMatrix(SCALARS, d, d, entries)


def test_op_blocks_match_entry_scan():
    for rep in (vector_rep(3), tensor_power(vector_rep(2), 2),
                tensor_power(vector_rep(3), 2)):
        for sign in "+-":
            for i in range(1, rep.n + 1):
                for j in range(1, rep.n + 1):
                    got = rep.op(sign, i, j)
                    want = scanned_block(rep, sign, i, j)
                    assert (got.rows, got.cols) == (rep.d, rep.d)
                    assert got == want and got.nonzero() == want.nonzero()


def test_re_measuring_a_block_keeps_l_products_exact():
    # L+ holds coefficients near 2^40 outside its (1,1) block.  A kernel
    # tightens a packing record in place to the entries of the matrix it
    # holds (``scalars._measure``); the block's record must be its own,
    # or L+'s record would claim that block's small bound, and the
    # product below would overflow 64-bit digits without being widened.
    big = Scalar(IntLaurent(-1, (1 << 40, 3, -(1 << 40))))
    lp = TMatrix.from_rows(SCALARS, [[QINV, ONE, big, big],
                                     [ONE, QINV, ONE, big],
                                     [big, ONE, big, -big],
                                     [big, big, ONE, big]])
    lm = lp.transpose().scaled(Q)
    want = [sum((lp[i, k] * lm[k, j] for k in range(4)), SCALARS.zero)
            for i in range(4) for j in range(4)]
    rep = Representation(2, 2, lp, lm, "probe")
    blk = rep.op("+", 1, 1)
    assert blk == TMatrix.from_rows(SCALARS, [[QINV, ONE], [ONE, QINV]])
    scalars._measure(blk.den, blk._data)
    # sound, and at most twice the block's largest |coefficient|, 1
    assert 1 <= blk.den.bound <= 2 < rep.Lp.den.bound
    assert (rep.Lp * rep.Lm).e == want


def test_blocks_trim_their_records():
    # At (n, N) = (2, 4), l-_ii acts by q^0..q^4: its block's record is
    # trimmed to shift 0 and a bound of at most 2, while L-'s own record,
    # shared by no block, keeps its shift 4.  Products of the trimmed
    # blocks equal products of the same blocks cut with L+-'s record (the
    # old blocks).
    rep = tensor_power(vector_rep(2), 4)
    d = rep.d
    records = {sign: big.den for sign, big in (("+", rep.Lp), ("-", rep.Lm))}
    before = {sign: [getattr(f, k) for k in f.__slots__]
              for sign, f in records.items()}
    untrimmed, trimmed = [], []
    for sign, big in (("+", rep.Lp), ("-", rep.Lm)):
        for i in (1, 2):
            for j in (1, 2):
                trimmed.append(rep.op(sign, i, j))
                data = [{c - (j - 1) * d: x for c, x in row.items()
                         if (j - 1) * d <= c < j * d}
                        for row in big._data[(i - 1) * d:i * d]]
                untrimmed.append(TMatrix._of(SCALARS, d, d, data,
                                             copy.copy(big.den)))
    for i in (1, 2):
        blk = rep.op("-", i, i)
        # a measured bound is at most twice the true one, 1
        assert blk.den.shift == 0 and 1 <= blk.den.bound <= 2
        assert blk.den is not rep.Lm.den
    assert records["-"].shift == 4
    for x, xt in zip(untrimmed, trimmed):
        for y, yt in zip(untrimmed, trimmed):
            prod = xt * yt
            assert prod == x * y and prod.e == (x * y).e
    assert rep.Lp.den is records["+"] and rep.Lm.den is records["-"]
    assert {sign: [getattr(f, k) for k in f.__slots__]
            for sign, f in records.items()} == before


def test_defining_relations_small():
    for rep in (vector_rep(1), vector_rep(2), vector_rep(3),
                tensor_power(vector_rep(2), 2)):
        all_pass(verify_defining_relations(rep))


def test_defining_relations_largest_benchmark_module():
    # the 729 x 729 exchange products of n=3, N=4
    all_pass(verify_defining_relations(tensor_power(vector_rep(3), 4)))


def test_weights():
    assert vector_rep(3).weights() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert trivial_rep(2).weights() == ((0, 0),)
    vv = tensor_power(vector_rep(2), 2)
    assert vv.weights() == ((2, 0), (1, 1), (1, 1), (0, 2))
    assert weight_subspace(vv, (1, 1)) == (1, 2)


def test_tensor_product_structure():
    a, b = vector_rep(2), vector_rep(2)
    ab = tensor_product(a, b)
    assert ab.n == 2 and ab.d == 4
    assert ab.label == "vector(2)(x)vector(2)"
    assert tensor_power(vector_rep(3), 2).d == 9
    assert tensor_power(vector_rep(2), 0).d == 1


def test_modules_refuse_operators_of_the_wrong_size():
    eye = TMatrix.identity(SCALARS, 3)
    for lp, lm in ((eye, TMatrix.identity(SCALARS, 4)),
                   (TMatrix.identity(SCALARS, 4), eye),
                   (TMatrix.zeros(SCALARS, 4, 2), TMatrix.zeros(SCALARS, 4, 2))):
        with pytest.raises(ValueError):
            Representation(2, 2, lp, lm, "bad")
    with pytest.raises(ValueError):
        tensor_product(vector_rep(2), vector_rep(3))
    with pytest.raises(ValueError):
        tensor_power(vector_rep(2), -1)


def test_tensor_power_leaves_its_argument_alone():
    rep = vector_rep(2)
    once = tensor_power(rep, 1)
    assert once is not rep and rep.label == "vector(2)"
    assert once.label == tensor_power(rep, 1).label == "vector(2)^(x)1"
    assert once.Lp == rep.Lp and once.Lm == rep.Lm
    assert tensor_power(rep, 2).label == "vector(2)^(x)2"


# ---------------------------------------------------------------------------
# highest weight vectors
# ---------------------------------------------------------------------------

def test_highest_weight_vector_vector_rep():
    rep = vector_rep(2)
    v = highest_weight_vector(rep, (1, 0))
    assert v.e == [ONE, SCALARS.zero]


def test_highest_weight_vector_antisymmetric_golden():
    # the (1,1) vector in C^2 (x) C^2 is e_1(x)e_2 - q^-1 e_2(x)e_1
    vv = tensor_power(vector_rep(2), 2)
    v = highest_weight_vector(vv, (1, 1))
    assert v.e == [SCALARS.zero, ONE, -QINV, SCALARS.zero]
    w = highest_weight_vector(vv, (2, 0))
    assert w.e == [ONE, SCALARS.zero, SCALARS.zero, SCALARS.zero]


def test_highest_weight_vector_killed_by_raisers():
    rep = tensor_power(vector_rep(3), 2)
    v = highest_weight_vector(rep, (1, 1, 0))
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert not rep.op("+", i, j) * v


def test_weight_errors():
    rep = tensor_power(vector_rep(2), 2)
    with pytest.raises(WeightError, match="not dominant"):
        highest_weight_vector(rep, (0, 1))
    with pytest.raises(WeightError, match="does not occur"):
        highest_weight_vector(rep, (3, 0))
    with pytest.raises(WeightError, match="length"):
        highest_weight_vector(rep, (1, 0, 0))


def test_scalar_on_vector():
    rep = vector_rep(2)
    d = TMatrix.diag(SCALARS, [Q, Q])
    v = highest_weight_vector(rep, (1, 0))
    assert scalar_on_vector(d, v) == Q
    skew = TMatrix.unit(SCALARS, 2, 2, 1)
    with pytest.raises(NotEigenvectorError):
        scalar_on_vector(skew + d, TMatrix.column(SCALARS, [ONE, ONE]))


def test_image_scalar_checks_every_coordinate():
    vec = TMatrix.column(SCALARS, [ONE, ONE])
    assert _image_scalar(vec.scaled(Q), vec) == Q
    # the pivot coordinate alone would read off q
    image = TMatrix.column(SCALARS, [Q, ONE])
    with pytest.raises(NotEigenvectorError, match="qdet"):
        _image_scalar(image, vec, "qdet")


def test_memo_keys_lists_as_tuples_and_skips_errors():
    rep = tensor_power(vector_rep(2), 2)
    v = highest_weight_vector(rep, (1, 1))
    assert highest_weight_vector(rep, [1, 1]) is v
    cached = len(rep._cache)
    for _ in range(2):
        with pytest.raises(WeightError, match="does not occur"):
            highest_weight_vector(rep, (3, 0))
    assert len(rep._cache) == cached


# ---------------------------------------------------------------------------
# evaluated operators
# ---------------------------------------------------------------------------

def test_evaluated_l():
    rep = vector_rep(2)
    u = UFIELD.gen
    lp_u = evaluated_L(rep, "+", u)
    lm_u = evaluated_L(rep, "-", u)
    assert lp_u == lift(rep.Lp, UFIELD) - lift(rep.Lm, UFIELD).scaled(u)
    assert lm_u == lift(rep.Lm, UFIELD) - lift(rep.Lp, UFIELD).scaled(
        u.inverse())
    with pytest.raises(ValueError):
        evaluated_L(rep, "x", u)


def test_lift_vector():
    rep = vector_rep(2)
    v = highest_weight_vector(rep, (1, 0))
    lv = lift(v, UFIELD)
    assert lv.field is UFIELD and lv.e[0] == UFIELD.one
