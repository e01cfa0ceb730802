"""Gaussian elimination over both scalar backends."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicdisc.scalars import EXACT, FLOAT, ExactScalar
from cubicdisc import linalg, tensors


def M(rows, bk=EXACT):
    return [[bk.rational(x) for x in row] for row in rows]


def test_rank_and_rref():
    A = M([[1, 2], [2, 4], [0, 1]])
    assert linalg.rank(A, EXACT) == 2
    A = M([[1, 2], [2, 4]])
    assert linalg.rank(A, EXACT) == 1


def test_nullspace():
    A = M([[1, 2, 3], [2, 4, 6]])
    null = linalg.nullspace(A, EXACT)
    assert len(null) == 2
    for v in null:
        for row in A:
            s = EXACT.zero
            for a, x in zip(row, v):
                s = s + a * x
            assert not s


def test_solve_and_inconsistent():
    A = M([[1, 1], [1, -1]])
    x = linalg.solve(A, [EXACT.rational(3), EXACT.rational(1)], EXACT)
    assert x[0] == EXACT.rational(2) and x[1] == EXACT.one
    B = M([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        linalg.solve(B, [EXACT.rational(1), EXACT.rational(2)], EXACT)


def test_inverse():
    A = M([[2, 1], [1, 1]])
    Ainv = linalg.inverse(A, EXACT)
    assert Ainv[0, 0] == EXACT.one
    assert Ainv[0, 1] == -EXACT.one
    with pytest.raises(ValueError):
        linalg.inverse(M([[1, 1], [1, 1]]), EXACT)


def test_float_rank_threshold():
    A = [[1.0, 2.0], [2.0, 4.0 + 1e-12]]
    assert linalg.rank(A, FLOAT) == 1
    A = [[1.0, 2.0], [2.0, 4.1]]
    assert linalg.rank(A, FLOAT) == 2


def test_sparse_eliminator_nullspace():
    one = EXACT.one
    elim = linalg.SparseEliminator([{0: one, 1: one}, {1: one, 2: one},
                                    {0: one, 2: -one}],   # dependent
                                   4, EXACT)
    assert elim.rank() == 2
    null = elim.nullspace()
    assert len(null) == 2
    for v in null:
        assert not (v[0] + v[1])
        assert not (v[1] + v[2])


def test_sparse_matches_dense():
    rows = [[1, 0, 2, -1], [0, 3, 1, 1], [1, 3, 3, 0]]
    dense = linalg.nullspace(M(rows), EXACT)
    elim = linalg.SparseEliminator(
        [{i: EXACT.rational(x) for i, x in enumerate(row) if x} for row in rows],
        4, EXACT)
    sparse = elim.nullspace()
    # row3 = row1 + row2, so the rank is 2 and the nullspace is 2-dimensional.
    assert len(dense) == len(sparse) == 2
    for v in sparse:
        for row in rows:
            s = EXACT.zero
            for i, x in enumerate(row):
                s = s + v[i] * EXACT.rational(x)
            assert not s


@pytest.mark.parametrize("entry", [Fraction(1, 10 ** 400), 10 ** 400],
                         ids=["tiny", "huge"])
def test_exact_pivots_need_no_float(entry):
    # 10^-400 underflows and 10^400 overflows as a float; exact elimination
    # must see a nonzero pivot in both.
    x = ExactScalar(entry)
    assert linalg.rank([[x]], EXACT) == 1
    assert linalg.nullspace([[x, x]], EXACT) == [[-EXACT.one, EXACT.one]]
    elim = linalg.SparseEliminator([{0: x, 1: x}, {0: x, 1: x * 2}], 2, EXACT)
    assert elim.rank() == 2


def _matvec(A, x, bk):
    return [sum((a * v for a, v in zip(row, x)), bk.zero) for row in A]


def test_one_zero_rule_for_every_entry_point():
    # 5e-5 is below 1e-7 times the largest entry, so it is zero for the dense
    # functions and for the eliminator alike.
    A = [[1e3, 0.0], [0.0, 5e-5]]
    elim = linalg.SparseEliminator([dict(enumerate(row)) for row in A], 2, FLOAT)
    assert elim.independent == [True, False]
    assert linalg.rank(A, FLOAT) == elim.rank() == 1
    assert linalg.nullspace(A, FLOAT) == elim.nullspace() == [[0.0, 1.0]]


@pytest.mark.parametrize("order", [1, -1], ids=["small_first", "large_first"])
def test_rank_does_not_depend_on_row_order(order):
    # The zero rule comes from the whole system, so 5e-5 is zero next to
    # 1e3 whichever row comes first.
    A = [[0.0, 5e-5], [1e3, 0.0]][::order]
    elim = linalg.SparseEliminator([dict(enumerate(row)) for row in A], 2, FLOAT)
    assert elim.independent == [x[0] != 0.0 for x in A]
    assert elim.rank() == linalg.rank(A, FLOAT) == 1
    assert len(linalg.nullspace(A, FLOAT)) == 1


@pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])
def test_solve_with_a_free_variable(bk):
    A = M([[1, 2, 1], [2, 4, 0]], bk)
    b = [bk.rational(3), bk.rational(2)]
    x = linalg.solve(A, b, bk)
    # Rank 2 in 3 unknowns: one free variable, set to zero.
    assert sum(1 for v in x if bk.is_zero(v)) == 1
    for got, want in zip(_matvec(A, x, bk), b):
        assert bk.is_zero(got - want)
    # A matrix right-hand side is solved column by column.
    X = linalg.solve(A, [[b[0], -b[0]], [b[1], -b[1]]], bk)
    assert all(bk.is_zero(X[i, 0] - x[i]) and bk.is_zero(X[i, 1] + x[i])
               for i in range(3))


def test_float_inverse():
    A = M([[2, 1], [1, 1]], FLOAT)
    Ainv = linalg.inverse(A, FLOAT)
    want = [[1, -1], [-1, 2]]
    assert all(abs(Ainv[i, j] - want[i][j]) <= 1e-12
               for i in range(2) for j in range(2))
    with pytest.raises(ValueError):
        linalg.inverse(M([[1, 2], [2, 4]], FLOAT), FLOAT)


def test_add_row_reports_independence():
    one = EXACT.one
    elim = linalg.SparseEliminator([{0: one, 1: one}, {0: -one, 1: -one}, {},
                                    {1: one}], 2, EXACT)
    assert elim.independent == [True, False, False, True]
    assert elim.nullspace() == []


# -- dict-row products and sums against the dense products -------------------


ENTRIES = [EXACT.one, -EXACT.one, EXACT.i, -EXACT.i, EXACT.sqrt3,
           EXACT.rational(1, 2), EXACT.i * EXACT.sqrt3 * EXACT.rational(-1, 3)]


@st.composite
def sparse_matrix(draw, n, m):
    """An n x m exact matrix, about a quarter of it nonzero, with some rows
    all zero."""
    A = tensors.zeros((n, m), EXACT)
    for i in range(n):
        if draw(st.booleans()):
            for j in range(m):
                if draw(st.integers(0, 3)) == 0:
                    A[i, j] = draw(st.sampled_from(ENTRIES))
    return A


def _dense(rows, m, bk):
    out = tensors.zeros((len(rows), m), bk)
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[i, j] = x
    return out


@pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_row_product_and_sum_match_dense(bk, data):
    n, k, m = (data.draw(st.integers(1, 12)) for _ in "nkm")
    A, C, D = (data.draw(sparse_matrix(n, c)) for c in (k, m, m))
    B = data.draw(sparse_matrix(k, m))
    if k % 2 == 0 and data.draw(st.booleans()):
        # The two halves of the sum over k cancel: A @ B is zero.
        A[:, k // 2:] = A[:, :k // 2]
        B[k // 2:] = -B[:k // 2]
    if bk is FLOAT:
        A, B, C, D = (tensors.asarray([[x.to_complex() for x in row] for row in X], bk)
                      for X in (A, B, C, D))
    P = linalg.row_product(linalg.sparse_rows(A), linalg.sparse_rows(B))
    S = linalg.row_sum([P, linalg.sparse_rows(C)], [linalg.sparse_rows(D)])
    for got, want in ((P, tensors.matmul(A, B)),
                      (S, tensors.matmul(A, B) + C - D)):
        assert len(got) == n and all(0 <= j < m for row in got for j in row)
        if bk is EXACT:
            assert (_dense(got, m, bk) == want).all()
            # A zero is the shared zero or is not stored.
            assert all(x is EXACT.zero or any(x.ints()[:4])
                       for row in got for x in row.values())
        else:
            assert np.abs(_dense(got, m, bk) - want).max() <= 1e-12
        assert linalg.rank(got, bk) == linalg.rank(want.tolist(), bk)
