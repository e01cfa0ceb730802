"""Structure tensors, the antilinear j-map, and symmetrization on raw arrays."""

from fractions import Fraction
import itertools
import math
import pathlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubicdisc import hk, irrep, jsonio, sp2, tensors
from cubicdisc.scalars import EXACT, FLOAT, ExactArray, ExactScalar
from cubicdisc.tensors import (zeros, pmat, eye, g8mat, jmats, frob, all_zero,
                               FLIP, jmap4, sym4, is_totally_symmetric)

bk = EXACT


def test_pi_matrix():
    P = pmat(bk)
    assert all_zero(P @ P + eye(4, bk), bk)
    assert all_zero(P.T + P, bk)
    assert all_zero(P.T @ P - eye(4, bk), bk)


def test_pi_full_contraction_is_four():
    # Raising both indices of pi with g = Id leaves the matrix P unchanged,
    # so the full contraction pi^{ab} pi_{ab} is the sum of P * P.
    P = pmat(bk)
    assert (P * P).sum() == bk.rational(4)


def test_mixed_pi_contraction_is_minus_delta():
    P = pmat(bk)
    assert all_zero(P @ P + eye(4, bk), bk)


def test_metric_and_complex_structures():
    g = g8mat(bk)
    J1, J2, J3 = jmats(bk)
    assert all_zero(J1 @ J2 - J3, bk)
    for J in (J1, J2, J3):
        assert all_zero(J @ J + eye(8, bk), bk)
        assert all_zero(J.T @ g @ J - g, bk)


def test_flip_matches_metric():
    g = g8mat(bk)
    for a in range(8):
        assert g[a, FLIP[a]] == bk.one


def _random_tensor(rank, seed=3):
    rng = random.Random(seed)
    comps = zeros((4,) * rank, bk)
    for idx in itertools.product(range(4), repeat=rank):
        comps[idx] = bk.scalar(rng.randint(-2, 2), rng.randint(-2, 2))
    return comps


def test_jmap_is_involution_up_to_sign():
    # j^2 = -1 on W, so the j-map applied twice is (-1)^rank.
    for rank in (2, 3, 4):
        T = _random_tensor(rank)
        sign = bk.rational((-1) ** rank)
        assert all_zero(jmap4(jmap4(T, bk), bk) - T * sign, bk,
                        scale=frob(T, bk))


def test_sym4_and_symmetry_predicate():
    rng = random.Random(0)
    S = zeros((4, 4, 4, 4), bk)
    for idx in itertools.product(range(4), repeat=4):
        S[idx] = bk.rational(rng.randint(-3, 3))
    Ssym = sym4(S, bk)
    assert is_totally_symmetric(Ssym, bk)
    assert not is_totally_symmetric(S, bk) or all_zero(S - Ssym, bk)


def test_jmap4_involution():
    rng = random.Random(1)
    S = zeros((4, 4, 4, 4), bk)
    for idx in itertools.product(range(4), repeat=4):
        S[idx] = bk.scalar(rng.randint(-2, 2), rng.randint(-2, 2))
    assert all_zero(jmap4(jmap4(S, bk), bk) - S, bk, scale=frob(S, bk))


def _sym4_reference(S, bk):
    """sym4 as the plain sum over the 24 permutations of the first four slots."""
    rest = tuple(range(4, S.ndim))
    total = zeros(S.shape, bk)
    for perm in itertools.permutations(range(4)):
        total = total + np.transpose(S, perm + rest)
    return total * bk.rational(1, 24)


@pytest.mark.parametrize("rank", [4, 6])
def test_sym4_matches_permutation_sum_exact(rank):
    rng = random.Random(rank)
    S = zeros((4,) * rank, bk)
    for idx in itertools.product(range(4), repeat=rank):
        S[idx] = bk.scalar(*("%d/%d" % (rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(4)))
    assert (sym4(S, bk) == _sym4_reference(S, bk)).all()


@pytest.mark.parametrize("rank", [4, 6])
def test_sym4_matches_permutation_sum_float(rank):
    rng = np.random.default_rng(rank)
    shape = (4,) * rank
    S = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = sym4(S, FLOAT)
    want = _sym4_reference(S, FLOAT)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("bk, dtype", [(EXACT, object), (FLOAT, np.complex128)],
                         ids=["exact", "float"])
def test_each_backend_has_one_array_dtype(bk, dtype):
    K = hk.kappa(irrep.s_hat(bk))
    arrays = [zeros((2, 3), bk), eye(4, bk), pmat(bk), g8mat(bk), *jmats(bk),
              K.Kmix, K.full8(), *irrep.module_v(bk).e_gens,
              *irrep.module_v(bk).h_gens,
              sp2.dollar_coords(sp2.real_basis(bk)[3], bk),
              jsonio.loads(jsonio.dumps(irrep.s_hat(bk)), bk).S]
    assert [A.dtype for A in arrays] == [dtype] * len(arrays)


def test_object_arrays_are_built_only_in_tensors():
    src = pathlib.Path(tensors.__file__).parent
    hits = {p.name for p in src.glob("*.py") if "dtype=object" in p.read_text()}
    assert hits <= {"tensors.py"}


def _sort_parity(idx):
    """The parity of the adjacent swaps that bubble-sort idx."""
    idx, swaps = list(idx), 0
    for end in range(len(idx) - 1, 0, -1):
        for k in range(end):
            if idx[k] > idx[k + 1]:
                idx[k], idx[k + 1] = idx[k + 1], idx[k]
                swaps += 1
    return swaps % 2


@pytest.mark.parametrize("n, rank", [(4, 2), (8, 3), (8, 4), (14, 3)])
def test_alt_index_matches_combinations_and_sort_parity(n, rank):
    tuples, place = tensors.alt_index(n, rank)
    combos = list(itertools.combinations(range(n), rank))
    assert tuples.T.tolist() == [list(c) for c in combos]
    where = {c: k for k, c in enumerate(combos)}
    for idx in itertools.product(range(n), repeat=rank):
        if len(set(idx)) < rank:
            want = 2 * len(combos)
        else:
            want = where[tuple(sorted(idx))] + len(combos) * _sort_parity(idx)
        assert place[idx] == want, idx


# -- the contraction kernel against element-wise numpy.tensordot -----------

coeffs = st.one_of(
    st.just(0),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    # 80-bit numerators and denominators, far past what int64 holds.
    st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 80)))
entries = st.one_of(st.just(EXACT.zero),
                    st.builds(ExactScalar, coeffs, coeffs, coeffs, coeffs))


@st.composite
def contractions(draw):
    """Shapes of two operands and an `axes` that numpy.tensordot accepts:
    0, an int, or a pair of lists naming the summed slots in any order."""
    dims = st.lists(st.integers(1, 3), max_size=2)
    free_a, summed, free_b = draw(dims), draw(dims), draw(dims)
    k = len(summed)
    if draw(st.booleans()):
        return tuple(free_a + summed), tuple(summed + free_b), k
    pa = draw(st.permutations(range(len(free_a) + k)))
    pb = draw(st.permutations(range(k + len(free_b))))
    shape_a, shape_b = free_a + summed, summed + free_b
    axes = ([pa.index(len(free_a) + j) for j in range(k)],
            [pb.index(j) for j in range(k)])
    return (tuple(shape_a[i] for i in pa), tuple(shape_b[i] for i in pb), axes)


@st.composite
def exact_operand(draw, shape):
    """An object array of ExactScalar; one in five is all zero."""
    n = math.prod(shape)
    if draw(st.integers(0, 4)) == 0:
        return zeros(shape, EXACT)
    return tensors.asarray(draw(st.lists(entries, min_size=n, max_size=n)),
                           EXACT).reshape(shape)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_tensordot_matches_elementwise_oracle(data):
    shape_a, shape_b, axes = data.draw(contractions())
    A = data.draw(exact_operand(shape_a))
    B = data.draw(exact_operand(shape_b))
    got = tensors.tensordot(A, B, axes)
    want = np.tensordot(A, B, axes)
    assert got.dtype == object and got.shape == want.shape
    assert (got == want).all()
    for x in got.flat:
        a, b, c, d, q = x.ints()
        assert q > 0 and math.gcd(a, b, c, d, q) == 1
        assert x or x is EXACT.zero


@given(contractions(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_tensordot_is_numpy_on_complex128(contraction, seed):
    shape_a, shape_b, axes = contraction
    rng = np.random.default_rng(seed)
    A = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
    B = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
    got = tensors.tensordot(A, B, axes)
    assert got.dtype == np.complex128
    assert np.array_equal(got, np.tensordot(A, B, axes))


# -- ExactArray against element-wise object arrays ---------------------------


def _normal(A):
    """The join of A, checked entry by entry: normal form, shared zero."""
    A = tensors.asarray(A, EXACT)
    assert A.dtype == object
    for x in A.flat:
        a, b, c, d, q = x.ints()
        assert q > 0 and math.gcd(a, b, c, d, q) == 1
        assert x or x is EXACT.zero
    return A


def _frob_reference(A):
    return math.sqrt(sum(abs(x.to_complex()) ** 2 for x in A.flat))


shapes = st.lists(st.integers(1, 3), max_size=3).map(tuple)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_exact_array_matches_elementwise_oracle(data):
    shape = data.draw(shapes)
    A, B = data.draw(exact_operand(shape)), data.draw(exact_operand(shape))
    C = data.draw(exact_operand(data.draw(shapes)))
    s = data.draw(entries)
    X, Y = ExactArray.of(A), ExactArray.of(B)
    perm = data.draw(st.permutations(range(len(shape))))
    src, dst = (data.draw(st.integers(0, max(len(shape) - 1, 0))) for _ in "sd")
    cases = [(X + Y, A + B), (X - Y, A - B), (X * s, A * s), (s * X, s * A),
             (-X, -A), (np.conj(X), tensors.asarray([x.conj() for x in A.flat],
                                                    EXACT).reshape(shape)),
             (np.transpose(X, perm), np.transpose(A, perm)),
             (np.multiply.outer(X, C), np.multiply.outer(A, C))]
    if shape:
        cases.append((np.moveaxis(X, src, dst), np.moveaxis(A, src, dst)))
        cases.append((np.reshape(X, (-1,)), np.reshape(A, (-1,))))
    for got, want in cases:
        want = tensors.asarray(want, EXACT)     # 0-d object ops give scalars
        assert isinstance(got, ExactArray)
        assert (_normal(got) == want).all()
        assert got.any() == any(want.flat)
        assert got.frob() == frob(got, EXACT) == _frob_reference(want)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_exact_array_tensordot_matches_elementwise_oracle(data):
    shape_a, shape_b, axes = data.draw(contractions())
    A = data.draw(exact_operand(shape_a))
    B = data.draw(exact_operand(shape_b))
    got = ExactArray.of(A).tensordot(ExactArray.of(B), axes)
    assert isinstance(got, ExactArray)
    want = np.tensordot(A, B, axes)
    assert (_normal(got) == want).all()
    assert tensors.all_zero(got, EXACT) == (not any(np.ravel(want)))


@pytest.mark.parametrize("n", [2, 16, 100])
@pytest.mark.parametrize("past", [0, 1], ids=["at_bound", "one_bit_past"])
@pytest.mark.parametrize("signs", ["equal", "mixed"])
def test_int64_products_at_their_bound(monkeypatch, n, past, signs):
    # An (8, n) by (n, 8) contraction, whose products outnumber its
    # numerators, so it runs as one float64 np.matmul over limbs.  L is the
    # widest limb width with 2L + bitlen(8 n 2) <= 53: numerators +-(2^2L - 1)
    # take 2 limbs each, and one bit more takes a third limb for A at the same
    # width.  Every entry of the float64 product is at most 2^53, the limb
    # sums are carried on int64, and the result equals the object product.
    L = max(w for w in range(1, 27) if 2 * w + (16 * n).bit_length() <= 53)
    rng = random.Random(n)

    def operand(shape, b):
        m = 2 ** b - 1
        return tensors.asarray(
            [ExactScalar(*(m if signs == "equal" else rng.choice((m, -m))
                           for _ in range(4))) for _ in range(math.prod(shape))],
            EXACT).reshape(shape)

    A, B = operand((8, n), 2 * L + past), operand((n, 8), 2 * L)
    floats = []
    numpy_matmul = np.matmul

    def recorded(x, y):
        out = numpy_matmul(x, y)
        if out.dtype == np.float64:
            floats.append((x.shape[0], y.shape[1], np.abs(out).max()))
        return out

    monkeypatch.setattr(np, "matmul", recorded)
    got = ExactArray.of(A).tensordot(ExactArray.of(B), 1)
    monkeypatch.undo()
    assert [f[:2] for f in floats] == [(2 + past, 2)]
    assert floats[0][2] <= 2 ** 53
    assert (_normal(got) == np.tensordot(A, B, 1)).all()


@st.composite
def kernel_contractions(draw):
    """Shapes and axes of contractions whose products outnumber their
    operands' entries, so that they run on float64 limbs: (8, n) by (n, 8)
    with an int or a list `axes`, or one slot of a 4^4 array with a 4 x 4
    matrix, as in orbit.transport_quartic."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 20))
        return (8, n), (n, 8), draw(st.sampled_from([1, ([1], [0]), ([-1], [-2])]))
    return (4,) * 4, (4, 4), ([draw(st.integers(0, 3))], [draw(st.integers(0, 1))])


@st.composite
def wide_operand(draw, shape):
    """An object array of ExactScalar with numerators of up to 200 bits over
    denominators of up to 20; each of the planes a, b, c, d may be all zero,
    so that some operands are rational and some all zero."""
    bits = draw(st.integers(0, 200))
    live = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return tensors.asarray(
        [ExactScalar(*(Fraction(rng.randint(-2 ** bits, 2 ** bits) if on else 0,
                                rng.randint(1, 20)) for on in live))
         for _ in range(math.prod(shape))], EXACT).reshape(shape)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_limb_kernel_matches_object_tensordot(data):
    shape_a, shape_b, axes = data.draw(kernel_contractions())
    A = data.draw(wide_operand(shape_a))
    B = data.draw(wide_operand(shape_b))
    calls = []

    def recorded(name, f):
        return lambda *args: calls.append((name, args[0].dtype)) or f(*args)

    with mock.patch.object(np, "matmul", recorded("matmul", np.matmul)), \
            mock.patch.object(np, "tensordot", recorded("tensordot", np.tensordot)):
        got = ExactArray.of(A).tensordot(ExactArray.of(B), axes)
    assert calls == [("matmul", np.dtype(np.float64))]
    assert (_normal(got) == np.tensordot(A, B, axes)).all()


@given(shapes.flatmap(wide_operand))
@settings(max_examples=100, deadline=None)
# numpy's square of |z| = 1.6859... differs from Python's ** 2 in the last bit.
@example(tensors.asarray([ExactScalar(Fraction(1.685925504848825)), EXACT.one], EXACT))
def test_frob_matches_per_entry_formula(A):
    assert ExactArray.of(A).frob().hex() == _frob_reference(A).hex()


@given(shapes.flatmap(wide_operand), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_tensors_frob_of_object_arrays_is_the_per_scalar_norm(A, seed):
    # tensors.frob reads an object array through its split form; with about
    # a third of the entries zeroed it still rounds as the per-scalar norm.
    rng = random.Random(seed)
    A = A.copy()
    for idx in np.ndindex(A.shape):
        if rng.random() < 0.3:
            A[idx] = EXACT.zero
    per_scalar = math.sqrt(sum(abs(EXACT.to_complex(x)) ** 2 for x in A.flat))
    assert frob(A, EXACT).hex() == per_scalar.hex()


# -- the matrix-product kernel against numpy's object @ ----------------------


@st.composite
def matmul_operand(draw, shape):
    """exact_operand, or a zero matrix with one or two nonzero entries."""
    if draw(st.booleans()):
        return draw(exact_operand(shape))
    A = zeros(shape, EXACT)
    for _ in range(draw(st.integers(1, 2))):
        A[tuple(draw(st.integers(0, n - 1)) for n in shape)] = draw(entries)
    return A


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_matmul_matches_object_matmul(data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in "nkm")
    A = data.draw(matmul_operand((n, k)))
    B = data.draw(matmul_operand((k, m)))
    got = tensors.matmul(A, B)
    assert got.dtype == object and got.shape == (n, m)
    assert (_normal(got) == A @ B).all()


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_matmul_is_numpy_on_complex128(n, k, m, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    B = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    got = tensors.matmul(A, B)
    assert got.dtype == np.complex128
    assert got.tobytes() == (A @ B).tobytes()


@pytest.mark.parametrize("rank", [4, 6])
@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_p_contract_is_the_contraction_with_pmat(rank, backend):
    rng = random.Random(rank)
    T = zeros((4,) * rank, backend)
    for idx in itertools.product(range(4), repeat=rank):
        T[idx] = backend.scalar(*("%d/%d" % (rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(4)))
    P = pmat(backend)
    for axis in range(rank):
        want = np.moveaxis(np.tensordot(T, P, axes=([axis], [0])), -1, axis)
        for arr in (T, tensors.split(T, backend)):
            got = tensors.asarray(tensors.p_contract(arr, axis, backend), backend)
            assert got.dtype == want.dtype and np.array_equal(got, want)
