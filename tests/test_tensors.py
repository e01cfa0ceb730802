"""Structure tensors, the antilinear j-map, and symmetrization on raw arrays."""

import itertools
import pathlib
import random

import numpy as np
import pytest

from cubicdisc import hk, irrep, jsonio, sp2, tensors
from cubicdisc.scalars import EXACT, FLOAT
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
