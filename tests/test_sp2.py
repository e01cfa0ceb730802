"""The Lie algebra sp(2): models, basis duality, bracket, dagger."""

import random

import pytest

from cubicdisc.scalars import EXACT, FLOAT
from cubicdisc.tensors import zeros, eye, pmat, frob, all_zero, asarray
from cubicdisc import sp2, irrep, hk, orbit

bk = EXACT
BACKENDS = pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])


def test_pairs_enumeration():
    assert len(sp2.PAIRS) == 10
    assert sp2.PAIRS[0] == (0, 0) and sp2.PAIRS[-1] == (3, 3)


def test_sharp_dual_pairing():
    S = sp2.sharp_basis(bk)
    D = sp2.sharp_dual_basis(bk)
    for a in range(10):
        for b in range(10):
            v = sp2.inner(D[a], S[b], bk)
            assert v == (bk.one if a == b else bk.zero)


def test_dollar_coordinates_roundtrip():
    for X in sp2.real_basis(bk):
        v = sp2.dollar_coords(X, bk)
        Y = sp2.from_dollar_coords(v, bk)
        assert all_zero(X - Y, bk, scale=frob(X, bk))


def test_real_basis_is_real():
    for X in sp2.real_basis(bk):
        sym_ok, real_ok = sp2.is_sp2_element(X, bk)
        assert sym_ok and real_ok


def test_bracket_closure_and_antisymmetry():
    R = sp2.real_basis(bk)
    X, Y = R[2], R[8]
    B = sp2.bracket(X, Y, bk)
    sym_ok, real_ok = sp2.is_sp2_element(B, bk)
    assert sym_ok and real_ok
    assert all_zero(B + sp2.bracket(Y, X, bk), bk, scale=frob(B, bk) + 1.0)


def test_bracket_matches_endomorphism_commutator():
    R = sp2.real_basis(bk)
    X, Y = R[1], R[6]
    A, B = sp2.to_endo(X, bk), sp2.to_endo(Y, bk)
    C = sp2.to_endo(sp2.bracket(X, Y, bk), bk)
    assert all_zero(A @ B - B @ A - C, bk, scale=frob(C, bk) + 1.0)


def test_model_conversion_validates():
    X = sp2.real_basis(bk)[3]
    back = sp2.from_endo(sp2.to_endo(X, bk), bk)
    assert all_zero(X - back, bk, scale=frob(X, bk))
    sp2.check_sp2(back, bk)
    bad = zeros((4, 4), bk)
    bad[0, 1] = bk.one      # not symmetric
    with pytest.raises(ValueError):
        sp2.check_sp2(bad, bk)


def test_endo_on_v_block_structure():
    X = sp2.real_basis(bk)[0]
    M = sp2.endo_on_v(X, bk)
    assert all_zero(M[:4, 4:], bk)
    assert all_zero(M[4:, :4], bk)


def test_invariant_inner_product():
    R = sp2.real_basis(bk)
    X, Y, Z = R[0], R[4], R[9]
    lhs = sp2.inner(sp2.bracket(Z, X, bk), Y, bk)
    rhs = -sp2.inner(X, sp2.bracket(Z, Y, bk), bk)
    assert not (lhs - rhs)


def test_dagger_of_identity():
    dag = sp2.dagger(eye(10, bk), bk)
    assert all_zero(dag + eye(10, bk) * bk.rational(6), bk, scale=10.0)


def test_dagger_of_scaled_identity():
    dag = sp2.dagger(eye(10, bk) * bk.rational(2), bk)
    assert all_zero(dag + eye(10, bk) * bk.rational(12), bk, scale=20.0)


def test_endo_is_real():
    assert sp2.endo_is_real(eye(10, bk), bk)
    assert not sp2.endo_is_real(eye(10, bk) * bk.i, bk)


def test_structure_constants_reproduce_bracket():
    D = sp2.dollar_basis(bk)
    c = asarray(sp2.structure_constants(bk), bk)
    for i in range(10):
        for j in range(10):
            expect = sp2.bracket(D[i], D[j], bk)
            assert all_zero(sp2.from_dollar_coords(c[:, i, j], bk) - expect, bk)


# -- the matrix routes against the closures they replaced -------------------


def _dagger_by_definition(L, bk):
    """(dagger L) X = sum_s [E*_s, L([E_s, X])], each bracket on 4x4 matrices."""
    def apply(X):
        return sp2.from_dollar_coords(L @ sp2.dollar_coords(X, bk), bk)

    def dag(X):
        total = zeros((4, 4), bk)
        for Es, Eds in zip(sp2.sharp_basis(bk), sp2.sharp_dual_basis(bk)):
            total = total + sp2.bracket(Eds, apply(sp2.bracket(Es, X, bk)), bk)
        return total

    return sp2.endo_matrix(dag, bk)


def _random_endo(seed, bk):
    """A 10x10 matrix with entries a + b i + c sqrt3 + d i sqrt3, a..d in [-2, 2]."""
    rng = random.Random(seed)
    return asarray([[bk.scalar(*(rng.randint(-2, 2) for _ in range(4)))
                     for _ in range(10)] for _ in range(10)], bk)


DAGGER_INPUTS = {
    "identity": lambda bk: eye(10, bk),
    "proj_sp1ir": irrep.proj_sp1ir,
    "reducible": lambda bk: irrep.projection_from_rep(irrep.reducible_rep(bk), bk),
    "trivial_factor":
        lambda bk: irrep.projection_from_rep(irrep.trivial_factor_rep(bk), bk),
    "t_k_random": lambda bk: hk.t_k(hk.kappa(orbit.random_quartic(7, bk))),
    "random_endo": lambda bk: _random_endo(11, bk),
}


@BACKENDS
@pytest.mark.parametrize("name", sorted(DAGGER_INPUTS))
def test_dagger_matches_defining_sum(bk, name):
    L = DAGGER_INPUTS[name](bk)
    ref = _dagger_by_definition(L, bk)
    # exact: equality in the field; float: within tol at the scale of ref
    assert all_zero(sp2.dagger(L, bk) - ref, bk, scale=frob(ref, bk))


@BACKENDS
def test_ad_matches_bracket_closure(bk):
    for X in list(sp2.real_basis(bk)) + list(irrep.upsilons(bk)):
        ref = sp2.endo_matrix(lambda Y: sp2.bracket(X, Y, bk), bk)
        assert all_zero(sp2.ad(X, bk) - ref, bk, scale=frob(ref, bk))
