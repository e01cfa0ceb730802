"""Curvature type tensors: kappa, T_K, dagger characterization, tangents."""

import numpy as np
import pytest

from cubicdisc.scalars import EXACT, FLOAT
from cubicdisc.tensors import zeros, eye, frob, all_zero, jmats, FLIP
from cubicdisc import sp2, hk, irrep, orbit, linalg

bk = EXACT


def reference():
    return hk.kappa(irrep.s_hat(bk))


def test_kappa_roundtrip():
    S = orbit.random_quartic(11, bk)
    K = hk.kappa(S)
    back = hk.kappa_inv(K)
    assert back == S


def test_kappa_inv_validates():
    bad = zeros((4, 4, 4, 4), bk)
    bad[0, 0, 0, 1] = bk.one
    with pytest.raises(ValueError):
        hk.kappa_inv(hk.HKTensor(bad, bk))


@pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])
def test_components_are_frozen_copies(bk):
    # full8() is cached against Kmix, so the components must not change
    # under it, through the tensor or through the array it was built from.
    src = hk.kappa(irrep.s_hat(bk)).Kmix.copy()
    K = hk.HKTensor(src, bk)
    want = hk.HKTensor(src.copy(), bk).full8()
    src[0, 0, 0, 0] = src[0, 0, 0, 0] + bk.one
    with pytest.raises(ValueError):
        K.Kmix[0, 0, 0, 0] = bk.one
    assert (K.full8() == want).all()
    S = irrep.s_hat(bk).S.copy()
    q = hk.SymQuartic(S, bk)
    S[0, 0, 0, 0] = S[0, 0, 0, 0] + bk.one
    with pytest.raises(ValueError):
        q.S[0, 0, 0, 0] = bk.one
    assert q == irrep.s_hat(bk)


def test_full8_symmetries():
    K = hk.kappa(orbit.random_quartic(5, bk))
    f = K.full8()
    # Antisymmetry in each pair and symmetry between the pairs.
    assert all_zero(f + np.transpose(f, (1, 0, 2, 3)), bk, scale=frob(f, bk))
    assert all_zero(f + np.transpose(f, (0, 1, 3, 2)), bk, scale=frob(f, bk))
    assert all_zero(K.pair_symmetry_residual(), bk, scale=frob(f, bk))
    assert all_zero(K.bianchi_residual(), bk, scale=frob(f, bk))
    for s in range(3):
        assert all_zero(K.j_invariance_residual(s), bk, scale=frob(f, bk))


def test_operator_spectrum_of_reference():
    T = hk.t_k(reference())
    assert hk.eigen_multiplicity(T, bk.rational(7, 2), bk) == 3
    assert hk.eigen_multiplicity(T, bk.rational(-3, 2), bk) == 7


def test_operator_from_quartic_coordinates():
    S = irrep.s_hat(bk)
    T1 = hk.t_k(hk.kappa(S))
    T2 = hk.t_k_matrix_from_quartic(S.S, bk)
    assert all_zero(T1 - T2, bk, scale=frob(T1, bk))


def test_operator_orthonormal_sum_agrees():
    K = reference()
    X = sp2.real_basis(bk)[4]
    M = hk.t_k_from_orthonormal_sum(K, X)
    expect = irrep.lowered_2form(sp2.endo_on_v(hk.t_k_apply(K, X), bk), bk)
    assert all_zero(M - expect, bk, scale=frob(M, bk) + 1.0)


def test_dagger_characterization_both_directions():
    K = hk.kappa(orbit.random_quartic(2, bk))
    T = hk.t_k(K)
    assert all_zero(hk.dagger_residual(T, bk), bk, scale=frob(T, bk) + 1.0)
    back = hk.hk_from_endo(T, bk)
    assert back == K
    with pytest.raises(ValueError):
        hk.hk_from_endo(eye(10, bk) * bk.rational(5), bk)


def test_tangent_operator_agreement():
    K = reference()
    U = orbit.random_sp2(17, bk)
    Lf = hk.lie_derivative_full8(K.full8(), sp2.endo_on_v(U, bk), bk)
    L = hk.HKTensor(Lf[np.ix_(range(4), range(4, 8), range(4), range(4, 8))], bk)
    H = hk.tangent_H(K, L)
    Hc = hk.tangent_H_from_contraction(K, L, bk)
    assert all_zero(irrep.lowered_2form(sp2.endo_on_v(H, bk), bk) - Hc, bk,
                    scale=frob(Hc, bk) + 1.0)


def test_tangent_operator_rejects_off_orbit_point():
    K = hk.kappa(orbit.random_quartic(23, bk))
    with pytest.raises(ValueError, match="not a cubic discriminant"):
        hk.tangent_H(K, K)


def test_solve_generator_rejects_nontangent():
    K = reference()
    L = hk.kappa(orbit.random_quartic(23, bk))
    with pytest.raises(ValueError):
        hk.solve_generator(K, L, bk)


def _solve_generator_full8(K, L, bk):
    """The 8^4 route: L.full8() = (Lie derivative of K.full8() along U),
    4,096 complex equations, 8,192 real rows."""
    basis = sp2.real_basis(bk)
    cols = [hk.lie_derivative_full8(K.full8(), sp2.endo_on_v(X, bk), bk).reshape(-1)
            for X in basis]
    rows, rhs = [], []
    for k, x in enumerate(L.full8().reshape(-1)):
        for part in (bk.re, bk.im):
            rows.append([part(col[k]) for col in cols])
            rhs.append(part(x))
    coeffs = linalg.solve(rows, rhs, bk)
    return sum((X * c for c, X in zip(coeffs, basis)), zeros((4, 4), bk))


@pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("seed", [17, 29, 41])
def test_solve_generator_matches_full8_route(monkeypatch, bk, seed):
    # The reference point has a 3-dimensional stabilizer, so U is one
    # solution among many; both routes set the same free variables to zero.
    K = hk.kappa(irrep.s_hat(bk))
    U8 = sp2.endo_on_v(orbit.random_sp2(seed, bk), bk)
    Lf = hk.lie_derivative_full8(K.full8(), U8, bk)
    L = hk.HKTensor(Lf[np.ix_(range(4), range(4, 8), range(4), range(4, 8))], bk)
    want = _solve_generator_full8(K, L, bk)

    def no_full8(self):
        raise AssertionError("solve_generator built the 8^4 tensor")

    monkeypatch.setattr(hk.HKTensor, "full8", no_full8)
    U = hk.solve_generator(K, L, bk)
    if bk is EXACT:
        assert (U == want).all()
    else:
        assert all_zero(U - want, bk, scale=frob(want, bk))


def test_double_contractions_on_reference():
    K = reference()
    assert all_zero(hk.contr_kxk_1_residual(K), bk, scale=100.0)
    assert all_zero(hk.contr_kxk_2_residual(K), bk, scale=100.0)


def test_double_contractions_on_transported():
    K = reference()
    M = orbit.cayley_sp2(orbit.random_sp2(31, bk), bk)
    Kt = orbit.transport_hk(K, M)
    assert all_zero(hk.contr_kxk_1_residual(Kt), bk,
                    scale=frob(Kt.Kmix, bk) ** 2 + 1.0)
    assert all_zero(hk.contr_kxk_2_residual(Kt), bk,
                    scale=frob(Kt.Kmix, bk) ** 2 + 1.0)


def _hk_samples():
    K = reference()
    M = orbit.cayley_sp2(orbit.random_sp2(41, bk), bk)
    return [K, orbit.transport_hk(K, M), hk.kappa(orbit.random_quartic(43, bk))]


def _full8_by_entries(K):
    """The 8^4 tensor written entry by entry from Kmix and again from the
    conjugate of each flipped partner, the last write kept: the reference
    that the block construction of HKTensor.full8 must match on exact."""
    bk = K.bk
    f = zeros((8, 8, 8, 8), bk)
    Km = K.Kmix
    for a, b, c, d in np.ndindex(4, 4, 4, 4):
        v = Km[a, b, c, d]
        if not v:
            continue
        for (i1, i2, s1) in ((a, b + 4, 1), (b + 4, a, -1)):
            for (i3, i4, s2) in ((c, d + 4, 1), (d + 4, c, -1)):
                w = v if s1 * s2 > 0 else -v
                f[i1, i2, i3, i4] = w
                f[FLIP[i1], FLIP[i2], FLIP[i3], FLIP[i4]] = bk.conj(w)
    return f


def test_exact_full8_matches_the_entry_loop():
    for K in _hk_samples()[:2]:
        assert (K.full8() == _full8_by_entries(K)).all()


def test_float_full8_is_the_four_block_construction():
    K = hk.kappa(irrep.s_hat(FLOAT))
    M = orbit.cayley_sp2(orbit.random_sp2(41, FLOAT), FLOAT)
    for L in (K, orbit.transport_hk(K, M)):
        Km = L.Kmix
        want = np.zeros((8, 8, 8, 8), dtype=np.complex128)
        want[:4, 4:, :4, 4:] = Km
        want[4:, :4, :4, 4:] = -Km.transpose(1, 0, 2, 3)
        want[:4, 4:, 4:, :4] = -Km.transpose(0, 1, 3, 2)
        want[4:, :4, 4:, :4] = Km.transpose(1, 0, 3, 2)
        got = L.full8()
        assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()


def test_sp1_annihilates_hk_type():
    # orbit_dimension drops the three J_s generators because of this.
    for K in _hk_samples():
        f = K.full8()
        for J in jmats(bk):
            assert all_zero(hk.lie_derivative_full8(f, J, bk), bk)


def test_kappa_intertwines_sp2_actions():
    # orbit_dimension ranks the action on the quartic because of this.
    mixed = np.ix_(range(4), range(4, 8), range(4), range(4, 8))
    X = orbit.random_sp2(47, bk)
    for K in _hk_samples():
        S = hk.kappa_inv(K).S
        Lf = hk.lie_derivative_full8(K.full8(), sp2.endo_on_v(X, bk), bk)
        expect = hk.kappa(hk.SymQuartic(hk.quartic_action(S, X, bk), bk)).Kmix
        assert all_zero(Lf[mixed] - expect, bk)
