"""Orbit recognition predicates, stabilizer, transport, frame reconstruction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cubicdisc.scalars import EXACT, FLOAT, ExactScalar
from cubicdisc.tensors import (frob, all_zero, asarray, pmat, p_contract, split,
                               sym4, tensordot)
from cubicdisc import sp2, hk, irrep, orbit, scalars, tensors

bk = EXACT


def reference():
    return hk.kappa(irrep.s_hat(bk))


# -- full-array forms of the orbit identities, as references -----------------


def condition_one_full(S, bk):
    """Condition one on all 4^4 entries."""
    P = pmat(bk)
    U = p_contract(p_contract(S, 0, bk), 1, bk)
    lhs = tensordot(U, S, axes=([0, 1], [0, 1]))
    PP = np.multiply.outer(P, P)
    rhs = S * bk.rational(2)
    rhs = rhs + np.transpose(PP, (0, 2, 1, 3)) * bk.rational(21, 8)
    rhs = rhs + np.transpose(PP, (0, 2, 3, 1)) * bk.rational(21, 8)
    return lhs - rhs


def condition_two_full(S, bk):
    """Condition two on all 4^6 entries, averaged over the 24 orders."""
    P = pmat(bk)
    A = np.moveaxis(p_contract(S, 0, bk), 0, -1)       # [a,b,c,t]
    SP = np.multiply.outer(S, P * bk.rational(3, 4))   # (3/4) S[a,b,c,x] P[y,z]
    t2 = np.transpose(SP, (0, 1, 2, 5, 3, 4))          # (3/4) S[abcm] P[n,d]
    t3 = np.transpose(SP, (0, 1, 2, 5, 4, 3))          # (3/4) S[abcn] P[m,d]
    return sym4(tensordot(A, S, axes=([3], [0])) + t2 + t3, bk)


def bracket_four_terms(T, bk):
    """[T A, T B] - T([T A, B] + (3/2)[A, B]) + (3/2)[A, T B], term by term."""
    c = split(sp2.structure_constants(bk), bk)
    half3 = bk.rational(3, 2)
    cT = tensordot(c, T, axes=([1], [0]))     # [T D_i, D_j] at [k, j, i]
    res = tensordot(cT, T, axes=([1], [0]))   # [T D_i, T D_j] at [k, i, j]
    res = res - tensordot(T, np.transpose(cT, (0, 2, 1)) + c * half3,
                          axes=([1], [0]))
    return res + tensordot(c, T * half3, axes=([2], [0]))


def cd_averaged_residual(S, bk):
    """Sym_{abcd}( pi^{st} S_{smab} S_{tncd} - (1/4) S_{abcd} pi_{mn}
                  + (1/2) pi_{am} S_{nbcd} - (1/2) pi_{an} S_{mbcd} )."""
    P = pmat(bk)
    A = tensordot(S, P, axes=([0], [0]))               # S[s,m,a,b]P[s,t] -> [m,a,b,t]
    B = tensordot(A, S, axes=([3], [0]))               # [m,a,b,n,c,d]
    t1 = np.transpose(B, (1, 2, 4, 5, 0, 3))           # -> [a,b,c,d,m,n]
    t2 = np.multiply.outer(S, P * bk.rational(-1, 4))
    PS = np.multiply.outer(P * bk.rational(1, 2), S)   # (1/2) P[x,y] S[p,q,r,s]
    t3 = np.transpose(PS, (0, 3, 4, 5, 1, 2))          # (1/2) P[a,m] S[n,b,c,d]
    t4 = np.transpose(PS, (0, 3, 4, 5, 2, 1))          # (1/2) P[a,n] S[m,b,c,d]
    return sym4(t1 + t2 + t3 - t4, bk)


def orbit_point(seed, perturbed, bk):
    """The reference moved along the Cayley transform of random_sp2(seed),
    plus kappa(random_quartic(seed)) / 3 if perturbed."""
    try:
        M = orbit.cayley_sp2(orbit.random_sp2(seed, bk), bk)
    except ValueError:                          # I + PX singular
        assume(False)
    K = orbit.transport_hk(hk.kappa(irrep.s_hat(bk)), M)
    if perturbed:
        Q = hk.kappa(orbit.random_quartic(seed, bk)).Kmix * bk.rational(1, 3)
        K = hk.HKTensor(K.Kmix + Q, bk)
    return K


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=8, deadline=None)
def test_compact_identities_equal_full_forms(seed, perturbed):
    # Exact: the residuals computed on independent components equal the
    # full forms entry by entry; float: within tol.  The two predicates
    # agree on the point.
    for bk in (EXACT, FLOAT):
        K = orbit_point(seed, perturbed, bk)
        S = K.quartic().split
        T = split(hk.t_k(K), bk)
        for got, want in [
                (orbit.cd_condition_one_residual(S, bk), condition_one_full(S, bk)),
                (orbit.cd_condition_two_residual(S, bk), condition_two_full(S, bk)),
                (orbit.bracket_residual(T, bk), bracket_four_terms(T, bk))]:
            got, want = asarray(got, bk), asarray(want, bk)
            assert got.shape == want.shape
            assert all_zero(got - want, bk, scale=frob(want, bk))
        assert (orbit.is_cd_theorem(K).verdict == orbit.is_cd_coordinates(K).verdict
                == (not perturbed))


@pytest.mark.parametrize("backend, scales", [(EXACT, 0), (FLOAT, 4)],
                         ids=["exact", "float"])
def test_scales_are_computed_only_where_read(monkeypatch, backend, scales):
    # The exact zero test reads no scale, so no norm is taken for one; on
    # float the two validations of kappa_inv and the two predicates take one.
    K = hk.kappa(irrep.s_hat(backend))
    calls = []
    monkeypatch.setattr(tensors, "frob", lambda A, bk: calls.append(A) or 1.0)
    assert orbit.is_cd_coordinates(K).verdict and orbit.is_cd_theorem(K).verdict
    assert len(calls) == scales


def test_reference_passes_both_predicates():
    K = reference()
    assert orbit.is_cd_theorem(K).verdict
    assert orbit.is_cd_coordinates(K).verdict


def test_float_verdicts_are_python_bools():
    # Verdicts read from complex128 norms must still be bools: CdReport
    # hands its verdict to __bool__, which rejects numpy's bool.
    K = hk.kappa(irrep.s_hat(FLOAT))
    for rep in (orbit.is_cd_theorem(K), orbit.is_cd_coordinates(K)):
        assert rep.verdict is True and bool(rep)


def test_coordinate_residual_names():
    rep = orbit.is_cd_coordinates(reference())
    assert set(rep.residuals) == {"contraction", "symmetrized"}
    assert bool(rep)


def test_averaged_condition_on_reference():
    S = irrep.s_hat(bk)
    res = cd_averaged_residual(S.S, bk)
    assert all_zero(res, bk, scale=100.0)


def test_random_quartic_fails_predicates():
    for seed in (1, 2, 3):
        K = hk.kappa(orbit.random_quartic(seed, bk))
        assert not orbit.is_cd_coordinates(K).verdict
        assert not orbit.is_cd_theorem(K).verdict


def test_predicates_agree_on_samples():
    for seed in (4, 5):
        K = hk.kappa(orbit.random_quartic(seed, bk))
        assert (orbit.is_cd_theorem(K).verdict
                == orbit.is_cd_coordinates(K).verdict)


def test_stabilizer_is_upsilon_span():
    dim, stab = orbit.stabilizer(irrep.s_hat(bk))
    assert dim == 3
    joint = orbit.span_rank(list(irrep.upsilons(bk)) + stab, bk)
    assert joint == 3


def test_orbit_dimension():
    assert orbit.orbit_dimension(reference()) == 7
    assert orbit.orbit_dimension(hk.kappa(orbit.random_quartic(3, bk))) == 10


def test_orbit_dimension_stays_on_the_quartic(monkeypatch):
    # The rank is taken on the 4-index quartic; no 8^4 tensor is built.
    def no_full8(self):
        raise AssertionError("orbit_dimension built the 8^4 tensor")

    def quartic_only(f, U, bk):
        assert f.shape == (4, 4, 4, 4)
        return lie(f, U, bk)

    lie = hk.lie_derivative_full8
    monkeypatch.setattr(hk.HKTensor, "full8", no_full8)
    monkeypatch.setattr(hk, "lie_derivative_full8", quartic_only)
    assert orbit.orbit_dimension(reference()) == 7


def test_is_cd_theorem_evaluates_t_k_once(monkeypatch):
    calls = []
    apply = hk.t_k_apply

    def counted(K, X):
        calls.append(X)
        return apply(K, X)

    monkeypatch.setattr(hk, "t_k_apply", counted)
    monkeypatch.setattr(orbit, "t_k_apply", counted)
    assert orbit.is_cd_theorem(reference()).verdict
    assert len(calls) == 10


def test_predicates_contract_on_integer_arrays(monkeypatch):
    # Both predicates on a Cayley-transported point take about 94k scalar
    # products when every contraction multiplies ExactScalar objects, and
    # about 8k when they run on integer arrays (tensors.tensordot).
    K = reference()
    orbit.is_cd_theorem(K)                      # fill the shared caches
    Kt = orbit.transport_hk(K, orbit.cayley_sp2(orbit.random_sp2(10, bk), bk))
    calls = []
    mul = ExactScalar.__mul__

    def counted(x, y):
        calls.append(None)
        return mul(x, y)

    monkeypatch.setattr(ExactScalar, "__mul__", counted)
    assert orbit.is_cd_coordinates(Kt).verdict
    assert orbit.is_cd_theorem(Kt).verdict
    assert len(calls) < 16000


def test_predicates_stay_in_split_form(monkeypatch):
    # Joining every intermediate into ExactScalar objects and splitting it
    # again builds 22,112 scalars on this point.  Kept as ExactArrays from
    # one split of K, both predicates build 341: the ten 4x4 values of
    # t_k_apply and the 10x10 matrix of T_K are the only joins.
    K = reference()
    orbit.is_cd_theorem(K)                      # fill the shared caches
    Kt = orbit.transport_hk(K, orbit.cayley_sp2(orbit.random_sp2(10, bk), bk))
    calls = []
    make = scalars._make

    def counted(*v):
        calls.append(None)
        return make(*v)

    monkeypatch.setattr(scalars, "_make", counted)
    monkeypatch.setattr(scalars, "_join", np.frompyfunc(counted, 5, 1))
    assert orbit.is_cd_coordinates(Kt).verdict
    assert orbit.is_cd_theorem(Kt).verdict
    assert len(calls) < 3000


def test_cayley_produces_group_elements():
    for seed in (6, 7, 8):
        M = orbit.cayley_sp2(orbit.random_sp2(seed, bk), bk)
        assert orbit.check_group_element(M, bk)


def test_cayley_rejects_nonelements():
    from cubicdisc.tensors import zeros
    bad = zeros((4, 4), bk)
    bad[0, 1] = bk.one
    with pytest.raises(ValueError):
        orbit.cayley_sp2(bad, bk)


def test_transport_preserves_predicates():
    K = reference()
    for seed in (9, 10):
        M = orbit.cayley_sp2(orbit.random_sp2(seed, bk), bk)
        Kt = orbit.transport_hk(K, M)
        assert orbit.is_cd_coordinates(Kt).verdict


def test_transport_composes():
    K = reference()
    M1 = orbit.cayley_sp2(orbit.random_sp2(12, bk), bk)
    M2 = orbit.cayley_sp2(orbit.random_sp2(13, bk), bk)
    K12 = orbit.transport_hk(orbit.transport_hk(K, M1), M2)
    Kboth = orbit.transport_hk(K, M1 @ M2)
    assert K12 == Kboth


def test_frames_reconstruction_standard():
    verdict, K = orbit.k_from_frames(list(irrep.script_e_frames(bk)), bk)
    assert verdict
    assert K == reference()


def test_frames_scaled_rejected():
    scaled = [F * bk.rational(2) for F in irrep.script_e_frames(bk)]
    verdict, K = orbit.k_from_frames(scaled, bk)
    assert not verdict and K is None


def test_frames_conjugated_give_transport():
    K = reference()
    M = orbit.cayley_sp2(orbit.random_sp2(14, bk), bk)
    # Conjugate the frames by the 8x8 action of the group element.
    from cubicdisc.tensors import zeros, conj_arr
    G8 = zeros((8, 8), bk)
    G8[:4, :4] = M
    G8[4:, 4:] = conj_arr(M, bk)
    from cubicdisc import linalg
    G8inv = linalg.inverse(G8, bk)
    conj_frames = [G8inv @ F @ G8 for F in irrep.script_e_frames(bk)]
    verdict, Kc = orbit.k_from_frames(conj_frames, bk)
    assert verdict
    assert Kc == orbit.transport_hk(K, M)


def test_random_quartic_is_valid():
    S = orbit.random_quartic(99, bk)
    S.validate()
    assert orbit.random_quartic(99, bk) == S   # deterministic in the seed
