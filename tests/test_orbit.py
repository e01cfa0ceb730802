"""Orbit recognition predicates, stabilizer, transport, frame reconstruction."""

import numpy as np
import pytest

from cubicdisc.scalars import EXACT, FLOAT, ExactScalar
from cubicdisc.tensors import frob, all_zero
from cubicdisc import sp2, hk, irrep, orbit, scalars

bk = EXACT


def reference():
    return hk.kappa(irrep.s_hat(bk))


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
    res = orbit.cd_averaged_residual(S.S, bk)
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
    monkeypatch.setattr(orbit, "lie_derivative_full8", quartic_only)
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
