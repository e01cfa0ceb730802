"""The differential constraint system and its one-parameter solution line."""

from cubicdisc.scalars import EXACT
from cubicdisc.tensors import zeros, pmat, eye, frob, all_zero
from cubicdisc import bianchi
from cubicdisc.irrep import upsilons

bk = EXACT


def closed_form(h):
    P = pmat(bk)
    D = [(upsilons(bk)[s] @ P) * (bk.rational(-2, 3) * h) for s in range(3)]
    F2 = P * h
    F3 = P * -(bk.i * h)
    G1 = eye(4, bk) * (bk.i * h)
    return D, F2, F3, G1


def test_closed_form_solves_stage_two():
    h = bk.rational(5, 7)
    D, F2, F3, G1 = closed_form(h)
    assert all_zero(bianchi.cf_type_2(D, F2, F3, G1, bk), bk, scale=10.0)
    assert all_zero(bianchi.cf_type_4(F2, F3, bk), bk, scale=10.0)


def test_zero_solves_stage_one():
    Z = zeros((4, 4), bk)
    assert all_zero(bianchi.cf_type_1([Z, Z, Z], Z, bk), bk)
    assert all_zero(bianchi.cf_type_3([Z, Z, Z], Z, Z, Z, bk), bk)


def test_nonsolution_has_residual():
    Z = zeros((4, 4), bk)
    C = [Z, Z, Z]
    M = zeros((4, 4), bk)
    M[0, 1] = bk.one
    M[1, 0] = -bk.one
    C[0] = M
    assert frob(bianchi.cf_type_1(C, Z, bk), bk) > 0


def test_unknown_bases_have_expected_sizes():
    assert len(bianchi.antisym_basis(bk)) == 12
    assert len(bianchi.antiherm_basis(bk)) == 16
    for M in bianchi.antisym_basis(bk):
        assert all_zero(M + M.T, bk)
    from cubicdisc.tensors import conj_arr
    for M in bianchi.antiherm_basis(bk):
        assert all_zero(M + conj_arr(M, bk).T, bk)


def test_full_system_solution():
    sol = bianchi.FirstBianchiSolution(bk)
    assert len(sol.stage_one) == 0
    assert len(sol.stage_two) == 1
    res = sol.structure_residuals()
    assert set(res) == {"F2", "F3", "G1", "D1", "D2", "D3"}
    assert all(all_zero(r, bk) for r in res.values())
