"""The first Bianchi system (d^2 = 0 on the curvature blocks) and its
one-parameter solution line."""

import itertools
import random

import pytest

from cubicdisc.scalars import EXACT, FLOAT
from cubicdisc.tensors import zeros, pmat, eye, frob, all_zero, conj_arr
from cubicdisc import bianchi, models
from cubicdisc.irrep import upsilons
from cubicdisc.models import TH0

bk = EXACT


def closed_form(h):
    P = pmat(bk)
    D = [(upsilons(bk)[s] @ P) * (bk.rational(-2, 3) * h) for s in range(3)]
    F2 = P * h
    F3 = P * -(bk.i * h)
    G1 = eye(4, bk) * (bk.i * h)
    return D, F2, F3, G1


def as_x(D, F2, F3, G1, bk=bk):
    """The curvature blocks X[m, a, b] of the stage-two unknowns; the
    stage-one unknowns are zero."""
    X = zeros((6, 8, 8), bk)
    for m, M in enumerate(D + [G1]):
        X[m, :4, 4:], X[m, 4:, :4] = M, -M.T
    for m, M in ((4, F2), (5, F3)):
        X[m, :4, :4], X[m, 4:, 4:] = M, conj_arr(M, bk)
    return X


def test_closed_form_solves_stage_two():
    X = as_x(*closed_form(bk.rational(5, 7)))
    assert all_zero(bianchi.first_bianchi_residual(X, bk), bk, scale=10.0)


def test_zero_solves_stage_one():
    assert all_zero(bianchi.first_bianchi_residual(zeros((6, 8, 8), bk), bk), bk)


def test_nonsolution_has_residual():
    X = zeros((6, 8, 8), bk)       # one entry of C^1 and its conjugate
    X[0, 0, 1], X[0, 1, 0] = bk.one, -bk.one
    X[0, 4, 5], X[0, 5, 4] = bk.one, -bk.one
    assert frob(bianchi.first_bianchi_residual(X, bk), bk) > 0


def test_unknown_bases_have_expected_sizes():
    assert len(bianchi.antisym_basis(bk)) == 12
    assert len(bianchi.antiherm_basis(bk)) == 16
    for M in bianchi.antisym_basis(bk):
        assert all_zero(M + M.T, bk)
    for M in bianchi.antiherm_basis(bk):
        assert all_zero(M + conj_arr(M, bk).T, bk)


def test_full_system_solution():
    sol = bianchi.FirstBianchiSolution(bk)
    assert len(sol.stage_one) == 0
    assert len(sol.stage_two) == 1
    res = sol.structure_residuals()
    assert set(res) == {"F2", "F3", "G1", "D1", "D2", "D3"}
    assert all(all_zero(r, bk) for r in res.values())
    # the whole solved curvature is the family's at h = 1, thb blocks included
    assert (sol.X == models.coframe_family(bk.one, bk).d[:6, TH0:, TH0:]).all()


def test_closed_form_matches_the_family():
    # the closed form written out here against the family's curvature blocks
    D, F2, F3, G1 = closed_form(bk.rational(5, 7))
    family = models.coframe_family(bk.rational(5, 7), bk).d[:6, TH0:, TH0:]
    assert (as_x(D, F2, F3, G1) == family).all()


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_structure_residuals_read_the_family(monkeypatch, backend):
    # A family whose G1 block is off by 1/1000 h: the solved line no longer
    # matches it, and only G1 shows a residual.
    real = models.coframe_family

    def shifted(h, bk=EXACT):
        d = real(h, bk).d.copy()
        d[3, TH0, TH0 + 4] = d[3, TH0, TH0 + 4] + h * bk.rational(1, 1000)
        d[3, TH0 + 4, TH0] = d[3, TH0 + 4, TH0] - h * bk.rational(1, 1000)
        return models.CoframeSystem(d * bk.rational(1, 2), bk, h=h)

    monkeypatch.setattr(bianchi, "coframe_family", shifted)
    res = bianchi.FirstBianchiSolution(backend).structure_residuals()
    assert [n for n, r in sorted(res.items()) if frob(r, backend) > 1e-6] == ["G1"]


# -- the residual is the horizontal part of d^2 = 0 ---------------------------


def random_x(seed):
    """Curvature blocks with eight random antisymmetric pairs in each de^m,
    small integer coefficients of 1, i, sqrt(3) and i sqrt(3)."""
    rng = random.Random(seed)
    X = zeros((6, 8, 8), bk)
    for m in range(6):
        for a, b in rng.sample(list(itertools.combinations(range(8), 2)), 8):
            x = bk.scalar(*(rng.randint(-2, 2) for _ in range(4)))
            X[m, a, b], X[m, b, a] = X[m, a, b] + x, X[m, b, a] - x
    return X


def with_curvature(X):
    """The coframe with the flat member's connection and curvature X."""
    d = models.coframe_family(bk.zero, bk).d.copy()
    d[:6, TH0:, TH0:] = X
    return models.CoframeSystem(d * bk.rational(1, 2), bk)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_residual_is_the_horizontal_part_of_d_squared(seed):
    X = random_x(seed)
    jac = with_curvature(X).jacobi_residual()
    horizontal = [t for t, triple in enumerate(itertools.combinations(range(14), 3))
                  if min(triple) >= TH0]
    R = bianchi.first_bianchi_residual(X, bk)
    assert R.shape == (4, 56)
    assert frob(R, bk) > 0
    assert (R == jac[horizontal, TH0:TH0 + 4].T).all()
    # the thb rows too, by the same product on the full connection block
    A = models.coframe_family(bk.zero, bk).d[TH0:, :6, TH0:]
    assert (models.leibniz_sum(A, X) == jac[horizontal, TH0:].T).all()


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("h", [(-3, 2), (0, 1), (3, 2), (1, 1)])
def test_family_members_solve_the_system(backend, h):
    X = models.coframe_family(backend.rational(*h), backend).d[:6, TH0:, TH0:]
    assert all_zero(bianchi.first_bianchi_residual(X, backend), backend, scale=10.0)


def test_all_168_unknowns_together_have_one_solution():
    blocks = bianchi.STAGE_ONE + bianchi.STAGE_TWO
    assert bianchi._columns(blocks, bk).shape[-1] == 168
    assert len(bianchi._nullspace(blocks, bk)) == 1


def test_thb_rows_add_no_equation(monkeypatch):
    A = models.coframe_family(bk.zero, bk).d[TH0:, :6, TH0:]
    X = bianchi._columns(bianchi.STAGE_TWO, bk)
    assert models.leibniz_sum(A, X).shape == (8, 56, 88)
    monkeypatch.setattr(bianchi, "first_bianchi_residual",
                        lambda X, bk: models.leibniz_sum(A, X))
    assert len(bianchi.stage_one_nullspace(bk)) == 0
    assert len(bianchi.stage_two_nullspace(bk)) == 1
