"""The irreducible representation, the quartic, projections, Casimirs."""

from fractions import Fraction

import numpy as np
import pytest

from cubicdisc.scalars import EXACT, FLOAT, ExactScalar
from cubicdisc.tensors import zeros, eye, frob, all_zero
from cubicdisc import sp2, irrep, hk, linalg

bk = EXACT


def test_rep_delta_commutators():
    E1, E2, E3 = irrep.rep_delta(bk)
    assert all_zero(E1 @ E2 - E2 @ E1 - E3, bk)
    assert all_zero(E2 @ E3 - E3 @ E2 - E1, bk)
    assert all_zero(E3 @ E1 - E1 @ E3 - E2, bk)


def test_rep_w_golden_values():
    E1, E2, E3 = irrep.rep_w(bk)
    half = bk.rational(1, 2)
    assert E1[0, 0] == -(bk.i * bk.rational(3, 2))
    assert E1[1, 1] == -(bk.i * half)
    assert E1[2, 2] == bk.i * bk.rational(3, 2)
    assert E1[3, 3] == bk.i * half
    assert E2[0, 1] == -(bk.sqrt3 * half)
    assert E2[1, 3] == bk.one
    assert E3[0, 1] == bk.i_sqrt3 * half
    assert E3[1, 3] == -bk.i


def test_rep_w_commutators():
    E1, E2, E3 = irrep.rep_w(bk)
    assert all_zero(E1 @ E2 - E2 @ E1 - E3, bk)
    assert all_zero(E2 @ E3 - E3 @ E2 - E1, bk)
    assert all_zero(E3 @ E1 - E1 @ E3 - E2, bk)


def test_upsilon_raises_to_rep():
    from cubicdisc.tensors import pmat
    P = pmat(bk)
    for U, E in zip(irrep.upsilons(bk), irrep.rep_w(bk)):
        assert all_zero(P @ U - E, bk, scale=frob(E, bk))


def test_upsilon_lemma_all_exact():
    res = irrep.upsilon_lemma_residuals(bk)
    assert set(res) == {"symmetric_and_real", "pairing", "bracket",
                        "invariance", "sum_of_squares", "eigen_contraction",
                        "pi_recovery"}
    for name, arrays in res.items():
        assert all(all_zero(r, bk) for r in arrays), name


def test_quartic_golden_components():
    S = irrep.s_hat(bk).S
    assert S[0, 1, 2, 3] == bk.rational(-3, 4)
    assert S[0, 3, 3, 3] == bk.sqrt3
    assert S[0, 2, 0, 2] == bk.rational(-3, 2)


def _quartic_form(S, x):
    """S(x, x, x, x) for a coordinate vector x of length 4."""
    for _ in range(4):
        S = np.tensordot(S, x, axes=([S.ndim - 1], [0]))
    return S[()]


def test_quartic_values():
    S = irrep.s_hat(bk).S
    e1 = zeros((4,), bk)
    e1[0] = bk.one
    assert not _quartic_form(S, e1)
    e13 = e1.copy()
    e13[2] = bk.one
    assert _quartic_form(S, e13) == bk.rational(-9)


def test_discriminant_values():
    one, zero = bk.one, bk.zero
    assert irrep.classical_discriminant(one, zero, -one, zero, bk) == bk.rational(4)
    assert not irrep.classical_discriminant(one, zero, bk.rational(-3),
                                            bk.rational(2), bk)


def test_substitution_identity():
    assert all_zero(irrep.substitution_residual(bk), bk, scale=27.0)


def test_projection_identities():
    Ph = irrep.proj_sp1ir(bk)
    I = eye(10, bk)
    assert all_zero(Ph @ Ph - Ph, bk, scale=10.0)
    T = hk.t_k(hk.kappa(irrep.s_hat(bk)))
    assert all_zero((Ph - I * bk.rational(3, 10)) * bk.rational(5) - T, bk,
                    scale=10.0)
    dagP = sp2.dagger(Ph, bk)
    assert all_zero(dagP - Ph * bk.rational(2) + I * bk.rational(12, 5), bk,
                    scale=10.0)
    assert all_zero(dagP @ dagP * bk.rational(25) + dagP * bk.rational(70)
                    + I * bk.rational(24), bk, scale=100.0)


def _projection_by_gram(span, bk):
    """The projection X -> sum_k span_k (G^-1 v)_k, v_m = <span_m, X>, with
    G the Gram matrix, applied to each dollar matrix."""
    n = len(span)
    G = zeros((n, n), bk)
    for i in range(n):
        for j in range(n):
            G[i, j] = sp2.inner(span[i], span[j], bk)
    Ginv = linalg.inverse(G, bk)

    def proj(X):
        w = Ginv @ np.array([sp2.inner(B, X, bk) for B in span], dtype=bk.dtype)
        out = zeros((4, 4), bk)
        for k in range(n):
            out = out + span[k] * w[k]
        return out

    return sp2.endo_matrix(proj, bk)


SPANS = {
    "upsilons": lambda bk: list(irrep.upsilons(bk)),
    "reducible": lambda bk: [sp2.from_endo(R, bk) for R in irrep.reducible_rep(bk)],
    "trivial_factor":
        lambda bk: [sp2.from_endo(R, bk) for R in irrep.trivial_factor_rep(bk)],
}


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("name", sorted(SPANS))
def test_orth_projection_matches_gram_closure(backend, name):
    span = SPANS[name](backend)
    ref = _projection_by_gram(span, backend)
    assert all_zero(irrep.orth_projection(span, backend) - ref, backend,
                    scale=frob(ref, backend))


def test_reducible_case_identities():
    Pr = irrep.projection_from_rep(irrep.reducible_rep(bk), bk)
    d = sp2.dagger(Pr, bk)
    assert all_zero(d @ d + d * bk.rational(2), bk, scale=100.0)


def test_trivial_factor_identities():
    Pt = irrep.projection_from_rep(irrep.trivial_factor_rep(bk), bk)
    d = sp2.dagger(Pt, bk)
    assert all_zero(d @ d + d * bk.rational(3, 2) - Pt * bk.rational(10), bk,
                    scale=100.0)


def test_frame_identities():
    F = irrep.script_e_frames(bk)
    for s in range(3):
        for t in range(3):
            v = irrep.endo_inner(F[s], F[t], bk)
            assert v == (bk.rational(5) if s == t else bk.zero)
    assert all_zero(F[0] @ F[1] - F[1] @ F[0] - F[2], bk, scale=10.0)
    total = zeros((8, 8), bk)
    for Fs in F:
        total = total + Fs @ Fs
    assert all_zero(total + eye(8, bk) * bk.rational(15, 4), bk, scale=10.0)


def test_wedge_normalization():
    w = irrep.eps_wedge_residual(irrep.script_e_frames(bk), bk)
    assert all_zero(w, bk, scale=100.0)


def _count_rank_calls(monkeypatch):
    calls = []
    rank = linalg.rank

    def counted(*args, **kwargs):
        calls.append(args)
        return rank(*args, **kwargs)

    monkeypatch.setattr(linalg, "rank", counted)
    return calls


def test_casimir_module_v(monkeypatch):
    calls = _count_rank_calls(monkeypatch)
    table = irrep.casimir_decompose(irrep.module_v(bk), kmax=4, lmax=2)
    assert table == {(3, 1): 1}
    # 5 shifted CE, 3 shifted CH, one stacked system for (3, 1).
    assert len(calls) == 9


def test_casimir_module_sp2(monkeypatch):
    calls = _count_rank_calls(monkeypatch)
    table = irrep.casimir_decompose(irrep.module_sp2(bk), kmax=7, lmax=1)
    assert table == {(2, 0): 1, (6, 0): 1}
    # 8 shifted CE, 2 shifted CH, stacked systems for (2, 0) and (6, 0).
    assert len(calls) == 12
    dims = {k: m * (k[0] + 1) * (k[1] + 1) for k, m in table.items()}
    assert dims == {(2, 0): 3, (6, 0): 7}


def test_casimir_path_products_stay_sparse(monkeypatch):
    # The closure checks and the Casimirs multiply only nonzero pairs
    # (tensors.matmul); dense object products made 48,626 here.
    modules = [(irrep.module_v(bk), 4, 2), (irrep.module_sp2(bk), 7, 1)]
    calls = []
    mul = ExactScalar.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(ExactScalar, "__mul__", counted)
    for module, kmax, lmax in modules:
        irrep.casimir_decompose(module, kmax=kmax, lmax=lmax)
    assert len(calls) < 10_000


def test_casimir_path_reads_each_generator_once(monkeypatch):
    # The closure checks, Casimirs and ranks run on dict rows: dense object
    # residuals and rescans made 3,092 subtractions and 15,719 zero tests
    # on this warm V + sp(2) operation.
    cases = [(irrep.module_v, 4, 2), (irrep.module_sp2, 7, 1)]

    def operation():
        for build, kmax, lmax in cases:
            irrep.casimir_decompose(build(bk), kmax=kmax, lmax=lmax)

    operation()
    counts = {"__sub__": 0, "__bool__": 0}
    for name in counts:
        def counted(*args, _method=getattr(ExactScalar, name), _name=name):
            counts[_name] += 1
            return _method(*args)

        monkeypatch.setattr(ExactScalar, name, counted)
    operation()
    assert counts["__sub__"] < 500
    assert counts["__bool__"] < 4_000


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_closure_checks_fail_on_each_fault(backend):
    module = irrep.module_v(backend)
    E, H = list(module.e_gens), list(module.h_gens)
    bent = E[0].copy()
    bent[0, 0] = bent[0, 0] + (backend.rational(1, 1000) if backend is EXACT
                               else backend.rational(1, 10 ** 6))
    faults = [([bent] + E[1:], H, "first factor .* do not close"),
              # Swapping H_1 and H_2 negates their bracket.
              (E, [H[1], H[0], H[2]], "second factor .* do not close"),
              # E closes as sp(1) but does not commute with itself.
              (E, E, "do not commute")]
    for e_gens, h_gens, message in faults:
        with pytest.raises(ValueError, match=message):
            irrep.So4Module(e_gens, h_gens, backend).check_closure()
    assert not irrep.closes_as_sp1([bent] + E[1:], backend, 1.0)
    assert not irrep.closes_as_sp1([H[1], H[0], H[2]], backend, 1.0)
    module.check_closure()


def test_closure_checks_an_underflowing_second_factor():
    # Every entry of H is 10^-400: a float norm reads 0, yet the triple does
    # not close as sp(1) ([H, H] = 0 != H), so the check must fail on exact.
    H = eye(8, bk) * ExactScalar(Fraction(1, 10 ** 400))
    assert not irrep.closes_as_sp1([H] * 3, bk, 1.0)
    module = irrep.So4Module(irrep.module_v(bk).e_gens, [H] * 3, bk)
    with pytest.raises(ValueError):
        module.check_closure()
