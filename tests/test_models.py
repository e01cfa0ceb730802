"""Coframe models: closure, Jacobi, curvature, Einstein property."""

import itertools
import random

import numpy as np
import pytest

from cubicdisc.scalars import EXACT, FLOAT
from cubicdisc.tensors import frob, all_zero, g8mat, jmats, zeros, asarray
from cubicdisc import models, irrep, hk, jsonio

bk = EXACT


def dense_jacobi(cs):
    """Reference route: the Jacobi sum [[v_i, v_j], v_l] + cyclic for every
    triple i < j < l, from the structure constants c = -d."""
    c = -cs.d
    rows = []
    for i, j, k in itertools.combinations(range(models.N_FORMS), 3):
        res = zeros((models.N_FORMS,), cs.bk)
        for (a, b, e) in ((i, j, k), (j, k, i), (k, i, j)):
            res = res + np.tensordot(c[:, :, e], c[:, a, b], axes=([1], [0]))
        rows.append(res)
    return asarray(rows, cs.bk)


def random_coframe(seed):
    """A coframe with six random terms in each de^k, each on a pair in
    random order, with small integer coefficients of 1, i, sqrt(3) and
    i sqrt(3); d^2 != 0 for it."""
    rng = random.Random(seed)
    terms = zeros((models.N_FORMS,) * 3, bk)
    for k in range(models.N_FORMS):
        for i, j in rng.sample(list(itertools.combinations(range(models.N_FORMS), 2)), 6):
            i, j = (j, i) if rng.random() < 0.5 else (i, j)
            terms[k, i, j] = bk.scalar(rng.randint(1, 3),
                                       *(rng.randint(-2, 2) for _ in range(3)))
    return models.CoframeSystem(terms, bk)


RANDOM_SEEDS = (3, 5, 8, 13)


@pytest.mark.parametrize("make", [models.compact_model, models.split_model]
                         + [lambda bk, s=s: random_coframe(s) for s in RANDOM_SEEDS],
                         ids=["compact", "split", "random"]      # random: seed 3
                         + ["random%d" % s for s in RANDOM_SEEDS[1:]])
def test_jacobi_residual_matches_dense_reference(make):
    cs = make(bk)
    sparse = cs.jacobi_residual()
    dense = dense_jacobi(cs)
    assert sparse.shape == dense.shape == (364, models.N_FORMS)
    assert all(x == y for x, y in zip(sparse.flat, dense.flat))
    nonzero = sum(1 for x in dense.flat if x)
    assert (nonzero > 0) == (cs.h is None)
    assert cs.is_closed() == (cs.h is not None)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_coframe_roundtrips_through_json(seed):
    cs = random_coframe(seed)
    back = jsonio.loads(jsonio.dumps(cs), bk)
    assert back.h is None
    assert (back.d == cs.d).all()
    assert (back.jacobi_residual() == cs.jacobi_residual()).all()


def _members_and_payloads():
    for backend in (EXACT, FLOAT):
        for h in ((-3, 2), (0, 1), (3, 2), (1, 1)):
            cs = models.coframe_family(backend.rational(*h), backend)
            yield cs
            yield jsonio.loads(jsonio.dumps(cs), backend)
    for seed in RANDOM_SEEDS:
        yield jsonio.loads(jsonio.dumps(random_coframe(seed)), bk)


def test_d_is_read_only_and_antisymmetric():
    for cs in _members_and_payloads():
        assert cs.d.shape == (models.N_FORMS,) * 3
        assert not cs.d.flags.writeable
        with pytest.raises(ValueError):
            cs.d[0, 1, 2] = cs.bk.one
        assert (cs.d == -np.swapaxes(cs.d, 1, 2)).all()


def test_float_family_has_no_negative_zeros():
    # d is written over the backend's zero, which clears the -0.0 parts that
    # products such as i * h leave in the terms.
    for h in ((-3, 2), (0, 1), (3, 2), (1, 1)):
        d = models.coframe_family(FLOAT.rational(*h), FLOAT).d
        assert not any(((u == 0) & np.signbit(u)).any() for u in (d.real, d.imag))


def test_family_members_are_closed():
    for h in (bk.rational(-3, 2), bk.zero, bk.rational(3, 2), bk.one):
        cs = models.coframe_family(h, bk)
        assert cs.is_closed()


def test_float_family_keeps_the_exact_entries():
    for h in ((1, 1), (-3, 2)):
        exact = models.coframe_family(EXACT.rational(*h), EXACT)
        shadow = models.coframe_family(FLOAT.rational(*h), FLOAT)
        assert np.array_equal(shadow.d != 0, exact.d.astype(bool))


def test_jacobi_identity_both_models():
    for cs in (models.compact_model(bk), models.split_model(bk)):
        res = cs.jacobi_residual()
        assert res.shape == (364, models.N_FORMS)
        assert all_zero(res, bk)


def test_sp1_brackets_in_lie_table():
    cs = models.compact_model(bk)
    c = -cs.d
    # [psi1, psi2] = psi3 and the psi / phi factors commute.
    assert c[2, 0, 1] == bk.one
    for k in range(models.N_FORMS):
        expect = bk.one if k == 2 else bk.zero
        assert c[k, 0, 1] == expect
        assert not c[k, 0, 3]


def test_horizontal_adjoint_actions():
    cs = models.compact_model(bk)
    c = -cs.d
    E = irrep.rep_w(bk)
    # ad(psi_s) acts on the unbarred horizontal block by E_s.
    for s in range(3):
        for a in range(4):
            for b in range(4):
                assert c[models.TH0 + a, s, models.TH0 + b] == E[s][a, b]
    # ad(2 phi_s) acts on the horizontal space by J_s.
    J = jmats(bk)
    for s in range(3):
        for a in range(8):
            for b in range(8):
                v = c[models.TH0 + a, 3 + s, models.TH0 + b] * bk.rational(2)
                assert v == J[s][a, b]


def test_curvature_is_computed_once_and_read_only(monkeypatch):
    cs = models.compact_model(bk)
    R = models.curvature_tensor(cs)
    assert not R.flags.writeable
    monkeypatch.setattr(models, "tensordot", None)   # no second build
    assert models.curvature_tensor(cs) is R
    assert all_zero(models.model_curvature_residual(cs), bk, scale=100.0)


def frame_curvature(cs):
    """Reference route: R = sum_s dpsi^s (x) g(E_s., .) + dphi^s (x) g(J_s/2., .),
    from the frame endomorphisms E_s and the complex structures J_s."""
    backend = cs.bk
    g = g8mat(backend)
    half = backend.rational(1, 2)
    R = zeros((8, 8, 8, 8), backend)
    for s in range(3):
        R = R + np.multiply.outer(cs.d[s, models.TH0:, models.TH0:],
                                  irrep.script_e_frames(backend)[s].T @ g)
        R = R + np.multiply.outer(cs.d[3 + s, models.TH0:, models.TH0:],
                                  (jmats(backend)[s] * half).T @ g)
    return R


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@pytest.mark.parametrize("h", [(-3, 2), (0, 1), (3, 2), (1, 1)])
def test_bracket_curvature_matches_frame_reference(backend, h):
    cs = models.coframe_family(backend.rational(*h), backend)
    R, ref = models.curvature_tensor(cs), frame_curvature(cs)
    if backend is EXACT:
        assert all(x == y for x, y in zip(R.flat, ref.flat))
    else:
        assert R.tobytes() == ref.tobytes()


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_curvature_reads_the_connection(backend):
    # 1/1000 on the psi^1 connection term psi^1 ^ th^2 of dth^1, and minus it
    # at the partner: the brackets change, so the curvature no longer matches.
    compact = models.compact_model(backend)
    d = compact.d.copy()
    eps = backend.rational(1, 1000)
    d[models.TH0, 0, models.TH0 + 1] = d[models.TH0, 0, models.TH0 + 1] + eps
    d[models.TH0, models.TH0 + 1, 0] = d[models.TH0, models.TH0 + 1, 0] - eps
    cs = models.CoframeSystem(d * backend.rational(1, 2), backend, h=compact.h)
    assert frob(models.model_curvature_residual(cs), backend) > 1e-3


def test_flat_model_has_zero_curvature():
    R = models.curvature_tensor(models.coframe_family(bk.zero, bk))
    assert all_zero(R, bk)


def test_curvature_identity():
    for cs in (models.compact_model(bk), models.split_model(bk)):
        assert all_zero(models.model_curvature_residual(cs), bk, scale=100.0)


def test_quartic_part_is_ricci_traceless():
    for cs in (models.compact_model(bk), models.split_model(bk)):
        assert all_zero(models.traceless_part_residual(cs), bk, scale=100.0)


def test_einstein_property():
    for cs in (models.compact_model(bk), models.split_model(bk)):
        R = models.curvature_tensor(cs)
        assert all_zero(models.einstein_residual(R, bk), bk, scale=100.0)


def test_scalar_curvature_signs():
    Rc = models.curvature_tensor(models.compact_model(bk))
    Rs = models.curvature_tensor(models.split_model(bk))
    sc = models.scalar_curvature(Rc, bk)
    ss = models.scalar_curvature(Rs, bk)
    assert bk.to_complex(sc).real > 0
    assert bk.to_complex(ss).real < 0
    assert not (sc + ss)


def test_normalization_constant():
    assert models.c_parameter(models.compact_model(bk)) == bk.rational(3, 4)
    assert models.c_parameter(models.split_model(bk)) == bk.rational(-3, 4)


def test_scalar_curvature_report_contains_candidates():
    rep = models.scalar_curvature_report(models.compact_model(bk))
    assert set(rep) == {"trace", "from_c_formula", "from_r0_route"}
    assert rep["from_c_formula"] == bk.rational(32)


def test_scalar_curvature_c_formula_deviation():
    # The trace and the R0 route agree; the 128C/3 formula gives 2/3 of
    # them on both models.  This pins the known deviation named in README.
    for cs, sign in ((models.compact_model(bk), 1), (models.split_model(bk), -1)):
        rep = models.scalar_curvature_report(cs)
        assert rep["trace"] == bk.rational(48 * sign)
        assert rep["from_r0_route"] == bk.rational(48 * sign)
        assert rep["from_c_formula"] == bk.rational(32 * sign)


def test_scalar_curvature_check_can_fail(monkeypatch):
    from cubicdisc import suites
    real = models.scalar_curvature_report

    def shifted(cs):
        rep = real(cs)
        rep["from_r0_route"] = rep["from_r0_route"] + cs.bk.rational(1, 10)
        return rep

    monkeypatch.setattr(models, "scalar_curvature_report", shifted)
    for backend in ("exact", "float"):
        checks = {c.name: c for c in suites.run_suite("models", backend)}
        assert not checks["scalar_curvature_report"].passed


def test_r0_matches_constant_curvature_structure():
    R0 = models.r0_tensor(bk)
    ric = models.ricci(R0, bk)
    # R0 is Einstein by construction.
    scal = models.scalar_curvature(R0, bk)
    assert all_zero(ric - g8mat(bk) * (scal * bk.rational(1, 8)), bk,
                    scale=100.0)
