"""Acceptance gate: eleven structural criteria, one test (and one verbose
pass/fail line) per criterion.  The exact backend requires residuals that are
identically zero; the float shadow criterion requires every residual to stay
below 1e-9 relative."""

import numpy as np

from cubicdisc.scalars import EXACT
from cubicdisc.tensors import zeros, eye, pmat, g8mat, frob, all_zero
from cubicdisc import sp2, irrep, hk, orbit, models, suites

bk = EXACT


def _report(num, name, ok, detail=""):
    line = "Criterion %2d (%s): %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def test_criterion_01_upsilon_identities():
    res = irrep.upsilon_lemma_residuals(bk)
    ok = len(res) == 7 and all(all_zero(r, bk) for rs in res.values() for r in rs)
    _report(1, "seven structural identities of the Upsilon triple", ok,
            "max residual %.1e" % max(frob(r, bk) for rs in res.values()
                                      for r in rs))


def test_criterion_02_discriminant():
    ok = all_zero(irrep.substitution_residual(bk), bk, scale=27.0)
    one, zero = bk.one, bk.zero
    ok = ok and irrep.classical_discriminant(one, zero, -one, zero,
                                             bk) == bk.rational(4)
    ok = ok and not irrep.classical_discriminant(one, zero, bk.rational(-3),
                                                 bk.rational(2), bk)
    _report(2, "quartic reproduces the classical cubic discriminant", ok)


def test_criterion_03_dagger_characterization():
    I = eye(10, bk)
    ok = all_zero(sp2.dagger(I, bk) + I * bk.rational(6), bk, scale=10.0)
    Ph = irrep.proj_sp1ir(bk)
    ok = ok and all_zero(sp2.dagger(Ph, bk) - Ph * bk.rational(2)
                         + I * bk.rational(12, 5), bk, scale=10.0)
    T = hk.t_k(hk.kappa(irrep.s_hat(bk)))
    ok = ok and hk.eigen_multiplicity(T, bk.rational(7, 2), bk) == 3
    ok = ok and hk.eigen_multiplicity(T, bk.rational(-3, 2), bk) == 7
    for seed in range(20):
        K = hk.kappa(orbit.random_quartic(1000 + seed, bk))
        L = hk.t_k(K)
        ok = ok and all_zero(hk.dagger_residual(L, bk), bk,
                             scale=frob(L, bk) + 1.0)
        ok = ok and hk.hk_from_endo(L, bk) == K
    for seed in (0, 1):
        bad = I * bk.rational(seed + 2)
        try:
            hk.hk_from_endo(bad, bk)
            ok = False
        except ValueError:
            pass
    _report(3, "dagger equation characterizes curvature operators", ok)


def test_criterion_04_orbit_recognition():
    K = hk.kappa(irrep.s_hat(bk))
    ok = orbit.is_cd_theorem(K).verdict
    ok = ok and orbit.is_cd_coordinates(K).verdict
    T = hk.t_k(K)
    ok = ok and all_zero(hk.dagger_residual(T, bk), bk, scale=frob(T, bk) + 1.0)
    for seed in range(20):
        M = orbit.cayley_sp2(orbit.random_sp2(2000 + seed, bk), bk)
        Kt = orbit.transport_hk(K, M)
        c = orbit.is_cd_coordinates(Kt).verdict
        t = orbit.is_cd_theorem(Kt).verdict
        ok = ok and c and t and (c == t)
    for seed in range(20):
        pert = hk.HKTensor(
            K.Kmix + hk.kappa(orbit.random_quartic(3000 + seed, bk)).Kmix, bk)
        c = orbit.is_cd_coordinates(pert).verdict
        t = orbit.is_cd_theorem(pert).verdict
        ok = ok and (not c) and (not t) and (c == t)
    _report(4, "orbit recognition predicates and their agreement", ok)


def test_criterion_05_stabilizer_and_orbit_dimension():
    dim, stab = orbit.stabilizer(irrep.s_hat(bk))
    joint = orbit.span_rank(list(irrep.upsilons(bk)) + stab, bk)
    od = orbit.orbit_dimension(hk.kappa(irrep.s_hat(bk)))
    ok = dim == 3 and joint == 3 and od == 7
    _report(5, "stabilizer is the Upsilon span; orbit dimension 7", ok,
            "stab=%d joint=%d orbit=%d" % (dim, joint, od))


def test_criterion_06_tangent_space():
    K = hk.kappa(irrep.s_hat(bk))
    T = hk.t_k(K)
    U = orbit.random_sp2(77, bk)
    # Split U into its two spectral parts.
    U_low = (U * bk.rational(7, 2) - hk.t_k_apply(K, U)) * bk.rational(1, 5)
    U_top = U - U_low
    ok = all_zero(hk.t_k_apply(K, U_top) - U_top * bk.rational(7, 2), bk,
                  scale=frob(U_top, bk) + 1.0)
    ok = ok and all_zero(hk.t_k_apply(K, U_low) + U_low * bk.rational(3, 2),
                         bk, scale=frob(U_low, bk) + 1.0)
    # Top-type generators stabilize K; low-type ones give H = U exactly.
    ok = ok and all_zero(
        hk.lie_derivative_full8(K.full8(), sp2.endo_on_v(U_top, bk), bk), bk,
        scale=frob(K.Kmix, bk) + 1.0)
    Lf = hk.lie_derivative_full8(K.full8(), sp2.endo_on_v(U_low, bk), bk)
    L = hk.HKTensor(Lf[np.ix_(range(4), range(4, 8), range(4), range(4, 8))],
                    bk)
    H = hk.tangent_H(K, L)
    ok = ok and all_zero(H - U_low, bk, scale=frob(U_low, bk) + 1.0)
    Hc = hk.tangent_H_from_contraction(K, L, bk)
    lowered_H = irrep.lowered_2form(sp2.endo_on_v(H, bk), bk)
    ok = ok and all_zero(lowered_H - Hc, bk, scale=frob(Hc, bk) + 1.0)
    ok = ok and all_zero(hk.contr_kxk_1_residual(K), bk, scale=100.0)
    ok = ok and all_zero(hk.contr_kxk_2_residual(K), bk, scale=100.0)
    _report(6, "tangent operator and double contraction identities", ok)


def test_criterion_07_frame_reconstruction():
    F = irrep.script_e_frames(bk)
    ok = True
    for s in range(3):
        for t in range(3):
            v = irrep.endo_inner(F[s], F[t], bk)
            ok = ok and v == (bk.rational(5) if s == t else bk.zero)
    ok = ok and all_zero(F[0] @ F[1] - F[1] @ F[0] - F[2], bk, scale=10.0)
    total = zeros((8, 8), bk)
    for Fs in F:
        total = total + Fs @ Fs
    ok = ok and all_zero(total + eye(8, bk) * bk.rational(15, 4), bk,
                         scale=10.0)
    ok = ok and all_zero(irrep.eps_wedge_residual(F, bk), bk, scale=100.0)
    verdict, K = orbit.k_from_frames(list(F), bk)
    ok = ok and verdict and K == hk.kappa(irrep.s_hat(bk))
    scaled_verdict, _ = orbit.k_from_frames([Fs * bk.rational(2) for Fs in F],
                                            bk)
    ok = ok and not scaled_verdict
    _report(7, "frame identities and reconstruction of the reference tensor",
            ok)


def test_criterion_08_homogeneous_models():
    compact = models.compact_model(bk)
    split = models.split_model(bk)
    ok = all_zero(compact.jacobi_residual(), bk) and all_zero(split.jacobi_residual(), bk)
    for h in (bk.rational(-3, 2), bk.zero, bk.rational(3, 2), bk.one):
        ok = ok and models.coframe_family(h, bk).is_closed()
    for cs in (compact, split):
        ok = ok and all_zero(models.model_curvature_residual(cs), bk,
                             scale=100.0)
        ok = ok and all_zero(models.traceless_part_residual(cs), bk,
                             scale=100.0)
        R = models.curvature_tensor(cs)
        ok = ok and all_zero(models.einstein_residual(R, bk), bk, scale=100.0)
    scal = models.scalar_curvature(models.curvature_tensor(compact), bk)
    detail = "compact Scal (traced) = %s" % bk.to_complex(scal).real
    _report(8, "model Lie algebras, curvature identity, Einstein property",
            ok, detail)


def test_criterion_09_constraint_system():
    checks = {c.name: c for c in suites.run_suite("bianchi", backend="exact")}
    ok = all(checks[n].passed for n in ("stage_one_trivial", "stage_two_line",
                                        "solution_structure"))
    _report(9, "constraint system has exactly the one-parameter line", ok,
            "stage1=%s stage2=%s" % tuple(checks[n].info.removeprefix("dim=")
                                          for n in ("stage_one_trivial", "stage_two_line")))


def test_criterion_10_casimir_decomposition():
    tv = irrep.casimir_decompose(irrep.module_v(bk), kmax=4, lmax=2)
    ts = irrep.casimir_decompose(irrep.module_sp2(bk), kmax=7, lmax=1)
    t56 = irrep.casimir_decompose(irrep.module_56(bk), kmax=9, lmax=1)
    ok = tv == {(3, 1): 1}
    ok = ok and ts == {(2, 0): 1, (6, 0): 1}
    ok = ok and t56 == {(3, 1): 1, (5, 1): 1, (7, 1): 1, (9, 1): 1}
    dims = sorted(m * (k + 1) * (l + 1) for (k, l), m in t56.items())
    ok = ok and dims == [8, 12, 16, 20]
    _report(10, "Casimir decomposition of the torsion carrier", ok,
            "dims %s" % dims)


def test_criterion_11_float_shadow():
    checks = suites.run_suite("all", backend="float", tol=1e-9, seed=0)
    failed = [c.name for c in checks if not c.passed]
    worst = max(c.residual for c in checks)
    _report(11, "float shadow reproduces every check below 1e-9", not failed,
            "%d checks, worst residual %.2e%s"
            % (len(checks), worst,
               (", failed: " + ",".join(failed)) if failed else ""))
