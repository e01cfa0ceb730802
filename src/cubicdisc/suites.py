"""Named verification suites shared by the command line tool and the tests.

Each suite runs a list of structural checks and returns CheckResult records
(name, pass flag, residual norm, free-form info).  The exact backend demands
residuals that are identically zero; the float backend compares against its
tolerance.
"""

from .scalars import get_backend
from .tensors import zeros, pmat, eye, g8mat, jmats, frob, tol_scale, all_zero
from . import sp2
from . import irrep
from . import hk
from . import orbit
from . import models
from . import bianchi

SUITES = ("preliminaries", "irrep", "orbit", "models", "bianchi", "all")


class CheckResult:
    def __init__(self, name, passed, residual=0.0, info=""):
        self.name = name
        self.passed = bool(passed)
        self.residual = float(residual)
        self.info = info

    def as_dict(self):
        return {"name": self.name, "passed": self.passed,
                "residual": self.residual, "info": self.info}

    def __repr__(self):
        return "CheckResult(%r, %r, %g)" % (self.name, self.passed, self.residual)


def _res_check(name, arr, bk, scale=1.0, info=""):
    return CheckResult(name, all_zero(arr, bk, scale=scale), frob(arr, bk), info)


def _worst_check(name, arrays, bk, scale, info=""):
    """Passes iff every residual array is zero under the backend's policy;
    the residual reported is the largest Frobenius norm."""
    return CheckResult(name, all(all_zero(a, bk, scale=scale) for a in arrays),
                       max(frob(a, bk) for a in arrays), info)


def _norms_info(groups, bk):
    """The largest Frobenius norm of each named group of residual arrays."""
    return "; ".join("%s=%.2e" % (k, max(frob(a, bk) for a in groups[k]))
                     for k in sorted(groups))


# -- preliminaries ---------------------------------------------------------


def run_preliminaries(bk, seed=0):
    out = []
    one = bk.one
    x = bk.scalar(1, 2, "3/4", -1)
    gap = x * (one / x) - one
    out.append(CheckResult("field_inverse", bk.is_zero(gap),
                           abs(bk.to_complex(gap))))
    P = pmat(bk)
    I4 = eye(4, bk)
    out.append(_res_check("pi_squared", P @ P + I4, bk))
    out.append(_res_check("pi_orthogonal", P.T @ P - I4, bk))
    tr = (P * P).sum() - bk.rational(4)
    out.append(CheckResult("pi_full_contraction", bk.is_zero(tr),
                           abs(bk.to_complex(tr))))
    J1, J2, J3 = jmats(bk)
    g = g8mat(bk)
    quat = (J1 @ J2 - J3) + (J2 @ J3 - J1) + (J3 @ J1 - J2)
    out.append(_res_check("quaternion_relations", quat, bk))
    herm = zeros((8, 8), bk)
    for J in (J1, J2, J3):
        herm = herm + (J.T @ g @ J - g)
    out.append(_res_check("metric_compatibility", herm, bk))
    D = sp2.dollar_basis(bk)
    S = sp2.sharp_basis(bk)
    Dual = sp2.sharp_dual_basis(bk)
    pair = zeros((10, 10), bk)
    for a in range(10):
        for b in range(10):
            pair[a, b] = sp2.inner(Dual[a], S[b], bk)
    out.append(_res_check("sharp_dual_pairing", pair - eye(10, bk), bk))
    R = sp2.real_basis(bk)
    X = sp2.bracket(R[1], R[7], bk)
    sym_ok, real_ok = sp2.is_sp2_element(X, bk)
    out.append(CheckResult("bracket_closure", sym_ok and real_ok))
    dag_id = sp2.dagger(eye(10, bk), bk)
    out.append(_res_check("dagger_identity", dag_id + eye(10, bk) * bk.rational(6),
                          bk, scale=10.0))
    return out


# -- representation suite --------------------------------------------------


def run_irrep(bk, seed=0):
    out = []
    E = irrep.rep_w(bk)
    comm = zeros((4, 4), bk)
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comm = comm + (E[i] @ E[j] - E[j] @ E[i] - E[k])
    out.append(_res_check("rep_commutators", comm, bk))
    res = irrep.upsilon_lemma_residuals(bk)
    out.append(_worst_check("upsilon_lemma", sum(res.values(), []), bk,
                            scale=100.0, info=_norms_info(res, bk)))
    out.append(CheckResult("discriminant_substitution",
                           irrep.substitution_check(bk)))
    d1 = irrep.classical_discriminant(bk.one, bk.zero, -bk.one, bk.zero, bk)
    d2 = irrep.classical_discriminant(bk.one, bk.zero, bk.rational(-3),
                                      bk.rational(2), bk)
    out.append(CheckResult("discriminant_values",
                           bk.is_zero(d1 - bk.rational(4), 100.0)
                           and bk.is_zero(d2, 100.0),
                           abs(bk.to_complex(d2))))
    Ph = irrep.proj_sp1ir(bk)
    out.append(_res_check("projection_idempotent", Ph @ Ph - Ph, bk, scale=10.0))
    T = hk.t_k(hk.kappa(irrep.s_hat(bk)))
    out.append(_res_check("projection_vs_operator",
                          (Ph - eye(10, bk) * bk.rational(3, 10))
                          * bk.rational(5) - T, bk, scale=10.0))
    dagP = sp2.dagger(Ph, bk)
    out.append(_res_check("dagger_projection",
                          dagP - Ph * bk.rational(2)
                          + eye(10, bk) * bk.rational(12, 5), bk, scale=10.0))
    out.append(_res_check("projection_polynomial",
                          dagP @ dagP * bk.rational(25)
                          + dagP * bk.rational(70)
                          + eye(10, bk) * bk.rational(24), bk, scale=100.0))
    Pr = irrep.projection_from_rep(irrep.reducible_rep(bk), bk)
    dPr = sp2.dagger(Pr, bk)
    out.append(_res_check("reducible_case",
                          dPr @ dPr + dPr * bk.rational(2), bk, scale=100.0))
    Pt = irrep.projection_from_rep(irrep.trivial_factor_rep(bk), bk)
    dPt = sp2.dagger(Pt, bk)
    out.append(_res_check("trivial_factor_case",
                          dPt @ dPt + dPt * bk.rational(3, 2)
                          - Pt * bk.rational(10), bk, scale=100.0))
    F = irrep.script_e_frames(bk)
    pair = zeros((3, 3), bk)
    for s in range(3):
        for t in range(3):
            pair[s, t] = irrep.endo_inner(F[s], F[t], bk)
            if s == t:
                pair[s, t] = pair[s, t] - bk.rational(5)
    out.append(_res_check("frame_pairing", pair, bk))
    module = irrep.module_v(bk)    # its first generator triple is F
    out.append(_res_check("frame_casimir", module.casimirs()[0]
                          + eye(8, bk) * bk.rational(15, 4), bk, scale=10.0))
    w = irrep.eps_wedge_residual(F, bk)
    out.append(_res_check("frame_wedge_normalization", w, bk, scale=10.0))
    table = irrep.casimir_decompose(module, kmax=4, lmax=2)
    out.append(CheckResult("module_v_decomposition", table == {(3, 1): 1},
                           info=str(sorted(table.items()))))
    return out


# -- orbit suite -----------------------------------------------------------


def run_orbit(bk, seed=0):
    out = []
    K = hk.kappa(irrep.s_hat(bk))
    r1 = orbit.is_cd_theorem(K)
    out.append(CheckResult("reference_operator_test", r1.verdict,
                           max(r1.residuals.values())))
    r2 = orbit.is_cd_coordinates(K)
    out.append(CheckResult("reference_coordinate_test", r2.verdict,
                           max(r2.residuals.values())))
    T = hk.t_k(K)
    m1 = hk.eigen_multiplicity(T, bk.rational(7, 2), bk)
    m2 = hk.eigen_multiplicity(T, bk.rational(-3, 2), bk)
    out.append(CheckResult("operator_spectrum", (m1, m2) == (3, 7),
                           info="mult(7/2)=%d mult(-3/2)=%d" % (m1, m2)))
    out.append(_res_check("dagger_characterization", hk.dagger_residual(T, bk),
                          bk, scale=tol_scale(T, bk) + 1.0))
    dim, stab = orbit.stabilizer(irrep.s_hat(bk))
    joint = orbit.span_rank(list(irrep.upsilons(bk)) + stab, bk)
    out.append(CheckResult("stabilizer", dim == 3 and joint == 3,
                           info="dim=%d joint_rank=%d" % (dim, joint)))
    od = orbit.orbit_dimension(K)
    out.append(CheckResult("orbit_dimension", od == 7, info="dim=%d" % od))
    ok = True
    worst = 0.0
    for k in range(3):
        X = orbit.random_sp2(seed + 100 + k, bk)
        M = orbit.cayley_sp2(X, bk)
        if not orbit.check_group_element(M, bk):
            ok = False
        Kt = orbit.transport_hk(K, M)
        rep = orbit.is_cd_coordinates(Kt)
        worst = max(worst, max(rep.residuals.values()))
        if not rep.verdict:
            ok = False
    out.append(CheckResult("cayley_transport", ok, worst))
    pert = hk.HKTensor(K.Kmix + hk.kappa(orbit.random_quartic(seed + 7, bk)).Kmix,
                       bk)
    out.append(CheckResult("perturbation_rejected",
                           not orbit.is_cd_coordinates(pert).verdict))
    verdict, Kf = orbit.k_from_frames(list(irrep.script_e_frames(bk)), bk)
    out.append(CheckResult("frames_reconstruction",
                           verdict and Kf == K))
    scaled = [F * bk.rational(2) for F in irrep.script_e_frames(bk)]
    v2, _ = orbit.k_from_frames(scaled, bk)
    out.append(CheckResult("frames_normalization_rejected", not v2))
    out.append(_res_check("double_contraction_1", hk.contr_kxk_1_residual(K),
                          bk, scale=100.0))
    out.append(_res_check("double_contraction_2", hk.contr_kxk_2_residual(K),
                          bk, scale=100.0))
    return out


# -- model suite -----------------------------------------------------------


def run_models(bk, seed=0):
    out = []
    # Each member's d(d e^k) array is computed once and judged by one rule,
    # CoframeSystem.is_closed: as closure_* for every member and, since
    # d^2 = 0 is the Jacobi identity, as jacobi_* for compact and split.
    family = {"compact": models.compact_model(bk),
              "flat": models.coframe_family(bk.zero, bk),
              "split": models.split_model(bk),
              "generic": models.coframe_family(bk.one, bk)}
    compact, split = family["compact"], family["split"]
    for prefix, names in (("jacobi_", ("compact", "split")), ("closure_", family)):
        out.extend(CheckResult(prefix + n, family[n].is_closed(),
                               family[n].closure_residual()) for n in names)
    for name, cs in (("compact", compact), ("split", split)):
        out.append(_res_check("curvature_identity_" + name,
                              models.model_curvature_residual(cs), bk,
                              scale=100.0))
    R = models.curvature_tensor(compact)
    out.append(_res_check("einstein_compact", models.einstein_residual(R, bk),
                          bk, scale=100.0))
    out.append(_res_check("quartic_part_traceless",
                          models.traceless_part_residual(compact), bk,
                          scale=100.0))
    C = models.c_parameter(compact)
    out.append(CheckResult("normalization_constant",
                           bk.is_zero(C - bk.rational(3, 4)),
                           info="C=%s" % (bk.to_complex(C),)))
    rep = models.scalar_curvature_report(compact)
    gap = rep["trace"] - rep["from_r0_route"]
    out.append(CheckResult("scalar_curvature_report",
                           bk.is_zero(gap, abs(bk.to_complex(rep["trace"]))),
                           abs(bk.to_complex(gap)),
                           info="; ".join("%s=%s" % (k, bk.to_complex(v))
                                          for k, v in sorted(rep.items()))))
    return out


# -- constraint suite ------------------------------------------------------


def run_bianchi(bk, seed=0):
    out = []
    sol = bianchi.FirstBianchiSolution(bk)
    out.append(CheckResult("stage_one_trivial", len(sol.stage_one) == 0,
                           info="dim=%d" % len(sol.stage_one)))
    out.append(CheckResult("stage_two_line", len(sol.stage_two) == 1,
                           info="dim=%d" % len(sol.stage_two)))
    if len(sol.stage_two) == 1:
        res = sol.structure_residuals()
        out.append(CheckResult("solution_structure", sol.matches_structure(),
                               max(frob(a, bk) for a in res.values()),
                               _norms_info({k: [a] for k, a in res.items()}, bk)))
    else:
        out.append(CheckResult("solution_structure", False))
    return out


_RUNNERS = {
    "preliminaries": run_preliminaries,
    "irrep": run_irrep,
    "orbit": run_orbit,
    "models": run_models,
    "bianchi": run_bianchi,
}


def run_suite(name, backend="exact", tol=1e-9, seed=0):
    """Run a named suite (or "all"); returns a list of CheckResult."""
    bk = get_backend(backend, tol)
    if name == "all":
        out = []
        for key in ("preliminaries", "irrep", "orbit", "models", "bianchi"):
            out.extend(_RUNNERS[key](bk, seed))
        return out
    if name not in _RUNNERS:
        raise KeyError(name)
    return _RUNNERS[name](bk, seed)
