"""Named verification suites shared by the command line tool and the tests.

Each suite computes its values and hands them to `_judged` as rows of
(name, evidence[, scale[, info]]); one rule turns every row into a
CheckResult (name, pass flag, residual norm, free-form info).  The exact
backend demands residuals that are identically zero; the float backend
compares against its tolerance.
"""

from .scalars import get_backend
from .tensors import zeros, asarray, pmat, eye, g8mat, jmats, frob, tol_scale, all_zero
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


def _judged(bk, rows):
    """One CheckResult per row (name, evidence[, scale[, info]]).  Evidence
    is one of three kinds:

    - residual arrays: an array or a list of arrays (a scalar goes in as a
      1-element array).  The check passes iff every array is zero under the
      backend's policy at the row's scale (tensors.all_zero); the residual
      is the largest Frobenius norm.
    - a dict of named residual arrays (or lists of them): the same rule,
      and info gives the largest norm of each name.
    - a (verdict, residual) pair, decided by the predicate that produced it.
    """
    out = []
    for name, evidence, *rest in rows:
        scale, info = rest + [1.0, ""][len(rest):]
        if isinstance(evidence, tuple):
            passed, residual = evidence
        else:
            groups = evidence if isinstance(evidence, dict) else {"": evidence}
            groups = {k: a if isinstance(a, list) else [a] for k, a in groups.items()}
            passed = all(all_zero(a, bk, scale) for g in groups.values() for a in g)
            norms = {k: max(frob(a, bk) for a in g) for k, g in groups.items()}
            residual = max(norms.values())
            if isinstance(evidence, dict):
                info = "; ".join("%s=%.2e" % (k, norms[k]) for k in sorted(norms))
        out.append(CheckResult(name, passed, residual, info))
    return out


def _cd(report):
    """An orbit predicate's CdReport as (verdict, largest residual)."""
    return report.verdict, max(report.residuals.values())


def run_preliminaries(bk, seed=0):
    x = bk.scalar(1, 2, "3/4", -1)
    P = pmat(bk)
    I4 = eye(4, bk)
    J1, J2, J3 = jmats(bk)
    g = g8mat(bk)
    pair = asarray([[sp2.inner(d, s, bk) for s in sp2.sharp_basis(bk)]
                    for d in sp2.sharp_dual_basis(bk)], bk)
    R = sp2.real_basis(bk)
    sym_ok, real_ok = sp2.is_sp2_element(sp2.bracket(R[1], R[7], bk), bk)
    return _judged(bk, [
        ("field_inverse", asarray([x * (bk.one / x) - bk.one], bk)),
        ("pi_squared", P @ P + I4),
        ("pi_orthogonal", P.T @ P - I4),
        ("pi_full_contraction", asarray([(P * P).sum() - bk.rational(4)], bk)),
        ("quaternion_relations", (J1 @ J2 - J3) + (J2 @ J3 - J1) + (J3 @ J1 - J2)),
        ("metric_compatibility",
         sum((J.T @ g @ J - g for J in (J1, J2, J3)), zeros((8, 8), bk))),
        ("sharp_dual_pairing", pair - eye(10, bk)),
        ("bracket_closure", (sym_ok and real_ok, 0.0)),
        ("dagger_identity",
         sp2.dagger(eye(10, bk), bk) + eye(10, bk) * bk.rational(6), 10.0),
    ])


def run_irrep(bk, seed=0):
    E = irrep.rep_w(bk)
    comm = sum((E[i] @ E[j] - E[j] @ E[i] - E[k]
                for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))), zeros((4, 4), bk))
    d1 = irrep.classical_discriminant(bk.one, bk.zero, -bk.one, bk.zero, bk)
    d2 = irrep.classical_discriminant(bk.one, bk.zero, bk.rational(-3),
                                      bk.rational(2), bk)
    Ph = irrep.proj_sp1ir(bk)
    T = hk.t_k(hk.kappa(irrep.s_hat(bk)))
    dagP = sp2.dagger(Ph, bk)
    dPr = sp2.dagger(irrep.projection_from_rep(irrep.reducible_rep(bk), bk), bk)
    Pt = irrep.projection_from_rep(irrep.trivial_factor_rep(bk), bk)
    dPt = sp2.dagger(Pt, bk)
    F = irrep.script_e_frames(bk)
    pair = asarray([[irrep.endo_inner(s, t, bk) for t in F] for s in F], bk)
    module = irrep.module_v(bk)    # its first generator triple is F
    table = irrep.casimir_decompose(module, kmax=4, lmax=2)
    return _judged(bk, [
        ("rep_commutators", comm),
        ("upsilon_lemma", irrep.upsilon_lemma_residuals(bk), 100.0),
        ("discriminant_substitution", irrep.substitution_residual(bk), 27.0),
        ("discriminant_values", asarray([d1 - bk.rational(4), d2], bk), 100.0),
        ("projection_idempotent", Ph @ Ph - Ph, 10.0),
        ("projection_vs_operator",
         (Ph - eye(10, bk) * bk.rational(3, 10)) * bk.rational(5) - T, 10.0),
        ("dagger_projection",
         dagP - Ph * bk.rational(2) + eye(10, bk) * bk.rational(12, 5), 10.0),
        ("projection_polynomial", dagP @ dagP * bk.rational(25)
         + dagP * bk.rational(70) + eye(10, bk) * bk.rational(24), 100.0),
        ("reducible_case", dPr @ dPr + dPr * bk.rational(2), 100.0),
        ("trivial_factor_case", dPt @ dPt + dPt * bk.rational(3, 2)
         - Pt * bk.rational(10), 100.0),
        ("frame_pairing", pair - eye(3, bk) * bk.rational(5)),
        ("frame_casimir", sum(E @ E for E in F) + eye(8, bk) * bk.rational(15, 4), 10.0),
        ("frame_wedge_normalization", irrep.eps_wedge_residual(F, bk), 10.0),
        ("module_v_decomposition", (table == {(3, 1): 1}, 0.0), 1.0,
         str(sorted(table.items()))),
    ])


def run_orbit(bk, seed=0):
    K = hk.kappa(irrep.s_hat(bk))
    T = hk.t_k(K)
    m1 = hk.eigen_multiplicity(T, bk.rational(7, 2), bk)
    m2 = hk.eigen_multiplicity(T, bk.rational(-3, 2), bk)
    dim, stab = orbit.stabilizer(irrep.s_hat(bk))
    joint = orbit.span_rank(list(irrep.upsilons(bk)) + stab, bk)
    od = orbit.orbit_dimension(K)
    ok, worst = True, 0.0
    for k in range(3):
        M = orbit.cayley_sp2(orbit.random_sp2(seed + 100 + k, bk), bk)
        verdict, residual = _cd(orbit.is_cd_coordinates(orbit.transport_hk(K, M)))
        ok = orbit.check_group_element(M, bk) and verdict and ok
        worst = max(worst, residual)
    pert = hk.HKTensor(K.Kmix + hk.kappa(orbit.random_quartic(seed + 7, bk)).Kmix,
                       bk)
    verdict, Kf = orbit.k_from_frames(list(irrep.script_e_frames(bk)), bk)
    reducible = [sp2.endo_on_v(sp2.from_endo(R, bk), bk) for R in irrep.reducible_rep(bk)]
    return _judged(bk, [
        ("reference_operator_test", _cd(orbit.is_cd_theorem(K))),
        ("reference_coordinate_test", _cd(orbit.is_cd_coordinates(K))),
        ("operator_spectrum", ((m1, m2) == (3, 7), 0.0), 1.0,
         "mult(7/2)=%d mult(-3/2)=%d" % (m1, m2)),
        ("dagger_characterization", hk.dagger_residual(T, bk),
         tol_scale(T, bk) + 1.0),
        ("stabilizer", (dim == 3 and joint == 3, 0.0), 1.0,
         "dim=%d joint_rank=%d" % (dim, joint)),
        ("orbit_dimension", (od == 7, 0.0), 1.0, "dim=%d" % od),
        ("cayley_transport", (ok, worst)),
        ("perturbation_rejected", (not orbit.is_cd_coordinates(pert).verdict, 0.0)),
        ("frames_reconstruction", (verdict and Kf == K, 0.0)),
        ("frames_normalization_rejected",
         (not orbit.k_from_frames(reducible, bk)[0], 0.0)),
        ("double_contraction_1", hk.contr_kxk_1_residual(K), 100.0),
        ("double_contraction_2", hk.contr_kxk_2_residual(K), 100.0),
    ])


def run_models(bk, seed=0):
    # Each member's d(d e^k) array is computed once and judged by one rule,
    # CoframeSystem.is_closed: as closure_* for every member and, since
    # d^2 = 0 is the Jacobi identity, as jacobi_* for compact and split.
    family = {"compact": models.compact_model(bk),
              "flat": models.coframe_family(bk.zero, bk),
              "split": models.split_model(bk),
              "generic": models.coframe_family(bk.one, bk)}
    compact = family["compact"]
    C = models.c_parameter(compact)
    rep = models.scalar_curvature_report(compact)
    return _judged(bk, [
        *((prefix + n, (family[n].is_closed(), family[n].closure_residual()))
          for prefix, names in (("jacobi_", ("compact", "split")),
                                ("closure_", family)) for n in names),
        *(("curvature_identity_" + n,
           models.model_curvature_residual(family[n]), 100.0)
          for n in ("compact", "split")),
        ("einstein_compact",
         models.einstein_residual(models.curvature_tensor(compact), bk), 100.0),
        ("quartic_part_traceless", models.traceless_part_residual(compact), 100.0),
        ("normalization_constant", asarray([C - bk.rational(3, 4)], bk), 1.0,
         "C=%s" % (bk.to_complex(C),)),
        ("scalar_curvature_report",
         asarray([rep["trace"] - rep["from_r0_route"]], bk),
         abs(bk.to_complex(rep["trace"])),
         "; ".join("%s=%s" % (k, bk.to_complex(v)) for k, v in sorted(rep.items()))),
    ])


def run_bianchi(bk, seed=0):
    sol = bianchi.FirstBianchiSolution(bk)
    one, two = len(sol.stage_one), len(sol.stage_two)
    return _judged(bk, [
        ("stage_one_trivial", (one == 0, 0.0), 1.0, "dim=%d" % one),
        ("stage_two_line", (two == 1, 0.0), 1.0, "dim=%d" % two),
        ("solution_structure",
         sol.structure_residuals() if two == 1 else (False, 0.0), 10.0),
    ])


_RUNNERS = {"preliminaries": run_preliminaries, "irrep": run_irrep,
            "orbit": run_orbit, "models": run_models, "bianchi": run_bianchi}


def run_suite(name, backend="exact", tol=1e-9, seed=0):
    """Run a named suite (or "all"); returns a list of CheckResult."""
    bk = get_backend(backend, tol)
    return [c for key in (_RUNNERS if name == "all" else [name])
            for c in _RUNNERS[key](bk, seed)]
