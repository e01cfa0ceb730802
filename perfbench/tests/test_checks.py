"""Each output check of the benchmark rejects a wrong answer."""

import argparse
import copy

import pytest

from cubicdisc import cli, hk, irrep, orbit, suites
from cubicdisc.scalars import FLOAT

import checks


def _complex(M):
    return [[complex(x) for x in row] for row in M]


@pytest.fixture(scope="module")
def spectra():
    K = hk.kappa(irrep.s_hat(FLOAT))
    off = hk.HKTensor(K.Kmix + hk.kappa(orbit.random_quartic(7, FLOAT)).Kmix,
                      FLOAT)
    return _complex(hk.t_k(K)), _complex(hk.t_k(off))


def test_orbit_point_accepts_right_labels(spectra):
    on, off = spectra
    both = ("is_cd_coordinates", "is_cd_theorem")
    assert checks.check_orbit_point(True, on, dict.fromkeys(both, True)) == []
    assert checks.check_orbit_point(False, off, dict.fromkeys(both, False)) == []


def test_off_orbit_point_labelled_on_orbit_is_rejected(spectra):
    _, off = spectra
    verdicts = {"is_cd_coordinates": True, "is_cd_theorem": True}
    assert checks.check_orbit_point(True, off, verdicts)


def test_wrong_predicate_verdict_is_rejected(spectra):
    on, _ = spectra
    verdicts = {"is_cd_coordinates": True, "is_cd_theorem": False}
    assert checks.check_orbit_point(True, on, verdicts)


@pytest.mark.parametrize("name, build", [
    ("V", irrep.module_v), ("sp2", irrep.module_sp2)])
def test_decomposition_accepts_expected_table(name, build):
    module = build(FLOAT)
    gens = [_complex(E) for E in module.e_gens]
    assert checks.check_decomposition(name, checks.EXPECTED_TABLES[name],
                                      gens) == []


def test_wrong_multiplicity_table_is_rejected():
    gens = [_complex(E) for E in irrep.module_sp2(FLOAT).e_gens]
    wrong = {(2, 0): 1, (4, 0): 1}
    assert checks.check_decomposition("sp2", wrong, gens)


def test_wrong_casimir_spectrum_is_rejected():
    module = irrep.module_v(FLOAT)
    gens = [[[2 * x for x in row] for row in _complex(E)]
            for E in module.e_gens]
    assert checks.check_decomposition("V", {(3, 1): 1}, gens)


@pytest.fixture(scope="module")
def float_report():
    args = argparse.Namespace(suite="all", backend="float", seed=0, tol=1e-9)
    return cli.make_report(args, suites.run_suite("all", backend="float"))


def _check(report, status=0, backend="float"):
    return checks.check_report(report, status, "all", backend, 1e-9)


def _with_check(report, name, **changes):
    report = copy.deepcopy(report)
    for c in report["checks"]:
        if c["name"] == name:
            c.update(changes)
    return report


def test_good_report_is_accepted(float_report):
    assert _check(float_report) == []


def test_report_with_one_failed_check_is_rejected(float_report):
    assert _check(_with_check(float_report, "pi_squared", passed=False))


def test_failed_exit_status_is_rejected(float_report):
    assert _check(float_report, status=1)


def test_residual_above_tolerance_is_rejected(float_report):
    assert _check(_with_check(float_report, "pi_squared", residual=1e-6))


def test_nonzero_exact_residual_is_rejected(float_report):
    report = dict(float_report, backend="exact")
    assert _check(report, backend="exact")


def test_wrong_dimension_fact_is_rejected(float_report):
    assert _check(_with_check(float_report, "orbit_dimension", info="dim=6"))


def test_scalar_curvature_routes_must_agree(float_report):
    info = "from_c_formula=(32+0j); from_r0_route=(48+0j); trace=(32+0j)"
    assert _check(_with_check(float_report, "scalar_curvature_report",
                              info=info))
