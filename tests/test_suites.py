"""Exact check verdicts are decided in the field, not through float norms."""

import ast
import json
import math
import pathlib
from fractions import Fraction

import pytest

from cubicdisc.scalars import EXACT, FLOAT, ExactScalar, FloatBackend
from cubicdisc import bianchi, irrep, models, suites

# 10^-400 underflows to 0.0 as a float, so a float norm cannot see it.
TINY = ExactScalar(Fraction(1, 10 ** 400))


def _inject(arr):
    out = arr.copy()
    out.flat[0] = out.flat[0] + TINY
    return out


def _check(checks, name):
    (check,) = [c for c in checks if c.name == name]
    return check


def test_upsilon_lemma_fails_on_tiny_residual(monkeypatch):
    real = irrep.upsilon_lemma_residuals

    def tampered(bk):
        res = real(bk)
        res["pi_recovery"] = [_inject(r) for r in res["pi_recovery"]]
        return res

    monkeypatch.setattr(irrep, "upsilon_lemma_residuals", tampered)
    check = _check(suites.run_irrep(EXACT), "upsilon_lemma")
    assert not check.passed and check.residual == 0.0


@pytest.mark.parametrize("model", ["compact", "split"])
def test_jacobi_fails_on_tiny_residual(monkeypatch, model):
    real = models.CoframeSystem.jacobi_residual
    monkeypatch.setattr(models.CoframeSystem, "jacobi_residual",
                        lambda self: _inject(real(self)))
    check = _check(suites.run_models(EXACT), "jacobi_" + model)
    assert not check.passed and check.residual == 0.0


@pytest.mark.parametrize("size, passed", [(1e-8, False), (1e-10, True)])
def test_jacobi_and_closure_share_one_rule(monkeypatch, size, passed):
    # The models' largest coefficient is 3/2.  1e-8 lies between the rule
    # tol*(3/2)^2 = 2.25e-9 and the former Jacobi threshold tol*100 = 1e-7,
    # so the two checks used to disagree on it.
    real = models.CoframeSystem.jacobi_residual

    def tampered(self):
        out = real(self).copy()
        out[0, 0] += size
        return out

    monkeypatch.setattr(models.CoframeSystem, "jacobi_residual", tampered)
    checks = suites.run_models(FLOAT)
    for model in ("compact", "split"):
        verdicts = {_check(checks, p + model).passed for p in ("jacobi_", "closure_")}
        assert verdicts == {passed}


def test_solution_structure_fails_on_tiny_residual(monkeypatch):
    real = bianchi.FirstBianchiSolution.structure_residuals

    def tampered(self):
        res = real(self)
        res["G1"] = _inject(res["G1"])
        return res

    monkeypatch.setattr(bianchi.FirstBianchiSolution, "structure_residuals",
                        tampered)
    check = _check(suites.run_bianchi(EXACT), "solution_structure")
    assert not check.passed and check.residual == 0.0


@pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])
def test_stage_one_trivial_fails_on_a_repeated_unknown(monkeypatch, bk):
    # C^1 twice: its 12 real unknowns each get a duplicate column.
    monkeypatch.setattr(bianchi, "STAGE_ONE", bianchi.STAGE_ONE + bianchi.STAGE_ONE[:1])
    checks = suites.run_bianchi(bk)
    assert [c.name for c in checks if not c.passed] == ["stage_one_trivial"]
    assert _check(checks, "stage_one_trivial").info == "dim=12"


@pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])
def test_stage_two_line_fails_on_a_perturbed_connection(monkeypatch, bk):
    # 1/1000 on d[6, 3, 6] of the flat member, the phi^1 connection term
    # th^1 in dth^1; its partner d[6, 6, 3] lies outside the block read.
    A = bianchi._connection(bk).copy()
    A[0, 3, 0] = A[0, 3, 0] + bk.rational(1, 1000)
    monkeypatch.setattr(bianchi, "_connection", lambda bk: A)
    checks = suites.run_bianchi(bk)
    assert [c.name for c in checks if not c.passed] == ["stage_two_line",
                                                        "solution_structure"]
    assert _check(checks, "stage_two_line").info == "dim=0"
    assert _check(checks, "stage_one_trivial").info == "dim=0"


@pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])
def test_discriminant_values_reports_the_gap_of_d1(monkeypatch, bk):
    # d1 = Dis(1, 0, -1, 0) is the call with d = 0; d2 stays 0.
    real = irrep.classical_discriminant

    def tampered(a, b, c, d, bk):
        out = real(a, b, c, d, bk)
        return out + bk.rational(1, 2) if not d else out

    monkeypatch.setattr(irrep, "classical_discriminant", tampered)
    check = _check(suites.run_irrep(bk), "discriminant_values")
    assert not check.passed and check.residual == 0.5


def test_discriminant_substitution_fails_on_tiny_residual(monkeypatch):
    real = irrep.substitution_residual
    monkeypatch.setattr(irrep, "substitution_residual", lambda bk: _inject(real(bk)))
    check = _check(suites.run_irrep(EXACT), "discriminant_substitution")
    assert not check.passed and check.residual == 0.0


@pytest.mark.parametrize("bk", [EXACT, FLOAT], ids=["exact", "float"])
def test_closure_verdict_is_the_predicates(monkeypatch, bk):
    monkeypatch.setattr(models.CoframeSystem, "is_closed", lambda self: False)
    checks = suites.run_models(bk)
    assert not _check(checks, "closure_flat").passed


def test_only_the_judge_builds_check_results():
    # Runners hand over evidence; no zero test or norm is taken in them.
    tree = ast.parse(pathlib.Path(suites.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("run_"):
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
            assert not names & {"all_zero", "is_zero", "frob", "CheckResult"}, node.name


# The exact report of `verify all --seed 0`: name, passed, residual and info
# of every check in run order.  README says how to regenerate it.
GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_all_exact_seed0.json"


def test_exact_report_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 50
    assert [c.as_dict() for c in suites.run_suite("all", "exact", seed=0)] == golden


def test_float_report_matches_golden_names_and_verdicts():
    golden = json.loads(GOLDEN.read_text())
    checks = suites.run_suite("all", "float", seed=0)
    assert [(c.name, c.passed) for c in checks] == [(c["name"], c["passed"])
                                                     for c in golden]


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_bad_tolerance_is_an_error_not_a_failed_report(tol):
    with pytest.raises(ValueError, match="finite number greater than 0"):
        FloatBackend(tol)
    with pytest.raises(ValueError, match="finite number greater than 0"):
        suites.run_suite("preliminaries", "float", tol=tol)
