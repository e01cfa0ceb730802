"""Command line behavior: reports, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from cubicdisc import suites
from cubicdisc.cli import main


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "cubicdisc.cli"] + args,
                          capture_output=True, text=True)
    return proc


def test_verify_preliminaries_float_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "preliminaries", "--backend", "float",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "preliminaries"
    assert report["backend"] == "float"
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    for c in report["checks"]:
        assert set(c) == {"name", "passed", "residual", "info"}


def test_report_fields_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "irrep", "--backend", "float",
                 "--out", str(out1)]) == 0
    assert main(["verify", "irrep", "--backend", "float",
                 "--out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert r1 == r2


def test_markdown_format(tmp_path):
    out = tmp_path / "report.md"
    code = main(["verify", "bianchi", "--backend", "float", "--format", "md",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# Verification report: bianchi")
    assert "| pass |" in text
    assert "overall: pass" in text


def test_tol_and_seed_recorded(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "models", "--backend", "float", "--tol", "1e-7",
                 "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tol"] == 1e-7
    assert report["seed"] == 3


def test_unknown_suite_is_usage_error():
    proc = run_cli(["verify", "nonsense"])
    assert proc.returncode == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_unwritable_output_is_error(tmp_path):
    code = main(["verify", "preliminaries", "--backend", "float",
                 "--out", str(tmp_path / "nodir" / "x.json")])
    assert code == 2


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(bk, seed):
        raise RuntimeError("broken suite")

    monkeypatch.setitem(suites._RUNNERS, "bianchi", broken)
    assert main(["verify", "bianchi", "--backend", "float"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "error: broken suite" in err


def test_stdout_report(tmp_path):
    proc = run_cli(["verify", "preliminaries", "--backend", "float"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert "PASS" in proc.stderr


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tol_is_usage_error(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "preliminaries", "--backend", "float", "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tol: must be a finite number greater than 0" in err
    assert "FAIL" not in err
