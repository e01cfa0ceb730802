"""The benchmark workloads: how each builds its inputs, runs one operation
and checks the operation's output.

A workload's `setup(seed)` builds everything the operations need; `rounds`
lists the operations of one round, each a callable returning a result that
`check(result)` turns into a list of problems.  Every round attempts the same
operations, so the share of failed operations does not depend on run length.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

FLOAT_TOL = 1e-9


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(cmd, stderr):
    """Run a child process to its end; returns (exit code, peak RSS in KiB)."""
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Workload:
    """Defaults for a workload whose operations run in the benchmark process."""

    in_process = True

    def cleanup(self, result):
        pass


# -- verify-exact / verify-float -------------------------------------------


class VerifyWorkload(Workload):
    """One operation is `python -m cubicdisc.cli verify <suite>` in a fresh
    process, as a user runs it; a round is one operation.  The report is
    checked afterwards."""

    in_process = False

    def __init__(self, suite, backend):
        self.suite = suite
        self.backend = backend

    def setup(self, seed):
        import cubicdisc.cli  # noqa: F401  (the import a user's process pays)
        self.seed = seed
        self.tag = "%s-%d" % (self.backend, os.getpid())

    def rounds(self, trace):
        return [lambda i: self._op(i, trace)]

    def _op(self, i, trace):
        report = OUT / ("report-%s-%d.json" % (self.tag, i))
        log = OUT / ("stderr-%s-%d.txt" % (self.tag, i))
        args = ["verify", self.suite, "--backend", self.backend,
                "--seed", str(self.seed), "--out", str(report)]
        if trace:
            spans = OUT / ("spans-%s-%d.json" % (self.tag, i))
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans)] + args
        else:
            spans = None
            cmd = [sys.executable, "-m", "cubicdisc.cli"] + args
        with open(log, "w") as fh:
            status, rss_kib = run_child(cmd, stderr=fh)
        return {"status": status, "report": report,
                "log": log, "spans": spans, "rss_kib": rss_kib}

    def check(self, result):
        try:
            with open(result["report"]) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None
        from checks import check_report
        problems = check_report(report, result["status"], self.suite,
                                self.backend, FLOAT_TOL)
        if problems and result["status"] != 0:
            with open(result["log"]) as fh:
                problems.append(fh.read()[-500:])
        return problems

    def cleanup(self, result):
        for key in ("report", "log", "spans"):
            if result.get(key) is not None and result[key].exists():
                result[key].unlink()


# -- orbit-recognition -------------------------------------------------------


class OrbitRecognition(Workload):
    """Classify seeded points with both orbit predicates, exact backend.

    A round is two points.  One is on the orbit: the reference kappa(s_hat)
    transported along the Cayley transform of a random integer sp(2)
    element, which gives wide coefficients.  The other is off it: the
    reference plus kappa of a random integer quartic.
    """

    def setup(self, seed):
        from cubicdisc import hk, irrep, orbit
        from cubicdisc.scalars import EXACT as bk
        rng = random.Random(seed)
        K0 = hk.kappa(irrep.s_hat(bk))
        M = orbit.cayley_sp2(orbit.random_sp2(rng.randrange(2 ** 31), bk), bk)
        S = orbit.random_quartic(rng.randrange(2 ** 31), bk)
        self.points = [(True, orbit.transport_hk(K0, M)),
                       (False, hk.HKTensor(K0.Kmix + hk.kappa(S).Kmix, bk))]

    def rounds(self, trace):
        return [lambda i, p=p: self._op(p) for p in self.points]

    @staticmethod
    def _op(point):
        from cubicdisc import orbit
        on_orbit, K = point
        return {"point": point,
                "verdicts": {"is_cd_coordinates": orbit.is_cd_coordinates(K).verdict,
                             "is_cd_theorem": orbit.is_cd_theorem(K).verdict}}

    def check(self, result):
        from cubicdisc import hk
        from checks import check_orbit_point
        on_orbit, K = result["point"]
        T = [[x.to_complex() for x in row] for row in hk.t_k(K)]
        return check_orbit_point(on_orbit, T, result["verdicts"])

    def input_bits(self):
        return max(_coeff_bits(K.Kmix) for _, K in self.points)


def _coeff_bits(arr):
    return max(max(f.numerator.bit_length(), f.denominator.bit_length())
               for x in arr.flat for f in x.coeffs())


# -- torsion-decomposition --------------------------------------------------


class TorsionDecomposition(Workload):
    """Exact Casimir decompositions of V and sp(2), the paper's tables."""

    def setup(self, seed):
        import cubicdisc.irrep  # noqa: F401
        # The carriers are fixed; the seed does not change the work.

    def rounds(self, trace):
        return [lambda i: self._op()]

    @staticmethod
    def _op():
        from cubicdisc import irrep
        from cubicdisc.scalars import EXACT as bk
        out = {}
        for name, build, kmax, lmax in (
                ("V", irrep.module_v, 4, 2),
                ("sp2", irrep.module_sp2, 7, 1)):
            module = build(bk)
            out[name] = (irrep.casimir_decompose(module, kmax=kmax, lmax=lmax),
                         module.e_gens)
        return out

    def check(self, result):
        from checks import check_decomposition
        problems = []
        for name, (table, e_gens) in result.items():
            gens = [[[x.to_complex() for x in row] for row in E] for E in e_gens]
            problems += check_decomposition(name, table, gens)
        return problems


WORKLOADS = {
    "verify-float": lambda: VerifyWorkload("all", "float"),
    "orbit-recognition": OrbitRecognition,
    "torsion-decomposition": TorsionDecomposition,
}
