"""Independent checks of the benchmark's outputs.

Every check returns a list of problems; an empty list means the output is
correct.  The expected values are facts of the paper, never a stored copy of
an earlier run, and spectra are recomputed in complex128 with numpy rather
than read from the library's exact eliminations.
"""

import numpy as np

# The spectrum of T_K on the orbit: 7/2 with multiplicity 3, -3/2 with 7.
ON_ORBIT_SPECTRUM = ((3.5, 3), (-1.5, 7))

# The paper's Casimir multiplicity tables {(k, l): multiplicity} of
# S^k E (x) S^l H for V and sp(2).
EXPECTED_TABLES = {
    "V": {(3, 1): 1},
    "sp2": {(2, 0): 1, (6, 0): 1},
}

# Dimension facts that `verify` reports in a check's info field.
FACTS = {
    "stabilizer": "dim=3 joint_rank=3",
    "orbit_dimension": "dim=7",
    "operator_spectrum": "mult(7/2)=3 mult(-3/2)=7",
    "stage_two_line": "dim=1",
    "module_v_decomposition": "[((3, 1), 1)]",
}

# Checks whose info must be present in a `verify all` report.
REQUIRED = ("module_v_decomposition", "stabilizer", "orbit_dimension",
            "operator_spectrum", "stage_two_line", "scalar_curvature_report")


def eigen_counts(M, values, tol=1e-6):
    """How many eigenvalues of M (complex128) lie within tol*scale of each value."""
    ev = np.linalg.eigvals(np.asarray(M, dtype=np.complex128))
    scale = max(1.0, float(np.abs(ev).max()))
    return [int(np.sum(np.abs(ev - v) <= tol * scale)) for v in values]


def has_on_orbit_spectrum(T):
    values = [v for v, _ in ON_ORBIT_SPECTRUM]
    return eigen_counts(T, values) == [m for _, m in ON_ORBIT_SPECTRUM]


def check_orbit_point(on_orbit, T, verdicts):
    """`T` is T_K of the point in complex128, `verdicts` the predicates' answers."""
    problems = []
    if has_on_orbit_spectrum(T) != on_orbit:
        problems.append("spectrum of T_K disagrees with the point's kind "
                        "(on_orbit=%s)" % on_orbit)
    for name, verdict in verdicts.items():
        if verdict != on_orbit:
            problems.append("%s answered %s on a point with on_orbit=%s"
                            % (name, verdict, on_orbit))
    return problems


def check_decomposition(name, table, e_gens):
    """Compare a multiplicity table with the expected one, and the eigenvalue
    multiplicities of CE = sum_s E_s^2 (complex128) with what it implies."""
    expected = EXPECTED_TABLES[name]
    problems = []
    if table != expected:
        problems.append("%s: table %s, expected %s"
                        % (name, sorted(table.items()), sorted(expected.items())))
    gens = [np.asarray(E, dtype=np.complex128) for E in e_gens]
    CE = sum(E @ E for E in gens)
    by_value = {}
    for (k, l), m in expected.items():
        value = -k * (k + 2) / 4.0
        by_value[value] = by_value.get(value, 0) + m * (k + 1) * (l + 1)
    values = sorted(by_value)
    counts = eigen_counts(CE, values)
    want = [by_value[v] for v in values]
    if counts != want or sum(want) != CE.shape[0]:
        problems.append("%s: CE eigenvalue multiplicities %s at %s, expected %s"
                        % (name, counts, values, want))
    return problems


def _info_pairs(info):
    out = {}
    for part in info.split(";"):
        key, _, value = part.strip().partition("=")
        out[key] = complex(value)
    return out


def check_report(report, status, suite, backend, tol):
    """Check one `cubicdisc verify` report and its exit status."""
    problems = []
    if status != 0:
        problems.append("exit status %d" % status)
    if report is None:
        return problems + ["no report written"]
    if report.get("backend") != backend or report.get("suite") != suite:
        problems.append("report is for %s/%s" % (report.get("suite"),
                                                  report.get("backend")))
    if not report.get("passed"):
        problems.append("report says not passed")
    checks = {c["name"]: c for c in report.get("checks", [])}
    for c in checks.values():
        if not c["passed"]:
            problems.append("check %s failed" % c["name"])
        limit = 0.0 if backend == "exact" else tol
        if not c["residual"] <= limit:
            problems.append("check %s residual %r above %r"
                            % (c["name"], c["residual"], limit))
    for name in REQUIRED:
        if name not in checks:
            problems.append("check %s missing" % name)
        elif name in FACTS and checks[name]["info"] != FACTS[name]:
            problems.append("check %s info %r, expected %r"
                            % (name, checks[name]["info"], FACTS[name]))
    if "scalar_curvature_report" in checks:
        vals = _info_pairs(checks["scalar_curvature_report"]["info"])
        trace, r0 = vals.get("trace"), vals.get("from_r0_route")
        limit = 0.0 if backend == "exact" else tol * max(1.0, abs(trace or 0))
        if trace is None or r0 is None or not abs(trace - r0) <= limit:
            problems.append("scalar curvature trace %s differs from the R0 "
                            "route %s" % (trace, r0))
    return problems
