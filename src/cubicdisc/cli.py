"""Command line entry point: run a verification suite and emit a report.

Exit status: 0 when every check passes, 1 when some check fails, 2 on a
usage or I/O error, 3 on an internal error (an exception raised while a
suite runs).
"""

import argparse
import datetime
import json
import math
import sys

from . import __version__
from .suites import SUITES, run_suite


def _positive_tol(text):
    """argparse type for --tol: a finite number greater than zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(
            "must be a finite number greater than 0, got %r" % text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubicdisc",
        description="structural verification of the cubic discriminant library")
    sub = parser.add_subparsers(dest="command")
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--backend", choices=("exact", "float"), default="exact")
    v.add_argument("--tol", type=_positive_tol, default=1e-9,
                   help="residual tolerance for the float backend")
    v.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks")
    v.add_argument("--out", default=None, help="write the report to this file")
    v.add_argument("--format", choices=("json", "md"), default="json")
    return parser


def make_report(args, checks):
    return {
        "suite": args.suite,
        "backend": args.backend,
        "seed": args.seed,
        "tol": args.tol,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "checks": sorted((c.as_dict() for c in checks),
                         key=lambda c: c["name"]),
        "passed": all(c.passed for c in checks),
    }


def render_md(report):
    lines = ["# Verification report: %s" % report["suite"], ""]
    lines.append("backend: %s | tol: %g | seed: %d | version: %s"
                 % (report["backend"], report["tol"], report["seed"],
                    report["version"]))
    lines.append("")
    lines.append("| check | status | residual | info |")
    lines.append("|---|---|---|---|")
    for c in report["checks"]:
        lines.append("| %s | %s | %.3e | %s |"
                     % (c["name"], "pass" if c["passed"] else "FAIL",
                        c["residual"], c["info"]))
    lines.append("")
    lines.append("overall: %s" % ("pass" if report["passed"] else "FAIL"))
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "verify":
        parser.print_help()
        return 2
    try:
        checks = run_suite(args.suite, backend=args.backend, tol=args.tol,
                           seed=args.seed)
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    report = make_report(args, checks)
    text = (json.dumps(report, indent=2) + "\n" if args.format == "json"
            else render_md(report))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print("%s %s" % (status, c["name"]), file=sys.stderr)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
