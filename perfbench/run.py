"""Benchmark of the cubicdisc verifier.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository; cubicdisc is imported from `src/`.
One process drives the load, one operation at a time (a closed loop with a
single caller), and runs whole rounds of its workload's operations until
`--seconds` have passed.  Outputs are checked after the timed window.  The
last line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.
"""

import time

T0 = time.perf_counter()   # setup_s counts from here: before cubicdisc is imported

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import OUT, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3   # set-ups per run; setup_s is their median


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    return p.parse_args(argv)


def run_all(args):
    """Run every workload in its own process and print each one's result."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit("workload %s exited with %d" % (name, proc.returncode))
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        res = results[name]
        print("%-22s attempted %d failed %d correct %s" % (
            name, res["attempted"], res["failed"], res["correct"]))
        for metric, v in res["metrics"].items():
            print("    %-40s %.6g %s" % (metric, v["value"], v["unit"]))
    print(json.dumps(results))
    return 0


def setup_sample(args):
    """Set-up time of a fresh interpreter running this script's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    return float(proc.stdout.split()[-1])


def scalar_rates(seed):
    """Micro-rates of ExactScalar arithmetic, in operations per second.

    `small` operands have one-digit coefficients; `wide` ones have 52-bit
    numerators and denominators, the size Cayley transport produces.
    """
    from cubicdisc.scalars import ExactScalar
    rng = random.Random(seed)

    def wide():
        return ExactScalar(*(Fraction(rng.getrandbits(52) | 1 << 51,
                                      rng.getrandbits(52) | 1 << 51)
                             * rng.choice((1, -1)) for _ in range(4)))

    small = (ExactScalar(1, 2, "3/4", -1), ExactScalar(-2, 1, "1/2", 3))
    big = (wide(), wide())

    def rate(fn, x, y, n):
        runs = []
        for _ in range(5):
            t = time.perf_counter()
            for _ in range(n):
                fn(x, y)
            runs.append(n / (time.perf_counter() - t))
        return statistics.median(runs)

    return {
        "scalars.mul_per_s.small": rate(ExactScalar.__mul__, *small, 4000),
        "scalars.mul_per_s.wide": rate(ExactScalar.__mul__, *big, 2000),
        "scalars.add_per_s.wide": rate(ExactScalar.__add__, *big, 4000),
        "scalars.inv_per_s.wide": rate(lambda x, _y: x.inv(), *big, 400),
    }


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_times = [time.perf_counter() - T0]
    if args.setup_only:
        print(setup_times[0])
        return 0

    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        rates = scalar_rates(args.seed)
        if workload.in_process:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
    else:
        setup_times += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

    ops = workload.rounds(args.trace)
    times, results = [], []
    start = time.perf_counter()
    while True:
        for op in ops:
            i = len(times)
            if tracer is not None:
                tracer.op = i
            t = time.perf_counter()
            try:
                results.append((op(i), None))
            except Exception:
                results.append((None, traceback.format_exc()))
            times.append(time.perf_counter() - t)
        if time.perf_counter() - start >= args.seconds:
            break
    window = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    if workload.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = max((r["rss_kib"] for r, err in results if err is None),
                       default=0)

    failed = wrong = 0
    for i, (result, err) in enumerate(results):
        problems = [err] if err else workload.check(result)
        if problems:
            failed += 1
            wrong += err is None
            print("operation %d failed: %s" % (i, "; ".join(problems)),
                  file=sys.stderr)

    if args.trace:
        from tracer import PER_LAYER, layer_metrics
        if tracer is not None:
            dumps = [tracer.dump()]
        else:
            dumps = []
            for result, err in results:
                if err is None:
                    with open(result["spans"]) as fh:
                        dumps.append(json.load(fh))
        values = layer_metrics(dumps, len(times), rates)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in PER_LAYER}
        summary = {"workload": args.workload, "seed": args.seed,
                   "op_s": times, "metrics": values}
        if hasattr(workload, "input_bits"):
            summary["input_max_coeff_bits"] = workload.input_bits()
        with open(OUT / ("trace-%s-%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump(dict(summary, dumps=dumps), fh)
        print("traced op times: %s" % times, file=sys.stderr)
    else:
        # The operations of a round may differ in cost (a point on and one
        # off the orbit), so each round's mean goes into the median.
        n = len(ops)
        round_means = [statistics.fmean(times[k:k + n])
                       for k in range(0, len(times), n)]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_p50_s": {"value": statistics.median(round_means), "unit": "s"},
            "ops_per_s": {"value": (len(times) - failed) / window, "unit": "1/s"},
            "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    for result, err in results:
        if err is None:
            workload.cleanup(result)

    print(json.dumps({"correct": wrong == 0, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
