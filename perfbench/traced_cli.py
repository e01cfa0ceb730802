"""Run `cubicdisc verify ...` with the benchmark's tracer installed.

Usage: python3 traced_cli.py <spans.json> verify <suite> [options]

The spans and counters are written to <spans.json> when the command ends;
the exit status is the command's own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    import cubicdisc.cli
    try:
        return cubicdisc.cli.main(argv)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
