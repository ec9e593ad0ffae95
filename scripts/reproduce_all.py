#!/usr/bin/env python3
"""Run every desk-scale experiment with default configs.

Each experiment writes its CSV tables and resolved config under
<out>/<experiment>/.  --only names a comma-separated subset; an unknown
name exits 1 before any experiment runs.  Expect a few minutes total;
the radar and noise-curve sweeps dominate.
"""

import argparse
import sys
import time

from framecs.cli import main as cli_main
from framecs.scenarios import EXPERIMENTS


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument(
        "--only", default=None, help="comma-separated subset of experiments"
    )
    args = parser.parse_args(argv)
    names = args.only.split(",") if args.only else list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; choose from "
              + ", ".join(EXPERIMENTS), file=sys.stderr)
        return 1
    for name in names:
        t0 = time.monotonic()
        code = cli_main(["experiment", name, "--out", f"{args.out}/{name}"])
        print(f"{name}: exit {code} in {time.monotonic() - t0:.1f}s")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
