"""Alternating parent/change pairs of the framecs benchmark.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload certify --pairs 10 --seed 1
    python3 scripts/bench_pairs.py PARENT CHANGE --workload radar,noise,certify,fullsize --pairs 10

PARENT and CHANGE are two checkouts of the repository.  ``--workload``
takes one workload or a comma-separated list, run one after the other.
Pair k of a workload W runs ``python3 perfbench/run.py --workload W
--seed S`` once in each, the parent first when k is odd and the change
first when k is even, so neither side always runs on a warmer machine.
Each run's last stdout line is its JSON result.  The script then prints
one Markdown table with a row per workload and end-to-end metric: each
side's median and quartiles, and in how many pairs the change read
lower.  For each workload and end-to-end metric of CHANGE's
``BENCHMARK.json`` whose change median is worse than the parent median
by more than the metric's ``bound`` (a fraction of the parent median),
it prints one ``over bound:`` line on stderr.  It exits 1 when any run
exits nonzero, prints no result, is not ``correct`` or reports a failed
operation.

Standard library only; nothing is written outside the two checkouts'
own ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HEADER = (
    "| workload (pairs) | metric | parent median (q1-q3) "
    "| change median (q1-q3) | change lower |\n|---|---|---|---|---|"
)


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict | None, str]:
    """One benchmark run in ``checkout``: its JSON result (None if it gave
    none) and what went wrong ('' if nothing did)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        return result, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    if not result.get("correct") or result.get("failed", 0):
        return result, f"correct={result.get('correct')} failed={result.get('failed')}"
    return result, ""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _fmt(values: list[float], unit: str) -> str:
    q1, med, q3 = _quartiles(values)
    scale, shown = 1.0, unit
    if unit == "s" and med < 0.1:
        scale, shown = 1e3, "ms"
    suffix = f" {shown}" if shown in ("s", "ms") else ""
    return f"{med * scale:.2f}{suffix} ({q1 * scale:.2f}-{q3 * scale:.2f})"


def rows(workload: str, pairs: list[tuple[dict, dict]]) -> list[str]:
    """Markdown rows, one per metric of the results, for (parent, change)
    result pairs; 'change lower' counts the pairs where the change's value
    is strictly below the parent's."""
    out = []
    for name, meta in pairs[0][0]["metrics"].items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        out.append(
            f"| {workload} ({len(pairs)}) | `{name}` | {_fmt(parent, meta['unit'])} "
            f"| {_fmt(change, meta['unit'])} | {lower}/{len(pairs)} |"
        )
    return out


def bounds(checkout: Path) -> dict[str, dict]:
    """The end-to-end metrics of the checkout's BENCHMARK.json by name
    (none if it has no such file)."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def over_bound(
    workload: str, pairs: list[tuple[dict, dict]], limits: dict[str, dict]
) -> list[str]:
    """One line per metric in ``limits`` whose change median is worse than
    the parent median by more than its bound times the parent median."""
    out = []
    for name, limit in limits.items():
        if name not in pairs[0][0]["metrics"]:
            continue
        parent = statistics.median(p["metrics"][name]["value"] for p, _ in pairs)
        change = statistics.median(c["metrics"][name]["value"] for _, c in pairs)
        worse = change - parent if limit["better"] == "lower" else parent - change
        if worse > limit["bound"] * abs(parent):
            out.append(
                f"over bound: {workload} `{name}` change median {change:.4g} is worse "
                f"than parent median {parent:.4g} by more than {limit['bound']:.0%}"
            )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True,
                    help="a workload, or several separated by commas")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    limits = bounds(args.change)
    body, bad = [], 0
    for workload in args.workload.split(","):
        pairs = []
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            got = {}
            for side in order:
                result, problem = run_once(getattr(args, side), workload, args.seed)
                if problem:
                    bad += 1
                    sys.stderr.write(f"{workload} pair {k} {side}: {problem}\n")
                else:
                    got[side] = result
                    wall = result["metrics"].get("wall_s", {}).get("value", float("nan"))
                    sys.stderr.write(f"{workload} pair {k} {side}: wall_s {wall:.4g}\n")
            if len(got) == 2:
                pairs.append((got["parent"], got["change"]))
        if pairs:
            body += rows(workload, pairs)
            for line in over_bound(workload, pairs, limits):
                sys.stderr.write(line + "\n")
    if body:
        print("\n".join([HEADER, *body]))
    if bad:
        sys.stderr.write(f"error: {bad} run(s) failed or were not correct\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
