"""CSV and JSON wire formats.

All tables are CSV with a single '#'-prefixed header line; reports are
JSON with a fixed field order.  Floats are written with repr (shortest
round-trip), so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json

import numpy as np

from .signals import Signal
from .solvers import RecoveryReport

__all__ = [
    "signal_to_csv",
    "signal_from_csv",
    "report_to_json",
    "table_to_csv",
]


def _fmt(x: float) -> str:
    return repr(float(x))


def signal_to_csv(sig: Signal) -> str:
    """One sample per line as "re,im"; header carries n and sample rate."""
    rate = "none" if sig.sample_rate is None else _fmt(sig.sample_rate)
    lines = [f"# n={sig.n} sample_rate={rate}"]
    for v in sig.samples:
        lines.append(f"{_fmt(v.real)},{_fmt(v.imag)}")
    return "\n".join(lines) + "\n"


def _sample(lineno: int, line: str) -> complex:
    """The sample of a data row "re,im"; a ValueError names the row."""
    parts = line.split(",")
    try:
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"line {lineno}: expected 're,im' (two floats), got {line.strip()!r}")


def signal_from_csv(text: str) -> Signal:
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("#"):
        raise ValueError("missing '# n=... sample_rate=...' header")
    header_no, header_line = lines[0]
    header = dict(
        part.split("=", 1) for part in header_line.lstrip("# ").split() if "=" in part
    )
    if "n" not in header:
        raise ValueError("signal header is missing the key 'n' ('# n=<len> ...')")
    try:
        n = int(header["n"])
        rate = None if header.get("sample_rate") in (None, "none") else float(
            header["sample_rate"]
        )
    except ValueError:
        raise ValueError(
            f"line {header_no}: expected '# n=<int> sample_rate=<float>|none', "
            f"got {header_line.strip()!r}"
        ) from None
    samples = [_sample(i, ln) for i, ln in lines[1:]]
    if len(samples) != n:
        raise ValueError(f"header says n={n} but found {len(samples)} samples")
    return Signal(np.asarray(samples), sample_rate=rate)


def report_to_json(report: RecoveryReport, relative_error: float | None = None) -> str:
    """Fixed-field-order JSON for a recovery report."""
    diag = report.diagnostics
    payload = {
        "method": report.method,
        "n": report.n,
        "d": report.d,
        "m": report.m,
        "eps": float(report.eps),
        "objective": float(report.objective),
        "feasibility": float(report.feasibility),
        "iterations": report.iterations,
        "converged": report.converged,
        "cone_slack": None if diag is None else float(diag.cone_slack),
        "tube_norm": None if diag is None else float(diag.tube_norm),
    }
    if relative_error is not None:
        payload["relative_error"] = float(relative_error)
    return json.dumps(payload, indent=2) + "\n"


def table_to_csv(header: str, rows: list[tuple]) -> str:
    """CSV with a single '#'-prefixed header naming the columns."""
    lines = [f"# {header}"]
    for row in rows:
        lines.append(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
        )
    return "\n".join(lines) + "\n"


def history_to_csv(report: RecoveryReport) -> str:
    """Per-iteration (objective, feasibility) trace of a solve."""
    if report.history is None:
        raise ValueError("report has no history; solve with history=True")
    return table_to_csv(
        "iteration,objective,feasibility",
        [(i + 1, obj, feas) for i, (obj, feas) in enumerate(report.history)],
    )

