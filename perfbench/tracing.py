"""In-memory spans, recording operator proxies and self-time arithmetic.

A span is one timed interval at a layer boundary.  It has a name
``"<layer>.<what>"`` (the layer is a module of ``src/framecs``), a start
and an end from ``time.perf_counter``, the index of the span that was open
when it began (its parent, -1 for none) and a group id.  Every span inside
one top-level library call (one solve, one certify call) shares that
call's group id; spans outside any such call have group -1.

``NoTrace`` is the untraced stand-in: same interface, records nothing, and
hands operators back unwrapped, so the timed code path is identical in
both modes apart from the recording itself.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from framecs.frames import Dictionary
from framecs.sensing import SensingOperator

OPERATOR_SPANS = ("frames.apply", "frames.adjoint", "sensing.apply", "sensing.adjoint")


class NoTrace:
    """Untraced mode: spans are no-ops and operators stay unwrapped."""

    enabled = False

    def span(self, name: str, call: bool = False):
        return nullcontext()

    def dictionary(self, D: Dictionary) -> Dictionary:
        return D

    def sensing(self, A: SensingOperator) -> SensingOperator:
        return A


class Tracer:
    """Records spans in memory; ``save`` writes them out at the end."""

    enabled = True

    def __init__(self):
        # (name, start, end, parent, group); end is nan while a span is open
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: list[int] = []  # indices of top-level library calls
        self._parent = -1
        self._group = -1
        self._next_group = 0

    @contextmanager
    def span(self, name: str, call: bool = False):
        """Time the body.  ``call=True`` marks a top-level library call,
        which opens a new group shared by every span inside it."""
        idx = len(self.spans)
        outer_parent, outer_group = self._parent, self._group
        if call:
            self._group = self._next_group
            self._next_group += 1
            self.calls.append(idx)
        self.spans.append((name, time.perf_counter(), math.nan, outer_parent, self._group))
        self._parent = idx
        try:
            yield
        finally:
            name_, start, _, parent, group = self.spans[idx]
            self.spans[idx] = (name_, start, time.perf_counter(), parent, group)
            self._parent, self._group = outer_parent, outer_group

    def _recorded(self, name: str, fn):
        spans = self.spans
        clock = time.perf_counter

        def call(v):
            start = clock()
            out = fn(v)
            spans.append((name, start, clock(), self._parent, self._group))
            return out

        return call

    def dictionary(self, D: Dictionary) -> Dictionary:
        """A Dictionary that delegates to D and records every call."""
        out = Dictionary(
            D.n,
            D.d,
            self._recorded("frames.apply", D.apply),
            self._recorded("frames.adjoint", D.adjoint),
            D.kind,
            D.tight,
        )
        # dense() and frame_bounds() read these caches on the instance they
        # are given; carry them over so the proxy does exactly D's work.
        out._dense_cache = D._dense_cache
        out._bounds_cache = D._bounds_cache
        return out

    def sensing(self, A: SensingOperator) -> SensingOperator:
        """A SensingOperator that delegates to A and records every call."""
        out = SensingOperator(
            A.m,
            A.n,
            self._recorded("sensing.apply", A.apply),
            self._recorded("sensing.adjoint", A.adjoint),
            A.kind,
            A.seed,
            A.is_complex,
        )
        # Dense kinds carry their matrix from construction; without it the
        # proxy's dense() would rebuild it column by column.
        out._dense_cache = A._dense_cache
        out.rows, out.signs = A.rows, A.signs
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": np.array(names),
            "name": np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            "start": np.array([s[1] for s in self.spans]),
            "end": np.array([s[2] for s in self.spans]),
            "parent": np.array([s[3] for s in self.spans], dtype=np.int64),
            "group": np.array([s[4] for s in self.spans], dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are counted once)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    kids: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[int(p)].append(i)
    out = end - start
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = lo  # the merged run of child intervals so far
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in children):
            if b <= a:
                continue
            if a > run_hi:
                covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        covered += run_hi - run_lo
        out[p] -= covered
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer aggregates of one traced pass.

    Operator metrics count every recorded call.  Self times of top-level
    calls subtract the frames and sensing time recorded inside them.
    """
    spans = tracer.spans
    names = np.array([s[0] for s in spans], dtype=str)
    start = np.array([s[1] for s in spans])
    end = np.array([s[2] for s in spans])
    group = np.array([s[4] for s in spans], dtype=np.int64)
    dur = end - start
    own = self_times(start, end, [s[3] for s in spans])

    def total(mask) -> float:
        return float(dur[mask].sum())

    def p50_us(mask) -> float:
        return float(np.median(dur[mask]) * 1e6) if mask.any() else 0.0

    def prefix(p):
        return np.char.startswith(names, p)

    out: dict[str, float] = {}
    for op in OPERATOR_SPANS:
        out[f"{op}.calls"] = int((names == op).sum())
        out[f"{op}.us_p50"] = p50_us(names == op)
    for layer in ("frames", "sensing"):
        out[f"{layer}.busy_s"] = total((names == f"{layer}.apply") | (names == f"{layer}.adjoint"))
    out["frames.build_s"] = total(prefix("frames.build"))
    out["sensing.build_s"] = total(prefix("sensing.build") | (names == "sensing.measure"))
    out["sensing.measure_s"] = total(names == "sensing.measure")
    out["signals.build_s"] = total(prefix("signals.build"))
    out["signals.metrics_s"] = total(names == "signals.metrics")
    for fn in ("io.report_to_json", "io.signal_to_csv"):
        out[f"{fn}.us_p50"] = p50_us(names == fn)

    calls = np.zeros(len(spans), dtype=bool)
    calls[tracer.calls] = True
    solves = prefix("solvers.")
    out["library.self_s"] = float(own[calls].sum())
    out["solvers.self_s"] = float(own[solves].sum())
    out["solvers.solve_s"] = total(solves)
    steps = int(((names == "frames.adjoint") & np.isin(group, group[solves])).sum())
    out["solvers.self_us_per_step"] = out["solvers.self_s"] / steps * 1e6 if steps else 0.0
    # frame_bounds lives in frames.py but is a part of the certify workload.
    for part, span in (
        ("drip_mc", "certify.drip_monte_carlo"),
        ("drip_exact", "certify.drip_exact_small"),
        ("frame_bounds", "frames.frame_bounds"),
    ):
        out[f"certify.{part}.self_s"] = float(own[names == span].sum())
    return out
