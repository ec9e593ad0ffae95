"""The four benchmark workloads, built on framecs' public API.

Each workload builds its inputs from the seed (``setup``), runs one fixed
batch of top-level library calls in a closed loop (``run``: each call
starts when the previous one ends) and checks the batch's outputs
(``check``).  ``tr`` is a ``tracing.Tracer`` or ``tracing.NoTrace``; the
code path is the same either way.

The default seed 1 is the acceptance fixtures' seed, and the per-trial
seeds are derived exactly as the fixtures derive them, so ``radar`` at
seed 1 reproduces ``radar_batch`` trial 0.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from framecs.certify import drip_exact_small, drip_monte_carlo
from framecs.frames import (
    build_concat,
    build_gabor,
    build_identity,
    build_oversampled_dft,
    frame_bounds,
)
from framecs.io import report_to_json, signal_to_csv
from framecs.rng import split_seed
from framecs.sensing import gaussian_sensing, measure
from framecs.signals import PulseParams, metrics, radar_pulse_train
from framecs.solvers import SolverConfig, l1_analysis, reweighted_l1_analysis

# The acceptance batches' solver settings.
CFG = SolverConfig(max_iter=6000, tol_rel=1e-5, over_relaxation=1.8, step_ratio=0.25)
# Slack allowed when comparing a sampled lower bound with the exact value.
ROUNDOFF = 1e-12


@dataclass
class Op:
    """One top-level library call: its time, outputs and check findings."""

    label: str
    kind: str  # "plain" | "reweighted" | "drip_mc" | "drip_exact" | "frame_bounds"
    seconds: float
    # Outputs that a rerun of the same seed must reproduce bit for bit.
    key: tuple = ()
    info: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    # (report, problem) for the output checks; dropped once checked
    out: tuple | None = None


def _call(tr, ops: list[Op], label: str, kind: str, span: str, fn, *args, **kw):
    """Run one top-level library call inside its span; a raise is recorded
    as a failed operation and returns None."""
    with tr.span(span, call=True):
        start = time.perf_counter()
        try:
            out = fn(*args, **kw)
        except Exception as exc:  # a failed operation, counted, not fatal
            out = None
            problem = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    op = Op(label=label, kind=kind, seconds=seconds)
    if out is None:
        op.problems.append(problem)
    ops.append(op)
    return op, out


# ---------------------------------------------------------------------------
# solves (radar, noise, fullsize)


@dataclass
class Problem:
    """One recovery instance.  ``A`` is what the solver sees (a recording
    proxy in the traced pass); ``A_raw`` is used by the output checks so
    that checking records nothing."""

    label: str
    f: object  # framecs.signals.Signal
    A: object
    A_raw: object
    y: np.ndarray
    eps: float


def _build_problem(tr, n, m, pulses, a_seed):
    with tr.span("signals.build_radar_pulse_train"):
        f = radar_pulse_train(n, pulses)
    with tr.span("sensing.build_gaussian"):
        A_raw = gaussian_sensing(m, n, seed=a_seed)
    A = tr.sensing(A_raw)
    return f, A, A_raw


def _solve(tr, ops, prob: Problem, D, kind, cfg, audit_s):
    if kind == "plain":
        op, rep = _call(
            tr, ops, f"{prob.label}/plain", kind, "solvers.l1_analysis",
            l1_analysis, prob.A, D, prob.y, prob.eps, cfg=cfg,
            reference=prob.f, audit_s=audit_s,
        )
    else:
        op, rep = _call(
            tr, ops, f"{prob.label}/reweighted", kind,
            "solvers.reweighted_l1_analysis", reweighted_l1_analysis,
            prob.A, D, prob.y, prob.eps, rw_iters=3, cfg=cfg,
            reference=prob.f, audit_s=audit_s,
        )
    if rep is None:
        return
    # Post-processing as `framecs recover` does it: error metrics, then the
    # report and the recovered signal serialized.
    with tr.span("signals.metrics"):
        m = metrics(rep.f_hat, prob.f)
    with tr.span("io.report_to_json"):
        report_to_json(rep, relative_error=m["relative_error"])
    with tr.span("io.signal_to_csv"):
        signal_to_csv(rep.f_hat)
    op.key = (m["relative_error"], rep.iterations, rep.converged, rep.objective)
    op.info = {
        "iterations": rep.iterations,
        "converged": rep.converged,
        "relative_error": m["relative_error"],
        "rmse": m["rmse"],
    }
    op.out = (rep, prob)


def check_solve(op: Op, D_raw, cfg: SolverConfig) -> None:
    """Acceptance criteria on one solve's output.

    Every solve: finite output.  Converged solves: feasibility
    ||A fhat - y|| <= eps + tol_feas, and criterion 5's cone, tube and
    tail margins from the report's lemma audit.
    """
    if op.problems:
        return
    rep, prob = op.out
    fh = rep.f_hat.samples
    if not np.all(np.isfinite(fh)) or not math.isfinite(op.info["relative_error"]):
        op.problems.append("non-finite output")
        return
    y_norm = float(np.linalg.norm(prob.y))
    tol_feas = cfg.tol_feas if cfg.tol_feas is not None else 1e-6 * y_norm
    resid = float(np.linalg.norm(prob.A_raw.apply(fh) - prob.y))
    op.info["feas_excess"] = max(resid - prob.eps, 0.0) / y_norm
    if not rep.converged:
        return
    if resid > prob.eps + tol_feas:
        op.problems.append(f"infeasible: ||A fhat - y|| = {resid:.3e} > eps + tol")
    diag = rep.diagnostics
    cf_l1 = float(np.sum(np.abs(D_raw.adjoint(prob.f.samples))))
    if diag.cone_slack > cfg.tol_rel * cf_l1:
        op.problems.append(f"cone margin {diag.cone_slack:.3e}")
    if diag.tube_norm > 2.0 * prob.eps + 2.0 * tol_feas:
        op.problems.append(f"tube margin {diag.tube_norm:.3e}")
    if diag.tail_lhs - diag.tail_rhs > 1e-12:
        op.problems.append(f"tail margin {diag.tail_lhs - diag.tail_rhs:.3e}")


def operand_bytes(n: int, m: int | None, a: int, b: float, prefix: str = "") -> dict:
    """Operand sizes computed from the public dimensions, not measured.

    A is m x n float64, a coefficient vector d complex128 and a signal n
    complex128.  The Gabor fast path keeps two window tables of
    ceil(n/q)*q x ceil(n/a) float64 each, q = 1/b (from build_gabor).
    """
    q, n_time = round(1 / b), math.ceil(n / a)
    out = {
        f"{prefix}coef_bytes": 16 * n_time * q,
        f"{prefix}signal_bytes": 16 * n,
        f"{prefix}gabor_tables_bytes": 2 * math.ceil(n / q) * q * n_time * 8,
    }
    if m:
        out[f"{prefix}A_bytes"] = m * n * 8
    return out


class SolveWorkload:
    """Runs ``kinds`` (plain and/or reweighted) on every problem in turn."""

    kinds: tuple = ("plain", "reweighted")

    def operands(self) -> dict:
        z = self.size
        return operand_bytes(z.n, z.m, z.a, z.b)

    def run(self, inputs, tr) -> list[Op]:
        ops: list[Op] = []
        for prob in inputs["probs"]:
            for kind in self.kinds:
                _solve(tr, ops, prob, inputs["D"], kind, self.size.cfg, self.size.audit_s)
        return ops

    def check(self, inputs, ops: list[Op]) -> None:
        for op in ops:
            check_solve(op, inputs["D_raw"], self.size.cfg)

    def metrics(self, ops: list[Op], first: list[Op]) -> dict:
        """Per-solve latency over every solve run; recovery quality over
        the first batch, so it covers the same solves however many
        batches ran."""
        secs = [o.seconds for o in ops]
        done = [o for o in first if "relative_error" in o.info]
        errs = [o.info["relative_error"] for o in done] or [math.nan]
        return {
            "solve_s.p50": (statistics.median(secs), "s", "lower", len(secs)),
            "converged_frac": (
                sum(o.info["converged"] for o in done) / max(len(first), 1),
                "ratio", "higher", len(first),
            ),
            "rel_error.p50": (statistics.median(errs), "ratio", "lower", len(errs)),
            "rel_error.max": (max(errs), "ratio", "lower", len(errs)),
        }


# ---------------------------------------------------------------------------
# radar: acceptance radar_batch / `framecs experiment radar`


@dataclass(frozen=True)
class RadarSize:
    n: int = 1024
    m: int = 120
    window_sigma: float = 16.0
    a: int = 8
    b: float = 1 / 64
    pulses: PulseParams = PulseParams(
        num_pulses=3, duration=128, rise_fall=32, f_lo=0.05, f_hi=0.45
    )
    audit_s: int | None = 40  # None: the solver's default, m // 4
    trials: int = 1
    cfg: SolverConfig = CFG


class Radar(SolveWorkload):
    name = "radar"

    def __init__(self, smoke: bool = False):
        self.size = RadarSize()
        if smoke:
            self.size = replace(
                self.size, n=128, m=48, window_sigma=4.0, a=4, b=1 / 16,
                pulses=replace(self.size.pulses, duration=32, rise_fall=8),
                audit_s=8, cfg=replace(CFG, max_iter=200),
            )

    def setup(self, seed: int, tr):
        z = self.size
        with tr.span("frames.build_gabor"):
            D_raw = build_gabor(z.n, z.window_sigma, z.a, z.b)
        probs = []
        for t in range(z.trials):
            pulses = replace(z.pulses, seed=split_seed(seed, t))
            f, A, A_raw = _build_problem(tr, z.n, z.m, pulses, split_seed(seed, 10_000 + t))
            with tr.span("sensing.measure"):
                y, _ = measure(A, f.samples, 0.0, seed=0)
            probs.append(Problem(f"t{t}", f, A, A_raw, y, 0.0))
        return {"D": tr.dictionary(D_raw), "D_raw": D_raw, "probs": probs}

    def check(self, inputs, ops: list[Op]) -> None:
        super().check(inputs, ops)
        # Criterion 4 on this batch: reweighting does not hurt the median.
        rmse = {
            kind: [o.info["rmse"] for o in ops if o.kind == kind and "rmse" in o.info]
            for kind in ("plain", "reweighted")
        }
        if rmse["plain"] and rmse["reweighted"]:
            if statistics.median(rmse["reweighted"]) > statistics.median(rmse["plain"]):
                for o in ops:
                    if o.kind == "reweighted":
                        o.problems.append("median reweighted RMSE above plain")


# ---------------------------------------------------------------------------
# noise: acceptance noise_batch / `framecs experiment noise-curve`


@dataclass(frozen=True)
class NoiseSize:
    n: int = 256
    m: int = 100
    window_sigma: float = 8.0
    a: int = 8
    b: float = 1 / 32
    pulses: PulseParams = PulseParams(
        num_pulses=1, duration=96, rise_fall=24, f_lo=0.05, f_hi=0.45
    )
    levels: tuple = (0.02, 0.05, 0.1, 0.15, 0.25)
    audit_s: int = 25
    # (trial, level index) cells of the fixture's 5 x 5 grid: its diagonal,
    # so each level is solved on a different signal and sensing matrix.
    cells: tuple = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4))
    # The fixture draws noise seeds as 20_000 + level * fixture_trials + t.
    fixture_trials: int = 5
    cfg: SolverConfig = CFG


class Noise(SolveWorkload):
    name = "noise"

    def __init__(self, smoke: bool = False):
        self.size = NoiseSize()
        if smoke:
            self.size = replace(
                self.size, n=64, m=40, window_sigma=4.0, a=4, b=1 / 8,
                pulses=replace(self.size.pulses, duration=24, rise_fall=6),
                levels=(0.05, 0.2), cells=((0, 0), (1, 1)), audit_s=6,
                cfg=replace(CFG, max_iter=1000),
            )

    def setup(self, seed: int, tr):
        z = self.size
        with tr.span("frames.build_gabor"):
            D_raw = build_gabor(z.n, z.window_sigma, z.a, z.b)
        probs = []
        for t, li in z.cells:
            pulses = replace(z.pulses, seed=split_seed(seed, t))
            f, A, A_raw = _build_problem(tr, z.n, z.m, pulses, split_seed(seed, 10_000 + t))
            nu = z.levels[li]
            with tr.span("sensing.measure"):
                sigma = nu * float(np.linalg.norm(A.apply(f.samples))) / math.sqrt(z.m)
                noise_seed = split_seed(seed, 20_000 + li * z.fixture_trials + t)
                y, znorm = measure(A, f.samples, sigma, seed=noise_seed)
            probs.append(Problem(f"t{t}/nu={nu:g}", f, A, A_raw, y, znorm))
        return {"D": tr.dictionary(D_raw), "D_raw": D_raw, "probs": probs}


# ---------------------------------------------------------------------------
# certify: D-RIP Monte Carlo, exact enumeration and frame bounds


@dataclass(frozen=True)
class CertifySize:
    # (1) the README's `framecs certify drip-mc --dict gabor --n 64 --m 32 --s 4`
    gabor: tuple = (64, 8.0, 8, 1 / 32)
    gabor_m: int = 32
    gabor_s: int = 4
    mc_trials: int = 10_000
    # (2) identity + DFT concatenation, n = 16, d = 32
    concat_n: int = 16
    concat_m: int = 12
    s_values: tuple = (1, 2, 3, 4)
    # (3) frame bounds of the radar workload's Gabor frame
    bounds_gabor: tuple = (1024, 16.0, 8, 1 / 64)


class Certify:
    name = "certify"

    def __init__(self, smoke: bool = False):
        self.size = CertifySize()
        if smoke:
            self.size = replace(
                self.size, mc_trials=200, concat_n=8, concat_m=6, s_values=(1, 2, 3),
                bounds_gabor=(64, 8.0, 8, 1 / 32),
            )

    def operands(self) -> dict:
        z = self.size
        n, _, a, b = z.gabor
        out = operand_bytes(n, z.gabor_m, a, b, "mc_")
        n, _, a, b = z.bounds_gabor
        out.update(operand_bytes(n, None, a, b, "bounds_"))
        # frame_bounds materializes D (n x d complex128) for its eigensolve
        out["bounds_dense_D_bytes"] = 16 * n * math.ceil(n / a) * round(1 / b)
        return out

    def setup(self, seed: int, tr):
        z = self.size
        with tr.span("frames.build_gabor"):
            Dg = build_gabor(*z.gabor)
        with tr.span("sensing.build_gaussian"):
            Ag = gaussian_sensing(z.gabor_m, z.gabor[0], seed=seed)
        with tr.span("frames.build_concat"):
            Dc = build_concat(
                build_identity(z.concat_n), build_oversampled_dft(z.concat_n, 1),
                1 / math.sqrt(2),
            )
        with tr.span("sensing.build_gaussian"):
            Ac = gaussian_sensing(z.concat_m, z.concat_n, seed=split_seed(seed, 1))
        with tr.span("frames.build_gabor"):
            Db = build_gabor(*z.bounds_gabor)
        ops = {
            "Dg": tr.dictionary(Dg), "Ag": tr.sensing(Ag), "Dc": tr.dictionary(Dc),
            "Ac": tr.sensing(Ac), "Db": tr.dictionary(Db),
        }
        return {"ops": ops, "seed": seed}

    def run(self, inputs, tr) -> list[Op]:
        z, o, seed = self.size, inputs["ops"], inputs["seed"]
        ops: list[Op] = []

        def drip(label, kind, span, fn, *args, **kw):
            op, est = _call(tr, ops, label, kind, span, fn, *args, **kw)
            if est is not None:
                op.key = (est.delta_hat, est.trials)
                op.info = {"s": est.s, "delta_hat": est.delta_hat, "count": est.trials}

        drip(f"gabor/mc/s={z.gabor_s}", "drip_mc", "certify.drip_monte_carlo",
             drip_monte_carlo, o["Ag"], o["Dg"], z.gabor_s, z.mc_trials, seed)
        for s in z.s_values:
            drip(f"concat/mc/s={s}", "drip_mc", "certify.drip_monte_carlo",
                 drip_monte_carlo, o["Ac"], o["Dc"], s, z.mc_trials, split_seed(seed, 2))
            drip(f"concat/exact/s={s}", "drip_exact", "certify.drip_exact_small",
                 drip_exact_small, o["Ac"], o["Dc"], s)
        op, bounds = _call(tr, ops, "radar-gabor/frame_bounds", "frame_bounds",
                           "frames.frame_bounds", frame_bounds, o["Db"])
        if bounds is not None:
            op.key = tuple(bounds)
            op.info = {"A": bounds[0], "B": bounds[1]}
        return ops

    def check(self, inputs, ops: list[Op]) -> None:
        """Monte Carlo <= exact at each s; exact delta non-decreasing in s;
        0 < A <= B; everything finite."""
        for op in ops:
            if op.problems:
                continue
            if not all(math.isfinite(v) for v in op.key):
                op.problems.append("non-finite output")
        exact = {o.info["s"]: o for o in ops if o.kind == "drip_exact" and not o.problems}
        for op in ops:
            if op.kind == "drip_mc" and op.label.startswith("concat") and not op.problems:
                ex = exact.get(op.info["s"])
                if ex and op.info["delta_hat"] > ex.info["delta_hat"] + ROUNDOFF:
                    op.problems.append("Monte Carlo estimate exceeds the exact delta")
        prev = -math.inf
        for s in sorted(exact):
            if exact[s].info["delta_hat"] < prev - ROUNDOFF:
                exact[s].problems.append("exact delta decreased with s")
            prev = exact[s].info["delta_hat"]
        for op in ops:
            if op.kind == "frame_bounds" and not op.problems:
                A, B = op.key
                if not 0.0 < A <= B:
                    op.problems.append(f"frame bounds out of order: ({A}, {B})")

    def metrics(self, ops, first) -> dict:
        def rate(kind):
            done = [o for o in ops if o.kind == kind and "count" in o.info]
            secs = sum(o.seconds for o in done)
            return sum(o.info["count"] for o in done) / secs if secs else math.nan, len(done)

        mc, n_mc = rate("drip_mc")
        ex, n_ex = rate("drip_exact")
        fb = [o.seconds for o in ops if o.kind == "frame_bounds"]
        return {
            "drip_mc.trials_per_s": (mc, "1/s", "higher", n_mc),
            "drip_exact.supports_per_s": (ex, "1/s", "higher", n_ex),
            "frame_bounds_s": (statistics.median(fb) if fb else math.nan, "s", "lower", len(fb)),
        }


# ---------------------------------------------------------------------------
# fullsize: the paper's n = 8192, m = 400 on the radar lattice


class Fullsize(Radar):
    """Radar's trial 0 at the paper's size, plain solve only.  The cap is
    fixed: the solve never reaches its tolerance at this size, so it
    measures a fixed number of iterations."""

    name = "fullsize"
    kinds = ("plain",)

    def __init__(self, smoke: bool = False):
        self.size = RadarSize(
            n=8192, m=400, pulses=PulseParams(), audit_s=None,
            cfg=replace(CFG, max_iter=200),
        )
        if smoke:
            self.size = replace(
                self.size, n=512, m=60, pulses=PulseParams(duration=200, rise_fall=20),
                cfg=replace(CFG, max_iter=20),
            )

    def metrics(self, ops, first) -> dict:
        out = super().metrics(ops, first)
        del out["converged_frac"], out["rel_error.max"]
        return out


WORKLOADS = {w.name: w for w in (Radar, Noise, Certify, Fullsize)}
