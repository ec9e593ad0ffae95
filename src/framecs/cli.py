"""Command-line front end.

Three subcommands:

  recover     one recovery run: build dictionary/sensing/signal, measure,
              solve, write report.json + recovered.csv
  experiment  desk-scale reproductions emitting CSV tables
  certify     coherence / D-RIP / concentration / constants queries

Every command is a pure function of (flags, config file, seed): repeated
runs produce byte-identical output.  Exit codes: 0 success, 1 usage or
data error, 2 numerical non-convergence or enumeration cap.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import io as fio
from .certify import (
    ENUMERATION_CAP,
    concentration_check,
    drip_exact_small,
    drip_monte_carlo,
    theorem_constants_from_delta,
)
from .frames import (
    Dictionary,
    build_concat,
    build_gabor,
    build_identity,
    build_oversampled_dft,
    coherence,
)
from .rng import split_seed
from .sensing import (
    SensingOperator,
    from_descriptor,
    gaussian_sensing,
    measure,
    noise_bound,
)
from .signals import (
    PulseParams,
    Signal,
    compressible_signal,
    dirac_comb,
    metrics,
    radar_pulse_train,
)
from .solvers import (
    SolverConfig,
    l1_analysis,
    l1_synthesis,
    reweighted_l1_analysis,
    split_analysis,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

EXPERIMENTS = (
    "radar",
    "dirac-comb",
    "noise-curve",
    "constants",
    "coefficient-decay",
    "method-comparison",
)


class CliError(Exception):
    """Usage or data error -> exit 1."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; file values are overridden by flags."""

    experiment: str = "noise-curve"
    n: int = 256
    m: int = 100
    oversampling: int = 4
    s: int = 25
    sigmas: tuple[float, ...] = (0.02, 0.05, 0.1, 0.15, 0.25)
    trials: int = 5
    rw_iters: int = 3
    seed: int = 1
    output_dir: str = ""
    dict_kind: str = "gabor"
    signal: str = "radar"
    gabor_sigma: float = 8.0
    gabor_a: int = 8
    gabor_b: float = 1.0 / 32.0
    pulses: int = 1
    duration: int = 96
    rise_fall: int = 24
    f_lo: float = 0.05
    f_hi: float = 0.45
    q_decay: float = 1.5
    max_iter: int = 6000
    tol_rel: float = 1e-5
    over_relaxation: float = 1.8
    step_ratio: float = 0.25

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise CliError(
                f"unknown experiment {self.experiment!r}; choose from "
                + ", ".join(EXPERIMENTS)
            )
        if self.trials < 1:
            raise CliError("trials must be >= 1")


EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "noise-curve": {},
    "radar": {
        "n": 1024,
        "m": 120,
        "oversampling": 8,
        "s": 40,
        "sigmas": (0.0,),
        "trials": 10,
        "gabor_sigma": 16.0,
        "gabor_a": 8,
        "gabor_b": 1.0 / 64.0,
        "pulses": 3,
        "duration": 128,
        "rise_fall": 32,
        "max_iter": 6000,
    },
    "dirac-comb": {
        "n": 64,
        "m": 32,
        "dict_kind": "concat-if",
        "signal": "dirac",
        "sigmas": (0.0,),
        "trials": 10,
        "s": 16,
        "max_iter": 20000,
        "over_relaxation": 1.8,
        "tol_rel": 1e-6,
    },
    "constants": {"trials": 1},
    "coefficient-decay": {
        "n": 1024,
        "oversampling": 8,
        "gabor_sigma": 16.0,
        "gabor_a": 8,
        "gabor_b": 1.0 / 64.0,
        "pulses": 3,
        "duration": 128,
        "rise_fall": 32,
        "trials": 1,
    },
    "method-comparison": {
        "n": 128,
        "m": 64,
        "dict_kind": "dft",
        "oversampling": 4,
        "signal": "compressible",
        "sigmas": (0.0,),
        "trials": 5,
        "s": 16,
        "max_iter": 8000,
    },
}


def default_config(experiment: str) -> ExperimentConfig:
    overrides = EXPERIMENT_DEFAULTS.get(experiment)
    if overrides is None:
        raise CliError(
            f"unknown experiment {experiment!r}; choose from " + ", ".join(EXPERIMENTS)
        )
    return ExperimentConfig(experiment=experiment, **overrides)


def _field_types() -> dict[str, type]:
    return {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name == "sigmas":
        if not raw:
            return ()
        return tuple(float(p) for p in raw.split(","))
    ftype = _field_types()[name]
    if ftype in (int, "int"):
        return int(raw)
    if ftype in (float, "float"):
        return float(raw)
    return raw


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse 'key = value' lines; unknown keys are errors."""
    values = {}
    known = _field_types()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"config line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    if base is None:
        base = default_config(values.get("experiment", "noise-curve"))
    return replace(base, **values)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "sigmas":
            v = ",".join(repr(float(x)) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# object construction from flags


def build_dictionary(kind: str, n: int, cfg_like) -> Dictionary:
    if kind == "identity":
        return build_identity(n)
    if kind == "dft":
        return build_oversampled_dft(n, cfg_like.oversampling or 1)
    if kind == "concat-if":
        return build_concat(
            build_identity(n), build_oversampled_dft(n, 1), 1.0 / math.sqrt(2.0)
        )
    if kind == "gabor":
        return build_gabor(
            n, cfg_like.gabor_sigma, cfg_like.gabor_a, cfg_like.gabor_b
        )
    raise CliError(
        f"unknown dictionary kind {kind!r}; choose identity, dft, concat-if, gabor"
    )


def build_sensing(kind: str, m: int, n: int, seed: int) -> SensingOperator:
    """The CLI spells the subsampled_dft_sign descriptor kind "fourier"."""
    if kind == "fourier":
        kind = "subsampled_dft_sign"
    return from_descriptor({"kind": kind, "m": m, "n": n, "seed": seed})


def build_signal(kind: str, n: int, D: Dictionary, params, seed: int) -> Signal:
    """A dirac comb, a compressible signal in D, or (any other kind) the
    radar pulse train; `params` carries the pulse and decay settings."""
    if kind == "dirac":
        return dirac_comb(n)
    if kind == "compressible":
        return compressible_signal(D, params.q_decay, seed)[1]
    return radar_pulse_train(
        n,
        PulseParams(
            num_pulses=params.pulses,
            duration=params.duration,
            rise_fall=params.rise_fall,
            f_lo=params.f_lo,
            f_hi=params.f_hi,
            seed=seed,
        ),
    )


def _out_dir(flag_value: str | None) -> Path:
    out = flag_value or os.environ.get("FRAMECS_OUT", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _solver_config(cfg: ExperimentConfig) -> SolverConfig:
    return SolverConfig(
        max_iter=cfg.max_iter,
        tol_rel=cfg.tol_rel,
        over_relaxation=cfg.over_relaxation,
        step_ratio=cfg.step_ratio,
    )


# ---------------------------------------------------------------------------
# recover


def cmd_recover(args) -> int:
    n, m = args.n, args.m
    D = build_dictionary(args.dict, n, args)
    if args.method == "split":
        D2 = build_dictionary(args.dict2, n, args)
    A = build_sensing(args.sensing, m, n, split_seed(args.seed, 2))

    audit_s = None
    if args.signal in ("dirac", "radar", "compressible"):
        f = build_signal(args.signal, n, D, args, split_seed(args.seed, 1))
        if args.signal == "dirac":
            audit_s = 2 * math.isqrt(n)
    else:
        path = Path(args.signal)
        if not path.exists():
            raise CliError(f"signal file not found: {path}")
        f = fio.signal_from_csv(path.read_text())
        if f.n != n:
            raise CliError(
                f"dimension mismatch: signal length {f.n} but --n is {n}"
            )
    if args.audit_s:
        audit_s = args.audit_s

    y, znorm = measure(A, f.samples, args.sigma, split_seed(args.seed, 3))
    if args.eps is not None:
        eps = args.eps
    elif args.eps_rule == "percentile":
        eps = noise_bound(m, args.sigma)
    else:
        eps = znorm

    cfg = SolverConfig(
        max_iter=args.max_iter,
        tol_rel=args.tol_rel,
        over_relaxation=args.over_relaxation,
        history=args.history,
    )
    if args.method == "analysis":
        report = l1_analysis(A, D, y, eps, cfg=cfg, reference=f, audit_s=audit_s)
    elif args.method == "reweighted":
        report = reweighted_l1_analysis(
            A, D, y, eps, rw_iters=args.rw_iters, cfg=cfg, reference=f,
            audit_s=audit_s,
        )
    elif args.method == "synthesis":
        report, _ = l1_synthesis(A, D, y, eps, cfg=cfg, reference=f, audit_s=audit_s)
    else:
        report, _, _ = split_analysis(
            A, D, D2, y, eps, cfg=cfg, reference=f, audit_s=audit_s
        )

    rel = metrics(report.f_hat, f)["relative_error"]
    text = fio.report_to_json(report, relative_error=rel)
    out = _out_dir(args.out)
    (out / "report.json").write_text(text)
    (out / "recovered.csv").write_text(fio.signal_to_csv(report.f_hat))
    if args.history:
        (out / "history.csv").write_text(fio.history_to_csv(report))
    sys.stdout.write(text)
    return EXIT_OK if report.converged else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# experiments


def _exp_noise_curve(cfg: ExperimentConfig, out: Path) -> list[Path]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    scfg = _solver_config(cfg)

    def one_trial(t: int):
        f = build_signal(cfg.signal, cfg.n, D, cfg, split_seed(cfg.seed, t))
        A = gaussian_sensing(cfg.m, cfg.n, split_seed(cfg.seed, 10_000 + t))
        af_norm = float(np.linalg.norm(A.apply(f.samples)))
        errs = []
        for li, nu in enumerate(cfg.sigmas):
            sigma = nu * af_norm / math.sqrt(cfg.m)
            y, znorm = measure(
                A, f.samples, sigma, split_seed(cfg.seed, 20_000 + li * cfg.trials + t)
            )
            plain = l1_analysis(A, D, y, znorm, cfg=scfg)
            rw = reweighted_l1_analysis(
                A, D, y, znorm, rw_iters=cfg.rw_iters, cfg=scfg
            )
            errs.append(
                (
                    metrics(plain.f_hat, f)["relative_error"],
                    metrics(rw.f_hat, f)["relative_error"],
                )
            )
        return errs

    results = [one_trial(t) for t in range(cfg.trials)]
    rows = []
    for li, nu in enumerate(cfg.sigmas):
        plain_mean = sum(r[li][0] for r in results) / cfg.trials
        rw_mean = sum(r[li][1] for r in results) / cfg.trials
        rows.append((float(nu), plain_mean, rw_mean))
    path = out / "noise_curve.csv"
    path.write_text(fio.table_to_csv("sigma_rel,err_plain,err_rw", rows))
    return [path]


def _exp_radar(cfg: ExperimentConfig, out: Path) -> list[Path]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    scfg = _solver_config(cfg)
    sigma0 = cfg.sigmas[0] if cfg.sigmas else 0.0

    def one_trial(t: int):
        f = build_signal("radar", cfg.n, D, cfg, split_seed(cfg.seed, t))
        A = gaussian_sensing(cfg.m, cfg.n, split_seed(cfg.seed, 10_000 + t))
        y, znorm = measure(A, f.samples, sigma0, split_seed(cfg.seed, 20_000 + t))
        eps = znorm
        plain = l1_analysis(A, D, y, eps, cfg=scfg)
        rw = reweighted_l1_analysis(A, D, y, eps, rw_iters=cfg.rw_iters, cfg=scfg)
        return f, plain, rw

    results = [one_trial(t) for t in range(cfg.trials)]
    rows = []
    for t, (f, plain, rw) in enumerate(results):
        mp, mw = metrics(plain.f_hat, f), metrics(rw.f_hat, f)
        rows.append(
            (t, mp["rmse"], mw["rmse"], mp["relative_error"], mw["relative_error"])
        )
    summary = out / "radar_summary.csv"
    summary.write_text(
        fio.table_to_csv("trial,rmse_plain,rmse_rw,rel_plain,rel_rw", rows)
    )

    f, plain, rw = results[0]
    time_rows = [
        (
            t,
            float(f.samples[t].real),
            float(f.samples[t].imag),
            float(plain.f_hat.samples[t].real),
            float(plain.f_hat.samples[t].imag),
            float(rw.f_hat.samples[t].real),
            float(rw.f_hat.samples[t].imag),
        )
        for t in range(cfg.n)
    ]
    time_path = out / "radar_time.csv"
    time_path.write_text(
        fio.table_to_csv(
            "t,true_re,true_im,plain_re,plain_im,rw_re,rw_im", time_rows
        )
    )
    mag_true = np.abs(np.fft.fft(f.samples)) / math.sqrt(cfg.n)
    mag_plain = np.abs(np.fft.fft(plain.f_hat.samples)) / math.sqrt(cfg.n)
    mag_rw = np.abs(np.fft.fft(rw.f_hat.samples)) / math.sqrt(cfg.n)
    freq_rows = [
        (k, float(mag_true[k]), float(mag_plain[k]), float(mag_rw[k]))
        for k in range(cfg.n)
    ]
    freq_path = out / "radar_freq.csv"
    freq_path.write_text(
        fio.table_to_csv("k,true_mag,plain_mag,rw_mag", freq_rows)
    )
    return [summary, time_path, freq_path]


def _exp_dirac_comb(cfg: ExperimentConfig, out: Path) -> list[Path]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    f = dirac_comb(cfg.n)
    scfg = _solver_config(cfg)

    def one_trial(t: int):
        A = gaussian_sensing(cfg.m, cfg.n, split_seed(cfg.seed, 10_000 + t))
        y, _ = measure(A, f.samples, 0.0, 0)
        rep = l1_analysis(A, D, y, 0.0, cfg=scfg)
        return (
            t,
            metrics(rep.f_hat, f)["relative_error"],
            rep.iterations,
            int(rep.converged),
        )

    rows = [one_trial(t) for t in range(cfg.trials)]
    path = out / "dirac_comb.csv"
    path.write_text(
        fio.table_to_csv("trial,relative_error,iterations,converged", rows)
    )
    return [path]


def _exp_constants(cfg: ExperimentConfig, out: Path) -> list[Path]:
    rows = []
    for k in range(1, 13):  # delta = 0.05 .. 0.60
        delta = k / 20.0
        rep = theorem_constants_from_delta(delta)
        rows.append((delta, rep.C0, rep.C1))
    path = out / "constants.csv"
    path.write_text(fio.table_to_csv("delta,C0,C1", rows))
    return [path]


def _exp_coefficient_decay(cfg: ExperimentConfig, out: Path) -> list[Path]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    f = build_signal("radar", cfg.n, D, cfg, split_seed(cfg.seed, 0))
    mags = np.sort(np.abs(D.adjoint(f.samples)))[::-1]
    rows = [(k, float(mags[k])) for k in range(mags.size)]
    path = out / "coefficient_decay.csv"
    path.write_text(fio.table_to_csv("rank,magnitude", rows))
    return [path]


def _exp_method_comparison(cfg: ExperimentConfig, out: Path) -> list[Path]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    scfg = _solver_config(cfg)

    def one_trial(t: int):
        f = build_signal(cfg.signal, cfg.n, D, cfg, split_seed(cfg.seed, t))
        A = gaussian_sensing(cfg.m, cfg.n, split_seed(cfg.seed, 10_000 + t))
        y, _ = measure(A, f.samples, 0.0, 0)
        ra = l1_analysis(A, D, y, 0.0, cfg=scfg)
        rw = reweighted_l1_analysis(A, D, y, 0.0, rw_iters=cfg.rw_iters, cfg=scfg)
        rs, _ = l1_synthesis(A, D, y, 0.0, cfg=scfg)
        return (
            t,
            metrics(ra.f_hat, f)["relative_error"],
            metrics(rw.f_hat, f)["relative_error"],
            metrics(rs.f_hat, f)["relative_error"],
        )

    rows = [one_trial(t) for t in range(cfg.trials)]
    path = out / "method_comparison.csv"
    path.write_text(
        fio.table_to_csv("trial,err_analysis,err_reweighted,err_synthesis", rows)
    )
    return [path]


_EXPERIMENT_RUNNERS = {
    "noise-curve": _exp_noise_curve,
    "radar": _exp_radar,
    "dirac-comb": _exp_dirac_comb,
    "constants": _exp_constants,
    "coefficient-decay": _exp_coefficient_decay,
    "method-comparison": _exp_method_comparison,
}


def cmd_experiment(args) -> int:
    base = default_config(args.name)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        base = parse_config(path.read_text(), base=base)
        if base.experiment != args.name:
            base = replace(base, experiment=args.name)
    overrides = {}
    for key in (
        "n", "m", "trials", "seed", "rw_iters", "s", "max_iter", "oversampling",
    ):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = v
    if args.sigmas is not None:
        overrides["sigmas"] = tuple(float(p) for p in args.sigmas.split(","))
    if args.dict is not None:
        overrides["dict_kind"] = args.dict
    if args.signal is not None:
        overrides["signal"] = args.signal
    cfg = replace(base, **overrides)

    out = _out_dir(args.out or cfg.output_dir or None)
    (out / "config.txt").write_text(serialize_config(cfg))
    paths = _EXPERIMENT_RUNNERS[cfg.experiment](cfg, out)
    for p in [out / "config.txt"] + paths:
        sys.stdout.write(str(p) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    n = args.n
    if args.what == "coherence":
        D = build_dictionary(args.dict, n, args)
        sys.stdout.write(repr(coherence(D)) + "\n")
        return EXIT_OK

    if args.what == "concentration":
        kind = args.sensing
        v = np.ones(n, dtype=complex)
        rate = concentration_check(
            lambda child: build_sensing(kind, args.m, n, child),
            v,
            args.delta,
            args.trials,
            args.seed,
        )
        sys.stdout.write(repr(rate) + "\n")
        return EXIT_OK

    D = build_dictionary(args.dict, n, args)
    A = build_sensing(args.sensing, args.m, n, args.seed)
    s_list = [int(p) for p in str(args.s).split(",")]
    rows = []
    for s in s_list:
        if args.what == "drip-exact":
            if math.comb(D.d, s) > ENUMERATION_CAP:
                sys.stderr.write(
                    f"C({D.d},{s}) exceeds the enumeration cap "
                    f"({ENUMERATION_CAP}); use drip-mc instead\n"
                )
                return EXIT_NUMERIC
            est = drip_exact_small(A, D, s)
        else:
            est = drip_monte_carlo(A, D, s, args.trials, args.seed)
        rows.append((s, est.delta_hat, est.method, est.trials))
    sys.stdout.write(fio.table_to_csv("s,delta_hat,method,count", rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_dict_flags(p):
    p.add_argument("--dict", default="concat-if",
                   help="identity | dft | concat-if | gabor")
    p.add_argument("--oversampling", type=int, default=None)
    p.add_argument("--gabor-sigma", dest="gabor_sigma", type=float, default=8.0)
    p.add_argument("--gabor-a", dest="gabor_a", type=int, default=8)
    p.add_argument("--gabor-b", dest="gabor_b", type=float, default=1.0 / 32.0)


def build_parser() -> _Parser:
    parser = _Parser(prog="framecs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", parents=[], help="run one recovery")
    rec.add_argument("--method", required=True,
                     choices=["analysis", "reweighted", "synthesis", "split"])
    _add_dict_flags(rec)
    rec.add_argument("--dict2", default="dft", help="second dictionary for split")
    rec.add_argument("--n", type=int, required=True)
    rec.add_argument("--m", type=int, required=True)
    rec.add_argument("--signal", default="dirac",
                     help="dirac | radar | compressible | path.csv")
    rec.add_argument("--sensing", default="gaussian",
                     choices=["gaussian", "bernoulli", "fourier"])
    rec.add_argument("--sigma", type=float, default=0.0, help="noise std dev")
    rec.add_argument("--eps", type=float, default=None,
                     help="fixed constraint radius (default: realized noise)")
    rec.add_argument("--eps-rule", dest="eps_rule", default="realized",
                     choices=["realized", "percentile"])
    rec.add_argument("--rw-iters", dest="rw_iters", type=int, default=3)
    rec.add_argument("--seed", type=int, default=1)
    rec.add_argument("--audit-s", dest="audit_s", type=int, default=None)
    rec.add_argument("--pulses", type=int, default=3)
    rec.add_argument("--duration", type=int, default=128)
    rec.add_argument("--rise-fall", dest="rise_fall", type=int, default=32)
    rec.add_argument("--f-lo", dest="f_lo", type=float, default=0.05)
    rec.add_argument("--f-hi", dest="f_hi", type=float, default=0.45)
    rec.add_argument("--q-decay", dest="q_decay", type=float, default=1.5)
    rec.add_argument("--max-iter", dest="max_iter", type=int, default=20000)
    rec.add_argument("--tol-rel", dest="tol_rel", type=float, default=1e-6)
    rec.add_argument("--over-relaxation", dest="over_relaxation", type=float,
                     default=1.8)
    rec.add_argument("--history", action="store_true",
                     help="also write per-iteration history.csv")
    rec.add_argument("--out", default=None)
    rec.set_defaults(func=cmd_recover)

    exp = sub.add_parser("experiment", help="run a desk-scale reproduction")
    exp.add_argument("name", choices=EXPERIMENTS)
    exp.add_argument("--config", default=None, help="key = value file")
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--m", type=int, default=None)
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--rw-iters", dest="rw_iters", type=int, default=None)
    exp.add_argument("--s", type=int, default=None)
    exp.add_argument("--sigmas", default=None, help="comma-separated levels")
    exp.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    exp.add_argument("--oversampling", type=int, default=None)
    exp.add_argument("--dict", default=None)
    exp.add_argument("--signal", default=None)
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=cmd_experiment)

    cer = sub.add_parser("certify", help="coherence / D-RIP / concentration")
    cer.add_argument("what",
                     choices=["coherence", "drip-mc", "drip-exact", "concentration"])
    _add_dict_flags(cer)
    cer.add_argument("--n", type=int, required=True)
    cer.add_argument("--m", type=int, default=None)
    cer.add_argument("--s", default="2", help="sparsity level(s), comma-separated")
    cer.add_argument("--trials", type=int, default=1000)
    cer.add_argument("--delta", type=float, default=0.5)
    cer.add_argument("--seed", type=int, default=1)
    cer.add_argument("--sensing", default="gaussian",
                     choices=["gaussian", "bernoulli", "fourier"])
    cer.set_defaults(func=cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "certify" and args.what != "coherence" and args.m is None:
        parser.error("certify drip/concentration requires --m")
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"framecs: error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"framecs: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
