"""Command-line front end.

Three subcommands:

  recover     one recovery run: build dictionary/sensing/signal, measure,
              solve, write report.json + recovered.csv
  experiment  desk-scale reproductions emitting CSV tables
  certify     coherence / D-RIP / concentration / constants queries

Each experiment's settings come from ``framecs.scenarios``, and every
solve of an experiment is a ``scenarios.solve_trials`` record; this
module maps each experiment name to the runner that formats its tables
from them.  Dictionary, signal, sensing and method names are the keys
of the ``scenarios`` tables.  Flags and the config file resolve into one
checked ``ExperimentConfig`` before anything runs, and an experiment
writes ``config.txt`` and its tables only after its runner returns.
Flags are matched in full, never by a prefix.  Every command is a pure
function of (flags, config file, seed): repeated runs produce
byte-identical output.  Exit codes: 0 success, 1 usage or data error
(any ValueError), 2 numerical non-convergence or enumeration cap.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import io as fio
from .certify import (
    EnumerationCapError,
    concentration_check,
    drip_exact_small,
    drip_monte_carlo,
    theorem_constants_from_delta,
)
from .frames import coherence
from .rng import split_seed
from .scenarios import (
    DICTIONARIES,
    EXPERIMENTS,
    METHODS,
    RECOVER_NOISE_STREAM,
    RECOVER_SENSING_STREAM,
    RECOVER_SIGNAL_STREAM,
    SENSING,
    SIGNALS,
    ExperimentConfig,
    TrialRecord,
    build_dictionary,
    build_sensing,
    build_signal,
    default_config,
    solve,
    solve_trials,
    solver_config,
    trial_signal,
)
from .sensing import measure, noise_bound
from .signals import metrics

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


def _field_types() -> dict[str, type]:
    return {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(name: str, raw: str, where: str = ""):
    """`raw` as field `name`'s type; errors name `where`, the key and `raw`."""
    raw = raw.strip()
    try:
        if name == "sigmas":
            return tuple(float(p) for p in raw.split(",")) if raw else ()
        ftype = _field_types()[name]
        if ftype in (int, "int"):
            return int(raw)
        if ftype in (float, "float"):
            return float(raw)
    except ValueError as exc:
        raise ValueError(f"{where}{name} = {raw}: {exc}") from None
    return raw


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse 'key = value' lines over the experiment's defaults; unknown
    keys are errors, and `overrides` win over the file's values."""
    values = {}
    known = _field_types()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, f"config line {lineno}: ")
    values.update(overrides)
    # one replace, so every check (the level rule too) sees the resolved config
    return replace(default_config(values.get("experiment", "noise-curve")), **values)


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


def _out_dir(flag_value: str | None) -> Path:
    out = flag_value or os.environ.get("FRAMECS_OUT", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# recover


def cmd_recover(args) -> int:
    if args.audit_s is not None and args.audit_s < 1:
        raise ValueError(f"--audit-s must be >= 1, got {args.audit_s}")
    n, m = args.n, args.m
    kinds = (args.dict, args.dict2)[: METHODS[args.method].dictionaries]
    dicts = tuple(build_dictionary(kind, n, args) for kind in kinds)
    A = build_sensing(
        args.sensing, m, n, split_seed(args.seed, RECOVER_SENSING_STREAM)
    )

    audit_s = args.audit_s
    if args.signal in SIGNALS:
        f = build_signal(args.signal, n, dicts[0], args,
                         split_seed(args.seed, RECOVER_SIGNAL_STREAM))
        if audit_s is None:
            audit_s = SIGNALS[args.signal].audit_s(n)
    else:
        path = Path(args.signal)
        if not path.exists():
            raise ValueError(f"signal file not found: {path}")
        f = fio.signal_from_csv(path.read_text())
        if f.n != n:
            raise ValueError(
                f"dimension mismatch: signal length {f.n} but --n is {n}"
            )

    y, znorm = measure(
        A, f.samples, args.sigma, split_seed(args.seed, RECOVER_NOISE_STREAM)
    )
    if args.eps is not None:
        eps = args.eps
    elif args.eps_rule == "percentile":
        eps = noise_bound(m, args.sigma)
    else:
        eps = znorm

    cfg = replace(solver_config(args), history=args.history)
    report = solve(args.method, A, dicts, y, eps, cfg, args.rw_iters,
                   reference=f, audit_s=audit_s)

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


def _convergence(*reports) -> tuple[int, ...]:
    """Table columns: each report's converged flag (0/1), then each one's
    iteration count (a reweighted solve's last round)."""
    return (*(int(r.converged) for r in reports), *(r.iterations for r in reports))


def _rel(rec: TrialRecord, method: str) -> float:
    return metrics(rec.reports[method].f_hat, rec.f)["relative_error"]


def _exp_noise_curve(cfg: ExperimentConfig) -> dict[str, str]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    methods = ("analysis", "reweighted")
    records = solve_trials(cfg, D, methods)
    rows = []
    for li, nu in enumerate(cfg.sigmas):
        cell = records[li :: len(cfg.sigmas)]
        rows.append((
            float(nu),
            *(sum(_rel(r, k) for r in cell) / cfg.trials for k in methods),
            *(sum(int(r.reports[k].converged) for r in cell) for k in methods),
        ))
    return {"noise_curve.csv": fio.table_to_csv(
        "sigma_rel,err_plain,err_rw,converged_plain,converged_rw", rows
    )}


def _exp_radar(cfg: ExperimentConfig) -> dict[str, str]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    records = solve_trials(cfg, D, ("analysis", "reweighted"))
    rows = []
    for r in records:
        plain, rw = r.reports["analysis"], r.reports["reweighted"]
        mp, mw = metrics(plain.f_hat, r.f), metrics(rw.f_hat, r.f)
        rows.append(
            (r.t, mp["rmse"], mw["rmse"], mp["relative_error"], mw["relative_error"],
             *_convergence(plain, rw))
        )
    r0 = records[0]
    signals = [r0.f.samples, r0.reports["analysis"].f_hat.samples,
               r0.reports["reweighted"].f_hat.samples]
    time_rows = [
        (t, *(float(v) for x in signals for v in (x[t].real, x[t].imag)))
        for t in range(cfg.n)
    ]
    mags = [np.abs(np.fft.fft(x)) / math.sqrt(cfg.n) for x in signals]
    freq_rows = [(k, *(float(mag[k]) for mag in mags)) for k in range(cfg.n)]
    return {
        "radar_summary.csv": fio.table_to_csv(
            "trial,rmse_plain,rmse_rw,rel_plain,rel_rw,converged_plain,converged_rw,"
            "iterations_plain,iterations_rw", rows),
        "radar_time.csv": fio.table_to_csv(
            "t,true_re,true_im,plain_re,plain_im,rw_re,rw_im", time_rows),
        "radar_freq.csv": fio.table_to_csv("k,true_mag,plain_mag,rw_mag", freq_rows),
    }


def _exp_dirac_comb(cfg: ExperimentConfig) -> dict[str, str]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    rows = [
        (r.t, _rel(r, "analysis"), r.reports["analysis"].iterations,
         int(r.reports["analysis"].converged))
        for r in solve_trials(cfg, D, ("analysis",))
    ]
    return {"dirac_comb.csv":
            fio.table_to_csv("trial,relative_error,iterations,converged", rows)}


def _exp_constants(cfg: ExperimentConfig) -> dict[str, str]:
    rows = []
    for k in range(1, 13):  # delta = 0.05 .. 0.60
        delta = k / 20.0
        rep = theorem_constants_from_delta(delta)
        rows.append((delta, rep.C0, rep.C1))
    return {"constants.csv": fio.table_to_csv("delta,C0,C1", rows)}


def _exp_coefficient_decay(cfg: ExperimentConfig) -> dict[str, str]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    f = trial_signal(cfg, D, 0)
    mags = np.sort(np.abs(D.adjoint(f.samples)))[::-1]
    rows = [(k, float(mags[k])) for k in range(mags.size)]
    return {"coefficient_decay.csv": fio.table_to_csv("rank,magnitude", rows)}


def _exp_method_comparison(cfg: ExperimentConfig) -> dict[str, str]:
    D = build_dictionary(cfg.dict_kind, cfg.n, cfg)
    # every method that takes one dictionary, in table order
    methods = tuple(k for k, v in METHODS.items() if v.dictionaries == 1)
    rows = [
        (r.t, *(_rel(r, k) for k in methods),
         *_convergence(*(r.reports[k] for k in methods)))
        for r in solve_trials(cfg, D, methods)
    ]
    header = ",".join(["trial"] + [f"{col}_{k}" for col in
                                   ("err", "converged", "iterations") for k in methods])
    return {"method_comparison.csv": fio.table_to_csv(header, rows)}


# name -> runner, keyed as scenarios.DEFAULTS; each returns file name -> text
_RUNNERS: dict[str, Callable[[ExperimentConfig], dict[str, str]]] = {
    "radar": _exp_radar,
    "dirac-comb": _exp_dirac_comb,
    "noise-curve": _exp_noise_curve,
    "constants": _exp_constants,
    "coefficient-decay": _exp_coefficient_decay,
    "method-comparison": _exp_method_comparison,
}


def cmd_experiment(args) -> int:
    text = ""
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config file not found: {path}")
        text = path.read_text()
    # each flag's dest is its config key
    keys = ("n", "m", "trials", "seed", "rw_iters", "max_iter", "oversampling",
            "dict_kind", "signal")
    overrides = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    if args.sigmas is not None:
        overrides["sigmas"] = _parse_value("sigmas", args.sigmas)
    cfg = parse_config(text, experiment=args.name, **overrides)

    # the directory first, so that an unwritable path fails before any
    # solve; the files only once the runner has returned every table
    out = _out_dir(args.out or cfg.output_dir or None)
    files = {"config.txt": serialize_config(cfg), **_RUNNERS[cfg.experiment](cfg)}
    for name, body in files.items():
        (out / name).write_text(body)
    sys.stdout.write("".join(f"{out / name}\n" for name in files))
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    n = args.n
    if args.what == "concentration":
        rate = concentration_check(
            lambda child: build_sensing(args.sensing, args.m, n, child),
            np.ones(n, dtype=complex), args.delta, args.trials, args.seed,
        )
        sys.stdout.write(repr(rate) + "\n")
        return EXIT_OK

    D = build_dictionary(args.dict, n, args)
    if args.what == "coherence":
        sys.stdout.write(repr(coherence(D)) + "\n")
        return EXIT_OK
    A = build_sensing(args.sensing, args.m, n, args.seed)
    s_list = [int(p) for p in str(args.s).split(",")]
    rows = []
    for s in s_list:
        if args.what == "drip-exact":
            try:
                est = drip_exact_small(A, D, s)
            except EnumerationCapError as exc:
                sys.stderr.write(f"framecs: error: {exc}\n")
                return EXIT_NUMERIC
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
    p.add_argument("--dict", default="concat-if", help=" | ".join(DICTIONARIES))
    p.add_argument("--oversampling", type=int, default=None)
    p.add_argument("--gabor-sigma", dest="gabor_sigma", type=float, default=8.0)
    p.add_argument("--gabor-a", dest="gabor_a", type=int, default=8)
    p.add_argument("--gabor-b", dest="gabor_b", type=float, default=1.0 / 32.0,
                   help="frequency step b: 1/b must be an integer Q with "
                   "a | Q | n (a = --gabor-a)")


def build_parser() -> _Parser:
    parser = _Parser(prog="framecs", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", help="run one recovery", allow_abbrev=False)
    rec.add_argument("--method", required=True, choices=list(METHODS))
    _add_dict_flags(rec)
    rec.add_argument("--dict2", default="dft",
                     help="second dictionary for a method that takes two: "
                     + " | ".join(DICTIONARIES))
    rec.add_argument("--n", type=int, required=True)
    rec.add_argument("--m", type=int, required=True)
    rec.add_argument("--signal", default="dirac",
                     help=" | ".join([*SIGNALS, "path.csv"]))
    rec.add_argument("--sensing", default="gaussian", choices=list(SENSING))
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

    exp = sub.add_parser(
        "experiment", help="run a desk-scale reproduction", allow_abbrev=False
    )
    exp.add_argument("name", choices=EXPERIMENTS)
    exp.add_argument("--config", default=None, help="key = value file")
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--m", type=int, default=None)
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--rw-iters", dest="rw_iters", type=int, default=None)
    exp.add_argument("--sigmas", default=None, help="comma-separated levels")
    exp.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    exp.add_argument("--oversampling", type=int, default=None)
    exp.add_argument("--dict", dest="dict_kind", default=None,
                     help=" | ".join(DICTIONARIES))
    exp.add_argument("--signal", default=None, help=" | ".join(SIGNALS))
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=cmd_experiment)

    cer = sub.add_parser(
        "certify", help="coherence / D-RIP / concentration", allow_abbrev=False
    )
    cer.add_argument("what",
                     choices=["coherence", "drip-mc", "drip-exact", "concentration"])
    _add_dict_flags(cer)
    cer.add_argument("--n", type=int, required=True)
    cer.add_argument("--m", type=int, default=None)
    cer.add_argument("--s", default="2", help="sparsity level(s), comma-separated")
    cer.add_argument("--trials", type=int, default=1000)
    cer.add_argument("--delta", type=float, default=0.5)
    cer.add_argument("--seed", type=int, default=1)
    cer.add_argument("--sensing", default="gaussian", choices=list(SENSING))
    cer.set_defaults(func=cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "certify" and args.what != "coherence" and args.m is None:
        parser.error("certify drip/concentration requires --m")
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"framecs: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
