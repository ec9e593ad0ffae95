"""Command-line front end.

Three subcommands:

  recover     one recovery run: build dictionary/sensing/signal, measure,
              solve, write report.json + recovered.csv
  experiment  desk-scale reproductions emitting CSV tables
  certify     coherence / D-RIP / concentration / constants queries

Flags are built from the settings ``framecs.scenarios`` declares, and
each subcommand resolves its flags (and an experiment its config file)
into a checked config before anything is built.  Every experiment solve
is a ``scenarios.solve_trials`` record; this module maps each experiment
to the runner that formats its tables, and writes ``config.txt`` and the
tables only after the runner returns.  Flags are matched in full, never
by a prefix.  Every command is a pure function of (flags, config file,
seed): repeated runs produce byte-identical output.  Exit codes: 0
success, 1 usage or data error (any ValueError), 2 numerical
non-convergence or enumeration cap.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
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
    CERTIFY_FLAGS,
    EXPERIMENT_FLAGS,
    METHODS,
    RECOVER_FLAGS,
    RECOVER_NOISE_STREAM,
    RECOVER_SENSING_STREAM,
    RECOVER_SIGNAL_STREAM,
    REQUIRED,
    SETTINGS,
    SIGNALS,
    CertifyConfig,
    ExperimentConfig,
    RecoverConfig,
    TrialRecord,
    build_dictionary,
    build_sensing,
    build_signal,
    flag,
    parse_config,
    parse_setting,
    serialize_config,
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


def _out_dir(flag_value: str | None) -> Path:
    out = flag_value or os.environ.get("FRAMECS_OUT", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# recover


def _values(args, flags) -> dict:
    """args' value of each setting in `flags` (a positional's under its
    flag), text parsed."""
    values = {}
    for key in flags:
        v = getattr(args, key if flag(key).startswith("-") else flag(key))
        values[key] = parse_setting(key, v) if isinstance(v, str) else v
    return values


def cmd_recover(args) -> int:
    cfg = RecoverConfig(**_values(args, RECOVER_FLAGS))
    n, m = cfg.n, cfg.m
    kinds = (cfg.dict, cfg.dict2)[: METHODS[cfg.method].dictionaries]
    dicts = tuple(build_dictionary(kind, n, cfg) for kind in kinds)
    A = build_sensing(cfg.sensing, m, n, split_seed(cfg.seed, RECOVER_SENSING_STREAM))

    audit_s = cfg.audit_s
    if cfg.signal in SIGNALS:
        f = build_signal(cfg.signal, n, dicts[0], cfg,
                         split_seed(cfg.seed, RECOVER_SIGNAL_STREAM))
        if audit_s is None:
            audit_s = SIGNALS[cfg.signal].audit_s(n)
    else:
        f = fio.signal_from_csv(Path(cfg.signal).read_text())
        if f.n != n:
            raise ValueError(
                f"dimension mismatch: signal length {f.n} but --n is {n}"
            )

    y, znorm = measure(
        A, f.samples, cfg.sigma, split_seed(cfg.seed, RECOVER_NOISE_STREAM)
    )
    if cfg.eps is not None:
        eps = cfg.eps
    elif cfg.eps_rule == "percentile":
        eps = noise_bound(m, cfg.sigma)
    else:
        eps = znorm

    scfg = replace(solver_config(cfg), history=cfg.history)
    report = solve(cfg.method, A, dicts, y, eps, scfg, cfg.rw_iters,
                   reference=f, audit_s=audit_s)

    rel = metrics(report.f_hat, f)["relative_error"]
    text = fio.report_to_json(report, relative_error=rel)
    out = _out_dir(cfg.out)
    (out / "report.json").write_text(text)
    (out / "recovered.csv").write_text(fio.signal_to_csv(report.f_hat))
    if cfg.history:
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
    given = {k: v for k, v in _values(args, EXPERIMENT_FLAGS).items() if v is not None}
    config, out = given.pop("config", None), given.pop("out", None)
    if config and not Path(config).is_file():
        raise ValueError(f"config file not found: {config}")
    cfg = parse_config(Path(config).read_text() if config else "", **given)

    # the directory first, so that an unwritable path fails before any
    # solve; the files only once the runner has returned every table
    out = _out_dir(out or cfg.output_dir or None)
    files = {"config.txt": serialize_config(cfg), **_RUNNERS[cfg.experiment](cfg)}
    for name, body in files.items():
        (out / name).write_text(body)
    sys.stdout.write("".join(f"{out / name}\n" for name in files))
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    cfg = CertifyConfig(**_values(args, CERTIFY_FLAGS))
    n = cfg.n
    if cfg.what == "concentration":
        rate = concentration_check(
            lambda child: build_sensing(cfg.sensing, cfg.m, n, child),
            np.ones(n, dtype=complex), cfg.delta, cfg.trials, cfg.seed,
        )
        sys.stdout.write(repr(rate) + "\n")
        return EXIT_OK

    D = build_dictionary(cfg.dict, n, cfg)
    if cfg.what == "coherence":
        sys.stdout.write(repr(coherence(D)) + "\n")
        return EXIT_OK
    A = build_sensing(cfg.sensing, cfg.m, n, cfg.seed)
    rows = []
    for s in cfg.s:
        if cfg.what == "drip-exact":
            try:
                est = drip_exact_small(A, D, s)
            except EnumerationCapError as exc:
                sys.stderr.write(f"framecs: error: {exc}\n")
                return EXIT_NUMERIC
        else:
            est = drip_monte_carlo(A, D, s, cfg.trials, cfg.seed)
        rows.append((s, est.delta_hat, est.method, est.trials))
    sys.stdout.write(fio.table_to_csv("s,delta_hat,method,count", rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# subcommand -> (its runner, its flags, help)
_COMMANDS = {
    "recover": (cmd_recover, RECOVER_FLAGS, "run one recovery"),
    "experiment": (cmd_experiment, EXPERIMENT_FLAGS, "run a desk-scale reproduction"),
    "certify": (cmd_certify, CERTIFY_FLAGS, "coherence / D-RIP / concentration"),
}


def build_parser() -> _Parser:
    """An argument per flag of each subcommand, as scenarios.SETTINGS
    declares it.  A list stays text for _values to parse, so that its
    errors name the key."""
    parser = _Parser(prog="framecs", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags, help) in _COMMANDS.items():
        command = sub.add_parser(name, help=help, allow_abbrev=False)
        command.set_defaults(func=func)
        for key, default in flags.items():
            s = SETTINGS[key]
            kw = ({"action": "store_true"} if s.parse is bool else
                  {"choices": s.choices,
                   "type": s.parse if isinstance(s.parse, type) else None})
            if flag(key).startswith("-"):
                kw.update(dest=key, default=None if default is REQUIRED else default,
                          required=default is REQUIRED)
            command.add_argument(flag(key), help=s.help, **kw)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"framecs: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
