"""Experiment scenarios: the one place settings are declared and trials
are built and solved.

Each kind the CLI and the experiments pick by name is spelled once, as a
key of its table: ``DICTIONARIES``, ``SIGNALS``, ``SENSING`` (the CLI's
sensing kinds) and ``METHODS`` (the programs ``solve`` runs).  Each
setting is declared once, in ``SETTINGS``; ``*_FLAGS`` pick each
subcommand's flags and defaults, which resolve into a checked config
before any builder runs.

``DEFAULTS`` holds each experiment's overrides of the ``ExperimentConfig``
field defaults.  Trial t draws its signal and Gaussian A once, from
``cfg.seed``'s streams SIGNAL_STREAM + t and SENSING_STREAM + t (t and
10_000 + t), and its noise at level index li from NOISE_STREAM + li *
trials + t (20_000 + li * trials + t); ``framecs recover`` uses streams
1, 2 and 3.  Past 10,000 trials a signal reuses an earlier trial's
sensing stream.  ``solve_trials`` is the one loop over trials and levels:
every solving experiment and acceptance batch reads its records.

Levels are relative to the signal, finite and >= 0.  Every solving
experiment takes at least one level, and those whose tables have no
level column (radar, dirac-comb, method-comparison) exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, make_dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .frames import (Dictionary, build_concat, build_gabor, build_identity,
                     build_oversampled_dft)
from .rng import split_seed
from .sensing import (SensingOperator, bernoulli_sensing, gaussian_sensing,
                      measure, subsampled_dft_sign)
from .signals import (PulseParams, Signal, compressible_signal, dirac_comb,
                      radar_pulse_train)
from .solvers import (RecoveryReport, SolverConfig, l1_analysis, l1_synthesis,
                      reweighted_l1_analysis, split_analysis)

SIGNAL_STREAM = 0
SENSING_STREAM = 10_000
NOISE_STREAM = 20_000
RECOVER_SIGNAL_STREAM = 1
RECOVER_SENSING_STREAM = 2
RECOVER_NOISE_STREAM = 3


def _lookup(table: dict, kind: str, what: str):
    """table[kind], or a ValueError naming `what` and every known kind."""
    if kind not in table:
        raise ValueError(f"unknown {what} {kind!r}; choose {', '.join(table)}")
    return table[kind]


# dictionary kind -> its frame of length n; `c` carries the oversampling
# factor (None means 1) and the Gabor lattice
DICTIONARIES: dict[str, Callable[[int, Any], Dictionary]] = {
    "identity": lambda n, c: build_identity(n),
    "dft": lambda n, c: build_oversampled_dft(
        n, 1 if c.oversampling is None else c.oversampling),
    "concat-if": lambda n, c: build_concat(
        build_identity(n), build_oversampled_dft(n, 1), 1.0 / math.sqrt(2.0)),
    "gabor": lambda n, c: build_gabor(n, c.gabor_sigma, c.gabor_a, c.gabor_b),
}


class SignalKind(NamedTuple):
    build: Callable[[int, Dictionary, Any, int], Signal]  # (n, D, params, seed)
    # recover's default lemma-audit sparsity at length n; None: m // 4
    audit_s: Callable[[int], int | None] = lambda n: None


# signal kind -> how to build it; `params` carries the pulse and decay settings
SIGNALS: dict[str, SignalKind] = {
    # sqrt(n) spikes, each one identity and one DFT atom of concat-if
    "dirac": SignalKind(lambda n, D, p, seed: dirac_comb(n),
                        lambda n: 2 * math.isqrt(n)),
    "compressible": SignalKind(
        lambda n, D, p, seed: compressible_signal(D, p.q_decay, seed)[1]),
    "radar": SignalKind(lambda n, D, p, seed: radar_pulse_train(n, PulseParams(
        num_pulses=p.pulses, duration=p.duration, rise_fall=p.rise_fall,
        f_lo=p.f_lo, f_hi=p.f_hi, seed=seed))),
}

# the CLI's sensing kind -> its constructor (m, n, seed)
SENSING: dict[str, Callable[[int, int, int], SensingOperator]] = {
    "gaussian": gaussian_sensing,
    "bernoulli": bernoulli_sensing,
    "fourier": subsampled_dft_sign,
}


class Method(NamedTuple):
    dictionaries: int
    program: Callable[..., RecoveryReport]


# recovery method -> how many dictionaries it takes and its solvers
# program, called (A, dicts, y, eps, cfg, rw_iters, reference=, audit_s=)
METHODS: dict[str, Method] = {
    "analysis": Method(1, lambda A, Ds, y, eps, cfg, rw, **kw:
                       l1_analysis(A, *Ds, y, eps, cfg, **kw)),
    "reweighted": Method(1, lambda A, Ds, y, eps, cfg, rw, **kw:
                         reweighted_l1_analysis(A, *Ds, y, eps, rw, cfg, **kw)),
    "synthesis": Method(1, lambda A, Ds, y, eps, cfg, rw, **kw:
                        l1_synthesis(A, *Ds, y, eps, cfg, **kw)[0]),
    "split": Method(2, lambda A, Ds, y, eps, cfg, rw, **kw:
                    split_analysis(A, *Ds, y, eps, cfg, **kw)[0]),
}


# the radar pulse train in the 8x redundant Gabor frame (paper Figs. 2-3)
_RADAR = dict(n=1024, oversampling=8, gabor_sigma=16.0, gabor_a=8,
              gabor_b=1.0 / 64.0, pulses=3, duration=128, rise_fall=32)
# name -> ExperimentConfig overrides; the order is the CLI's
DEFAULTS: dict[str, dict] = {
    "radar": dict(_RADAR, m=120, sigmas=(0.0,), trials=10),
    "dirac-comb": dict(n=64, m=32, dict_kind="concat-if", signal="dirac",
                       sigmas=(0.0,), trials=10, max_iter=20000, tol_rel=1e-6),
    "noise-curve": {},
    "constants": dict(trials=1),
    "coefficient-decay": dict(_RADAR, trials=1),
    "method-comparison": dict(n=128, m=64, dict_kind="dft", oversampling=4,
                              signal="compressible", sigmas=(0.0,), trials=5,
                              max_iter=8000),
}
EXPERIMENTS = tuple(DEFAULTS)
# the experiments that solve; those with no level column at one level
ONE_LEVEL = ("radar", "dirac-comb", "method-comparison")
SOLVING = (*ONE_LEVEL, "noise-curve")


# ---------------------------------------------------------------------------
# settings


class Setting(NamedTuple):
    """`parse` reads the setting's text; `check(flag, value)` raises a
    ValueError outside its domain; `flag` spells it when that is not --key
    with '-' for '_' (a positional has no '-'); argparse lists `choices`."""

    parse: Callable[[str], Any]
    default: Any = None
    help: str | None = None
    check: Callable[[str, Any], None] | None = None
    flag: str = ""
    choices: list[str] | None = None


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",")) if text.strip() else ()


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _at_least_1(flag: str, v) -> None:
    if v is not None and v < 1:
        raise ValueError(f"{flag} must be >= 1, got {v}")


def _finite_nonnegative(flag: str, v) -> None:
    if v is not None and not (math.isfinite(v) and v >= 0.0):
        raise ValueError(f"{flag} must be finite and >= 0, got {v}")


_DICTIONARY = Setting(str, "gabor", " | ".join(DICTIONARIES),
                      lambda flag, v: _lookup(DICTIONARIES, v, "dictionary kind"))

# ExperimentConfig's fields: the config file's keys, in config.txt order
_CONFIG: dict[str, Setting] = {
    "experiment": Setting(str, "noise-curve", flag="name", choices=list(EXPERIMENTS),
                          check=lambda flag, v: _lookup(DEFAULTS, v, "experiment")),
    "n": Setting(int, 256, "signal length", _at_least_1),
    "m": Setting(int, 100, "number of measurements", _at_least_1),
    "oversampling": Setting(int, 4, "redundancy of the dft dictionary"),
    "sigmas": Setting(_floats, (0.02, 0.05, 0.1, 0.15, 0.25),
                      "comma-separated noise levels, relative to the signal"),
    "trials": Setting(int, 5, check=_at_least_1),
    "rw_iters": Setting(int, 3, "reweighting rounds", _at_least_1),
    "seed": Setting(int, 1),
    "output_dir": Setting(str, ""),
    "dict_kind": _DICTIONARY._replace(flag="--dict"),
    "signal": Setting(str, "radar", " | ".join([*SIGNALS, "path.csv (recover)"])),
    "gabor_sigma": Setting(float, 8.0, "Gaussian window width"),
    "gabor_a": Setting(int, 8, "time step a"),
    "gabor_b": Setting(float, 1.0 / 32.0, "frequency step b: 1/b must be an "
                       "integer Q with a | Q | n (a = --gabor-a)"),
    "pulses": Setting(int, 1, check=_at_least_1),
    "duration": Setting(int, 96, check=_at_least_1),
    "rise_fall": Setting(int, 24),
    "f_lo": Setting(float, 0.05),
    "f_hi": Setting(float, 0.45),
    "q_decay": Setting(float, 1.5, "decay exponent of a compressible signal"),
    "max_iter": Setting(int, 6000, check=lambda flag, v: SolverConfig(max_iter=v)),
    "tol_rel": Setting(float, 1e-5, check=lambda flag, v: SolverConfig(tol_rel=v)),
    "over_relaxation": Setting(
        float, 1.8, check=lambda flag, v: SolverConfig(over_relaxation=v)),
}
# every setting, declared once
SETTINGS: dict[str, Setting] = {
    **_CONFIG,
    "method": Setting(str, choices=list(METHODS)),
    "what": Setting(str, flag="what",
                    choices=["coherence", "drip-mc", "drip-exact", "concentration"]),
    "dict": _DICTIONARY._replace(default="concat-if"),
    "dict2": _DICTIONARY._replace(default="dft", help="second dictionary for a "
                                  "method that takes two: " + _DICTIONARY.help),
    "sensing": Setting(str, "gaussian", choices=list(SENSING)),
    "sigma": Setting(float, 0.0, "noise std dev", _finite_nonnegative),
    "eps": Setting(float, None, "fixed constraint radius (default: realized noise)",
                   _finite_nonnegative),
    "eps_rule": Setting(str, "realized", choices=["realized", "percentile"]),
    "audit_s": Setting(int, None, "lemma-audit sparsity", _at_least_1),
    "s": Setting(_ints, "2", "sparsity level(s), comma-separated"),
    "delta": Setting(float, 0.5),
    "history": Setting(bool, False, "also write per-iteration history.csv"),
    "out": Setting(str, None, "output directory (default: $FRAMECS_OUT or out)"),
    "config": Setting(str, None, "key = value file"),
}
REQUIRED = object()  # a flag default: the flag must be given


def flag(key: str) -> str:
    return SETTINGS[key].flag or "--" + key.replace("_", "-")


def parse_setting(key: str, text: str, where: str = ""):
    """`text` as setting `key`'s value; errors name `where`, the key and `text`."""
    try:
        return SETTINGS[key].parse(text)
    except ValueError as exc:
        raise ValueError(f"{where}{key} = {text}: {exc}") from None


def _flags(keys: str, **defaults) -> dict[str, Any]:
    return {k: defaults.get(k, SETTINGS[k].default) for k in keys.split()}


# each subcommand's flags: setting -> the flag's default.  An experiment's
# flags default to None, so that its config file and DEFAULTS fill them.
RECOVER_FLAGS = _flags(
    "method dict oversampling gabor_sigma gabor_a gabor_b dict2 n m signal "
    "sensing sigma eps eps_rule rw_iters seed audit_s pulses duration rise_fall "
    "f_lo f_hi q_decay max_iter tol_rel over_relaxation history out",
    method=REQUIRED, oversampling=None, n=REQUIRED, m=REQUIRED, signal="dirac",
    pulses=3, duration=128, rise_fall=32, max_iter=20000, tol_rel=1e-6)
EXPERIMENT_FLAGS = dict.fromkeys(
    "experiment config n m trials seed rw_iters sigmas max_iter oversampling "
    "dict_kind signal out".split())
CERTIFY_FLAGS = _flags(
    "what dict oversampling gabor_sigma gabor_a gabor_b n m s trials delta seed "
    "sensing", oversampling=None, n=REQUIRED, m=None, trials=1000)


def _config_class(name: str, doc: str, keys, rule, defaults: bool = False) -> type:
    """A frozen dataclass with a field per setting in `keys`, at its declared
    default if `defaults`; each instance passes each field's check and `rule`."""
    def post_init(self):
        for key in keys:
            if SETTINGS[key].check is not None:
                SETTINGS[key].check(flag(key), getattr(self, key))
        rule(self)

    return make_dataclass(
        name, [(k, Any, field(default=SETTINGS[k].default)) if defaults else (k, Any)
               for k in keys],
        frozen=True,
        namespace={"__doc__": doc, "__module__": __name__, "__post_init__": post_init})


def _experiment_rule(cfg) -> None:
    _lookup(SIGNALS, cfg.signal, "signal kind")
    name, levels = cfg.experiment, ",".join(map(repr, cfg.sigmas))
    if not all(math.isfinite(x) and x >= 0.0 for x in cfg.sigmas):
        raise ValueError(f"{name}: noise levels must be finite and >= 0, "
                         f"got sigmas = {levels}")
    if name in SOLVING and not cfg.sigmas:
        raise ValueError(f"{name} needs a noise level; sigmas is empty")
    if name in ONE_LEVEL and len(cfg.sigmas) > 1:
        raise ValueError(f"{name} takes exactly one noise level (its tables "
                         f"have no level column), got sigmas = {levels}")


def _recover_rule(cfg) -> None:
    if cfg.signal not in SIGNALS and not Path(cfg.signal).is_file():
        raise ValueError(f"signal file not found: {Path(cfg.signal)}")


def _certify_rule(cfg) -> None:
    if cfg.what != "coherence" and cfg.m is None:
        raise ValueError(f"certify {cfg.what} requires --m")


ExperimentConfig = _config_class(
    "ExperimentConfig", "An experiment's settings: DEFAULTS, then the config "
    "file, then flags.", _CONFIG, _experiment_rule, defaults=True)
RecoverConfig = _config_class(
    "RecoverConfig", "framecs recover's flags.", RECOVER_FLAGS, _recover_rule)
CertifyConfig = _config_class(
    "CertifyConfig", "framecs certify's flags.", CERTIFY_FLAGS, _certify_rule)


def default_config(experiment: str) -> ExperimentConfig:
    return ExperimentConfig(experiment=experiment, **DEFAULTS.get(experiment, {}))


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse 'key = value' lines over the experiment's defaults; unknown
    keys are errors, and `overrides` win over the file's values."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = parse_setting(key, raw, f"config line {lineno}: ")
    values.update(overrides)
    # one replace, so every check (the level rule too) sees the resolved config
    return replace(default_config(values.get("experiment", "noise-curve")), **values)


def serialize_config(cfg) -> str:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(map(repr, v))
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def build_dictionary(kind: str, n: int, cfg_like) -> Dictionary:
    return _lookup(DICTIONARIES, kind, "dictionary kind")(n, cfg_like)


def build_sensing(kind: str, m: int, n: int, seed: int) -> SensingOperator:
    return _lookup(SENSING, kind, "sensing kind")(m, n, seed)


def build_signal(kind: str, n: int, D: Dictionary, params, seed: int) -> Signal:
    return _lookup(SIGNALS, kind, "signal kind").build(n, D, params, seed)


def solve(method: str, A: SensingOperator, dicts: tuple[Dictionary, ...], y,
          eps: float, cfg: SolverConfig, rw_iters: int, reference=None,
          audit_s: int | None = None) -> RecoveryReport:
    """The report of `method` on (A, dicts, y, eps); the methods known here
    are those that take len(dicts) dictionaries."""
    known = {k: v for k, v in METHODS.items() if v.dictionaries == len(dicts)}
    return _lookup(known, method, "method").program(
        A, dicts, y, eps, cfg, rw_iters, reference=reference, audit_s=audit_s)


def solver_config(cfg) -> SolverConfig:
    return SolverConfig(max_iter=cfg.max_iter, tol_rel=cfg.tol_rel,
                        over_relaxation=cfg.over_relaxation)


def trial_signal(cfg: ExperimentConfig, D: Dictionary, t: int) -> Signal:
    return build_signal(
        cfg.signal, cfg.n, D, cfg, split_seed(cfg.seed, SIGNAL_STREAM + t)
    )


def trial_sensing(cfg: ExperimentConfig, t: int) -> SensingOperator:
    return gaussian_sensing(cfg.m, cfg.n, split_seed(cfg.seed, SENSING_STREAM + t))


def trial_measure(
    cfg: ExperimentConfig, A: SensingOperator, f: Signal, t: int, li: int
) -> tuple[np.ndarray, float]:
    """Trial t's (y, eps) at level cfg.sigmas[li]: y = A f + z, z of
    standard deviation level * ||A f|| / sqrt(m), eps the realized ||z||.
    Level 0 is the noiseless measurement, eps = 0."""
    af_norm = float(np.linalg.norm(A.apply(f.samples)))
    sigma = cfg.sigmas[li] * af_norm / math.sqrt(cfg.m)
    noise_seed = split_seed(cfg.seed, NOISE_STREAM + li * cfg.trials + t)
    return measure(A, f.samples, sigma, noise_seed)


@dataclass(frozen=True)
class TrialRecord:
    """One (trial, level) cell: its instance and a report per method."""

    t: int
    level: float
    f: Signal
    A: SensingOperator
    y: np.ndarray
    eps: float
    reports: dict[str, RecoveryReport]


def solve_trials(
    cfg: ExperimentConfig, D: Dictionary, methods: tuple[str, ...]
) -> list[TrialRecord]:
    """Every (trial, level) cell solved by each named method under
    solver_config(cfg), trial-major: records[li::len(cfg.sigmas)] are
    level li's trials in order."""
    scfg = solver_config(cfg)
    records = []
    for t in range(cfg.trials):
        f, A = trial_signal(cfg, D, t), trial_sensing(cfg, t)
        for li, level in enumerate(cfg.sigmas):
            y, eps = trial_measure(cfg, A, f, t, li)
            reports = {name: solve(name, A, (D,), y, eps, scfg, cfg.rw_iters)
                       for name in methods}
            records.append(TrialRecord(t, level, f, A, y, eps, reports))
    return records
