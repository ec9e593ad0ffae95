"""Experiment scenarios: the one place trials are built and solved.

Each kind the CLI and the experiments pick by name is spelled once, as a
key of its table: ``DICTIONARIES``, ``SIGNALS``, ``SENSING`` (the CLI's
sensing kinds) and ``METHODS`` (the programs ``solve`` runs).

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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; file values are overridden by flags."""

    experiment: str = "noise-curve"
    n: int = 256
    m: int = 100
    oversampling: int = 4
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

    def __post_init__(self):
        _lookup(DEFAULTS, self.experiment, "experiment")
        _lookup(DICTIONARIES, self.dict_kind, "dictionary kind")
        _lookup(SIGNALS, self.signal, "signal kind")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        name, levels = self.experiment, ",".join(map(repr, self.sigmas))
        if not all(math.isfinite(x) and x >= 0.0 for x in self.sigmas):
            raise ValueError(f"{name}: noise levels must be finite and >= 0, "
                             f"got sigmas = {levels}")
        if name in SOLVING and not self.sigmas:
            raise ValueError(f"{name} needs a noise level; sigmas is empty")
        if name in ONE_LEVEL and len(self.sigmas) > 1:
            raise ValueError(f"{name} takes exactly one noise level (its tables "
                             f"have no level column), got sigmas = {levels}")


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


def default_config(experiment: str) -> ExperimentConfig:
    return ExperimentConfig(experiment=experiment, **DEFAULTS.get(experiment, {}))


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
