"""Experiment scenarios: the one place a trial is built.

``DEFAULTS`` holds each experiment's overrides of the ``ExperimentConfig``
field defaults.  ``trial(cfg, D, t, li)`` draws trial t's signal, Gaussian
A and noise from ``cfg.seed``'s streams SIGNAL_STREAM + t, SENSING_STREAM
+ t and NOISE_STREAM + li * trials + t (t, 10_000 + t, 20_000 + li *
trials + t); ``framecs recover`` uses streams 1, 2 and 3.  Past 10,000
trials a signal reuses an earlier trial's sensing stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import (Dictionary, build_concat, build_gabor, build_identity,
                     build_oversampled_dft)
from .rng import split_seed
from .sensing import SensingOperator, from_descriptor, gaussian_sensing, measure
from .signals import (PulseParams, Signal, compressible_signal, dirac_comb,
                      radar_pulse_train)
from .solvers import SolverConfig

SIGNAL_STREAM = 0
SENSING_STREAM = 10_000
NOISE_STREAM = 20_000
RECOVER_SIGNAL_STREAM = 1
RECOVER_SENSING_STREAM = 2
RECOVER_NOISE_STREAM = 3
# every experiment's starting tau/sigma (SolverConfig.step_ratio)
STEP_RATIO = 0.25


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
        if self.experiment not in DEFAULTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from "
                + ", ".join(DEFAULTS)
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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


def default_config(experiment: str) -> ExperimentConfig:
    return ExperimentConfig(experiment=experiment, **DEFAULTS.get(experiment, {}))


def build_dictionary(kind: str, n: int, cfg_like) -> Dictionary:
    if kind == "identity":
        return build_identity(n)
    if kind == "dft":
        c = cfg_like.oversampling
        return build_oversampled_dft(n, 1 if c is None else c)
    if kind == "concat-if":
        return build_concat(
            build_identity(n), build_oversampled_dft(n, 1), 1.0 / math.sqrt(2.0)
        )
    if kind == "gabor":
        return build_gabor(
            n, cfg_like.gabor_sigma, cfg_like.gabor_a, cfg_like.gabor_b
        )
    raise ValueError(
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
    return radar_pulse_train(n, PulseParams(
        num_pulses=params.pulses, duration=params.duration,
        rise_fall=params.rise_fall, f_lo=params.f_lo, f_hi=params.f_hi, seed=seed,
    ))


def solver_config(cfg: ExperimentConfig) -> SolverConfig:
    return SolverConfig(
        max_iter=cfg.max_iter,
        tol_rel=cfg.tol_rel,
        over_relaxation=cfg.over_relaxation,
        step_ratio=STEP_RATIO,
    )


def trial(
    cfg: ExperimentConfig, D: Dictionary, t: int, li: int | None = None
) -> tuple[Signal, SensingOperator, np.ndarray, float]:
    """Trial t's (f, A, y, eps): y = A f + z at noise level cfg.sigmas[li],
    relative to the signal (sigma = level * ||A f|| / sqrt(m)), and eps the
    realized ||z||.  li=None measures without noise, eps = 0."""
    f = build_signal(
        cfg.signal, cfg.n, D, cfg, split_seed(cfg.seed, SIGNAL_STREAM + t)
    )
    A = gaussian_sensing(cfg.m, cfg.n, split_seed(cfg.seed, SENSING_STREAM + t))
    sigma, noise_seed = 0.0, 0
    if li is not None:
        af_norm = float(np.linalg.norm(A.apply(f.samples)))
        sigma = cfg.sigmas[li] * af_norm / math.sqrt(cfg.m)
        noise_seed = split_seed(cfg.seed, NOISE_STREAM + li * cfg.trials + t)
    y, eps = measure(A, f.samples, sigma, noise_seed)
    return f, A, y, eps
