"""Test signals and sparsity metrics.

Radar pulse trains (trapezoidal envelopes with random carriers), Dirac
combs, and power-law compressible vectors, plus best s-term truncation
and the error metrics the experiments report.

Frequencies are normalized (cycles/sample); physical units live only in
Signal metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import Dictionary
from .rng import make_rng

__all__ = [
    "Signal",
    "PulseParams",
    "radar_pulse_train",
    "dirac_comb",
    "compressible_signal",
    "best_s_term",
    "metrics",
]


@dataclass(frozen=True)
class Signal:
    """A length-n complex sample vector with optional physical metadata."""

    samples: np.ndarray
    sample_rate: float | None = None
    label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a nonempty 1-d vector")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class PulseParams:
    """Pulse-train shape: trapezoidal envelopes, uniform random carriers."""

    num_pulses: int = 6
    duration: int = 1000
    rise_fall: int = 100
    f_lo: float = 0.01
    f_hi: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_pulses < 1:
            raise ValueError("num_pulses must be >= 1")
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if self.rise_fall < 0 or 2 * self.rise_fall > self.duration:
            raise ValueError("need rise_fall*2 <= duration")
        if not (0.0 <= self.f_lo <= self.f_hi <= 0.5):
            raise ValueError("need 0 <= f_lo <= f_hi <= 1/2")


def trapezoid_envelope(duration: int, rise_fall: int) -> np.ndarray:
    """Unit-height trapezoid: linear ramps of `rise_fall` samples, plateau
    between.  rise_fall = 0 degenerates to a rectangle."""
    t = np.arange(duration, dtype=float)
    if rise_fall == 0:
        return np.ones(duration)
    return np.minimum(1.0, np.minimum(t / rise_fall, (duration - 1 - t) / rise_fall))


def radar_pulse_train(
    n: int,
    p: PulseParams,
    sample_rate: float | None = None,
) -> Signal:
    """Superposition of pulses: trapezoid envelope times a random carrier.

    Each pulse gets a carrier frequency uniform in [f_lo, f_hi] and an
    integer start time uniform in [0, n - duration]; pulses may overlap.
    The samples are the real part of the sum, env * cos(2 pi freq t),
    stored complex with zero imaginary part.
    """
    if p.duration > n:
        raise ValueError(f"pulse duration {p.duration} exceeds signal length {n}")
    rng = make_rng(p.seed)
    env = trapezoid_envelope(p.duration, p.rise_fall)
    t = np.arange(n)
    f = np.zeros(n, dtype=complex)
    for _ in range(p.num_pulses):
        freq = rng.uniform(p.f_lo, p.f_hi)
        start = int(rng.integers(0, n - p.duration + 1))
        carrier = np.exp(2j * np.pi * freq * t[start : start + p.duration])
        f[start : start + p.duration] += env * carrier
    f = f.real.astype(complex)
    return Signal(f, sample_rate=sample_rate, label="radar_pulse_train")


def dirac_comb(n: int) -> Signal:
    """Unit spikes every sqrt(n) samples (positions j*sqrt(n) mod n)."""
    r = math.isqrt(n)
    if r * r != n:
        raise ValueError(f"n = {n} is not a perfect square")
    f = np.zeros(n, dtype=complex)
    f[::r] = 1.0
    return Signal(f, label="dirac_comb")


def compressible_signal(
    D: Dictionary, q: float, seed: int
) -> tuple[np.ndarray, Signal]:
    """Coefficients with |x|_(k) = k^{-q}, random phases and positions.

    Returns (x, f) with f = D x.
    """
    if q <= 0:
        raise ValueError("decay exponent q must be > 0")
    rng = make_rng(seed)
    mags = np.arange(1, D.d + 1, dtype=float) ** (-q)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=D.d))
    x = mags * phases
    x = x[rng.permutation(D.d)]
    f = Signal(D.apply(x), label=f"compressible(q={q:g})")
    return x, f


def best_s_term(x: np.ndarray, s: int) -> np.ndarray:
    """Keep the s largest-magnitude entries, zero the rest.

    Ties break toward the lowest index so the result is deterministic.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    x = np.asarray(x)
    if s >= x.size:
        return x.copy()
    out = np.zeros_like(x)
    if s == 0:
        return out
    order = np.argsort(-np.abs(x), kind="stable")
    keep = order[:s]
    out[keep] = x[keep]
    return out


def metrics(f_hat: np.ndarray | Signal, f: np.ndarray | Signal) -> dict[str, float]:
    """relative_error = ||fhat-f||_2/||f||_2, rmse = ||fhat-f||_2/sqrt(n),
    linf = max |fhat-f|."""
    a = f_hat.samples if isinstance(f_hat, Signal) else np.asarray(f_hat)
    b = f.samples if isinstance(f, Signal) else np.asarray(f)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    err = float(np.linalg.norm(diff))
    ref = float(np.linalg.norm(b))
    if ref == 0.0:
        raise ValueError("relative error undefined for a zero reference signal")
    return {
        "relative_error": err / ref,
        "rmse": err / math.sqrt(b.size),
        "linf": float(np.max(np.abs(diff))) if diff.size else 0.0,
    }
